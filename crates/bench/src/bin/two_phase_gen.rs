//! The sensor against *generated* two-phase non-overlapping clocks.
//!
//! Every earlier experiment drove the sensing circuit with ideal,
//! hand-placed φ1/φ2 pulses. This bench swaps in the output of a
//! modeled two-phase non-overlap generator (`TwoPhaseSpec`):
//!
//! 1. **Generator honesty** — for a sweep of programmed margins (an
//!    overlapping, a tight and two comfortable generators) the
//!    threshold-crossing gap of the rendered waveforms is *measured* by
//!    sampling and compared against the closed-form
//!    `non_overlap + frac (rise + fall)`. Any disagreement beyond the
//!    sampling resolution counts into
//!    `two_phase_gen.margin_violations`, which must stay 0.
//! 2. **Detection flip sweep** — for each margin, copies of the
//!    generated φ1 with injected skew drive the sensor test bench, and
//!    the minimum detected skew is located by bisection in both
//!    directions. The paper's claim that detection depends on edge
//!    timing, not on the idle gap, shows up directly: the flip
//!    threshold stays put while the margin varies by 5x.
//!
//! `--report <path>` archives margins, gaps and flip thresholds.

use clocksense_bench::report::counter_at_least;
use clocksense_bench::{print_header, ps, scaled, Table};
use clocksense_core::{interpret, SensorBuilder, SkewVerdict, Technology};
use clocksense_scenarios::TwoPhaseSpec;
use clocksense_spice::{transient, SimOptions, SolverKind};

/// The sensor's verdict for `skew` injected between two copies of the
/// generated phase-1 train.
fn verdict_at(
    sensor: &clocksense_core::SensingCircuit,
    spec: &TwoPhaseSpec,
    skew: f64,
    opts: &SimOptions,
) -> SkewVerdict {
    let tele = clocksense_telemetry::global().scope("two_phase_gen");
    let (phi1, phi2) = spec.sensor_pair(skew).expect("skew in range");
    let bench = sensor
        .testbench_with_waves(phi1, phi2)
        .expect("bench builds");
    let clocks = spec.clock_pair(skew);
    let result = transient(&bench, clocks.sim_stop_time(), opts).expect("bench transient");
    let (y1, y2) = sensor.outputs();
    tele.counter("sims_total").incr();
    interpret(
        result.waveform(y1),
        result.waveform(y2),
        &clocks,
        sensor.edge(),
        sensor.technology().logic_threshold(),
    )
    .verdict
}

/// Bisects the smallest |skew| (of `sign`) the sensor flags, between 0
/// and half the phase width.
fn flip_threshold(
    sensor: &clocksense_core::SensingCircuit,
    spec: &TwoPhaseSpec,
    sign: f64,
    iters: usize,
    opts: &SimOptions,
) -> f64 {
    let mut lo = 0.0;
    let mut hi = 0.5 * spec.width;
    assert!(
        verdict_at(sensor, spec, sign * hi, opts).is_error(),
        "sweep ceiling {} must be detectable",
        ps(hi)
    );
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if verdict_at(sensor, spec, sign * mid, opts).is_error() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

fn main() {
    let bench = clocksense_bench::report::start("two_phase_gen");
    // The end-of-run assertions read counters, so this bench records
    // telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let tele = &bench.tele;
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(80e-15)
        .build()
        .expect("valid sensor");
    let opts = SimOptions {
        solver: SolverKind::Sparse,
        tstep: 2e-12,
        ..SimOptions::default()
    };

    // One broken (overlapping) generator, one tight, two comfortable.
    let margins = [-0.12e-9, 0.05e-9, 0.15e-9, 0.25e-9];
    let iters = scaled(10, 5);

    print_header("Two-phase generator gap: measured vs analytic");
    let mut gap_table = Table::new(&["margin", "frac", "analytic gap", "measured gap", "error"]);
    let mut violations = 0u64;
    for &margin in &margins {
        let spec = TwoPhaseSpec::new(tech.vdd, margin);
        for frac in [0.3, 0.5, 0.7] {
            let analytic = spec.analytic_gap(frac);
            let measured = spec.measured_gap(frac).expect("valid generator");
            let err = (measured - analytic).abs();
            tele.counter("margin_checks").incr();
            // The sampling cross-check resolves ~0.2 ps; anything past
            // 1 ps means the generator's closed form is wrong.
            if err > 1e-12 {
                violations += 1;
            }
            gap_table.row(&[
                ps(margin),
                format!("{frac:.1}"),
                ps(analytic),
                ps(measured),
                ps(err),
            ]);
        }
    }
    println!("{}", gap_table.render());
    tele.counter("margin_violations").add(violations);
    assert_eq!(violations, 0, "generator gap model disagrees with render");

    print_header("Detection flip threshold vs generator margin");
    let mut flip_table = Table::new(&["margin", "period", "flip +skew", "flip -skew"]);
    let mut thresholds = Vec::new();
    for &margin in &margins {
        let spec = TwoPhaseSpec::new(tech.vdd, margin);
        let up = flip_threshold(&sensor, &spec, 1.0, iters, &opts);
        let down = flip_threshold(&sensor, &spec, -1.0, iters, &opts);
        tele.counter("flip_points_located").add(2);
        thresholds.push(up);
        flip_table.row(&[ps(margin), ps(spec.period()), ps(up), ps(down)]);
    }
    println!("{}", flip_table.render());

    // The flip threshold is a property of the sensor and the edges, not
    // of the generator margin: across a 5x margin sweep it must not
    // move by more than the bisection resolution.
    let lo = thresholds.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = thresholds.iter().cloned().fold(0.0f64, f64::max);
    let resolution = 0.5 * TwoPhaseSpec::new(tech.vdd, 0.0).width / (1u64 << iters) as f64;
    assert!(
        hi - lo <= 2.0 * resolution + 1e-12,
        "flip threshold moved with margin: {} .. {}",
        ps(lo),
        ps(hi)
    );
    tele.counter("threshold_spread_fs")
        .add(((hi - lo) * 1e15) as u64);

    counter_at_least("two_phase_gen.margin_checks", 1);
    counter_at_least("two_phase_gen.sims_total", 1);
    counter_at_least("two_phase_gen.flip_points_located", 2);

    bench.finish();
}
