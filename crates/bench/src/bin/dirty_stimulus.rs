//! Detection under dirty stimulus: jitter, duty distortion, droop.
//!
//! The characterization campaigns all assume clean periodic clocks.
//! This bench renders impaired multi-cycle trains with `DirtyClock`
//! (explicit PWL corners — every perturbed edge is a simulator
//! breakpoint by construction) and drives the sensor test bench with a
//! fixed injected skew near twice its flip threshold:
//!
//! * **differential jitter** — independently-seeded cycle-to-cycle
//!   jitter on the two inputs adds a random per-cycle component on top
//!   of the injected skew. Cycles whose effective skew drops under the
//!   threshold go undetected: the per-cycle detection rate falls as the
//!   jitter amplitude approaches the injected skew.
//! * **duty distortion** — narrows/widens the high phase of one input.
//!   A rising-edge sensor must not care (the rising edges are
//!   untouched), so full per-cycle detection is asserted across the
//!   sweep.
//! * **supply droop on the stimulus** — both inputs sag cycle by
//!   cycle. Detection holds while the drooped swing still crosses the
//!   switching thresholds, and the bench records where it breaks.
//!
//! Each transient also audits the breakpoint contract at runtime:
//! every rendered corner time of both trains must appear exactly in
//! the result's time vector (`edges_total == edges_on_grid`). The
//! adaptive marcher is used for exactly that reason — it is the path
//! that would smear edges if they were not declared. At the end of the
//! run the bench asserts a coherent adaptive-timestep scope (all six
//! `tran.*` counters recorded, at least one accepted step, at most two
//! rejections per accepted step) and non-zero edge, simulation and
//! cycle counts.

use clocksense_bench::report::{counter, counter_at_least};
use clocksense_bench::{print_header, ps, scaled, Table};
use clocksense_core::{interpret, ClockPair, SensorBuilder, Technology};
use clocksense_scenarios::{DirtyClock, PulseSpec};
use clocksense_spice::{transient, SimOptions, SolverKind, TimestepControl};

/// Counts `times` values present (to `tol`) in the sorted transient
/// grid. The render/breakpoint contract makes "present" mean *exact up
/// to the `tstep_min` dedup*, hence the tiny tolerance.
fn edges_on_grid(times: &[f64], grid: &[f64], tol: f64) -> u64 {
    times
        .iter()
        .filter(|&&t| {
            let idx = grid.partition_point(|&g| g < t - tol);
            grid.get(idx).is_some_and(|&g| (g - t).abs() <= tol)
        })
        .count() as u64
}

struct CycleTally {
    detected: u64,
    cycles: u64,
}

/// Simulates the sensor bench on a dirty pair and tallies per-cycle
/// detection plus the breakpoint audit.
fn run_pair(
    sensor: &clocksense_core::SensingCircuit,
    a: &DirtyClock,
    b: &DirtyClock,
    skew: f64,
    opts: &SimOptions,
) -> CycleTally {
    let tele = clocksense_telemetry::global().scope("dirty_stimulus");
    let wave_a = a.render().expect("train renders");
    let wave_b = b.render().expect("train renders");
    let bench = sensor
        .testbench_with_waves(wave_a, wave_b)
        .expect("bench builds");
    let t_stop = a.t_stop().max(b.t_stop());
    let result = transient(&bench, t_stop, opts).expect("dirty transient");
    tele.counter("sims_total").incr();

    let mut edge_times = a.edge_times().expect("valid train");
    edge_times.extend(b.edge_times().expect("valid train"));
    edge_times.retain(|&t| t <= t_stop);
    let on_grid = edges_on_grid(&edge_times, result.times(), 2.0 * opts.tstep_min);
    tele.counter("edges_total").add(edge_times.len() as u64);
    tele.counter("edges_on_grid").add(on_grid);
    assert_eq!(
        on_grid,
        edge_times.len() as u64,
        "dirty edges missing from the transient grid"
    );

    let (y1, y2) = sensor.outputs();
    let v_th = sensor.technology().logic_threshold();
    let vdd = sensor.technology().vdd;
    let spec = a.base;
    let mut detected = 0u64;
    let mut cycles = 0u64;
    for k in 0..a.cycles.min(b.cycles) {
        // Strobe cycle k through the clean-cycle window geometry; the
        // jitter excursions are well inside the window slack.
        let clocks = ClockPair {
            vdd,
            delay: spec.delay + k as f64 * spec.period,
            slew: spec.rise,
            width: spec.width,
            period: f64::INFINITY,
            skew,
        };
        if clocks.sim_stop_time() > t_stop {
            break;
        }
        let response = interpret(
            result.waveform(y1),
            result.waveform(y2),
            &clocks,
            sensor.edge(),
            v_th,
        );
        cycles += 1;
        if response.verdict.is_error() {
            detected += 1;
        }
    }
    tele.counter("cycles_total").add(cycles);
    tele.counter("cycles_detected").add(detected);
    CycleTally { detected, cycles }
}

fn main() {
    let bench = clocksense_bench::report::start("dirty_stimulus");
    // The end-of-run assertions read counters, so this bench records
    // telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let tele = &bench.tele;
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(80e-15)
        .build()
        .expect("valid sensor");
    // Adaptive marching: the path that smears undeclared edges.
    let opts = SimOptions {
        solver: SolverKind::Sparse,
        tstep: 2e-12,
        timestep: TimestepControl::Adaptive {
            tstep_max: 20e-12,
            lte_tol: 1.0,
        },
        ..SimOptions::default()
    };

    let cycles = scaled(12, 5);
    // A roomy train: 2 ns high phases leave the strobe window clear of
    // the impairment excursions.
    let base = PulseSpec {
        v1: 0.0,
        v2: tech.vdd,
        delay: 0.3e-9,
        rise: 0.1e-9,
        fall: 0.1e-9,
        width: 2.0e-9,
        period: 5.0e-9,
    };
    let skew = 120e-12;

    print_header(&format!(
        "Per-cycle detection of {} injected skew under dirty stimulus ({cycles} cycles)",
        ps(skew)
    ));
    let mut table = Table::new(&["impairment", "setting", "detected", "cycles"]);

    // Clean reference: every cycle must detect the injected skew.
    let clean = DirtyClock::clean(base, cycles);
    let tally = run_pair(&sensor, &clean, &clean.shifted(skew), skew, &opts);
    assert_eq!(
        tally.detected, tally.cycles,
        "clean train must detect the reference skew on every cycle"
    );
    table.row(&[
        "none".into(),
        "-".into(),
        format!("{}", tally.detected),
        format!("{}", tally.cycles),
    ]);

    // Differential jitter: independent seeds on the two inputs.
    for amp_ps in [20.0, 60.0, 120.0, 180.0] {
        let amp = amp_ps * 1e-12;
        let a = DirtyClock::clean(base, cycles).with_jitter(amp, 11);
        let b = DirtyClock::clean(base, cycles)
            .with_jitter(amp, 97)
            .shifted(skew);
        let tally = run_pair(&sensor, &a, &b, skew, &opts);
        tele.counter(&format!("jitter_{}ps_detected", amp_ps as u64))
            .add(tally.detected);
        table.row(&[
            "jitter".into(),
            ps(amp),
            format!("{}", tally.detected),
            format!("{}", tally.cycles),
        ]);
    }

    // Duty distortion on one input: rising edges untouched.
    for duty in [0.05, 0.15, 0.3] {
        let a = DirtyClock::clean(base, cycles);
        let b = DirtyClock::clean(base, cycles)
            .with_duty_error(-duty)
            .shifted(skew);
        let tally = run_pair(&sensor, &a, &b, skew, &opts);
        assert_eq!(
            tally.detected, tally.cycles,
            "duty distortion of {duty} must not mask a rising-edge skew"
        );
        table.row(&[
            "duty".into(),
            format!("-{:.0}%", duty * 100.0),
            format!("{}", tally.detected),
            format!("{}", tally.cycles),
        ]);
    }

    // Supply droop on both inputs.
    let mut droop_breakdown = None;
    for droop in [0.05, 0.15, 0.3, 0.5] {
        let a = DirtyClock::clean(base, cycles).with_droop(droop, 3.0);
        let b = a.shifted(skew);
        let tally = run_pair(&sensor, &a, &b, skew, &opts);
        if tally.detected < tally.cycles && droop_breakdown.is_none() {
            droop_breakdown = Some(droop);
        }
        table.row(&[
            "droop".into(),
            format!("{:.0}%", droop * 100.0),
            format!("{}", tally.detected),
            format!("{}", tally.cycles),
        ]);
    }
    println!("{}", table.render());
    if let Some(droop) = droop_breakdown {
        println!("droop detection breaks down at {:.0}%", droop * 100.0);
        tele.counter("droop_breakdown_pct")
            .add((droop * 100.0) as u64);
    } else {
        println!("detection held across the whole droop sweep");
    }

    // The adaptive controller's counters must all be registered,
    // whatever their values.
    for name in [
        "tran.lte_step_shrinks",
        "tran.lte_step_growths",
        "tran.breakpoint_clamps",
        "tran.predictor_newton_iters_saved",
    ] {
        counter(name);
    }
    let accepted = counter_at_least("tran.steps_accepted", 1);
    let rejected = counter("tran.steps_rejected");
    assert!(
        rejected <= 2 * accepted,
        "{rejected} rejected vs {accepted} accepted steps: the step controller is thrashing"
    );
    for name in [
        "edges_total",
        "sims_total",
        "cycles_total",
        "cycles_detected",
    ] {
        counter_at_least(&format!("dirty_stimulus.{name}"), 1);
    }

    bench.finish();
}
