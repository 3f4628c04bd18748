//! The observation horizon is exact: a sensor transient stopped at
//! `SensingCircuit::observation_stop` records a bit-identical prefix of
//! the run to `ClockPair::sim_stop_time`, and everything read off the
//! observation window (V_min, V_max, the strobe verdict) is equal bit for
//! bit. `sweep_vmin` and `find_tau_min`, which stop at the horizon, return
//! exactly what a loop over full-horizon `simulate` calls returns.

use clocksense::core::{
    find_tau_min, interpret, sweep_vmin, ClockEdge, ClockPair, SensingCircuit, SensorBuilder,
    SensorResponse, SkewSample, Technology,
};
use clocksense::spice::{transient, SimOptions, TimestepControl, TranResult};
use proptest::prelude::*;

fn fixed() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    }
}

fn adaptive() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        timestep: TimestepControl::Adaptive {
            tstep_max: 100e-12,
            lte_tol: 0.1,
        },
        ..SimOptions::default()
    }
}

fn sensor(load: f64, edge: ClockEdge) -> SensingCircuit {
    SensorBuilder::new(Technology::cmos12())
        .load_capacitance(load)
        .edge(edge)
        .build()
        .expect("valid sensor")
}

fn read(sensor: &SensingCircuit, clocks: &ClockPair, run: &TranResult) -> SensorResponse {
    let (y1, y2) = sensor.outputs();
    interpret(
        run.waveform(y1),
        run.waveform(y2),
        clocks,
        sensor.edge(),
        sensor.technology().logic_threshold(),
    )
}

/// The bit patterns of everything a response reads off the window.
fn window_bits(r: &SensorResponse) -> ([u64; 4], String) {
    (
        [r.vmin_y1, r.vmin_y2, r.vmax_y1, r.vmax_y2].map(f64::to_bits),
        r.verdict.to_string(),
    )
}

fn sample_bits(s: &[SkewSample]) -> Vec<(u64, u64, bool)> {
    s.iter()
        .map(|s| (s.tau.to_bits(), s.vmin.to_bits(), s.detected))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Checks 1 and 2: prefix samples and window readings, for both
    /// edges, both pacings, and skews of either sign.
    #[test]
    fn horizon_run_is_an_exact_prefix(
        load in 40e-15f64..300e-15,
        slew in 0.1e-9f64..0.4e-9,
        tau in 0.0f64..0.5e-9,
        phi1_late in any::<bool>(),
        falling in any::<bool>(),
        lte in any::<bool>(),
    ) {
        let edge = if falling { ClockEdge::Falling } else { ClockEdge::Rising };
        let opts = if lte { adaptive() } else { fixed() };
        let sensor = sensor(load, edge);
        let skew = if phi1_late { -tau } else { tau };
        let clocks = ClockPair::single_shot(5.0, slew).with_skew(skew);
        let bench = sensor.testbench(&clocks).expect("bench");

        let horizon = sensor.observation_stop(&clocks, &opts);
        prop_assert!(horizon < clocks.sim_stop_time(), "horizon must cut the run");
        let short = transient(&bench, horizon, &opts).expect("horizon run");
        let full = transient(&bench, clocks.sim_stop_time(), &opts).expect("full run");
        let r_short = read(&sensor, &clocks, &short);
        let r_full = read(&sensor, &clocks, &full);

        // The window read by `interpret`: the dual strobes at its end.
        let window_end = match edge {
            ClockEdge::Rising => clocks.window_end(),
            ClockEdge::Falling => r_full.strobe_time,
        };
        let (ts, tf) = (short.times(), full.times());
        let past = tf
            .iter()
            .position(|&t| t > window_end)
            .expect("full run passes the window");
        prop_assert!(ts.len() > past, "horizon run ends before the first sample past the window");
        let (y1, y2) = sensor.outputs();
        let series = |run: &TranResult| {
            let (w1, w2) = (run.waveform(y1), run.waveform(y2));
            (0..=past)
                .map(|i| {
                    let bits = |v: &[f64]| v[i].to_bits();
                    (bits(run.times()), bits(w1.values()), bits(w2.values()))
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(series(&short), series(&full), "samples through the first past the window");
        prop_assert_eq!(window_bits(&r_short), window_bits(&r_full));
    }
}

/// Check 3: the horizon path of the library's sweeps returns exactly what
/// a full-horizon `simulate` loop returns.
#[test]
fn sweeps_match_a_full_horizon_simulate_loop() {
    let taus = [-0.15e-9, 0.0, 0.08e-9, 0.12e-9, 0.3e-9];
    for (load, slew, edge, opts) in [
        (160e-15, 0.2e-9, ClockEdge::Rising, fixed()),
        (90e-15, 0.35e-9, ClockEdge::Rising, adaptive()),
        (240e-15, 0.1e-9, ClockEdge::Falling, fixed()),
        (120e-15, 0.25e-9, ClockEdge::Falling, adaptive()),
    ] {
        let sensor = sensor(load, edge);
        let clocks = ClockPair::single_shot(5.0, slew);
        let v_th = sensor.technology().logic_threshold();
        let simulate = |tau: f64| {
            sensor
                .simulate(&clocks.with_skew(tau), &opts)
                .expect("full run")
        };

        let want: Vec<SkewSample> = taus
            .iter()
            .map(|&tau| {
                let vmin = simulate(tau).vmin_late(tau);
                SkewSample {
                    tau,
                    vmin,
                    detected: vmin > v_th,
                }
            })
            .collect();
        let got = sweep_vmin(&sensor, &clocks, &taus, &opts).expect("sweep");
        assert_eq!(sample_bits(&got), sample_bits(&want), "{edge:?} {opts:?}");

        // The library's bisection, replayed on full-horizon verdicts.
        let (tau_hi, tolerance) = (0.6e-9, 30e-12);
        let detected = |tau: f64| simulate(tau).verdict.is_error();
        let want = detected(tau_hi).then(|| {
            let (mut lo, mut hi) = (0.0, tau_hi);
            while hi - lo > tolerance {
                let mid = 0.5 * (lo + hi);
                if detected(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            0.5 * (lo + hi)
        });
        let got = find_tau_min(&sensor, &clocks, tau_hi, tolerance, &opts).expect("bisection");
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{edge:?} {opts:?}"
        );
    }
}
