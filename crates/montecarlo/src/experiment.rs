//! The Monte-Carlo scatter experiment (paper Fig. 5).

use clocksense_core::{ClockPair, CoreError, SensorBuilder};
use clocksense_exec::Executor;
use clocksense_spice::{transient_cached, SimOptions, SymbolicCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::perturb::perturb_circuit_global;

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of samples.
    pub samples: usize,
    /// Relative uniform spread of every circuit parameter (the paper's
    /// 0.15).
    pub spread: f64,
    /// Uniform range of the two independent input slews (the paper's
    /// 0.1–0.4 ns).
    pub slew_range: (f64, f64),
    /// Master seed; every sample derives its own deterministic stream.
    pub seed: u64,
    /// Simulator options.
    pub sim: SimOptions,
    /// Worker threads (`0` = one per core).
    pub threads: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            samples: 500,
            spread: 0.15,
            slew_range: (0.1e-9, 0.4e-9),
            seed: 0x1997_0317,
            sim: SimOptions {
                tstep: 2e-12,
                ..SimOptions::default()
            },
            threads: 0,
        }
    }
}

/// One Monte-Carlo observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSample {
    /// Injected skew (s).
    pub tau: f64,
    /// Minimum voltage of the late output in the observation window (V).
    pub vmin: f64,
    /// `true` if the response reads as an error indication
    /// (`vmin > V_th`).
    pub detected: bool,
    /// Drawn slew of φ1 (s).
    pub slew1: f64,
    /// Drawn slew of φ2 (s).
    pub slew2: f64,
}

fn one_sample(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    tau: f64,
    cfg: &McConfig,
    index: u64,
    cache: &SymbolicCache,
) -> Result<McSample, CoreError> {
    // Independent, reproducible stream per sample.
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) ^ index);
    let mut sensor = builder.build()?;
    perturb_circuit_global(sensor.circuit_mut(), cfg.spread, &["cl1", "cl2"], &mut rng);
    let (lo, hi) = cfg.slew_range;
    let slew1 = rng.gen_range(lo..=hi);
    let slew2 = rng.gen_range(lo..=hi);

    // The skew tau is defined between the mid-rail crossings of the two
    // edges — the instant the clocked elements actually see. With
    // independent slews the pulse-start offset must compensate for the
    // mid-ramp difference, otherwise slew mismatch aliases into skew.
    let start_offset = tau + 0.5 * (slew1 - slew2);
    let clocks = clocks.with_skew(start_offset);
    let bench = sensor.testbench_with_slews(&clocks, slew1, slew2)?;
    let t_stop = sensor.observation_stop(&clocks, &cfg.sim);
    let result = transient_cached(&bench, t_stop, &cfg.sim, cache)?;
    let (y1, y2) = sensor.outputs();
    let v_th = sensor.technology().logic_threshold();
    let response = clocksense_core::interpret(
        result.waveform(y1),
        result.waveform(y2),
        &clocks,
        sensor.edge(),
        v_th,
    );
    // An indication on either output counts: under variation the residual
    // asymmetry can put the indication on the "wrong" side near tau = 0.
    let vmin = response.vmin_y1.max(response.vmin_y2);
    Ok(McSample {
        tau,
        vmin,
        detected: vmin > v_th,
        slew1,
        slew2,
    })
}

/// Runs the Fig. 5 scatter: `cfg.samples` perturbed circuits, each
/// simulated at one skew from `taus` (cycled in order, so every skew value
/// receives an equal share of samples).
///
/// Each sample is a transient to
/// [`SensingCircuit::observation_stop`](clocksense_core::SensingCircuit::observation_stop):
/// the sample reads only V_min and the verdict, which match those of a
/// run to [`ClockPair::sim_stop_time`] bit for bit.
///
/// # Errors
///
/// Propagates construction/simulation errors from any sample (first in
/// sample order); rejects an empty `taus` list. A worker panic is
/// contained by the executor and surfaces as
/// [`CoreError::WorkerPanic`] for that sample instead of aborting the
/// process.
pub fn run_scatter(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    taus: &[f64],
    cfg: &McConfig,
) -> Result<Vec<McSample>, CoreError> {
    if taus.is_empty() {
        return Err(CoreError::InvalidParameter(
            "tau list must not be empty".to_string(),
        ));
    }
    // Every perturbed sample is a value-only variant of one topology, so
    // with the sparse backend the whole scatter shares a single symbolic
    // analysis through this cache (the dense backend ignores it).
    let cache = SymbolicCache::new();
    let samples = scatter_records(cfg.samples, cfg.threads, |i| {
        let tau = taus[i % taus.len()];
        one_sample(builder, clocks, tau, cfg, i as u64, &cache)
    });
    if let Ok(samples) = &samples {
        let detected = samples.iter().filter(|s| s.detected).count();
        clocksense_telemetry::global()
            .scope("montecarlo")
            .counter("detected")
            .add(detected as u64);
    }
    samples
}

/// Runs `sample` for every index through the shared executor and applies
/// the scatter's error policy: the first per-sample error (in sample
/// order) aborts the run, and a panicking sample is converted into
/// [`CoreError::WorkerPanic`] rather than poisoning the whole batch.
///
/// Factored out of [`run_scatter`] so the panic policy is testable with an
/// injected sampler.
fn scatter_records(
    n: usize,
    threads: usize,
    sample: impl Fn(usize) -> Result<McSample, CoreError> + Sync,
) -> Result<Vec<McSample>, CoreError> {
    let tele = clocksense_telemetry::global().scope("montecarlo");
    let samples_run = tele.counter("samples");
    let outcomes = Executor::new(threads).with_telemetry(tele).run(n, sample);
    samples_run.add(n as u64);
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(result) => result,
            Err(panic) => Err(CoreError::WorkerPanic(panic.message)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_core::Technology;
    use clocksense_spice::{SolverKind, TimestepControl};

    fn quick_cfg(samples: usize) -> McConfig {
        McConfig {
            samples,
            sim: SimOptions {
                tstep: 4e-12,
                ..SimOptions::default()
            },
            ..McConfig::default()
        }
    }

    #[test]
    fn scatter_is_deterministic_and_covers_taus() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.0, 0.3e-9];
        let a = run_scatter(&builder, &clocks, &taus, &quick_cfg(4)).unwrap();
        let b = run_scatter(&builder, &clocks, &taus, &quick_cfg(4)).unwrap();
        assert_eq!(a, b, "same seed, same results");
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().filter(|s| s.tau == 0.0).count(), 2);
        // Large skews stay detected even under parameter variation. Zero
        // skew may produce marginal false indications (that is exactly the
        // p_false of Tab. 1), but its V_min stays well below a genuinely
        // blocked output.
        for s in &a {
            if s.tau == 0.0 {
                assert!(s.vmin < 3.5, "zero-skew vmin implausibly high: {s:?}");
            } else {
                assert!(s.detected, "0.3 ns skew lost: {s:?}");
            }
        }
    }

    /// Sparse, fixed-step options: the ones under which a batch width
    /// would pack lanes.
    fn sparse_cfg(samples: usize) -> McConfig {
        let mut cfg = quick_cfg(samples);
        cfg.sim.solver = SolverKind::Sparse;
        cfg.sim.timestep = TimestepControl::Fixed;
        cfg
    }

    #[test]
    fn batch_width_does_not_reach_the_scatter() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.0, 0.3e-9];
        let cfg = sparse_cfg(10);
        let scalar = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        let mut wide_cfg = cfg.clone();
        wide_cfg.sim.batch = 8;
        let wide = run_scatter(&builder, &clocks, &taus, &wide_cfg).unwrap();
        assert_eq!(scalar, wide);
        for (s, w) in scalar.iter().zip(&wide) {
            assert_eq!(s.vmin.to_bits(), w.vmin.to_bits());
        }
    }

    #[test]
    fn slews_are_drawn_from_the_range() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(80e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let samples = run_scatter(&builder, &clocks, &[0.05e-9], &quick_cfg(6)).unwrap();
        for s in &samples {
            assert!((0.1e-9..=0.4e-9).contains(&s.slew1));
            assert!((0.1e-9..=0.4e-9).contains(&s.slew2));
        }
        // Independent draws: not all equal.
        assert!(samples.iter().any(|s| (s.slew1 - s.slew2).abs() > 1e-12));
    }

    #[test]
    fn empty_taus_is_an_error() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        assert!(run_scatter(&builder, &clocks, &[], &quick_cfg(1)).is_err());
    }

    #[test]
    fn a_panicking_sample_becomes_a_worker_panic_error() {
        let dummy = McSample {
            tau: 0.0,
            vmin: 0.0,
            detected: false,
            slew1: 0.2e-9,
            slew2: 0.2e-9,
        };
        let err = scatter_records(5, 2, |i| {
            if i == 3 {
                panic!("injected sampler panic");
            }
            Ok(dummy)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("injected sampler panic"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // A run with no panics is unaffected.
        let ok = scatter_records(5, 2, |_| Ok(dummy)).unwrap();
        assert_eq!(ok.len(), 5);
    }
}
