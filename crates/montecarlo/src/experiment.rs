//! The Monte-Carlo scatter experiment (paper Fig. 5).

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use clocksense_core::{ClockPair, CoreError, SensingCircuit, SensorBuilder};
use clocksense_exec::Executor;
use clocksense_faults::checkpoint::{parse_f64_bits, sim_options_fingerprint, Journal, TAG_MC};
use clocksense_netlist::{canonical_form, f64_bits, fnv1a, Circuit, FNV_OFFSET};
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
    /// Path of the checkpoint journal, shared with the fault-campaign
    /// format ([`clocksense_faults::checkpoint`]). When set, finished
    /// samples are journalled under a canonical content hash (perturbed
    /// bench + options + drawn parameters) and replayed on the next run
    /// instead of re-simulated. `None` (the default) runs without any
    /// journal I/O.
    pub checkpoint: Option<PathBuf>,
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
            checkpoint: None,
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

/// Everything a drawn sample needs besides its simulated waveforms:
/// the perturbed sensor (for output nodes, threshold, edge), its
/// skew-compensated clocks, and the drawn parameters.
struct PreparedSample {
    sensor: SensingCircuit,
    clocks: ClockPair,
    tau: f64,
    slew1: f64,
    slew2: f64,
}

/// Draws sample `index`'s perturbation and slews and builds its bench.
/// Split from the simulation so the checkpoint replay can hash a
/// sample's bench without simulating it.
fn prepare_sample(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    tau: f64,
    cfg: &McConfig,
    index: u64,
) -> Result<(Circuit, PreparedSample), CoreError> {
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
    Ok((
        bench,
        PreparedSample {
            sensor,
            clocks,
            tau,
            slew1,
            slew2,
        },
    ))
}

fn one_sample(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    tau: f64,
    cfg: &McConfig,
    index: u64,
    cache: &SymbolicCache,
) -> Result<McSample, CoreError> {
    let (bench, p) = prepare_sample(builder, clocks, tau, cfg, index)?;
    let result = transient_cached(&bench, p.clocks.sim_stop_time(), &cfg.sim, cache)?;
    let (y1, y2) = p.sensor.outputs();
    let v_th = p.sensor.technology().logic_threshold();
    let response = clocksense_core::interpret(
        result.waveform(y1),
        result.waveform(y2),
        &p.clocks,
        p.sensor.edge(),
        v_th,
    );
    // An indication on either output counts: under variation the residual
    // asymmetry can put the indication on the "wrong" side near tau = 0.
    let vmin = response.vmin_y1.max(response.vmin_y2);
    Ok(McSample {
        tau: p.tau,
        vmin,
        detected: vmin > v_th,
        slew1: p.slew1,
        slew2: p.slew2,
    })
}

/// Runs the Fig. 5 scatter: `cfg.samples` perturbed circuits, each
/// simulated at one skew from `taus` (cycled in order, so every skew value
/// receives an equal share of samples).
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
    let samples = if let Some(path) = &cfg.checkpoint {
        scatter_checkpointed(builder, clocks, taus, cfg, path, &cache)
    } else {
        scatter_records(cfg.samples, cfg.threads, |i| {
            let tau = taus[i % taus.len()];
            one_sample(builder, clocks, tau, cfg, i as u64, &cache)
        })
    };
    if let Ok(samples) = &samples {
        let detected = samples.iter().filter(|s| s.detected).count();
        clocksense_telemetry::global()
            .scope("montecarlo")
            .counter("detected")
            .add(detected as u64);
    }
    samples
}

/// Serialises one finished [`McSample`] into journal fields:
/// `[tau, vmin, detected, slew1, slew2]`, floats as exact bit patterns.
fn encode_mc_sample(s: &McSample) -> Vec<String> {
    vec![
        f64_bits(s.tau),
        f64_bits(s.vmin),
        if s.detected { "1" } else { "0" }.to_string(),
        f64_bits(s.slew1),
        f64_bits(s.slew2),
    ]
}

/// Reconstructs an [`McSample`] from journal fields, cross-checking the
/// stored drawn parameters against what this run drew for the slot — a
/// hash collision or aliased entry decodes to `None` and becomes a memo
/// miss, never a wrong observation.
fn decode_mc_sample(fields: &[String], p: &PreparedSample) -> Option<McSample> {
    if fields.len() != 5 {
        return None;
    }
    let tau = parse_f64_bits(&fields[0])?;
    let vmin = parse_f64_bits(&fields[1])?;
    let detected = match fields[2].as_str() {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let slew1 = parse_f64_bits(&fields[3])?;
    let slew2 = parse_f64_bits(&fields[4])?;
    let same = tau.to_bits() == p.tau.to_bits()
        && slew1.to_bits() == p.slew1.to_bits()
        && slew2.to_bits() == p.slew2.to_bits();
    same.then_some(McSample {
        tau,
        vmin,
        detected,
        slew1,
        slew2,
    })
}

/// Canonical content hash of one scatter sample: the perturbed test
/// bench's canonical form chained with everything else that decides the
/// observation — solver options, the master seed and spread (the drawn
/// parameters' provenance), the drawn skew/slews, the stop time and the
/// detection threshold. Thread count and scheduling are excluded;
/// results are thread-count invariant by design.
fn sample_hash(bench: &Circuit, p: &PreparedSample, cfg: &McConfig) -> u64 {
    let h = fnv1a(FNV_OFFSET, canonical_form(bench).as_bytes());
    let extra = format!(
        "{}|mc;seed={};spread={};tau={};slew1={};slew2={};t_stop={};v_th={}",
        sim_options_fingerprint(&cfg.sim),
        cfg.seed,
        f64_bits(cfg.spread),
        f64_bits(p.tau),
        f64_bits(p.slew1),
        f64_bits(p.slew2),
        f64_bits(p.clocks.sim_stop_time()),
        f64_bits(p.sensor.technology().logic_threshold()),
    );
    fnv1a(h, extra.as_bytes())
}

/// [`run_scatter`] with a checkpoint journal: replays journalled samples
/// as memo hits and simulates only the remainder, journalling each fresh
/// observation as it completes so an interrupted scatter resumes where
/// it died.
fn scatter_checkpointed(
    builder: &SensorBuilder,
    clocks: &ClockPair,
    taus: &[f64],
    cfg: &McConfig,
    path: &Path,
    cache: &SymbolicCache,
) -> Result<Vec<McSample>, CoreError> {
    let n = cfg.samples;
    let checkpoint_err =
        |e: std::io::Error| CoreError::Checkpoint(format!("{}: {e}", path.display()));
    let journal = Journal::open(path).map_err(checkpoint_err)?;
    // Replay pass: hash every slot (preparing a bench is cheap next to a
    // transient solve) and pull finished observations from the journal.
    let mut hashes = Vec::with_capacity(n);
    let mut replayed: Vec<Option<McSample>> = Vec::with_capacity(n);
    for i in 0..n {
        let tau = taus[i % taus.len()];
        let (bench, p) = prepare_sample(builder, clocks, tau, cfg, i as u64)?;
        let hash = sample_hash(&bench, &p, cfg);
        let hit = journal
            .lookup(hash, TAG_MC)
            .and_then(|fields| decode_mc_sample(fields, &p));
        hashes.push(hash);
        replayed.push(hit);
    }
    let fresh: Vec<usize> = (0..n).filter(|&i| replayed[i].is_none()).collect();
    let hits = n - fresh.len();
    let ckpt = clocksense_telemetry::global().scope("checkpoint");
    ckpt.counter("items_total").add(n as u64);
    ckpt.counter("memo_hits").add(hits as u64);
    ckpt.counter("memo_misses").add(fresh.len() as u64);
    ckpt.counter("records_replayed").add(hits as u64);

    let journal = Mutex::new(journal);
    let append = |i: usize, s: &McSample| -> Result<(), CoreError> {
        journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(hashes[i], TAG_MC, &encode_mc_sample(s))
            .map_err(checkpoint_err)
    };
    let tele = clocksense_telemetry::global().scope("montecarlo");
    let samples_run = tele.counter("samples");
    let fresh_results: Vec<Result<McSample, CoreError>> = Executor::new(cfg.threads)
        .with_telemetry(tele)
        .run_indexed(&fresh, |i| {
            let tau = taus[i % taus.len()];
            let sample = one_sample(builder, clocks, tau, cfg, i as u64, cache)?;
            append(i, &sample)?;
            Ok(sample)
        })
        .into_iter()
        .map(|outcome| match outcome {
            Ok(result) => result,
            Err(panic) => Err(CoreError::WorkerPanic(panic.message)),
        })
        .collect();
    samples_run.add(fresh.len() as u64);
    let mut fresh_iter = fresh_results.into_iter();
    (0..n)
        .map(|i| match replayed[i].take() {
            Some(sample) => Ok(sample),
            None => fresh_iter.next().ok_or_else(|| {
                // One fresh result exists per miss by construction;
                // running dry means the replay desynchronised from the
                // sample list.
                CoreError::Checkpoint("journal replay out of sync with scatter samples".to_string())
            })?,
        })
        .collect()
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
    fn checkpointed_scatter_resumes_and_memoizes() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.0, 0.3e-9];
        let path =
            std::env::temp_dir().join(format!("clocksense_mc_ckpt_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = quick_cfg(4);
        let golden = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        let ckpt_cfg = McConfig {
            checkpoint: Some(path.clone()),
            threads: 1,
            ..cfg
        };
        let full = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(full, golden, "checkpointing must not change observations");
        assert_eq!(Journal::open(&path).unwrap().len(), 4);
        // Kill at 50%: keep the header and the first two records.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(resumed, golden, "resume must be byte-identical");
        assert_eq!(Journal::open(&path).unwrap().len(), 4);
        // Unchanged re-run: pure memo hits, no journal growth.
        let rerun = run_scatter(&builder, &clocks, &taus, &ckpt_cfg).unwrap();
        assert_eq!(rerun, golden);
        assert_eq!(Journal::open(&path).unwrap().len(), 4);
        // A different seed moves every sample's hash: full re-simulation.
        let moved = McConfig {
            seed: ckpt_cfg.seed ^ 1,
            ..ckpt_cfg
        };
        run_scatter(&builder, &clocks, &taus, &moved).unwrap();
        assert_eq!(Journal::open(&path).unwrap().len(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_scatter_at_batch_width_resumes_byte_identical() {
        let tech = Technology::cmos12();
        let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let taus = [0.3e-9];
        let path = std::env::temp_dir().join(format!(
            "clocksense_mc_ckpt_wide_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = sparse_cfg(10);
        cfg.sim.batch = 8;
        cfg.threads = 1;
        cfg.checkpoint = Some(path.clone());
        let golden = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        assert_eq!(Journal::open(&path).unwrap().len(), 10);
        // Tear mid-journal: the header and nine records survive, so
        // exactly the tenth sample re-runs and is re-appended.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(10).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run_scatter(&builder, &clocks, &taus, &cfg).unwrap();
        assert_eq!(resumed, golden, "resume must be byte-identical");
        for (r, g) in resumed.iter().zip(&golden) {
            assert_eq!(r.vmin.to_bits(), g.vmin.to_bits());
        }
        assert_eq!(Journal::open(&path).unwrap().len(), 10);
        let _ = std::fs::remove_file(&path);
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
