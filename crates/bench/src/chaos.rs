//! Chaos invariant checker: randomized kill schedules against the
//! campaign/checkpoint/batch machinery.
//!
//! Each *schedule* samples one injection from the seeded chaos space
//! ([`ChaosPlan::sample`]) and drives the subsystem that owns the
//! injection site through a full run while armed, then checks the
//! durability contracts of the checkpoint and batch layers:
//!
//! * **No lost or duplicated verdicts** — every fault id in the campaign
//!   gets exactly one final record, in order, whatever was injected.
//! * **Byte-identical resume** — after a killed flush or load-time
//!   journal corruption, a clean rerun over the same journal reproduces
//!   the uninterrupted campaign byte for byte.
//! * **No cross-lane contamination** — a NaN/Inf-poisoned batch lane
//!   drops out to the scalar rescue path and every variant still matches
//!   the clean run to 1e-9.
//!
//! Violations are tallied per class and reported as counters under the
//! caller's scope; the `chaos_torture` binary asserts the tally clean.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use clocksense_chaos::{ChaosPlan, Injection, SplitMix64};
use clocksense_core::{ClockPair, SensingCircuit, SensorBuilder, Technology};
use clocksense_faults::{
    run_campaign, CampaignConfig, CampaignResult, DetectionOutcome, Fault, FaultError, StuckLevel,
};
use clocksense_netlist::{Circuit, SourceWave, GROUND};
use clocksense_spice::{transient_batch, SimOptions, SolverKind, SymbolicCache};
use clocksense_telemetry::Scope;

/// Aggregated outcome of a torture run.
#[derive(Debug, Default)]
pub struct TortureTally {
    /// Schedules executed.
    pub schedules: u64,
    /// Injections that actually fired (site reached while armed).
    pub fired: u64,
    /// Injections whose site was never reached.
    pub suppressed: u64,
    /// Campaign records missing, out of order or for the wrong fault.
    pub verdicts_lost: u64,
    /// Campaign record counts above the fault universe size.
    pub verdicts_duplicated: u64,
    /// A fault's verdict silently changed without a structured failure.
    pub verdict_flips: u64,
    /// Clean reruns over a survivor journal that failed to reproduce the
    /// uninterrupted campaign byte for byte.
    pub resume_mismatches: u64,
    /// Batch variants that drifted from the clean run under lane poison.
    pub lane_contaminations: u64,
    /// Benign, contract-respecting degradations (inconclusive verdicts
    /// carrying a structured failure under forced panics/deadlines).
    pub structured_degradations: u64,
    /// Human-readable descriptions of every violation found.
    pub violations: Vec<String>,
}

impl TortureTally {
    /// `true` when no durability contract was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records the tally as counters under `tele`.
    pub fn record(&self, tele: &Scope) {
        tele.counter("schedules_total").add(self.schedules);
        tele.counter("schedules_fired").add(self.fired);
        tele.counter("schedules_suppressed").add(self.suppressed);
        tele.counter("verdicts_lost").add(self.verdicts_lost);
        tele.counter("verdicts_duplicated")
            .add(self.verdicts_duplicated);
        tele.counter("verdict_flips").add(self.verdict_flips);
        tele.counter("resume_mismatches")
            .add(self.resume_mismatches);
        tele.counter("lane_contaminations")
            .add(self.lane_contaminations);
        tele.counter("structured_degradations")
            .add(self.structured_degradations);
    }
}

/// The campaign fixture every checkpoint/executor schedule runs against:
/// a small sensor fault universe plus its golden (chaos-free) results.
struct CampaignFixture {
    sensor: SensingCircuit,
    faults: Vec<Fault>,
    cfg: CampaignConfig,
    golden: CampaignResult,
    golden_text: String,
    /// Bytes of the journal after an uninterrupted checkpointed run —
    /// the seed state for load-time corruption schedules.
    pristine_journal: Vec<u8>,
}

impl CampaignFixture {
    fn build(tag: &str) -> CampaignFixture {
        let sensor = SensorBuilder::new(Technology::cmos12())
            .load_capacitance(160e-15)
            .build()
            .expect("reference sensor builds");
        let faults = vec![
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::One,
            },
            Fault::StuckOn {
                device: "m_b".into(),
            },
        ];
        let mut cfg = CampaignConfig::new(ClockPair::single_shot(5.0, 0.2e-9));
        cfg.threads = 1;
        let golden = run_campaign(&sensor, &faults, &cfg).expect("golden campaign runs");
        let golden_text = golden.to_string();
        let path = temp_path(tag, u64::MAX);
        let ck = cfg.clone().checkpoint(&path);
        run_campaign(&sensor, &faults, &ck).expect("golden checkpointed campaign runs");
        let pristine_journal = fs::read(&path).expect("golden journal exists");
        let _ = fs::remove_file(&path);
        CampaignFixture {
            sensor,
            faults,
            cfg,
            golden,
            golden_text,
            pristine_journal,
        }
    }
}

/// The batch fixture for lane-poison schedules: one SIMD block of RC
/// divider variants and the clean per-variant waveforms.
struct BatchFixture {
    circuits: Vec<Circuit>,
    opts: SimOptions,
    clean: Vec<Vec<f64>>,
}

impl BatchFixture {
    fn build() -> BatchFixture {
        let circuits: Vec<Circuit> = (0..8).map(|i| divider(500.0 + 100.0 * i as f64)).collect();
        let opts = SimOptions {
            solver: SolverKind::Sparse,
            batch: 8,
            ..SimOptions::default()
        };
        let clean = batch_voltages(&circuits, &opts)
            .expect("clean batch completes")
            .clone();
        BatchFixture {
            circuits,
            opts,
            clean,
        }
    }
}

fn divider(ohms: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource(
        "v",
        a,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 10e-12,
            rise: 50e-12,
            fall: 50e-12,
            width: 400e-12,
            period: f64::INFINITY,
        },
    )
    .expect("source is valid");
    ckt.add_resistor("r1", a, b, ohms).expect("r1 is valid");
    ckt.add_resistor("r2", b, GROUND, 1_000.0)
        .expect("r2 is valid");
    ckt.add_capacitor("c", b, GROUND, 1e-13)
        .expect("c is valid");
    ckt
}

/// Final `b`-node waveforms for every variant; `Err` carries the first
/// variant failure (there should be none — dropouts re-run scalar).
fn batch_voltages(circuits: &[Circuit], opts: &SimOptions) -> Result<Vec<Vec<f64>>, String> {
    let cache = SymbolicCache::new();
    transient_batch(circuits, 1e-9, opts, &cache)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(res) => res
                .waveform_named("b")
                .map(|w| w.values().to_vec())
                .ok_or_else(|| format!("variant {i}: node b missing")),
            Err(e) => Err(format!("variant {i}: {e}")),
        })
        .collect()
}

fn temp_path(tag: &str, k: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clocksense_chaos_torture_{}_{tag}_{k}.journal",
        std::process::id()
    ))
}

/// Runs `schedules` randomized single-injection schedules derived from
/// `seed` and returns the violation tally. Pure function of the seed:
/// the same seed replays the same schedule sequence.
pub fn run_torture(seed: u64, schedules: u64) -> TortureTally {
    let campaign = CampaignFixture::build(&format!("seed{seed}"));
    let batch = BatchFixture::build();
    let mut tally = TortureTally::default();
    let mut rng = SplitMix64::new(seed);
    for k in 0..schedules {
        let plan = ChaosPlan::sample(rng.next_u64());
        let injection = plan.injections[0];
        tally.schedules += 1;
        match injection {
            Injection::FlushKill { .. } => flush_kill_schedule(&campaign, plan, k, &mut tally),
            Injection::JournalTruncate { .. } | Injection::JournalBitFlip { .. } => {
                corruption_schedule(&campaign, plan, k, &mut tally)
            }
            Injection::WorkerPanic { .. } => {
                degradation_schedule(&campaign, plan, k, &mut tally, None)
            }
            Injection::DeadlineExpiry { .. } => degradation_schedule(
                &campaign,
                plan,
                k,
                &mut tally,
                // Deadline polls only happen when an item deadline is
                // configured; the wall-clock budget itself is unreachable.
                Some(Duration::from_secs(3600)),
            ),
            Injection::LanePoison { .. } => lane_schedule(&batch, plan, k, &mut tally),
        }
    }
    tally
}

/// Shared verdict-set invariant: one record per fault, in order. Returns
/// `false` (after tallying) if the record set itself is broken.
fn check_verdict_set(
    fixture: &CampaignFixture,
    got: &CampaignResult,
    k: u64,
    tally: &mut TortureTally,
) -> bool {
    let mut ok = true;
    if got.records().len() > fixture.faults.len() {
        tally.verdicts_duplicated += 1;
        tally
            .violations
            .push(format!("schedule {k}: duplicated verdicts"));
        ok = false;
    }
    if got.records().len() < fixture.faults.len() {
        tally.verdicts_lost += 1;
        tally
            .violations
            .push(format!("schedule {k}: lost verdicts"));
        ok = false;
    }
    for (record, fault) in got.records().iter().zip(&fixture.faults) {
        if record.fault != *fault {
            tally.verdicts_lost += 1;
            tally.violations.push(format!(
                "schedule {k}: record for {} where {} belongs",
                record.fault.id(),
                fault.id()
            ));
            ok = false;
        }
    }
    ok
}

/// A killed flush aborts the run with a checkpoint error (or fires
/// nothing and matches golden); the survivor journal then resumes to a
/// byte-identical campaign.
fn flush_kill_schedule(
    fixture: &CampaignFixture,
    plan: ChaosPlan,
    k: u64,
    tally: &mut TortureTally,
) {
    let path = temp_path("kill", k);
    let _ = fs::remove_file(&path);
    let ck = fixture.cfg.clone().checkpoint(&path);
    let guard = plan.arm_scoped();
    let armed = run_campaign(&fixture.sensor, &fixture.faults, &ck);
    let summary = guard.disarm();
    tally.fired += summary.fired;
    tally.suppressed += summary.suppressed();
    match armed {
        Ok(result) => {
            // Nothing fired (or the error was absorbed): the run must be
            // indistinguishable from golden.
            if check_verdict_set(fixture, &result, k, tally)
                && result.to_string() != fixture.golden_text
            {
                tally.resume_mismatches += 1;
                tally
                    .violations
                    .push(format!("schedule {k}: unkilled run diverged from golden"));
            }
        }
        Err(FaultError::Checkpoint(_)) => {}
        Err(other) => {
            tally.violations.push(format!(
                "schedule {k}: killed flush surfaced as {other} instead of a checkpoint error"
            ));
        }
    }
    // Resume over whatever survived on disk: byte-identical to golden.
    match run_campaign(&fixture.sensor, &fixture.faults, &ck) {
        Ok(resumed) => {
            if check_verdict_set(fixture, &resumed, k, tally)
                && resumed.to_string() != fixture.golden_text
            {
                tally.resume_mismatches += 1;
                tally
                    .violations
                    .push(format!("schedule {k}: resume not byte-identical"));
            }
        }
        Err(e) => {
            tally.resume_mismatches += 1;
            tally
                .violations
                .push(format!("schedule {k}: resume failed: {e}"));
        }
    }
    let _ = fs::remove_file(&path);
}

/// Load-time journal corruption (truncation, bit flip) degrades to memo
/// misses: the armed rerun over a pristine journal still reproduces the
/// golden campaign byte for byte.
fn corruption_schedule(
    fixture: &CampaignFixture,
    plan: ChaosPlan,
    k: u64,
    tally: &mut TortureTally,
) {
    let path = temp_path("corrupt", k);
    fs::write(&path, &fixture.pristine_journal).expect("seed journal writes");
    let guard = plan.arm_scoped();
    let armed = run_campaign(&fixture.sensor, &fixture.faults, &ck_cfg(fixture, &path));
    let summary = guard.disarm();
    tally.fired += summary.fired;
    tally.suppressed += summary.suppressed();
    match armed {
        Ok(result) => {
            if check_verdict_set(fixture, &result, k, tally)
                && result.to_string() != fixture.golden_text
            {
                tally.resume_mismatches += 1;
                tally.violations.push(format!(
                    "schedule {k}: corrupted-journal run diverged from golden"
                ));
            }
        }
        Err(e) => {
            tally.resume_mismatches += 1;
            tally.violations.push(format!(
                "schedule {k}: corruption must degrade to memo misses, got {e}"
            ));
        }
    }
    let _ = fs::remove_file(&path);
}

fn ck_cfg(fixture: &CampaignFixture, path: &PathBuf) -> CampaignConfig {
    fixture.cfg.clone().checkpoint(path)
}

/// Forced worker panics and deadline expiries may cost an item its true
/// verdict, but never silently: each record either matches golden or is
/// an inconclusive verdict carrying a structured failure.
fn degradation_schedule(
    fixture: &CampaignFixture,
    plan: ChaosPlan,
    k: u64,
    tally: &mut TortureTally,
    deadline: Option<Duration>,
) {
    let mut cfg = fixture.cfg.clone();
    cfg.item_deadline = deadline;
    let guard = plan.arm_scoped();
    let armed = run_campaign(&fixture.sensor, &fixture.faults, &cfg);
    let summary = guard.disarm();
    tally.fired += summary.fired;
    tally.suppressed += summary.suppressed();
    let result = match armed {
        Ok(result) => result,
        Err(e) => {
            tally.violations.push(format!(
                "schedule {k}: degradation must not abort the campaign, got {e}"
            ));
            return;
        }
    };
    if !check_verdict_set(fixture, &result, k, tally) {
        return;
    }
    for (got, want) in result.records().iter().zip(fixture.golden.records()) {
        if got.outcome == want.outcome {
            continue;
        }
        if got.outcome == DetectionOutcome::Inconclusive && got.failure.is_some() {
            tally.structured_degradations += 1;
        } else {
            tally.verdict_flips += 1;
            tally.violations.push(format!(
                "schedule {k}: {} silently flipped {:?} -> {:?}",
                got.fault, want.outcome, got.outcome
            ));
        }
    }
}

/// A poisoned lane must drop out to the scalar path and leave every
/// variant's waveform within 1e-9 of the clean run.
fn lane_schedule(fixture: &BatchFixture, plan: ChaosPlan, k: u64, tally: &mut TortureTally) {
    let guard = plan.arm_scoped();
    let poisoned = batch_voltages(&fixture.circuits, &fixture.opts);
    let summary = guard.disarm();
    tally.fired += summary.fired;
    tally.suppressed += summary.suppressed();
    let poisoned = match poisoned {
        Ok(v) => v,
        Err(e) => {
            tally.lane_contaminations += 1;
            tally.violations.push(format!(
                "schedule {k}: poisoned lane must re-run scalar, got {e}"
            ));
            return;
        }
    };
    for (v, (got, want)) in poisoned.iter().zip(&fixture.clean).enumerate() {
        let drift = got
            .iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        if got.len() != want.len() || drift > 1e-9 {
            tally.lane_contaminations += 1;
            tally.violations.push(format!(
                "schedule {k}: variant {v} contaminated (max drift {drift:.3e})"
            ));
        }
    }
}
