//! Fault-simulation campaigns over the sensing circuit.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use clocksense_core::{ClockPair, SensingCircuit};
use clocksense_exec::{Deadline, Executor};
use clocksense_netlist::{canonical_form, fnv1a, SourceWave, FNV_OFFSET};
use clocksense_spice::{
    dc_operating_point, transient_cached, DcSolution, IntegrationMethod, SimOptions, SpiceError,
    SymbolicCache,
};

use crate::checkpoint::{
    campaign_fingerprint, decode_fault_record, encode_fault_record, Journal, TAG_FAULT,
};
use crate::detect::{logic_detected, static_flip, DetectionOutcome, IDDQ_THRESHOLD};
use crate::error::FaultError;
use crate::inject::{inject, Rails};
use crate::model::{Fault, FaultClass};

/// Input skew (s) with which faults that escape both criteria are
/// additionally simulated, in both directions, to check whether they
/// *mask* skew detection — the paper's question for the stuck-open faults
/// on `c` and `g`.
pub(crate) const MASKING_SKEW: f64 = 0.6e-9;

/// Configuration of a fault-simulation campaign.
///
/// The clocks are *fault-free* (zero skew): the paper's self-testing
/// requirement is that internal faults reveal themselves under normal
/// stimuli, because the two clock inputs cannot be controlled
/// independently during test.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The fault-free clock stimulus.
    pub clocks: ClockPair,
    /// Simulator options.
    pub sim: SimOptions,
    /// Number of worker threads (`0` = one per available core).
    pub threads: usize,
    /// Per-fault soft deadline: each item's simulations run under a fresh
    /// [`Deadline`] with this budget, so one pathological fault cannot
    /// stall the campaign. Expiry classifies the fault
    /// [`Inconclusive`](DetectionOutcome::Inconclusive) with a
    /// [`FailureKind::Deadline`] record (and a retry, when enabled).
    /// `None` (the default) lets every item run to completion.
    pub item_deadline: Option<Duration>,
    /// Re-queue faults whose evaluation failed (simulator error, panic,
    /// deadline) once with relaxed options — more Newton iterations, a
    /// finer base step, backward-Euler integration — before they are
    /// quarantined. Defaults to `true`.
    pub retry: bool,
    /// Path of the checkpoint journal (see
    /// [`checkpoint`](crate::checkpoint)). When set, finished fault items
    /// are journalled as the campaign runs and already-journalled items
    /// are replayed instead of re-simulated, keyed by the canonical
    /// content hash of the injected netlist plus the campaign
    /// fingerprint. `None` (the default) runs without any journal I/O.
    pub checkpoint: Option<PathBuf>,
}

impl CampaignConfig {
    /// A campaign with default simulator options.
    ///
    /// The given clock pair is made periodic if it was single-shot: the
    /// campaign simulates two full cycles and evaluates logic detection
    /// over the *second* one, so the artificial DC initial condition of
    /// circuits whose fault leaves a node with no DC path (stuck-opens)
    /// does not masquerade as a fault effect.
    pub fn new(clocks: ClockPair) -> Self {
        let clocks = if clocks.period.is_finite() {
            clocks
        } else {
            ClockPair {
                period: 2.0 * (clocks.width + 2.0 * clocks.slew),
                ..clocks
            }
        };
        CampaignConfig {
            clocks,
            sim: SimOptions {
                tstep: 2e-12,
                ..SimOptions::default()
            },
            threads: 0,
            item_deadline: None,
            retry: true,
            checkpoint: None,
        }
    }

    /// Journals finished items to `path` and replays whatever that
    /// journal already holds on the next run, so a killed campaign
    /// resumes where it died and an unchanged re-run is pure memo hits.
    /// The final report is byte-identical to an uninterrupted run.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Minimum complementary-output duration (s) that counts as a logic
    /// detection. The paper's indicator latches indications that persist
    /// "long enough (half of the clock period)". A quarter period rejects
    /// the sub-nanosecond recovery-lag glitches that capacitive race
    /// imbalances produce, while every true indication lasts at least a
    /// full clock phase.
    pub(crate) fn t_hold(&self) -> f64 {
        0.25 * self.clocks.period
    }

    /// Static `(φ1, φ2)` levels of the IDDQ patterns. Both clocks move
    /// together, so only `(0,0)` and `(1,1)` are applicable.
    pub(crate) fn iddq_patterns(&self) -> [(f64, f64); 2] {
        let vdd = self.clocks.vdd;
        [(0.0, 0.0), (vdd, vdd)]
    }

    /// The relaxed options of the retry pass: four times the Newton
    /// budget, a four-times-finer base step, and L-stable backward-Euler
    /// integration — the settings that rescue most marginal circuits at
    /// the cost of simulation time the first pass would not spend.
    fn relaxed_sim(&self) -> SimOptions {
        SimOptions {
            max_newton_iters: self.sim.max_newton_iters.saturating_mul(4),
            tstep: (self.sim.tstep / 4.0).max(self.sim.tstep_min),
            method: IntegrationMethod::BackwardEuler,
            ..self.sim.clone()
        }
    }

    /// One item's options: the given base with a fresh deadline token
    /// attached, so each fault's budget starts when its evaluation does.
    fn item_sim(&self, base: &SimOptions) -> SimOptions {
        let mut opts = base.clone();
        opts.deadline = self.item_deadline.map(Deadline::after);
        opts
    }

    /// Transient stop time: two full clock cycles.
    fn stop_time(&self) -> f64 {
        self.clocks.delay + 2.0 * self.clocks.period
    }

    /// Start of the logic-detection scan: the second cycle.
    fn scan_from(&self) -> f64 {
        self.clocks.delay + self.clocks.period
    }
}

/// Why a fault's evaluation produced no verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The evaluation panicked; the panic was contained by the executor.
    Panic,
    /// The simulator exhausted its convergence ladder.
    NonConvergence,
    /// The per-item soft deadline ([`CampaignConfig::item_deadline`])
    /// expired.
    Deadline,
    /// Any other simulator or setup failure.
    Other,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::NonConvergence => "non-convergence",
            FailureKind::Deadline => "deadline",
            FailureKind::Other => "other",
        })
    }
}

/// Structured reason attached to an
/// [`Inconclusive`](DetectionOutcome::Inconclusive) record: what failed
/// and the full failure text — the panic message, or the simulator
/// error's display (which for non-convergence carries the rescue
/// diagnostics: worst node, final Newton delta, gmin level, stages tried).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureInfo {
    /// Failure category, for report grouping.
    pub kind: FailureKind,
    /// Human-readable detail.
    pub detail: String,
}

impl FailureInfo {
    fn from_spice(err: &SpiceError) -> FailureInfo {
        FailureInfo {
            kind: match err {
                SpiceError::NonConvergence { .. } => FailureKind::NonConvergence,
                SpiceError::DeadlineExceeded { .. } => FailureKind::Deadline,
                _ => FailureKind::Other,
            },
            detail: err.to_string(),
        }
    }
}

/// Per-fault campaign record.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The injected fault.
    pub fault: Fault,
    /// Detection outcome under fault-free stimuli.
    pub outcome: DetectionOutcome,
    /// Largest IDDQ measured across the static patterns (A), when the
    /// IDDQ step ran.
    pub iddq: Option<f64>,
    /// For faults that escaped detection: `Some(true)` if the fault
    /// *masks* an abnormal input skew of ±0.6 ns (the skewed
    /// stimulus no longer produces an error indication), `Some(false)` if
    /// skews remain detectable despite the fault.
    pub masks_skew: Option<bool>,
    /// Set exactly when the outcome is
    /// [`Inconclusive`](DetectionOutcome::Inconclusive): what stopped the
    /// evaluation from reaching a verdict.
    pub failure: Option<FailureInfo>,
    /// Whether the relaxed retry pass re-evaluated this fault. A record
    /// that is still inconclusive with `retried` set is *quarantined*.
    pub retried: bool,
}

impl FaultRecord {
    /// Whether this record survived the retry pass without a verdict.
    pub fn is_quarantined(&self) -> bool {
        self.retried && self.outcome == DetectionOutcome::Inconclusive
    }
}

/// Result of a campaign: one record per fault plus per-class summaries.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    records: Vec<FaultRecord>,
}

impl CampaignResult {
    /// All per-fault records, in the order the faults were given.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Records restricted to one fault class.
    pub fn records_of(&self, class: FaultClass) -> impl Iterator<Item = &FaultRecord> {
        self.records
            .iter()
            .filter(move |r| r.fault.class() == class)
    }

    /// `(logic, iddq_only, undetected, inconclusive, total)` counts for a
    /// class.
    pub fn counts(&self, class: FaultClass) -> (usize, usize, usize, usize, usize) {
        let mut logic = 0;
        let mut iddq_only = 0;
        let mut undet = 0;
        let mut inc = 0;
        let mut total = 0;
        for r in self.records_of(class) {
            total += 1;
            match r.outcome {
                DetectionOutcome::DetectedLogic => logic += 1,
                DetectionOutcome::DetectedIddq => iddq_only += 1,
                DetectionOutcome::Undetected => undet += 1,
                DetectionOutcome::Inconclusive => inc += 1,
            }
        }
        (logic, iddq_only, undet, inc, total)
    }

    /// Fault coverage by logic monitoring alone, as a fraction of the
    /// class (inconclusive counted as undetected).
    pub fn logic_coverage(&self, class: FaultClass) -> f64 {
        let (logic, _, _, _, total) = self.counts(class);
        if total == 0 {
            return 1.0;
        }
        logic as f64 / total as f64
    }

    /// Fault coverage when IDDQ is added to logic monitoring.
    pub fn combined_coverage(&self, class: FaultClass) -> f64 {
        let (logic, iddq_only, _, _, total) = self.counts(class);
        if total == 0 {
            return 1.0;
        }
        (logic + iddq_only) as f64 / total as f64
    }

    /// The ids of undetected faults of a class.
    pub fn undetected_ids(&self, class: FaultClass) -> Vec<String> {
        self.records_of(class)
            .filter(|r| r.outcome == DetectionOutcome::Undetected)
            .map(|r| r.fault.id())
            .collect()
    }

    /// Records that stayed inconclusive even after the relaxed retry
    /// pass — the campaign's quarantine, each carrying its
    /// [`FailureInfo`].
    pub fn quarantined(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(|r| r.is_quarantined())
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>7} {:>10} {:>11} {:>12} {:>10}",
            "class", "total", "logic", "iddq-only", "undetected", "coverage(L)", "cov(L+I)"
        )?;
        let mut classes: BTreeMap<FaultClass, ()> = BTreeMap::new();
        for r in &self.records {
            classes.insert(r.fault.class(), ());
        }
        for (&class, ()) in &classes {
            let (logic, iddq_only, undet, _inc, total) = self.counts(class);
            writeln!(
                f,
                "{:<12} {:>6} {:>7} {:>10} {:>11} {:>11.0}% {:>9.0}%",
                class.to_string(),
                total,
                logic,
                iddq_only,
                undet,
                100.0 * self.logic_coverage(class),
                100.0 * self.combined_coverage(class),
            )?;
        }
        Ok(())
    }
}

/// The DC operating point of the sensor's static bench under each IDDQ
/// pattern, with `fault` injected when given: per pattern, the solution
/// or the simulator error that stopped it. Both static criteria read
/// these points — the output levels and the supply current — so each
/// pattern is solved once.
fn static_points(
    sensor: &SensingCircuit,
    fault: Option<&Fault>,
    cfg: &CampaignConfig,
    rails: &Rails,
    cache: &SymbolicCache,
    opts: &SimOptions,
) -> Result<Vec<Result<DcSolution, SpiceError>>, FaultError> {
    cfg.iddq_patterns()
        .into_iter()
        .map(|(v1, v2)| {
            let bench = sensor.testbench_with_waves(SourceWave::Dc(v1), SourceWave::Dc(v2))?;
            let bench = match fault {
                Some(f) => inject(&bench, f, rails)?,
                None => bench,
            };
            Ok(dc_operating_point(&bench, opts, cache))
        })
        .collect()
}

fn evaluate_fault(
    sensor: &SensingCircuit,
    fault: &Fault,
    cfg: &CampaignConfig,
    rails: &Rails,
    cache: &SymbolicCache,
    fault_free_static: &[Option<(f64, f64)>],
    opts: &SimOptions,
) -> Result<FaultRecord, FaultError> {
    let v_th = sensor.technology().logic_threshold();
    let t_hold = cfg.t_hold();
    let (y1, y2) = sensor.outputs();

    // Static DC comparison against the fault-free levels — the paper's
    // criterion for stuck-on faults, and a common-mode complement to the
    // divergence scan for the other classes.
    let mut last_failure: Option<FailureInfo> = None;
    let faulted_static = static_points(sensor, Some(fault), cfg, rails, cache, opts)?;
    let mut flip = false;
    let mut compared = false;
    for (ff, f) in fault_free_static.iter().zip(&faulted_static) {
        match (ff, f) {
            (Some(ff), Ok(op)) => {
                compared = true;
                if static_flip(&[*ff], &[(op.voltage(y1), op.voltage(y2))], v_th) {
                    flip = true;
                }
            }
            (None, Ok(_)) => {}
            (_, Err(e)) => last_failure = Some(FailureInfo::from_spice(e)),
        }
    }

    // Transient divergence under fault-free clocks, scanned over the
    // second cycle.
    let faulted = inject(&sensor.testbench(&cfg.clocks)?, fault, rails)?;
    let mut transient_failed = false;
    let divergent = match transient_cached(&faulted, cfg.stop_time(), opts, cache) {
        Ok(result) => logic_detected(
            &result.waveform(y1),
            &result.waveform(y2),
            v_th,
            t_hold,
            cfg.scan_from(),
        ),
        Err(e) => {
            transient_failed = true;
            last_failure = Some(FailureInfo::from_spice(&e));
            false
        }
    };
    let logic = divergent || flip;

    // IDDQ read off the static operating points (skipped once logic
    // caught it). A pattern whose point failed reports its error again
    // here, after the transient's, so the record names the failure last
    // seen in evaluation order.
    let mut max_iddq: Option<f64> = None;
    let mut iddq_hit = false;
    if !logic {
        for op in &faulted_static {
            let current = op.as_ref().map_err(FailureInfo::from_spice).and_then(|op| {
                op.iddq(SensingCircuit::SUPPLY)
                    .map_err(|e| FailureInfo::from_spice(&e))
            });
            match current {
                Ok(current) => {
                    let current = current.abs();
                    max_iddq = Some(max_iddq.map_or(current, |m: f64| m.max(current)));
                    if current > IDDQ_THRESHOLD {
                        iddq_hit = true;
                    }
                }
                Err(failure) => last_failure = Some(failure),
            }
        }
    }

    let inconclusive = !logic && !iddq_hit && (transient_failed || !compared);
    let outcome = if logic {
        DetectionOutcome::DetectedLogic
    } else if iddq_hit {
        DetectionOutcome::DetectedIddq
    } else if inconclusive {
        DetectionOutcome::Inconclusive
    } else {
        DetectionOutcome::Undetected
    };

    // Masking check for escapes: an escaped fault still disqualifies the
    // sensor if an abnormal skew in *either* direction no longer raises an
    // indication.
    let mut masks_skew = None;
    if outcome == DetectionOutcome::Undetected {
        let mut masks = false;
        let mut checked = false;
        for signed in [MASKING_SKEW, -MASKING_SKEW] {
            let skewed = cfg.clocks.with_skew(signed);
            let skewed_bench = sensor.testbench(&skewed)?;
            let faulted_skewed = inject(&skewed_bench, fault, rails)?;
            if let Ok(result) = transient_cached(&faulted_skewed, cfg.stop_time(), opts, cache) {
                checked = true;
                let detected = logic_detected(
                    &result.waveform(y1),
                    &result.waveform(y2),
                    v_th,
                    t_hold,
                    cfg.scan_from(),
                );
                if !detected {
                    masks = true;
                }
            }
        }
        if checked {
            masks_skew = Some(masks);
        }
    }

    // A failure reason travels on the record exactly when the campaign
    // could not classify the fault; an inconclusive verdict without a
    // captured simulator error means the static comparison had no basis.
    let failure = if outcome == DetectionOutcome::Inconclusive {
        Some(last_failure.unwrap_or(FailureInfo {
            kind: FailureKind::Other,
            detail: "no comparable static operating points".into(),
        }))
    } else {
        None
    };

    Ok(FaultRecord {
        fault: fault.clone(),
        outcome,
        iddq: max_iddq,
        masks_skew,
        failure,
        retried: false,
    })
}

/// Runs a fault-simulation campaign: every fault is injected into the
/// sensor's test bench, simulated under fault-free clocks, and classified
/// per the paper's criteria (logic error indication, then IDDQ, then a
/// skew-masking check for escapes). Faults are distributed over worker
/// threads pulled from a shared work queue ([`clocksense_exec::Executor`]),
/// so one expensive fault (continuation ladders for stuck-opens) does not
/// serialise the rest of the universe behind a static chunk boundary.
///
/// # Errors
///
/// Returns the first *structural* error (unknown fault target, invalid
/// fault). Simulation failures of individual faulty circuits are not
/// errors; they are reported as [`DetectionOutcome::Inconclusive`] — and
/// so is a fault whose evaluation *panics*: the panic is contained by the
/// executor and recorded against that fault alone.
pub fn run_campaign(
    sensor: &SensingCircuit,
    faults: &[Fault],
    cfg: &CampaignConfig,
) -> Result<CampaignResult, FaultError> {
    if faults.is_empty() {
        return Ok(CampaignResult {
            records: Vec::new(),
        });
    }
    let rails = Rails::vdd_gnd("vdd");
    // One symbolic cache serves every pass of the campaign: with the
    // sparse backend, every fault variant that preserves the bench's
    // stamp topology reuses the structure analysed for the first one.
    // The dense backend never touches it.
    let cache = SymbolicCache::new();
    // A failing fault-free pattern is not an error by itself (the
    // comparison just loses that pattern), so the reason is dropped here.
    let (y1, y2) = sensor.outputs();
    let fault_free_static: Vec<Option<(f64, f64)>> =
        static_points(sensor, None, cfg, &rails, &cache, &cfg.sim)?
            .iter()
            .map(|op| op.as_ref().ok().map(|op| (op.voltage(y1), op.voltage(y2))))
            .collect();
    // Checkpoint replay: hash every item up front (injected netlist +
    // campaign fingerprint), replay journalled verdicts as memo hits,
    // and hand only the remainder to the executor. The `checkpoint.*`
    // counters materialise only on this path, so runs without a journal
    // keep their telemetry snapshots byte-identical.
    let mut replayed: Vec<Option<FaultRecord>> = vec![None; faults.len()];
    let mut hashes: Vec<u64> = Vec::new();
    let journal: Option<Mutex<Journal>> = match &cfg.checkpoint {
        Some(path) => {
            let bench = sensor.testbench(&cfg.clocks)?;
            let fingerprint = campaign_fingerprint(cfg, sensor.technology().logic_threshold());
            hashes = faults
                .iter()
                .map(|f| {
                    let injected = inject(&bench, f, &rails)?;
                    let h = fnv1a(FNV_OFFSET, canonical_form(&injected).as_bytes());
                    Ok(fnv1a(h, fingerprint.as_bytes()))
                })
                .collect::<Result<Vec<u64>, FaultError>>()?;
            let journal = Journal::open(path)
                .map_err(|e| FaultError::Checkpoint(format!("{}: {e}", path.display())))?;
            for (i, fault) in faults.iter().enumerate() {
                replayed[i] = journal
                    .lookup(hashes[i], TAG_FAULT)
                    .and_then(|fields| decode_fault_record(fields, fault));
            }
            let hits = replayed.iter().filter(|r| r.is_some()).count() as u64;
            let scope = clocksense_telemetry::global().scope("checkpoint");
            scope.counter("items_total").add(faults.len() as u64);
            scope.counter("memo_hits").add(hits);
            scope.counter("memo_misses").add(faults.len() as u64 - hits);
            scope.counter("records_replayed").add(hits);
            Some(Mutex::new(journal))
        }
        None => None,
    };
    let fresh: Vec<usize> = replayed
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_none())
        .map(|(i, _)| i)
        .collect();
    // Journals one finished record under its item hash; a no-op without
    // a checkpoint. Only *final* records may be written (see the module
    // doc of [`checkpoint`](crate::checkpoint)); the callers below
    // enforce that.
    let append_record = |record: &FaultRecord, i: usize| -> Result<(), FaultError> {
        if let Some(journal) = &journal {
            let mut journal = journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            journal
                .append(hashes[i], TAG_FAULT, &encode_fault_record(record))
                .map_err(|e| FaultError::Checkpoint(e.to_string()))?;
        }
        Ok(())
    };
    let fresh_records = campaign_records_at(faults, &fresh, cfg.threads, |i, f| {
        let opts = cfg.item_sim(&cfg.sim);
        let record = evaluate_fault(sensor, f, cfg, &rails, &cache, &fault_free_static, &opts)?;
        // First-pass records are final unless the retry pass will
        // replace them.
        let provisional = cfg.retry
            && record.outcome == DetectionOutcome::Inconclusive
            && record.failure.is_some();
        if !provisional {
            append_record(&record, i)?;
        }
        Ok(record)
    })?;
    let mut records: Vec<FaultRecord> = Vec::with_capacity(faults.len());
    {
        let mut fresh_records = fresh_records.into_iter();
        for slot in replayed {
            records.push(match slot {
                Some(record) => record,
                None => fresh_records.next().ok_or_else(|| {
                    // One fresh record exists per unreplayed slot by
                    // construction; running dry means the journal replay
                    // desynchronised from the fault list.
                    FaultError::Checkpoint(
                        "journal replay out of sync with campaign items".to_string(),
                    )
                })?,
            });
        }
    }
    // Panic-degraded records are built by the executor wrapper, not the
    // evaluator closure above, so when no retry pass will finalise them
    // they are journalled here.
    if journal.is_some() && !cfg.retry {
        for &i in &fresh {
            let panicked = records[i]
                .failure
                .as_ref()
                .is_some_and(|f| f.kind == FailureKind::Panic);
            if panicked {
                append_record(&records[i], i)?;
            }
        }
    }

    // Retry pass: re-queue every fault whose evaluation failed, once,
    // with relaxed options. Survivors are quarantined (`retried` stays
    // set, the outcome stays inconclusive, the failure reason is the
    // retry's). The `campaign.*` counters are touched only when a retry
    // actually happens, so clean-run telemetry snapshots are unchanged.
    // Replayed records are final by construction (quarantined ones carry
    // `retried`), so the `!r.retried` guard keeps a resume from retrying
    // them a second time.
    let retry_idx: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.outcome == DetectionOutcome::Inconclusive && r.failure.is_some() && !r.retried
        })
        .map(|(i, _)| i)
        .collect();
    if cfg.retry && !retry_idx.is_empty() {
        let campaign_tele = clocksense_telemetry::global().scope("campaign");
        campaign_tele
            .counter("retry_scheduled")
            .add(retry_idx.len() as u64);
        let relaxed = cfg.relaxed_sim();
        // Each retry runs its own halving/rescue ladder under the relaxed
        // options.
        let retry_records = campaign_records_at(faults, &retry_idx, cfg.threads, |_, f| {
            let opts = cfg.item_sim(&relaxed);
            evaluate_fault(sensor, f, cfg, &rails, &cache, &fault_free_static, &opts)
        })?;
        let mut recovered = 0u64;
        let mut quarantined = 0u64;
        for (&i, mut record) in retry_idx.iter().zip(retry_records) {
            record.retried = true;
            if record.outcome != DetectionOutcome::Inconclusive {
                recovered += 1;
            } else {
                quarantined += 1;
            }
            // Retry records are always final: recovered or quarantined.
            append_record(&record, i)?;
            records[i] = record;
        }
        campaign_tele.counter("retry_recovered").add(recovered);
        campaign_tele.counter("quarantined").add(quarantined);
    }

    let tele = clocksense_telemetry::global().scope("faults");
    let (cache_hits, cache_misses) = cache.stats();
    // Run reports and the benchmark harness read these names.
    tele.counter("template_cache_hits").add(cache_hits);
    tele.counter("template_cache_misses").add(cache_misses);
    let tallies = [
        (DetectionOutcome::DetectedLogic, "detected_logic"),
        (DetectionOutcome::DetectedIddq, "detected_iddq"),
        (DetectionOutcome::Undetected, "undetected"),
        (DetectionOutcome::Inconclusive, "inconclusive"),
    ];
    for (outcome, name) in tallies {
        let n = records.iter().filter(|r| r.outcome == outcome).count();
        tele.counter(name).add(n as u64);
    }
    Ok(CampaignResult { records })
}

/// Evaluates the faults at `indices` (original indices into `faults`:
/// the items a checkpoint replay left, or the retry pass's work list)
/// through the shared executor, returning one record per index in
/// `indices` order, and applies the campaign's error policy: structural
/// errors abort (first one, in `indices` order), panics degrade to
/// [`DetectionOutcome::Inconclusive`] records.
///
/// Factored out of [`run_campaign`] so the panic policy is testable with
/// an injected evaluator.
fn campaign_records_at(
    faults: &[Fault],
    indices: &[usize],
    threads: usize,
    eval: impl Fn(usize, &Fault) -> Result<FaultRecord, FaultError> + Sync,
) -> Result<Vec<FaultRecord>, FaultError> {
    let tele = clocksense_telemetry::global().scope("faults");
    let faults_evaluated = tele.counter("faults_evaluated");
    let outcomes = Executor::new(threads)
        .with_telemetry(tele)
        .run_indexed(indices, |i| eval(i, &faults[i]));
    faults_evaluated.add(indices.len() as u64);
    let mut records = Vec::with_capacity(indices.len());
    for (&i, outcome) in indices.iter().zip(outcomes) {
        match outcome {
            Ok(record) => records.push(record?),
            Err(panic) => records.push(FaultRecord {
                fault: faults[i].clone(),
                outcome: DetectionOutcome::Inconclusive,
                iddq: None,
                masks_skew: None,
                failure: Some(FailureInfo {
                    kind: FailureKind::Panic,
                    detail: panic.message,
                }),
                retried: false,
            }),
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StuckLevel;
    use clocksense_core::{SensorBuilder, Technology};

    fn sensor() -> SensingCircuit {
        SensorBuilder::new(Technology::cmos12())
            .load_capacitance(160e-15)
            .build()
            .unwrap()
    }

    fn config() -> CampaignConfig {
        CampaignConfig::new(ClockPair::single_shot(5.0, 0.2e-9))
    }

    #[test]
    fn output_stuck_at_is_logic_detected() {
        let s = sensor();
        let faults = vec![
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::One,
            },
        ];
        let result = run_campaign(&s, &faults, &config()).unwrap();
        for r in result.records() {
            assert_eq!(
                r.outcome,
                DetectionOutcome::DetectedLogic,
                "{} must be caught by the indicator",
                r.fault
            );
        }
        assert_eq!(result.logic_coverage(FaultClass::StuckAt), 1.0);
    }

    #[test]
    fn pull_up_stuck_on_needs_iddq() {
        let s = sensor();
        // b is a parallel pull-up: its stuck-on changes no logic value but
        // fights the pull-down during the clock-low phase... actually the
        // fight arises with phi high (pull-down on, b conducting from
        // top_a). The observable is static current under the (1,1) pattern.
        let faults = vec![Fault::StuckOn {
            device: "m_b".into(),
        }];
        let result = run_campaign(&s, &faults, &config()).unwrap();
        let r = &result.records()[0];
        assert_ne!(r.outcome, DetectionOutcome::Inconclusive);
        assert_ne!(
            r.outcome,
            DetectionOutcome::DetectedLogic,
            "parallel pull-up stuck-on must not flip logic values"
        );
    }

    #[test]
    fn y1_y2_bridge_escapes_as_paper_says() {
        let s = sensor();
        let faults = vec![Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 100.0,
        }];
        let result = run_campaign(&s, &faults, &config()).unwrap();
        let r = &result.records()[0];
        // The outputs move together in the fault-free stimulus, so a
        // bridge between them produces neither divergence nor static
        // current: the paper's canonical escape.
        assert_eq!(r.outcome, DetectionOutcome::Undetected, "iddq={:?}", r.iddq);
        // And it *masks* skew detection.
        assert_eq!(r.masks_skew, Some(true));
    }

    #[test]
    fn supply_ground_bridge_is_iddq_detected() {
        let s = sensor();
        let faults = vec![Fault::Bridge {
            a: "vdd".into(),
            b: "0".into(),
            ohms: 100.0,
        }];
        let result = run_campaign(&s, &faults, &config()).unwrap();
        assert_eq!(result.records()[0].outcome, DetectionOutcome::DetectedIddq);
    }

    #[test]
    fn failed_dc_point_outranks_failed_transient() {
        // At a 2-iteration Newton budget every DC point and the transient
        // fail. The IDDQ pass reports each failed static point after the
        // transient, so the record carries the last pattern's DC error.
        let s = sensor();
        let fault = Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 100.0,
        };
        let mut cfg = config();
        cfg.sim.max_newton_iters = 2;
        cfg.sim.rescue = false;
        cfg.retry = false;
        let result = run_campaign(&s, std::slice::from_ref(&fault), &cfg).unwrap();
        let r = &result.records()[0];
        assert_eq!(r.outcome, DetectionOutcome::Inconclusive);
        assert_eq!(r.iddq, None);

        let rails = Rails::vdd_gnd("vdd");
        let cache = SymbolicCache::new();
        let [_, (v1, v2)] = cfg.iddq_patterns();
        let static_bench = s
            .testbench_with_waves(SourceWave::Dc(v1), SourceWave::Dc(v2))
            .unwrap();
        let static_bench = inject(&static_bench, &fault, &rails).unwrap();
        let dc_err = dc_operating_point(&static_bench, &cfg.sim, &cache).unwrap_err();
        let bench = inject(&s.testbench(&cfg.clocks).unwrap(), &fault, &rails).unwrap();
        let tran_err = transient_cached(&bench, cfg.stop_time(), &cfg.sim, &cache).unwrap_err();
        assert_ne!(dc_err.to_string(), tran_err.to_string());
        assert_eq!(r.failure, Some(FailureInfo::from_spice(&dc_err)));
    }

    #[test]
    fn display_summarises_per_class() {
        let s = sensor();
        let faults = vec![
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            Fault::Bridge {
                a: "y1".into(),
                b: "y2".into(),
                ohms: 100.0,
            },
        ];
        let result = run_campaign(&s, &faults, &config()).unwrap();
        let text = result.to_string();
        assert!(text.contains("stuck-at"));
        assert!(text.contains("bridging"));
    }

    #[test]
    fn batch_width_does_not_reach_the_campaign() {
        // Sparse and fixed-step: the options under which a batch width
        // would pack lanes. The campaign solves every fault on its own,
        // so the width changes nothing.
        let s = sensor();
        let mut faults = crate::sensor_fault_universe(&s, 100.0);
        faults.truncate(12);
        let mut cfg = config();
        cfg.sim.solver = clocksense_spice::SolverKind::Sparse;
        cfg.sim.timestep = clocksense_spice::TimestepControl::Fixed;
        cfg.sim.tstep = 2e-12;
        let scalar = run_campaign(&s, &faults, &cfg).unwrap();
        cfg.sim.batch = 8;
        let wide = run_campaign(&s, &faults, &cfg).unwrap();
        assert_eq!(scalar.records(), wide.records());
    }

    #[test]
    fn checkpointed_campaign_resumes_byte_identical() {
        let s = sensor();
        let faults = vec![
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            Fault::StuckOn {
                device: "m_b".into(),
            },
            Fault::Bridge {
                a: "y1".into(),
                b: "y2".into(),
                ohms: 100.0,
            },
            Fault::Bridge {
                a: "vdd".into(),
                b: "0".into(),
                ohms: 100.0,
            },
        ];
        let cfg = config();
        let golden = run_campaign(&s, &faults, &cfg).unwrap();

        let path = std::env::temp_dir().join(format!(
            "clocksense_campaign_ckpt_{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ck_cfg = cfg.clone().checkpoint(&path);

        // A full checkpointed run matches the plain one and journals
        // every item.
        let full = run_campaign(&s, &faults, &ck_cfg).unwrap();
        assert_eq!(full.records(), golden.records());
        assert_eq!(crate::checkpoint::Journal::open(&path).unwrap().len(), 4);

        // Emulate a SIGKILL at ~50%: keep the header and half the
        // record lines.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        let records_in_file = lines.len() - 2; // minus header and trailing ""
        let mut torn = lines[..1 + records_in_file / 2].join("\n");
        torn.push('\n');
        std::fs::write(&path, &torn).unwrap();

        // The resumed run replays the survivors, re-simulates the rest,
        // and produces records byte-identical to the uninterrupted run.
        let resumed = run_campaign(&s, &faults, &ck_cfg).unwrap();
        assert_eq!(resumed.records(), golden.records());
        assert_eq!(resumed.to_string(), golden.to_string());
        assert_eq!(crate::checkpoint::Journal::open(&path).unwrap().len(), 4);

        // An unchanged re-run is pure memo hits: nothing new is written.
        let again = run_campaign(&s, &faults, &ck_cfg).unwrap();
        assert_eq!(again.records(), golden.records());
        assert_eq!(crate::checkpoint::Journal::open(&path).unwrap().len(), 4);

        // Moving one device value re-simulates only that variant.
        let mut moved = faults.clone();
        if let Fault::Bridge { ohms, .. } = &mut moved[2] {
            *ohms = 250.0;
        }
        run_campaign(&s, &moved, &ck_cfg).unwrap();
        assert_eq!(crate::checkpoint::Journal::open(&path).unwrap().len(), 5);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_evaluation_degrades_to_inconclusive() {
        let faults: Vec<Fault> = ["y1", "y2", "n1"]
            .iter()
            .map(|n| Fault::NodeStuckAt {
                node: (*n).into(),
                level: StuckLevel::Zero,
            })
            .collect();
        let records = campaign_records_at(&faults, &[0, 1, 2], 2, |_, f| {
            if matches!(f, Fault::NodeStuckAt { node, .. } if node == "y2") {
                panic!("injected evaluator panic");
            }
            Ok(FaultRecord {
                fault: f.clone(),
                outcome: DetectionOutcome::DetectedLogic,
                iddq: None,
                masks_skew: None,
                failure: None,
                retried: false,
            })
        })
        .unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].outcome, DetectionOutcome::DetectedLogic);
        assert_eq!(records[1].outcome, DetectionOutcome::Inconclusive);
        assert_eq!(records[1].fault, faults[1]);
        assert_eq!(records[2].outcome, DetectionOutcome::DetectedLogic);
        // The panic payload must be preserved on the record, so reports
        // can distinguish a panic from a simulator failure.
        let failure = records[1].failure.as_ref().unwrap();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure.detail.contains("injected evaluator panic"),
            "{}",
            failure.detail
        );
    }

    #[test]
    fn a_structural_error_still_aborts_the_run() {
        let faults = vec![
            Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            Fault::NodeStuckAt {
                node: "no_such_node".into(),
                level: StuckLevel::One,
            },
        ];
        let err = campaign_records_at(&faults, &[0, 1], 1, |_, f| match f {
            Fault::NodeStuckAt { node, .. } if node == "no_such_node" => {
                Err(FaultError::UnknownNode(node.clone()))
            }
            _ => Ok(FaultRecord {
                fault: f.clone(),
                outcome: DetectionOutcome::DetectedLogic,
                iddq: None,
                masks_skew: None,
                failure: None,
                retried: false,
            }),
        })
        .unwrap_err();
        assert_eq!(err, FaultError::UnknownNode("no_such_node".into()));
    }
}
