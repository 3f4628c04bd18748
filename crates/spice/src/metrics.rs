//! Solver instrumentation, recorded through the process-wide telemetry
//! registry under the `spice.` scope.
//!
//! Handles are created once (lazily) and shared; every record is a
//! single relaxed atomic op, and the registry starts paused so
//! uninstrumented runs pay one relaxed load per solve. Telemetry never
//! feeds back into the numerics: solver outputs are bit-identical with
//! recording on or off.

use std::sync::OnceLock;

use clocksense_telemetry::{Counter, Histogram};

pub(crate) struct SpiceMetrics {
    /// Completed `newton_solve` calls (converged or not).
    pub newton_solves: Counter,
    /// Total Newton iterations across all solves.
    pub newton_iterations: Counter,
    /// LU factorizations performed (one per Newton iteration).
    pub lu_factorizations: Counter,
    /// `newton_solve` calls that exhausted `max_newton_iters`.
    pub convergence_failures: Counter,
    /// Rungs taken on the gmin-continuation ladder.
    pub gmin_steps: Counter,
    /// Source-stepping ramp points solved.
    pub source_steps: Counter,
    /// Accepted transient time steps.
    pub steps_accepted: Counter,
    /// Transient step attempts rejected for non-convergence.
    pub steps_rejected: Counter,
    /// Step-size halvings following a rejection.
    pub step_halvings: Counter,
    /// Source breakpoints the time grid was aligned to.
    pub breakpoints_hit: Counter,
    /// Sub-`tstep_min` window remainders accepted as already reached
    /// instead of failing the whole transient.
    pub slivers_accepted: Counter,
    /// Symbolic analyses performed (fill-reducing ordering + fill
    /// prediction); one per distinct topology when a cache is in play.
    pub symbolic_analyses: Counter,
    /// Numeric factorisations that reused an existing symbolic structure
    /// instead of analysing one.
    pub symbolic_reuse_hits: Counter,
    /// Sparse numeric refactorisations (one per sparse `solve_into`).
    pub numeric_refactors: Counter,
    /// Total fill-in slots the symbolic analyses predicted beyond the
    /// stamped pattern.
    pub fill_in: Counter,
    /// `SymbolicCache` lookups that found an existing structure.
    pub symbolic_cache_hits: Counter,
    /// `SymbolicCache` lookups that had to analyse a new topology.
    pub symbolic_cache_misses: Counter,
    /// Distribution of Newton iterations per solve.
    pub iters_per_solve: Histogram,
}

/// Counters specific to the adaptive (LTE-controlled) transient stepper,
/// recorded under the `tran.` scope.
///
/// Kept in a separate lazily-created block so fixed-step runs — the
/// golden reference whose archived telemetry reports must stay
/// byte-identical — never materialise these counters in a snapshot. They
/// first appear the moment an adaptive transient runs.
pub(crate) struct TranMetrics {
    /// Steps the adaptive controller accepted.
    pub steps_accepted: Counter,
    /// Attempts rejected, by the LTE overshoot test or non-convergence.
    pub steps_rejected: Counter,
    /// Step-size reductions: LTE rejections plus accepted steps whose
    /// successor was shrunk by the controller.
    pub lte_step_shrinks: Counter,
    /// Accepted steps whose successor the controller grew.
    pub lte_step_growths: Counter,
    /// Steps whose end was pulled back to a source breakpoint so an edge
    /// was not stepped over.
    pub breakpoint_clamps: Counter,
    /// Estimated Newton iterations the polynomial predictor saved: per
    /// predicted solve, the iteration count of the most recent
    /// cold-started solve minus this solve's, clamped at zero.
    pub predictor_newton_iters_saved: Counter,
}

/// Counters of the convergence rescue ladder and the cooperative
/// deadline, recorded under the `rescue.` scope.
///
/// Like [`TranMetrics`], the block is created lazily on the first rescue
/// event: a clean run — Newton converging first try everywhere, no
/// deadline tripping — never materialises any `rescue.*` counter, so the
/// archived golden telemetry snapshots stay byte-identical with the
/// ladder enabled. The CI smoke gate relies on exactly this
/// (`check_report.py --expect-zero rescue.`).
pub(crate) struct RescueMetrics {
    /// Local gmin ramps attempted at a failing timepoint.
    pub gmin_ramps: Counter,
    /// Individual gmin rungs that converged during rescue ramps.
    pub gmin_ramp_rungs: Counter,
    /// Trapezoidal → backward-Euler downgrades attempted.
    pub be_downgrades: Counter,
    /// Transient steps saved by any rescue stage (the step ultimately
    /// converged and the analysis continued).
    pub steps_rescued: Counter,
    /// Steps where the full ladder was exhausted and the transient
    /// failed anyway.
    pub ladder_failures: Counter,
    /// Analyses abandoned because [`SimOptions::deadline`]
    /// (`crate::SimOptions::deadline`) expired.
    pub deadline_expirations: Counter,
    /// Finer geometric-bisection rungs inserted into the DC gmin
    /// continuation after a regular rung failed.
    pub dc_gmin_bisections: Counter,
}

/// Counters of the batched many-variant kernel, recorded under the
/// `batch.` scope.
///
/// Like [`TranMetrics`] and [`RescueMetrics`], the block materialises
/// lazily on the first batched solve: the default scalar path
/// (`SimOptions::batch == 0`) never creates any `batch.*` counter, so
/// archived golden telemetry reports stay byte-identical. The CI
/// clean-golden gate relies on this (`check_report.py
/// --expect-zero batch.`).
pub(crate) struct BatchMetrics {
    /// Batches the kernel marched (each packs 2..=K variants).
    pub batches_run: Counter,
    /// Variants that ran inside a batch to completion.
    pub variants_batched: Counter,
    /// Variants handed to the scalar path instead: unbatchable topology,
    /// singleton group, or an in-batch dropout re-run.
    pub variants_scalar_fallback: Counter,
    /// Dropouts caused by an in-batch Newton failure (the variant re-ran
    /// scalar from `t = 0` with the full rescue ladder available).
    pub dropouts_nonconvergence: Counter,
    /// Lockstep time steps the kernel accepted, summed over variants.
    pub steps_accepted: Counter,
    /// Lane blocks the SoA kernel packed (one per `LANE_WIDTH`-wide
    /// slice of a batch).
    pub lane_blocks: Counter,
    /// Lane-slot steps scheduled: `LANE_WIDTH × blocks` per lockstep
    /// step, the denominator of lane occupancy.
    pub lane_slots_scheduled: Counter,
    /// Lane-slot steps that carried an active (still marching) variant.
    pub lane_slots_active: Counter,
    /// Lane-slot steps spent parked: the lane's variant converged early,
    /// dropped out or failed, and rides along masked instead of forcing
    /// a repack.
    pub lane_slots_parked: Counter,
    /// Lane-slot steps that were pure padding (batch width not a
    /// multiple of `LANE_WIDTH`).
    pub lane_slots_padding: Counter,
    /// Masked multi-plane factor sweeps performed (each covers every
    /// solving lane of one block at once).
    pub lane_factor_sweeps: Counter,
}

static METRICS: OnceLock<SpiceMetrics> = OnceLock::new();
static TRAN_METRICS: OnceLock<TranMetrics> = OnceLock::new();
static RESCUE_METRICS: OnceLock<RescueMetrics> = OnceLock::new();
static BATCH_METRICS: OnceLock<BatchMetrics> = OnceLock::new();

pub(crate) fn batch_metrics() -> &'static BatchMetrics {
    BATCH_METRICS.get_or_init(|| {
        let scope = clocksense_telemetry::global().scope("batch");
        BatchMetrics {
            batches_run: scope.counter("batches_run"),
            variants_batched: scope.counter("variants_batched"),
            variants_scalar_fallback: scope.counter("variants_scalar_fallback"),
            dropouts_nonconvergence: scope.counter("dropouts_nonconvergence"),
            steps_accepted: scope.counter("steps_accepted"),
            lane_blocks: scope.counter("lane_blocks"),
            lane_slots_scheduled: scope.counter("lane_slots_scheduled"),
            lane_slots_active: scope.counter("lane_slots_active"),
            lane_slots_parked: scope.counter("lane_slots_parked"),
            lane_slots_padding: scope.counter("lane_slots_padding"),
            lane_factor_sweeps: scope.counter("lane_factor_sweeps"),
        }
    })
}

pub(crate) fn rescue_metrics() -> &'static RescueMetrics {
    RESCUE_METRICS.get_or_init(|| {
        let scope = clocksense_telemetry::global().scope("rescue");
        RescueMetrics {
            gmin_ramps: scope.counter("gmin_ramps"),
            gmin_ramp_rungs: scope.counter("gmin_ramp_rungs"),
            be_downgrades: scope.counter("be_downgrades"),
            steps_rescued: scope.counter("steps_rescued"),
            ladder_failures: scope.counter("ladder_failures"),
            deadline_expirations: scope.counter("deadline_expirations"),
            dc_gmin_bisections: scope.counter("dc_gmin_bisections"),
        }
    })
}

pub(crate) fn tran_metrics() -> &'static TranMetrics {
    TRAN_METRICS.get_or_init(|| {
        let scope = clocksense_telemetry::global().scope("tran");
        TranMetrics {
            steps_accepted: scope.counter("steps_accepted"),
            steps_rejected: scope.counter("steps_rejected"),
            lte_step_shrinks: scope.counter("lte_step_shrinks"),
            lte_step_growths: scope.counter("lte_step_growths"),
            breakpoint_clamps: scope.counter("breakpoint_clamps"),
            predictor_newton_iters_saved: scope.counter("predictor_newton_iters_saved"),
        }
    })
}

pub(crate) fn metrics() -> &'static SpiceMetrics {
    METRICS.get_or_init(|| {
        let scope = clocksense_telemetry::global().scope("spice");
        SpiceMetrics {
            newton_solves: scope.counter("newton_solves"),
            newton_iterations: scope.counter("newton_iterations"),
            lu_factorizations: scope.counter("lu_factorizations"),
            convergence_failures: scope.counter("convergence_failures"),
            gmin_steps: scope.counter("gmin_steps"),
            source_steps: scope.counter("source_steps"),
            steps_accepted: scope.counter("steps_accepted"),
            steps_rejected: scope.counter("steps_rejected"),
            step_halvings: scope.counter("step_halvings"),
            breakpoints_hit: scope.counter("breakpoints_hit"),
            slivers_accepted: scope.counter("slivers_accepted"),
            symbolic_analyses: scope.counter("symbolic_analyses"),
            symbolic_reuse_hits: scope.counter("symbolic_reuse_hits"),
            numeric_refactors: scope.counter("numeric_refactors"),
            fill_in: scope.counter("fill_in"),
            symbolic_cache_hits: scope.counter("symbolic_cache_hits"),
            symbolic_cache_misses: scope.counter("symbolic_cache_misses"),
            iters_per_solve: scope.histogram("newton_iters_per_solve", &[1, 2, 4, 8, 16, 32, 64]),
        }
    })
}
