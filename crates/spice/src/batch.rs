//! The batched many-variant transient kernel: K structurally-aligned
//! circuit variants marched in lockstep over **one** symbolic structure,
//! with the numeric state held in SIMD-width *lane blocks*.
//!
//! Value variants of one deck (the starved-link variants of a clock
//! mesh, fault values, Monte-Carlo samples) differ from each other in
//! device *values* and source *waveforms*, almost never in topology. The
//! scalar path already shares the symbolic analysis across such variants
//! through a [`SymbolicCache`]; this module goes further and shares the
//! whole numeric march:
//!
//! * **SoA lane packing** — one CSR pattern ([`Symbolic`]), one compiled
//!   stamp plan, and the variants' numeric planes interleaved into
//!   [`LANE_WIDTH`]-wide blocks: slot `s` of lane `l` lives at
//!   `vals[s * LANE_WIDTH + l]`, so every per-slot operation of the LU
//!   sweep is one contiguous lane-wide loop the compiler autovectorizes.
//!   The LU is the sparse module's width-generic kernel, the same code
//!   the scalar [`SparseMatrix`] solve runs at width 1, so the lanes
//!   need no reassociation and agree with the scalar path bit-for-bit
//!   up to the sign of zeros.
//! * **Delta stamping** — devices whose value is identical across the
//!   batch are stamped once into a *baseline plane*; each iteration
//!   broadcasts the baseline across the lanes and only the differing
//!   devices (the fault/perturbation deltas) are stamped per lane on top.
//! * **Masked lane dropout** — Newton runs across the block with a
//!   per-lane mask: converged lanes stop iterating, failed lanes park in
//!   place (their values ride along, ignored) instead of forcing a
//!   repack, so one pathological variant never poisons its batchmates.
//!   Failed variants re-run on the scalar path with the full rescue
//!   ladder, exactly as before.
//! * **Amortised singularity check** — one infinity-norm pass and one
//!   pivot test per block sweep cover all lanes; a sub-threshold (or
//!   non-finite) pivot flags only its lane and is overwritten with 1.0
//!   so the surviving lanes' arithmetic streams on undisturbed.
//!
//! Every block takes the same Newton step, linear batches included, so
//! per lane the iterate sequence is the scalar kernel's.
//!
//! The lockstep march takes its step ends from the same breakpoint grid
//! as the scalar marchers. The entry point is [`transient_batch`], which
//! groups aligned variants and packs each group into a `BatchSim`. Unless
//! [`SimOptions::batching`] holds (`batch == 0` by default) every caller
//! stays on the scalar path, bit-identical to [`transient_cached`].

use std::sync::Arc;

use clocksense_netlist::Circuit;

use crate::engine::{MnaSystem, Row, StampPlan};
use crate::error::SpiceError;
use crate::mos_eval::channel_current_lanes;
use crate::options::{IntegrationMethod, SimOptions, ABSTOL, GMIN, RELTOL, VNTOL};
use crate::sparse::{lane_factor, lane_substitute, LuTally, SparseMatrix, Symbolic, SymbolicCache};
use crate::tran::{transient_cached, StepGrid, TranResult};

/// Number of variants interleaved into one SoA lane block. Eight `f64`
/// lanes fill one 64-byte cache line per pattern slot and map 1:1 onto
/// an AVX-512 vector (two AVX2 vectors), which is what lets the lane
/// sweeps autovectorize without any per-slot shuffling.
pub const LANE_WIDTH: usize = 8;

/// Internal shorthand for [`LANE_WIDTH`].
const L: usize = LANE_WIDTH;

/// Per-variant bookkeeping that stays *outside* the lane blocks: the
/// system description, sampled series and failure status. All numeric
/// solver state — matrix planes, iterates, RHS, capacitor states and
/// companions — lives interleaved in the variant's [`LaneBlock`].
struct Variant {
    sys: MnaSystem,
    /// Sampled series, staged step-major (one row of non-ground node
    /// voltages then branch currents per accepted point) so the hot
    /// recording path is a single sequential append; transposed into the
    /// scalar path's node-major layout once, when the batch finishes.
    staged: Vec<f64>,
    /// `Some(err)` once the variant has dropped out of the batch.
    failed: Option<SpiceError>,
}

/// Which devices differ across the batch (delta-stamped per variant) and
/// which are identical (stamped once into the baseline plane).
#[derive(Default)]
struct DeltaSets {
    varying_res: Vec<usize>,
    varying_caps: Vec<usize>,
    /// True per resistor index when its conductance differs across the
    /// batch.
    res_varies: Vec<bool>,
    /// True per capacitor index when its farads differ across the batch.
    cap_varies: Vec<bool>,
}

/// One [`LANE_WIDTH`]-wide slice of the batch: up to `L` variants'
/// numeric state interleaved slot-major, so every solver loop is a walk
/// over pattern slots with a contiguous lane-wide inner loop.
///
/// Lanes `width..L` are padding: they mirror the last real variant's
/// values (keeping the arithmetic finite) and are never scheduled,
/// sampled or reported.
struct LaneBlock {
    /// Index of this block's first variant in the batch.
    base: usize,
    /// Number of real variants in the block (`1..=L`).
    width: usize,
    /// Interleaved value planes, `nnz * L`.
    vals: Vec<f64>,
    /// Iteration-invariant RHS of the current step (waves, current
    /// sources, capacitor `ieq`), `dim * L`.
    rhs_base: Vec<f64>,
    /// Per-iteration RHS: `rhs_base` plus the MOSFET companions.
    rhs: Vec<f64>,
    /// Last accepted / current Newton iterate, `dim * L`.
    x: Vec<f64>,
    /// Newton candidate, `dim * L`.
    x_new: Vec<f64>,
    /// Permuted scratch of the substitution sweeps, `dim * L`.
    y: Vec<f64>,
    /// Row-`k` snapshot buffer of the elimination sweep.
    row_buf: Vec<f64>,
    /// Lane-gathered conductances of the varying resistors (one array
    /// per entry of `DeltaSets::varying_res`).
    res_g: Vec<[f64; L]>,
    /// Lane-gathered farads of the varying capacitors (one array per
    /// entry of `DeltaSets::varying_caps`).
    cap_f: Vec<[f64; L]>,
    /// Lane-gathered MOSFET parameters, one array per device.
    mos_params: Vec<[clocksense_netlist::MosParams; L]>,
    /// Lane-gathered farads of *every* capacitor, `caps * L` interleaved
    /// (padding lanes mirror the last real variant).
    cap_farads: Vec<f64>,
    /// Capacitor integration state at the last accepted point, `caps * L`
    /// interleaved: branch voltage `u` and current `i` — the lane SoA
    /// analogue of the scalar per-variant `CapState` list.
    st_u: Vec<f64>,
    st_i: Vec<f64>,
    /// `(geq, ieq)` capacitor companions of the current step attempt,
    /// `caps * L` interleaved.
    comp_geq: Vec<f64>,
    comp_ieq: Vec<f64>,
}

/// Locally accumulated per-step telemetry, flushed to the `batch.*` and
/// `spice.*` atomics in one `add` per counter per lockstep step — the
/// Newton inner loop touches no shared cache lines. The flushed totals
/// are identical to per-event `incr`s, so clean-report snapshots stay
/// byte-identical.
#[derive(Default)]
struct StepTally {
    accepted: u64,
    lane_scheduled: u64,
    lane_active: u64,
    lane_parked: u64,
    lane_padding: u64,
    lane_factor_sweeps: u64,
    /// Lane Newton iterations: each live lane of a factor sweep counts
    /// one iteration and one LU factorisation, as in the scalar loop.
    newton_iterations: u64,
    lu: LuTally,
}

impl StepTally {
    fn flush(mut self, bm: &crate::metrics::BatchMetrics) {
        bm.steps_accepted.add(self.accepted);
        bm.lane_slots_scheduled.add(self.lane_scheduled);
        bm.lane_slots_active.add(self.lane_active);
        bm.lane_slots_parked.add(self.lane_parked);
        bm.lane_slots_padding.add(self.lane_padding);
        bm.lane_factor_sweeps.add(self.lane_factor_sweeps);
        let tm = crate::metrics::metrics();
        tm.newton_iterations.add(self.newton_iterations);
        tm.lu_factorizations.add(self.newton_iterations);
        self.lu.flush();
    }
}

/// A packed batch: K structurally-aligned circuit variants sharing one
/// symbolic structure, one stamp plan and one baseline stamp, marched in
/// lockstep by [`BatchSim::run`].
///
/// The circuits must share one stamp topology — same node/branch layout
/// and the same matrix positions — with only device values and source
/// waveforms free to differ. [`transient_batch`] groups its input by
/// that alignment and packs each group of two or more.
struct BatchSim {
    variants: Vec<Variant>,
    blocks: Vec<LaneBlock>,
    plan: Arc<StampPlan>,
    /// Scratch plane the shared baseline stamp is built in.
    baseline: SparseMatrix,
    /// The `(h, method)` the baseline plane currently holds; the stamp is
    /// a pure function of those, so an unchanged key skips the rebuild.
    baseline_key: Option<(u64, bool)>,
    deltas: DeltaSets,
    opts: SimOptions,
}

/// Structural alignment check: two systems may share a batch when their
/// matrix layout and every device's node rows coincide — values, waves
/// and MOSFET parameters are free to differ.
fn aligned(a: &MnaSystem, b: &MnaSystem) -> bool {
    a.dim == b.dim
        && a.n_v == b.n_v
        && a.n_nodes == b.n_nodes
        && a.resistors.len() == b.resistors.len()
        && a.capacitors.len() == b.capacitors.len()
        && a.vsources.len() == b.vsources.len()
        && a.isources.len() == b.isources.len()
        && a.mosfets.len() == b.mosfets.len()
        && a.resistors
            .iter()
            .zip(&b.resistors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.capacitors
            .iter()
            .zip(&b.capacitors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.vsources
            .iter()
            .zip(&b.vsources)
            .all(|(x, y)| x.plus == y.plus && x.minus == y.minus)
        && a.isources
            .iter()
            .zip(&b.isources)
            .all(|(x, y)| x.from == y.from && x.to == y.to)
        && a.mosfets
            .iter()
            .zip(&b.mosfets)
            .all(|(x, y)| x.d == y.d && x.g == y.g && x.s == y.s && x.polarity == y.polarity)
}

impl BatchSim {
    /// Packs already-built, already-aligned systems (grouped and
    /// alignment-checked by [`transient_batch`]) over one symbolic
    /// structure, taken from `cache`, and solves each variant's DC
    /// initial condition over the same structure.
    fn from_systems(systems: Vec<MnaSystem>, opts: &SimOptions, cache: &SymbolicCache) -> BatchSim {
        let sys0 = &systems[0];
        let (baseline, plan) = sys0.sparse_matrix(cache);
        let plan = Arc::new(plan);

        // Delta sets: a device is "varying" when any variant disagrees
        // with variant 0 about its value.
        let mut deltas = DeltaSets {
            res_varies: vec![false; sys0.resistors.len()],
            cap_varies: vec![false; sys0.capacitors.len()],
            ..DeltaSets::default()
        };
        for j in 0..sys0.resistors.len() {
            if systems
                .iter()
                .any(|s| s.resistors[j].conductance != sys0.resistors[j].conductance)
            {
                deltas.varying_res.push(j);
                deltas.res_varies[j] = true;
            }
        }
        for j in 0..sys0.capacitors.len() {
            if systems
                .iter()
                .any(|s| s.capacitors[j].farads != sys0.capacitors[j].farads)
            {
                deltas.varying_caps.push(j);
                deltas.cap_varies[j] = true;
            }
        }

        let nnz = baseline.symbolic().nnz();
        let dim = sys0.dim;
        let mut variants: Vec<Variant> = systems
            .into_iter()
            .map(|sys| Variant {
                sys,
                staged: Vec::new(),
                failed: None,
            })
            .collect();
        let mut blocks: Vec<LaneBlock> = (0..variants.len().div_ceil(L))
            .map(|b| {
                LaneBlock::new(
                    b * L,
                    (variants.len() - b * L).min(L),
                    nnz,
                    dim,
                    &variants,
                    &deltas,
                )
            })
            .collect();

        // DC initial conditions, per variant (the same continuation path
        // the scalar transient takes), over the structure fetched above.
        // A DC failure is an immediate dropout; the solution scatters
        // into the variant's lane.
        for (i, v) in variants.iter_mut().enumerate() {
            match crate::dc::solve_with_continuation(&v.sys, 0.0, opts, cache) {
                Ok(x0) => {
                    let block = &mut blocks[i / L];
                    block.seed_states(i % L, &v.sys, &x0);
                    block.scatter_x(i % L, &x0);
                    v.record_sample(&block.x, i % L);
                }
                Err(e) => v.failed = Some(e),
            }
        }

        BatchSim {
            variants,
            blocks,
            plan,
            baseline,
            baseline_key: None,
            deltas,
            opts: opts.clone(),
        }
    }

    /// Marches the whole batch in lockstep from `t = 0` to `t_stop` and
    /// returns one result per variant, in packing order.
    ///
    /// A variant whose Newton solve fails at the lockstep step — or whose
    /// DC initial condition cannot be found — **drops out** with its
    /// structured error; its lane parks in place and its batchmates are
    /// unaffected. Callers wanting the scalar path's step-halving and
    /// rescue ladder for dropouts re-run them via [`transient_cached`]
    /// (exactly what [`transient_batch`] does).
    ///
    /// # Errors
    ///
    /// Per-variant: [`SpiceError::NonConvergence`] /
    /// [`SpiceError::SingularMatrix`] on a dropped-out variant,
    /// [`SpiceError::DeadlineExceeded`] once
    /// [`SimOptions::deadline`](crate::SimOptions::deadline) expires, and
    /// [`SpiceError::InvalidOption`] for a bad `t_stop`.
    fn run(mut self, t_stop: f64) -> Vec<Result<TranResult, SpiceError>> {
        if !(t_stop.is_finite() && t_stop > 0.0) {
            let err = || {
                Err(SpiceError::InvalidOption(format!(
                    "t_stop must be finite and positive, got {t_stop}"
                )))
            };
            return self.variants.iter().map(|_| err()).collect();
        }
        let bm = crate::metrics::batch_metrics();
        bm.batches_run.incr();
        bm.lane_blocks.add(self.blocks.len() as u64);

        let opts = self.opts.clone();
        let sym = Arc::clone(self.baseline.symbolic());

        // Lockstep time grid: the union of every variant's source
        // breakpoints. Identical waves across the batch (pure value
        // variants) make this grid — and therefore every sample — land on
        // exactly the scalar grid.
        let mut grid = StepGrid::new(self.variants.iter().map(|v| &v.sys), t_stop, opts.tstep_min);

        // The lockstep grid is deterministic (no halving), so the sample
        // count is bounded up front; one exact reservation per variant
        // keeps the hot recording path free of reallocation. A window too
        // long to reserve for (the size overflows or the allocator
        // refuses) grows the buffer as samples arrive instead.
        let est_samples = ((t_stop / opts.tstep).ceil() as usize).saturating_add(grid.len() + 4);
        for v in &mut self.variants {
            let row = (v.sys.n_nodes - 1) + v.sys.vsources.len();
            let _ = v.staged.try_reserve(est_samples.saturating_mul(row));
        }

        let mut times: Vec<f64> = vec![0.0];
        let mut t = 0.0;
        let mut force_be = true;

        while grid.unfinished(t) {
            if self.variants.iter().all(|v| v.failed.is_some()) {
                break;
            }
            if let Some(deadline) = &opts.deadline {
                if deadline.expired() {
                    for v in &mut self.variants {
                        if v.failed.is_none() {
                            v.failed = Some(SpiceError::DeadlineExceeded { time: t });
                        }
                    }
                    break;
                }
            }
            let (t_next, hit_breakpoint) = grid.step_end(t + opts.tstep);
            if hit_breakpoint {
                grid.consume();
            }
            let h = t_next - t;
            let be = force_be || opts.method == IntegrationMethod::BackwardEuler;

            let baseline_key = (h.to_bits(), be);
            if self.baseline_key != Some(baseline_key) {
                self.stamp_baseline(h, be);
                self.baseline_key = Some(baseline_key);
            }
            let mut tally = StepTally::default();

            let (plan, deltas, baseline) = (&self.plan, &self.deltas, &self.baseline);
            for block in &mut self.blocks {
                let vars = &mut self.variants[block.base..block.base + block.width];
                tally.lane_scheduled += L as u64;
                tally.lane_padding += (L - block.width) as u64;
                let active_lanes = vars.iter().filter(|v| v.failed.is_none()).count() as u64;
                tally.lane_active += active_lanes;
                tally.lane_parked += block.width as u64 - active_lanes;
                if active_lanes == 0 {
                    continue;
                }
                block.step_newton(
                    vars, &sym, plan, deltas, baseline, t_next, h, be, &opts, &mut tally,
                );
            }
            tally.flush(bm);

            times.push(t_next);
            t = t_next;
            force_be = hit_breakpoint;
        }

        let times: Arc<[f64]> = times.into();
        self.variants
            .into_iter()
            .map(|v| match v.failed {
                Some(e) => Err(e),
                None => {
                    bm.variants_batched.incr();
                    let (node_values, branch_values) = v.unstage(times.len());
                    Ok(TranResult::from_parts(
                        Arc::clone(&times),
                        node_values,
                        branch_values,
                        v.sys.node_names.clone(),
                        v.sys.vsources.iter().map(|s| s.name.clone()).collect(),
                    ))
                }
            })
            .collect()
    }

    /// Builds the shared baseline plane for a step of size `h` with the
    /// given method: batch-invariant resistors, the voltage sources' ±1
    /// constraint stamps, batch-invariant capacitor conductances and the
    /// diagonal gmin. Everything here is identical for every variant, so
    /// it is stamped once and lane-broadcast per Newton iteration.
    fn stamp_baseline(&mut self, h: f64, be: bool) {
        let sys = &self.variants[0].sys;
        let plan = &self.plan;
        self.baseline.clear();
        let vals = self.baseline.values_mut();
        for (j, (r, slots)) in sys.resistors.iter().zip(&plan.res).enumerate() {
            if !self.deltas.res_varies[j] {
                slots.stamp_vals_lanes::<1>(vals, &[r.conductance]);
            }
        }
        for slots in &plan.vsrc {
            if let Some(s) = slots.p_b {
                vals[s] += 1.0;
            }
            if let Some(s) = slots.b_p {
                vals[s] += 1.0;
            }
            if let Some(s) = slots.n_b {
                vals[s] -= 1.0;
            }
            if let Some(s) = slots.b_n {
                vals[s] -= 1.0;
            }
        }
        for (j, (c, slots)) in sys.capacitors.iter().zip(&plan.caps).enumerate() {
            if !self.deltas.cap_varies[j] {
                let geq = if be { c.farads / h } else { 2.0 * c.farads / h };
                slots.stamp_pair_vals_lanes::<1>(vals, &[geq]);
            }
        }
        for &slot in &plan.node_diag {
            vals[slot] += GMIN;
        }
    }
}

/// Reads lane `lane` of unknown row `row` from an interleaved solution
/// block (`None` is ground, fixed at 0 V) — the lane analogue of
/// [`MnaSystem::voltage`].
#[inline(always)]
fn lane_voltage(x: &[f64], row: Row, lane: usize) -> f64 {
    match row {
        Some(r) => x[r * L + lane],
        None => 0.0,
    }
}

/// `vals[slot][lane] += g[lane]` over all lanes, skipping ground slots.
#[inline(always)]
fn lane_add(vals: &mut [f64], slot: Option<usize>, g: &[f64; L]) {
    if let Some(s) = slot {
        for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
            *v += gl;
        }
    }
}

/// `vals[slot][lane] -= g[lane]` over all lanes, skipping ground slots.
#[inline(always)]
fn lane_sub(vals: &mut [f64], slot: Option<usize>, g: &[f64; L]) {
    if let Some(s) = slot {
        for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
            *v -= gl;
        }
    }
}

/// Whether every unknown of lane `lane` in the candidate block is finite
/// — the lane analogue of the scalar substitute's solution check.
#[inline(always)]
fn lane_finite(x_new: &[f64], dim: usize, lane: usize) -> bool {
    (0..dim).all(|r| x_new[r * L + lane].is_finite())
}

/// The scalar Newton convergence test and damped update applied to lane
/// `lane`: candidate `x_new` over iterate `x`, both interleaved. Returns
/// whether every unknown was already inside tolerance *before* the
/// update — the same accept semantics, in the same per-row order, as the
/// scalar loop.
fn converge_update_lane(
    x: &mut [f64],
    x_new: &[f64],
    lane: usize,
    n_v: usize,
    dim: usize,
    opts: &SimOptions,
) -> bool {
    let mut converged = true;
    for r in 0..dim {
        let xi = x[r * L + lane];
        let xn = x_new[r * L + lane];
        let delta = xn - xi;
        let tol = if r < n_v {
            VNTOL + RELTOL * xi.abs().max(xn.abs())
        } else {
            ABSTOL + RELTOL * xi.abs().max(xn.abs())
        };
        if delta.abs() > tol {
            converged = false;
        }
        let clamped = if r < n_v {
            delta.clamp(-opts.newton_damping, opts.newton_damping)
        } else {
            delta
        };
        x[r * L + lane] += clamped;
    }
    converged
}

/// Appends every accepting lane's solution column to its variant's
/// staged series. The unknown order (node voltages then branch currents)
/// is exactly the staged row layout, so this is a pure 8-lane transpose:
/// the interleaved source block is L1-resident, each lane gathers it
/// strided and writes its own tail sequentially, and the up-front
/// `reserve` in `run` keeps the `extend`s realloc-free.
fn record_lanes(vars: &mut [Variant], x: &[f64], dim: usize, accept: &[bool; L]) {
    let x = &x[..dim * L];
    for (l, v) in vars.iter_mut().enumerate() {
        if accept[l] {
            // `l % L` is an identity (callers index lanes) that lets the
            // compiler drop the per-row bounds check on the gather.
            let l = l % L;
            v.staged.extend(x.chunks_exact(L).map(|line| line[l]));
        }
    }
}

impl LaneBlock {
    /// Packs variants `base..base + width` into one interleaved block.
    /// Padding lanes (`width..L`) mirror the last real variant's device
    /// values so their ride-along arithmetic stays finite.
    fn new(
        base: usize,
        width: usize,
        nnz: usize,
        dim: usize,
        variants: &[Variant],
        deltas: &DeltaSets,
    ) -> LaneBlock {
        let src = |l: usize| &variants[base + l.min(width - 1)];
        let res_g = deltas
            .varying_res
            .iter()
            .map(|&j| std::array::from_fn(|l| src(l).sys.resistors[j].conductance))
            .collect();
        let cap_f = deltas
            .varying_caps
            .iter()
            .map(|&j| std::array::from_fn(|l| src(l).sys.capacitors[j].farads))
            .collect();
        let mos_params = (0..variants[base].sys.mosfets.len())
            .map(|mi| std::array::from_fn(|l| src(l).sys.mosfets[mi].params))
            .collect();
        let n_caps = variants[base].sys.capacitors.len();
        let mut cap_farads = vec![0.0; n_caps * L];
        for (k, f) in cap_farads.iter_mut().enumerate() {
            *f = src(k % L).sys.capacitors[k / L].farads;
        }
        let mut block = LaneBlock {
            base,
            width,
            vals: vec![0.0; nnz * L],
            rhs_base: vec![0.0; dim * L],
            rhs: vec![0.0; dim * L],
            x: vec![0.0; dim * L],
            x_new: vec![0.0; dim * L],
            y: vec![0.0; dim * L],
            row_buf: Vec::new(),
            res_g,
            cap_f,
            mos_params,
            cap_farads,
            st_u: vec![0.0; n_caps * L],
            st_i: vec![0.0; n_caps * L],
            comp_geq: vec![0.0; n_caps * L],
            comp_ieq: vec![0.0; n_caps * L],
        };
        // Chaos hook: an armed plan may overwrite one gathered device
        // value of a single lane with NaN/Inf. The lane's own Newton
        // step must then fail with a structured error and drop out,
        // while the masked sweeps keep every other lane's
        // arithmetic untouched — the no-cross-lane-contamination
        // invariant the torture harness verifies.
        if let Some((lane, poison)) = clocksense_chaos::lane_poison_hook(block.width) {
            block.poison_lane(lane, poison);
        }
        block
    }

    /// Overwrites one gathered device value of `lane` with `poison`:
    /// the first varying resistor's conductance when one exists, else
    /// the first capacitor's farads (both the delta-stamp array and the
    /// interleaved integration copy, which must stay consistent).
    fn poison_lane(&mut self, lane: usize, poison: f64) {
        if let Some(g) = self.res_g.first_mut() {
            g[lane] = poison;
        } else if !self.cap_farads.is_empty() {
            if let Some(f) = self.cap_f.first_mut() {
                f[lane] = poison;
            }
            self.cap_farads[lane] = poison;
        }
    }

    /// Seeds lane `lane`'s capacitor states from a scalar DC solution:
    /// branch voltage from the operating point, zero branch current —
    /// exactly the scalar transient's initialisation.
    fn seed_states(&mut self, lane: usize, sys: &MnaSystem, x0: &[f64]) {
        for (j, c) in sys.capacitors.iter().enumerate() {
            self.st_u[j * L + lane] = MnaSystem::voltage(x0, c.a) - MnaSystem::voltage(x0, c.b);
            self.st_i[j * L + lane] = 0.0;
        }
    }

    /// Computes every lane's capacitor companions for a step of size `h`
    /// in one pass over the interleaved state arrays — the lane analogue
    /// of the scalar per-variant `(geq, ieq)` rebuild. Failed and padding
    /// lanes compute along: their inputs are finite (zero-seeded or
    /// mirrored), the results are finite, and nothing reads them back.
    fn companions_lanes(&mut self, h: f64, be: bool) {
        if be {
            for (((geq, ieq), &f), &u) in self
                .comp_geq
                .iter_mut()
                .zip(self.comp_ieq.iter_mut())
                .zip(&self.cap_farads)
                .zip(&self.st_u)
            {
                *geq = f / h;
                *ieq = *geq * u;
            }
        } else {
            for ((((geq, ieq), &f), &u), &i) in self
                .comp_geq
                .iter_mut()
                .zip(self.comp_ieq.iter_mut())
                .zip(&self.cap_farads)
                .zip(&self.st_u)
                .zip(&self.st_i)
            {
                *geq = 2.0 * f / h;
                *ieq = *geq * u + i;
            }
        }
    }

    /// Updates the capacitor states of every lane from the current
    /// iterate in one pass over the capacitors: each cap's two solution
    /// lines are read once and feed all `L` lanes. Runs unmasked — a
    /// failed lane's states are never read again and a padding lane's
    /// are never reported, so overwriting them is observationally
    /// equivalent to the scalar path's converged-only update.
    fn accept_states(&mut self, sys: &MnaSystem) {
        for (j, cap) in sys.capacitors.iter().enumerate() {
            let base = j * L;
            // Hoisting the terminal match out of the lane loop leaves each
            // arm a contiguous, branch-free 8-wide line operation.
            for l in 0..L {
                // `- 0.0` is kept (not elided) so grounded terminals
                // reproduce the scalar path's signed zeros exactly.
                let u = match (cap.a, cap.b) {
                    (Some(ra), Some(rb)) => self.x[ra * L + l] - self.x[rb * L + l],
                    (Some(ra), None) => self.x[ra * L + l] - 0.0,
                    (None, Some(rb)) => 0.0 - self.x[rb * L + l],
                    (None, None) => 0.0,
                };
                self.st_u[base + l] = u;
                self.st_i[base + l] = self.comp_geq[base + l] * u - self.comp_ieq[base + l];
            }
        }
    }

    /// Scatters a variant's solution vector into its lane of `x`.
    fn scatter_x(&mut self, lane: usize, x0: &[f64]) {
        for (r, &xv) in x0.iter().enumerate() {
            self.x[r * L + lane] = xv;
        }
    }

    /// Broadcasts the baseline plane across all lanes, then delta-stamps
    /// the varying resistors and varying capacitor conductances per lane
    /// — the lane analogue of the scalar "memcpy + delta" stamp.
    fn stamp_lanes(
        &mut self,
        plan: &StampPlan,
        deltas: &DeltaSets,
        baseline: &SparseMatrix,
        h: f64,
        be: bool,
    ) {
        for (lanes, &b) in self.vals.chunks_exact_mut(L).zip(baseline.values()) {
            lanes.fill(b);
        }
        for (g, &j) in self.res_g.iter().zip(&deltas.varying_res) {
            plan.res[j].stamp_vals_lanes(&mut self.vals, g);
        }
        for (farads, &j) in self.cap_f.iter().zip(&deltas.varying_caps) {
            let mut geq = [0.0f64; L];
            for (gl, f) in geq.iter_mut().zip(farads) {
                *gl = if be { f / h } else { 2.0 * f / h };
            }
            plan.caps[j].stamp_pair_vals_lanes(&mut self.vals, &geq);
        }
    }

    /// Builds the iteration-invariant RHS of the step for every lane:
    /// source waves, current sources and capacitor `ieq`, in the scalar
    /// `build_rhs` order per lane. Padding lanes mirror the last real
    /// variant.
    fn build_rhs_base(&mut self, vars: &[Variant], plan: &StampPlan, t_next: f64) {
        self.rhs_base.fill(0.0);
        let width = vars.len();
        for (si, slots) in plan.vsrc.iter().enumerate() {
            let row = slots.rhs_row * L;
            for l in 0..L {
                let v = &vars[l.min(width - 1)];
                self.rhs_base[row + l] += v.sys.vsources[si].wave.value_at(t_next);
            }
        }
        for ii in 0..vars[0].sys.isources.len() {
            for l in 0..L {
                let src = &vars[l.min(width - 1)].sys.isources[ii];
                let value = src.wave.value_at(t_next);
                if let Some(f) = src.from {
                    self.rhs_base[f * L + l] -= value;
                }
                if let Some(to) = src.to {
                    self.rhs_base[to * L + l] += value;
                }
            }
        }
        for (j, slots) in plan.caps.iter().enumerate() {
            let ieq: &[f64; L] = self.comp_ieq[j * L..j * L + L]
                .try_into()
                .expect("lane-wide companion row");
            slots.stamp_rhs_lanes(&mut self.rhs_base, ieq);
        }
    }

    /// Evaluates and stamps every MOSFET's linearised companion across
    /// all lanes: one [`channel_current_lanes`] call per device, then
    /// lane-wide Jacobian, RHS and gmin stamps in the scalar per-device
    /// order.
    fn stamp_mos_lanes(&mut self, vars: &[Variant], plan: &StampPlan) {
        let gmin_lanes = [GMIN; L];
        for (mi, slots) in plan.mos.iter().enumerate() {
            let mos0 = &vars[0].sys.mosfets[mi];
            let mut vd = [0.0f64; L];
            let mut vg = [0.0f64; L];
            let mut vs = [0.0f64; L];
            for l in 0..L {
                vd[l] = lane_voltage(&self.x, mos0.d, l);
                vg[l] = lane_voltage(&self.x, mos0.g, l);
                vs[l] = lane_voltage(&self.x, mos0.s, l);
            }
            let ops = channel_current_lanes(mos0.polarity, &self.mos_params[mi], &vd, &vg, &vs);
            let mut g_d = [0.0f64; L];
            let mut g_g = [0.0f64; L];
            let mut g_s = [0.0f64; L];
            let mut i_eq = [0.0f64; L];
            for l in 0..L {
                g_d[l] = ops[l].g_d;
                g_g[l] = ops[l].g_g;
                g_s[l] = ops[l].g_s;
                i_eq[l] = ops[l].id - g_d[l] * vd[l] - g_g[l] * vg[l] - g_s[l] * vs[l];
            }
            lane_add(&mut self.vals, slots.dd, &g_d);
            lane_add(&mut self.vals, slots.dg, &g_g);
            lane_add(&mut self.vals, slots.ds, &g_s);
            lane_sub(&mut self.vals, slots.sd, &g_d);
            lane_sub(&mut self.vals, slots.sg, &g_g);
            lane_sub(&mut self.vals, slots.ss, &g_s);
            if let Some(d) = slots.d {
                for (r, il) in self.rhs[d * L..d * L + L].iter_mut().zip(&i_eq) {
                    *r -= il;
                }
            }
            if let Some(s) = slots.s {
                for (r, il) in self.rhs[s * L..s * L + L].iter_mut().zip(&i_eq) {
                    *r += il;
                }
            }
            slots.gmin.stamp_vals_lanes(&mut self.vals, &gmin_lanes);
        }
    }

    /// Full Newton step of one block for a batch with MOSFETs: every
    /// iteration broadcasts the baseline, delta-stamps, evaluates the
    /// MOSFETs lane-wide, then runs one masked factor sweep and one
    /// lane-wide substitution for all still-solving lanes. Converged and
    /// failed lanes park in place; per lane the iterate sequence is the
    /// scalar kernel's.
    #[allow(clippy::too_many_arguments)]
    fn step_newton(
        &mut self,
        vars: &mut [Variant],
        sym: &Symbolic,
        plan: &StampPlan,
        deltas: &DeltaSets,
        baseline: &SparseMatrix,
        t_next: f64,
        h: f64,
        be: bool,
        opts: &SimOptions,
        tally: &mut StepTally,
    ) {
        let dim = vars[0].sys.dim;
        let mut solving = [false; L];
        for (l, v) in vars.iter_mut().enumerate() {
            if v.failed.is_none() {
                solving[l] = true;
            }
        }
        let mut done = [false; L];
        self.companions_lanes(h, be);
        self.build_rhs_base(vars, plan, t_next);
        for _ in 0..opts.max_newton_iters {
            if !solving.iter().any(|&s| s) {
                break;
            }
            if let Some(deadline) = &opts.deadline {
                if deadline.expired() {
                    for (l, v) in vars.iter_mut().enumerate() {
                        if solving[l] {
                            v.failed = Some(SpiceError::DeadlineExceeded { time: t_next });
                            solving[l] = false;
                        }
                    }
                    break;
                }
            }
            self.stamp_lanes(plan, deltas, baseline, h, be);
            self.rhs.copy_from_slice(&self.rhs_base);
            self.stamp_mos_lanes(vars, plan);
            let singular = lane_factor::<L>(sym, &mut self.vals, &mut self.row_buf);
            tally.lane_factor_sweeps += 1;
            let live = solving.iter().filter(|&&s| s).count() as u64;
            tally.newton_iterations += live;
            tally.lu.refactors += live;
            tally.lu.reuse_hits += live;
            for (l, v) in vars.iter_mut().enumerate() {
                if solving[l] && singular[l] {
                    v.failed = Some(SpiceError::SingularMatrix);
                    solving[l] = false;
                }
            }
            if !solving.iter().any(|&s| s) {
                break;
            }
            lane_substitute::<L>(sym, &self.vals, &self.rhs, &mut self.y, &mut self.x_new);
            for (l, v) in vars.iter_mut().enumerate() {
                if !solving[l] {
                    continue;
                }
                if !lane_finite(&self.x_new, dim, l) {
                    v.failed = Some(SpiceError::SingularMatrix);
                    solving[l] = false;
                    continue;
                }
                if converge_update_lane(&mut self.x, &self.x_new, l, v.sys.n_v, dim, opts) {
                    done[l] = true;
                    solving[l] = false;
                }
            }
        }
        for (l, v) in vars.iter_mut().enumerate() {
            if done[l] {
                tally.accepted += 1;
            } else if solving[l] {
                v.failed = Some(SpiceError::NonConvergence {
                    time: t_next,
                    diagnostics: None,
                });
            }
        }
        self.accept_states(&vars[0].sys);
        record_lanes(vars, &self.x, dim, &done);
    }
}

impl Variant {
    /// Appends lane `lane` of the block solution as one step-major row of
    /// the staged series: non-ground node voltages, then branch currents.
    /// The append is sequential into one pre-reserved buffer — the scatter
    /// into per-node series happens once, in [`Variant::unstage`].
    fn record_sample(&mut self, x: &[f64], lane: usize) {
        let n_nodes = self.sys.n_nodes;
        let n_v = self.sys.n_v;
        self.staged
            .extend((1..n_nodes).map(|node| x[(node - 1) * L + lane]));
        self.staged
            .extend((0..self.sys.vsources.len()).map(|b| x[(n_v + b) * L + lane]));
    }

    /// Transposes the staged step-major samples into the node-major
    /// series [`TranResult`] stores (row 0 is ground and stays all-zero),
    /// mirroring the scalar `Samples` layout exactly.
    fn unstage(&self, n_samples: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let row = (self.sys.n_nodes - 1) + self.sys.vsources.len();
        debug_assert!(row == 0 || self.staged.len() == n_samples * row);
        let mut cols: Vec<Vec<f64>> = (0..row).map(|_| Vec::with_capacity(n_samples)).collect();
        // Tile-blocked transpose: the columns of one tile share their
        // staged cache lines, so the strided sample walk of each column
        // re-reads lines its tile-mates just pulled into L1 (the walk
        // touches `n_samples` distinct lines — small enough to stay
        // resident across a tile), while every column writes its own
        // series sequentially via a no-recheck `extend`.
        const TILE: usize = 8;
        for tile in (0..row).step_by(TILE) {
            let end = (tile + TILE).min(row);
            for (k, col) in cols[tile..end].iter_mut().enumerate() {
                let c = tile + k;
                col.extend((0..n_samples).map(|s| self.staged[s * row + c]));
            }
        }
        let branch_values = cols.split_off(self.sys.n_nodes - 1);
        let mut node_values = Vec::with_capacity(self.sys.n_nodes);
        node_values.push(vec![0.0; n_samples]);
        node_values.extend(cols);
        (node_values, branch_values)
    }
}

/// Runs a transient analysis of every circuit in `circuits`, batching
/// structurally-aligned variants into lockstep groups of up to
/// [`SimOptions::batch`] and falling back to the scalar
/// [`transient_cached`] path wherever batching does not apply.
///
/// The scalar fallback (per variant) triggers when:
///
/// * [`SimOptions::batching`] is false (`opts.batch < 2`, the
///   [`Dense`](crate::SolverKind::Dense) solver, or an adaptive timestep
///   control) — batching is then disabled wholesale;
/// * a circuit aligns with no other circuit in the slice (singleton
///   group);
/// * a variant **drops out** of its batch: its DC solve or a lockstep
///   Newton step failed. Its lane parks; the variant re-runs scalar from
///   `t = 0` with step halving and the full rescue ladder available, so a
///   variant that is merely *hard* still completes, and one that truly
///   fails reports the scalar path's structured error — batchmates never
///   see any of it.
///
/// Options that fail [`SimOptions::validate`] fail every circuit with
/// the same [`SpiceError::InvalidOption`], as on the scalar path.
///
/// Results are returned in input order. With identical source waveforms
/// across a batch the lockstep grid is exactly the scalar grid; variants
/// whose waves differ (Monte-Carlo slews) march the union of their
/// breakpoints and agree with the scalar path at sample level rather
/// than bit level (see `DESIGN.md` §3.5 and §3.8).
///
/// # Examples
///
/// ```
/// use clocksense_netlist::{Circuit, SourceWave, GROUND};
/// use clocksense_spice::{transient_batch, SimOptions, SolverKind, SymbolicCache};
///
/// fn divider(ohms: f64) -> Circuit {
///     let mut ckt = Circuit::new();
///     let a = ckt.node("a");
///     let b = ckt.node("b");
///     ckt.add_vsource("v", a, GROUND, SourceWave::Dc(1.0)).unwrap();
///     ckt.add_resistor("r1", a, b, ohms).unwrap();
///     ckt.add_resistor("r2", b, GROUND, 1_000.0).unwrap();
///     ckt.add_capacitor("c", b, GROUND, 1e-13).unwrap();
///     ckt
/// }
///
/// let opts = SimOptions {
///     solver: SolverKind::Sparse,
///     batch: 4,
///     ..SimOptions::default()
/// };
/// let cache = SymbolicCache::new();
/// let circuits: Vec<Circuit> = (0..4).map(|i| divider(500.0 + 250.0 * i as f64)).collect();
/// let results = transient_batch(&circuits, 1e-10, &opts, &cache);
/// assert_eq!(results.len(), 4);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
pub fn transient_batch(
    circuits: &[Circuit],
    t_stop: f64,
    opts: &SimOptions,
    cache: &SymbolicCache,
) -> Vec<Result<TranResult, SpiceError>> {
    let scalar = |ckt: &Circuit| transient_cached(ckt, t_stop, opts, cache);
    if !opts.batching() {
        return circuits.iter().map(scalar).collect();
    }
    if let Err(e) = opts.validate() {
        return circuits.iter().map(|_| Err(e.clone())).collect();
    }

    // Group by structural alignment (linear scan over open groups: an
    // input may interleave topology classes, so grouping must not be
    // order-sensitive), then chunk each group to the batch width.
    let mut results: Vec<Option<Result<TranResult, SpiceError>>> =
        (0..circuits.len()).map(|_| None).collect();
    let mut groups: Vec<Vec<(usize, MnaSystem)>> = Vec::new();
    let bm = crate::metrics::batch_metrics();
    for (idx, ckt) in circuits.iter().enumerate() {
        match MnaSystem::build(ckt) {
            Ok(sys) => {
                if let Some(group) = groups.iter_mut().find(|g| aligned(&g[0].1, &sys)) {
                    group.push((idx, sys));
                } else {
                    groups.push(vec![(idx, sys)]);
                }
            }
            // Scalar reproduces the structural error with full context.
            Err(_) => results[idx] = Some(scalar(ckt)),
        }
    }

    for group in groups {
        let mut members = group.into_iter().peekable();
        while members.peek().is_some() {
            // Draining by value hands each chunk's systems to the
            // `BatchSim` without cloning them (a system carries the
            // node-name table, so a clone is hundreds of allocations).
            let chunk: Vec<(usize, MnaSystem)> = members.by_ref().take(opts.batch.max(1)).collect();
            if chunk.len() < 2 {
                for (idx, _) in &chunk {
                    bm.variants_scalar_fallback.incr();
                    results[*idx] = Some(scalar(&circuits[*idx]));
                }
                continue;
            }
            let (idxs, systems): (Vec<usize>, Vec<MnaSystem>) = chunk.into_iter().unzip();
            let sim = BatchSim::from_systems(systems, opts, cache);
            for (idx, outcome) in idxs.iter().zip(sim.run(t_stop)) {
                results[*idx] = Some(match outcome {
                    Ok(r) => Ok(r),
                    Err(e) => {
                        // Dropout: re-run scalar with halving + rescue so
                        // a hard variant still completes, and a failing
                        // one reports the scalar path's structured error.
                        if matches!(e, SpiceError::NonConvergence { .. }) {
                            bm.dropouts_nonconvergence.incr();
                        }
                        bm.variants_scalar_fallback.incr();
                        scalar(&circuits[*idx])
                    }
                });
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every circuit received a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SolverKind;
    use clocksense_netlist::{MosParams, MosPolarity, SourceWave, GROUND};

    fn batch_opts(k: usize) -> SimOptions {
        SimOptions {
            solver: SolverKind::Sparse,
            batch: k,
            ..SimOptions::default()
        }
    }

    fn rc_chain(r1: f64, r2: f64, c1: f64, c2: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.add_vsource(
            "vin",
            inp,
            GROUND,
            SourceWave::step(0.0, 1.0, 10e-12, 20e-12),
        )
        .unwrap();
        ckt.add_resistor("r1", inp, mid, r1).unwrap();
        ckt.add_resistor("r2", mid, out, r2).unwrap();
        ckt.add_capacitor("c1", mid, GROUND, c1).unwrap();
        ckt.add_capacitor("c2", out, GROUND, c2).unwrap();
        ckt
    }

    fn inverter(w_n: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
            .unwrap();
        ckt.add_vsource(
            "vin",
            inp,
            GROUND,
            SourceWave::Pulse {
                v1: 0.0,
                v2: 5.0,
                delay: 0.2e-9,
                rise: 0.1e-9,
                fall: 0.1e-9,
                width: 0.5e-9,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        let nmos = MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: w_n,
            l: 1.2e-6,
            cgs: 3e-15,
            cgd: 3e-15,
            cdb: 4e-15,
        };
        let pmos = MosParams {
            vth0: -0.9,
            kp: 20e-6,
            lambda: 0.02,
            w: 10e-6,
            l: 1.2e-6,
            cgs: 7e-15,
            cgd: 7e-15,
            cdb: 9e-15,
        };
        ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos)
            .unwrap();
        ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos)
            .unwrap();
        ckt.add_capacitor("cl", out, GROUND, 20e-15).unwrap();
        ckt
    }

    fn assert_matches_scalar(circuits: &[Circuit], t_stop: f64, opts: &SimOptions, tol: f64) {
        let cache = SymbolicCache::new();
        let batched = transient_batch(circuits, t_stop, opts, &cache);
        for (ckt, got) in circuits.iter().zip(&batched) {
            let got = got.as_ref().expect("batched variant converged");
            let want = transient_cached(ckt, t_stop, opts, &cache).unwrap();
            assert_eq!(got.times(), want.times(), "lockstep grid == scalar grid");
            for name in want.node_names() {
                let a = got.waveform_named(name).unwrap();
                let b = want.waveform_named(name).unwrap();
                let diff = a.max_abs_difference(&b);
                assert!(diff <= tol, "node {name} deviates by {diff}");
            }
        }
    }

    /// Asserts every result of `transient_batch` equals its own
    /// `transient_cached` run bit for bit, in times and in every node.
    fn assert_bit_equal_to_scalar(circuits: &[Circuit], t_stop: f64, opts: &SimOptions) {
        let cache = SymbolicCache::new();
        let results = transient_batch(circuits, t_stop, opts, &cache);
        assert_eq!(results.len(), circuits.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (ckt, got) in circuits.iter().zip(&results) {
            let got = got.as_ref().expect("variant completes");
            let want = transient_cached(ckt, t_stop, opts, &cache).unwrap();
            assert_eq!(bits(got.times()), bits(want.times()), "times");
            assert_eq!(got.node_names(), want.node_names());
            for name in want.node_names() {
                let a = got.waveform_named(name).unwrap();
                let b = want.waveform_named(name).unwrap();
                assert_eq!(bits(a.values()), bits(b.values()), "node {name}");
            }
        }
    }

    #[test]
    fn linear_batch_matches_scalar() {
        let circuits: Vec<Circuit> = (0..4)
            .map(|i| {
                let f = 1.0 + 0.2 * i as f64;
                rc_chain(1e3 * f, 2e3, 50e-15 / f, 20e-15)
            })
            .collect();
        assert_matches_scalar(&circuits, 0.5e-9, &batch_opts(4), 1e-9);
    }

    #[test]
    fn batch_analyses_its_topology_once() {
        // One lookup packs the batch (the miss); every variant's DC
        // point reuses that structure through the same cache (the hits).
        let k = 5;
        let circuits: Vec<Circuit> = (0..k)
            .map(|i| rc_chain(1e3 * (1.0 + 0.1 * i as f64), 2e3, 50e-15, 20e-15))
            .collect();
        let cache = SymbolicCache::new();
        let results = transient_batch(&circuits, 0.2e-9, &batch_opts(k), &cache);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(cache.stats(), (k as u64, 1), "(hits, misses)");
    }

    #[test]
    fn nonlinear_batch_matches_scalar() {
        let circuits: Vec<Circuit> = (0..3)
            .map(|i| inverter(4e-6 * (1.0 + 0.3 * i as f64)))
            .collect();
        assert_matches_scalar(&circuits, 1e-9, &batch_opts(3), 1e-6);
    }

    #[test]
    fn linear_batch_straddling_lane_boundary_matches_scalar() {
        // K = 9 > LANE_WIDTH: two blocks, the second with seven padding
        // lanes. Every lane must still match its scalar reference.
        let circuits: Vec<Circuit> = (0..9)
            .map(|i| {
                let f = 1.0 + 0.1 * i as f64;
                rc_chain(1e3 * f, 2e3 / f, 50e-15, 20e-15 * f)
            })
            .collect();
        assert_matches_scalar(&circuits, 0.5e-9, &batch_opts(9), 1e-9);
    }

    #[test]
    fn nonlinear_batch_straddling_lane_boundary_matches_scalar() {
        let circuits: Vec<Circuit> = (0..9)
            .map(|i| inverter(4e-6 * (1.0 + 0.1 * i as f64)))
            .collect();
        assert_matches_scalar(&circuits, 1e-9, &batch_opts(9), 1e-6);
    }

    #[test]
    fn lane_width_is_the_documented_simd_width() {
        assert_eq!(LANE_WIDTH, 8);
        assert_eq!(LANE_WIDTH * std::mem::size_of::<f64>(), 64);
    }

    #[test]
    fn unaligned_circuits_fall_back_to_scalar() {
        let mut other = Circuit::new();
        let a = other.node("a");
        other
            .add_vsource("v", a, GROUND, SourceWave::Dc(1.0))
            .unwrap();
        other.add_resistor("r", a, GROUND, 1e3).unwrap();
        let circuits = vec![rc_chain(1e3, 2e3, 50e-15, 20e-15), other];
        assert_bit_equal_to_scalar(&circuits, 0.2e-9, &batch_opts(8));
    }

    #[test]
    fn batch_disabled_routes_everything_scalar() {
        let circuits = vec![
            rc_chain(1e3, 2e3, 50e-15, 20e-15),
            rc_chain(2e3, 2e3, 40e-15, 20e-15),
        ];
        let opts = SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        };
        assert_bit_equal_to_scalar(&circuits, 0.2e-9, &opts);
    }

    fn assert_rejected_by_name(opts: &SimOptions, name: &str) {
        let circuits = [
            rc_chain(1e3, 2e3, 50e-15, 20e-15),
            rc_chain(2e3, 2e3, 40e-15, 20e-15),
        ];
        let cache = SymbolicCache::new();
        let results = transient_batch(&circuits, 0.2e-9, opts, &cache);
        assert_eq!(results.len(), 2);
        for result in results {
            match result {
                Err(SpiceError::InvalidOption(msg)) => assert!(msg.contains(name), "{msg}"),
                other => panic!("expected InvalidOption naming {name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn negative_damping_is_rejected_by_name() {
        let opts = SimOptions {
            newton_damping: -1.0,
            ..batch_opts(8)
        };
        assert_rejected_by_name(&opts, "newton_damping");
    }

    #[test]
    fn tstep_min_above_tstep_is_rejected_by_name() {
        let opts = SimOptions {
            tstep_min: 1.0,
            ..batch_opts(8)
        };
        assert_rejected_by_name(&opts, "tstep_min");
    }

    #[test]
    fn long_window_is_not_reserved_up_front() {
        // 1e7 s at a 1 ps step is ~1e19 samples per variant: the staging
        // buffer cannot be sized for that, so the batch must start anyway
        // and stop at the cancelled deadline like the scalar path does.
        let deadline = clocksense_exec::Deadline::manual();
        deadline.cancel();
        let opts = SimOptions {
            deadline: Some(deadline),
            ..batch_opts(2)
        };
        let circuits = [
            rc_chain(1e3, 2e3, 50e-15, 20e-15),
            rc_chain(2e3, 2e3, 40e-15, 20e-15),
        ];
        let cache = SymbolicCache::new();
        for result in transient_batch(&circuits, 1e7, &opts, &cache) {
            assert!(
                matches!(result, Err(SpiceError::DeadlineExceeded { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn dropout_preserves_batchmates_and_reports_structured_failure() {
        // Variant 1 is pathological: a sub-attosecond pulse the fixed
        // grid cannot resolve with the lockstep step, driving Newton hard
        // enough to fail at the batch's step size; the scalar fallback
        // (halving + rescue) must still complete it — and variant 0 must
        // march through untouched in its parked-neighbour lane.
        let good = rc_chain(1e3, 2e3, 50e-15, 20e-15);
        let cache = SymbolicCache::new();
        let opts = SimOptions {
            max_newton_iters: 2,
            newton_damping: 1e-3,
            ..batch_opts(2)
        };
        let hard = rc_chain(1e3, 2e3, 50e-15, 20e-15);
        let results = transient_batch(&[good.clone(), hard], 0.2e-9, &opts, &cache);
        // Whatever the hard variant's fate, the good one's result must
        // equal its own scalar run under identical options.
        let want = transient_cached(&good, 0.2e-9, &opts, &cache);
        match (&results[0], &want) {
            (Ok(a), Ok(b)) => {
                let d = a
                    .waveform_named("out")
                    .unwrap()
                    .max_abs_difference(&b.waveform_named("out").unwrap());
                assert!(d <= 1e-9, "batchmate perturbed by {d}");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("batch and scalar disagree on the clean variant: {a:?} vs {b:?}"),
        }
    }
}
