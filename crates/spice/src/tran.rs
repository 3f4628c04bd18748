//! Transient analysis.
//!
//! One scalar marching loop, [`march`], integrates every transient from
//! the DC operating point to `t_stop`; [`SimOptions::timestep`] picks its
//! pacing: fixed `tstep` windows (the bit-exact golden reference) or
//! LTE-controlled adaptive steps. Both pacings share the time grid
//! ([`StepGrid`]), the integration attempt, step halving, sliver
//! acceptance, the convergence rescue ladder and the accept path; the
//! batched lockstep march of `crate::batch` shares the grid only.

use std::sync::Arc;

use clocksense_netlist::{Circuit, NodeId};
use clocksense_wave::Waveform;

use crate::engine::{MnaSystem, NewtonWorkspace};
use crate::error::{RescueStage, SpiceError};
use crate::options::{IntegrationMethod, SimOptions, TimestepControl, GMIN, RELTOL, VNTOL};
use crate::sparse::SymbolicCache;

/// Result of a transient analysis: every node voltage and every
/// voltage-source branch current, sampled at each accepted time point.
///
/// The time axis is stored once behind an [`Arc`] and shared with every
/// [`Waveform`] handed out, so probing many nodes of one result — the
/// campaign and Monte-Carlo hot loops — copies only the per-node values,
/// never the grid.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Arc<[f64]>,
    node_values: Vec<Vec<f64>>,
    branch_values: Vec<Vec<f64>>,
    node_names: Vec<String>,
    source_names: Vec<String>,
}

impl TranResult {
    /// The accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform at `node` (ground yields the all-zero waveform).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the analysed circuit.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        assert!(
            node.index() < self.node_values.len(),
            "node {node} not in this analysis"
        );
        Waveform::with_shared_times(
            Arc::clone(&self.times),
            self.node_values[node.index()].clone(),
        )
    }

    /// Voltage waveform looked up by node name.
    pub fn waveform_named(&self, name: &str) -> Option<Waveform> {
        let idx = self.node_names.iter().position(|n| n == name)?;
        Some(Waveform::with_shared_times(
            Arc::clone(&self.times),
            self.node_values[idx].clone(),
        ))
    }

    /// Branch-current waveform of the named voltage source (current flowing
    /// `plus` → `minus` through the source; supplies deliver negative
    /// values — see [`DcSolution::iddq`](crate::DcSolution::iddq) for the
    /// DC sign convention).
    pub fn source_current(&self, name: &str) -> Option<Waveform> {
        let idx = self.source_names.iter().position(|n| n == name)?;
        Some(Waveform::with_shared_times(
            Arc::clone(&self.times),
            self.branch_values[idx].clone(),
        ))
    }

    /// Names of all recorded nodes, in node-id order.
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// Assembles a result from raw sampled series — the construction path
    /// of the batched kernel (`crate::batch`), which accumulates its own
    /// lockstep samples and shares one time axis across the whole batch.
    pub(crate) fn from_parts(
        times: Arc<[f64]>,
        node_values: Vec<Vec<f64>>,
        branch_values: Vec<Vec<f64>>,
        node_names: Vec<String>,
        source_names: Vec<String>,
    ) -> TranResult {
        TranResult {
            times,
            node_values,
            branch_values,
            node_names,
            source_names,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CapState {
    /// Branch voltage at the previous accepted point.
    u: f64,
    /// Branch current at the previous accepted point.
    i: f64,
}

/// Reusable buffers for the transient loop: the Newton workspace (MNA
/// matrix, RHS, LU permutation, solution vectors) plus the capacitor
/// companion and state buffers. Every integration attempt reuses these,
/// so the hot path performs no heap allocation after the first step.
#[derive(Debug, Clone)]
struct TranWorkspace {
    newton: NewtonWorkspace,
    /// `(geq, ieq)` companion per capacitor for the current attempt.
    companions: Vec<(f64, f64)>,
    /// Capacitor states implied by the attempt's solution.
    new_states: Vec<CapState>,
}

impl TranWorkspace {
    fn new(sys: &MnaSystem, opts: &SimOptions, cache: &SymbolicCache) -> Self {
        TranWorkspace {
            newton: NewtonWorkspace::for_system(sys, opts.solver, cache),
            companions: Vec::with_capacity(sys.capacitors.len()),
            new_states: Vec::with_capacity(sys.capacitors.len()),
        }
    }

    /// One integration attempt over `[t_next - h, t_next]`, with `x` as
    /// the Newton starting point (the last accepted solution, or a
    /// predictor extrapolation) and `gmin` as the channel/diagonal
    /// conductance of this solve (the target [`GMIN`] everywhere
    /// except on the rungs of a rescue gmin ramp). On success the
    /// solution is left in `self.newton.x` and the updated capacitor
    /// states in `self.new_states`; the caller swaps them in on accept.
    /// Returns the Newton iteration count of the solve.
    #[allow(clippy::too_many_arguments)]
    fn try_step(
        &mut self,
        sys: &MnaSystem,
        x: &[f64],
        states: &[CapState],
        t_next: f64,
        h: f64,
        backward_euler: bool,
        gmin: f64,
        opts: &SimOptions,
    ) -> Result<u64, SpiceError> {
        // Companion model per capacitor: i = geq * u - ieq.
        self.companions.clear();
        self.companions
            .extend(sys.capacitors.iter().zip(states).map(|(c, st)| {
                if backward_euler {
                    let geq = c.farads / h;
                    (geq, geq * st.u)
                } else {
                    let geq = 2.0 * c.farads / h;
                    (geq, geq * st.u + st.i)
                }
            }));

        let companions = &self.companions;
        let iters = sys.newton_solve_ws(
            t_next,
            x,
            opts,
            gmin,
            1.0,
            |m, rhs, plan| {
                for (slots, &(geq, ieq)) in plan.caps.iter().zip(companions) {
                    slots.stamp(m, rhs, geq, ieq);
                }
            },
            &mut self.newton,
        )?;

        let x_new = &self.newton.x;
        self.new_states.clear();
        self.new_states
            .extend(
                sys.capacitors
                    .iter()
                    .zip(&self.companions)
                    .map(|(cap, &(geq, ieq))| {
                        let u = MnaSystem::voltage(x_new, cap.a) - MnaSystem::voltage(x_new, cap.b);
                        CapState {
                            u,
                            i: geq * u - ieq,
                        }
                    }),
            );
        Ok(iters)
    }
}

/// What the rescue ladder made of a timepoint the halving loop gave up on.
enum RescueOutcome {
    /// Some stage converged at the target [`GMIN`]: the solution is in
    /// `ws.newton.x` / `ws.new_states`, ready for the usual accept swap.
    /// `used_be` reports whether the accepted solve integrated with
    /// backward Euler (fixed pacing then keeps BE for the rest of its
    /// window — mixing methods mid-window would corrupt the trapezoidal
    /// state history).
    Rescued { used_be: bool },
    /// Every stage failed; the error carries enriched diagnostics.
    Failed(SpiceError),
}

/// The convergence rescue ladder, tried only after bounded step halving
/// has exhausted (`h` is already the smallest step the caller may take):
///
/// 1. a **local gmin ramp** at the failing timepoint — re-solve at a
///    heavily padded diagonal (1e-3 S) and walk it geometrically back
///    down to [`GMIN`], warm-starting every rung from the previous
///    rung's solution;
/// 2. a **trapezoidal → backward-Euler downgrade** for this step (L-stable,
///    no oscillatory companion terms), first plain, then combined with
///    the gmin ramp.
///
/// Rescue solves also run with a 4x-lifted Newton iteration cap: step
/// halving has already exhausted, so this path is cold and can afford
/// the iterations a budget-starved hot loop cannot — the same `itl`
/// relaxation production simulators apply to their recovery passes.
///
/// Only a solve at the target [`GMIN`] is ever accepted, so a rescued
/// point satisfies exactly the same system as an ordinary one — the
/// ladder changes which starting points Newton gets (and how long it may
/// walk), never the answer. Callers must not invoke this on a clean
/// path: every entry records `rescue.*` telemetry.
#[allow(clippy::too_many_arguments)]
fn rescue_step(
    sys: &MnaSystem,
    ws: &mut TranWorkspace,
    x: &[f64],
    states: &[CapState],
    t_next: f64,
    h: f64,
    already_be: bool,
    opts: &SimOptions,
    base_err: SpiceError,
) -> RescueOutcome {
    let rm = crate::metrics::rescue_metrics();
    let mut stages = vec![RescueStage::StepHalving];
    let mut gmin_reached = f64::NAN;
    let mut last_err = base_err;

    // Cold path: the clone buys every rescue solve the lifted budget.
    let lifted = SimOptions {
        max_newton_iters: opts.max_newton_iters.saturating_mul(4),
        ..opts.clone()
    };
    let opts = &lifted;

    // Attempts in ladder order: a gmin ramp with the current integration
    // method, then (for trapezoidal runs) a plain backward-Euler retry
    // and a backward-Euler gmin ramp. `(stage, use_be, with_ramp)`.
    let mut attempts = vec![(RescueStage::GminRamp, already_be, true)];
    if !already_be {
        attempts.push((RescueStage::BackwardEulerDowngrade, true, false));
        attempts.push((RescueStage::BackwardEulerDowngrade, true, true));
    }

    for (stage, be, with_ramp) in attempts {
        if !stages.contains(&stage) {
            stages.push(stage);
        }
        let result = if with_ramp {
            rm.gmin_ramps.incr();
            gmin_ramp(sys, ws, x, states, t_next, h, be, opts, &mut gmin_reached)
        } else {
            rm.be_downgrades.incr();
            ws.try_step(sys, x, states, t_next, h, be, GMIN, opts)
                .map(|_| ())
        };
        match result {
            Ok(()) => {
                rm.steps_rescued.incr();
                return RescueOutcome::Rescued { used_be: be };
            }
            Err(e @ SpiceError::NonConvergence { .. }) => last_err = e,
            // Anything else (deadline, singular matrix) aborts the ladder.
            Err(e) => return RescueOutcome::Failed(e),
        }
    }

    rm.ladder_failures.incr();
    // Enrich whichever diagnostics the final attempt produced with the
    // full ladder trace.
    if let SpiceError::NonConvergence {
        diagnostics: Some(d),
        ..
    } = &mut last_err
    {
        d.stages_tried = stages;
        if gmin_reached.is_finite() {
            d.gmin_reached = gmin_reached;
        }
    }
    RescueOutcome::Failed(last_err)
}

/// One gmin-ramp pass: solve at `GMIN_START`, then at geometrically
/// decreasing gmin down to [`GMIN`], each rung warm-started from the
/// previous rung's solution. Succeeds only if the final, target-gmin rung
/// converges (its solution is then in `ws.newton`); any rung failure
/// fails the pass.
#[allow(clippy::too_many_arguments)]
fn gmin_ramp(
    sys: &MnaSystem,
    ws: &mut TranWorkspace,
    x: &[f64],
    states: &[CapState],
    t_next: f64,
    h: f64,
    be: bool,
    opts: &SimOptions,
    gmin_reached: &mut f64,
) -> Result<(), SpiceError> {
    const GMIN_START: f64 = 1e-3;
    let rm = crate::metrics::rescue_metrics();
    let mut rungs: Vec<f64> = Vec::new();
    let mut g = GMIN_START;
    while g > GMIN * 10.0 {
        rungs.push(g);
        g /= 10.0;
    }
    rungs.push(GMIN);

    // Cold path: one warm-start buffer allocation per ramp is fine.
    let mut x_start: Vec<f64> = x.to_vec();
    for (i, &rung) in rungs.iter().enumerate() {
        ws.try_step(sys, &x_start, states, t_next, h, be, rung, opts)?;
        rm.gmin_ramp_rungs.incr();
        if rung < *gmin_reached || gmin_reached.is_nan() {
            *gmin_reached = rung;
        }
        if i + 1 < rungs.len() {
            x_start.copy_from_slice(&ws.newton.x);
        }
    }
    Ok(())
}

/// Runs a transient analysis of `circuit` from `t = 0` to `t_stop`.
///
/// The initial condition is the DC operating point with sources at their
/// `t = 0` values. Integration uses the method in [`SimOptions::method`];
/// with the default trapezoidal rule, the step immediately after `t = 0`
/// and after every source breakpoint is taken with backward Euler to damp
/// start-up ringing. Source breakpoints are always hit exactly, and steps
/// that fail to converge are recursively halved down to
/// [`SimOptions::tstep_min`].
///
/// One marching loop serves both settings of [`SimOptions::timestep`],
/// as two pacings: the default
/// [`Fixed`](crate::TimestepControl::Fixed) pacing marches
/// [`tstep`](SimOptions::tstep)-sized windows and is the bit-exact golden
/// reference, while
/// [`Adaptive`](crate::TimestepControl::Adaptive) re-sizes every step from
/// a local-truncation-error estimate — same breakpoints, far fewer steps
/// over quiescent stretches. Halving, sliver acceptance and the rescue
/// ladder behave the same under both.
///
/// # Errors
///
/// Propagates [`SpiceError::Netlist`] / [`SpiceError::SingularMatrix`] from
/// system assembly and returns [`SpiceError::NonConvergence`] — carrying
/// [`SimDiagnostics`](crate::SimDiagnostics) — if a step cannot be
/// completed even at the minimum step size and (unless
/// [`SimOptions::rescue`] is disabled) after the convergence rescue
/// ladder has been climbed. Returns [`SpiceError::DeadlineExceeded`] as
/// soon as the token in [`SimOptions::deadline`] expires or is
/// cancelled.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn transient(
    circuit: &Circuit,
    t_stop: f64,
    opts: &SimOptions,
) -> Result<TranResult, SpiceError> {
    // The DC initial condition and the transient loop still share one
    // symbolic analysis of the topology.
    transient_cached(circuit, t_stop, opts, &SymbolicCache::new())
}

/// [`transient`] with a shared [`SymbolicCache`]: when `opts.solver` is
/// [`Sparse`](crate::SolverKind::Sparse), the one-time symbolic analysis
/// (fill-reducing ordering + fill pattern) of the circuit's topology is
/// looked up in `cache` and computed only on a miss. Batched workloads
/// simulating many same-topology variants — fault campaigns, Monte-Carlo
/// scatter — share a cache so every variant after the first pays for
/// numeric refactorisations only.
pub fn transient_cached(
    circuit: &Circuit,
    t_stop: f64,
    opts: &SimOptions,
    cache: &SymbolicCache,
) -> Result<TranResult, SpiceError> {
    opts.validate()?;
    if !(t_stop.is_finite() && t_stop > 0.0) {
        return Err(SpiceError::InvalidOption(format!(
            "t_stop must be finite and positive, got {t_stop}"
        )));
    }
    let sys = MnaSystem::build(circuit)?;

    // Initial condition: DC operating point at t = 0.
    let x0 = crate::dc::solve_with_continuation(&sys, 0.0, opts, cache)?;
    let grid = StepGrid::new([&sys], t_stop, opts.tstep_min);

    let states: Vec<CapState> = sys
        .capacitors
        .iter()
        .map(|c| CapState {
            u: MnaSystem::voltage(&x0, c.a) - MnaSystem::voltage(&x0, c.b),
            i: 0.0,
        })
        .collect();

    // Per-node / per-branch series are accumulated incrementally as steps
    // are accepted (row 0 is ground and stays all-zero).
    let mut samples = Samples {
        times: vec![0.0],
        node_values: vec![Vec::new(); sys.n_nodes],
        branch_values: vec![Vec::new(); sys.vsources.len()],
    };
    samples.record(&sys, &x0);

    let mut ws = TranWorkspace::new(&sys, opts, cache);
    march(&sys, opts, grid, &mut ws, x0, states, &mut samples)?;

    Ok(TranResult {
        times: samples.times.into(),
        node_values: samples.node_values,
        branch_values: samples.branch_values,
        node_names: sys.node_names.clone(),
        source_names: sys.vsources.iter().map(|v| v.name.clone()).collect(),
    })
}

/// The transient time grid: the source breakpoints inside `(0, t_stop]`
/// and the arithmetic that places each step end. The scalar march (both
/// pacings) and the batched lockstep march step through one of these;
/// each decides for itself when it has passed the pending breakpoint
/// ([`consume`](StepGrid::consume)).
pub(crate) struct StepGrid {
    /// Sorted; breakpoints closer than `tstep_min` merged into the first.
    breakpoints: Vec<f64>,
    /// Index of the pending breakpoint.
    next: usize,
    t_stop: f64,
    tstep_min: f64,
}

impl StepGrid {
    /// Collects the breakpoints of every voltage and current source of
    /// `systems` (the union, for a batch) inside `(0, t_stop]`.
    pub(crate) fn new<'a>(
        systems: impl IntoIterator<Item = &'a MnaSystem>,
        t_stop: f64,
        tstep_min: f64,
    ) -> StepGrid {
        let mut breakpoints: Vec<f64> = Vec::new();
        for sys in systems {
            for v in &sys.vsources {
                breakpoints.extend(v.wave.breakpoints(t_stop));
            }
            for i in &sys.isources {
                breakpoints.extend(i.wave.breakpoints(t_stop));
            }
        }
        breakpoints.retain(|&t| t > 0.0 && t <= t_stop);
        breakpoints.sort_by(f64::total_cmp);
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < tstep_min);
        StepGrid {
            breakpoints,
            next: 0,
            t_stop,
            tstep_min,
        }
    }

    /// Number of breakpoints on the grid.
    pub(crate) fn len(&self) -> usize {
        self.breakpoints.len()
    }

    /// Whether a march standing at `t` has not yet reached `t_stop`.
    pub(crate) fn unfinished(&self, t: f64) -> bool {
        t < self.t_stop - self.tstep_min
    }

    /// End of a step aimed at `target`: snapped back (or forward by less
    /// than `tstep_min`) onto the pending breakpoint, then clamped to
    /// `t_stop`. The flag reports whether it landed on the breakpoint.
    pub(crate) fn step_end(&self, target: f64) -> (f64, bool) {
        let mut t_next = target;
        let mut hit_breakpoint = false;
        if let Some(&bp) = self.breakpoints.get(self.next) {
            if bp <= target + self.tstep_min {
                t_next = bp;
                hit_breakpoint = true;
            }
        }
        if t_next > self.t_stop {
            t_next = self.t_stop;
        }
        (t_next, hit_breakpoint)
    }

    /// Marks the pending breakpoint as passed.
    pub(crate) fn consume(&mut self) {
        self.next += 1;
    }

    /// The next hard boundary: the pending breakpoint, else `t_stop`.
    pub(crate) fn boundary(&self) -> f64 {
        self.breakpoints
            .get(self.next)
            .copied()
            .unwrap_or(self.t_stop)
    }
}

/// Accepted-sample accumulator of the scalar march.
struct Samples {
    times: Vec<f64>,
    node_values: Vec<Vec<f64>>,
    branch_values: Vec<Vec<f64>>,
}

impl Samples {
    fn record(&mut self, sys: &MnaSystem, x: &[f64]) {
        self.node_values[0].push(0.0);
        for node in 1..sys.n_nodes {
            self.node_values[node].push(x[node - 1]);
        }
        for (b, series) in self.branch_values.iter_mut().enumerate() {
            series.push(x[sys.n_v + b]);
        }
    }

    fn accept(&mut self, sys: &MnaSystem, t: f64, x: &[f64]) {
        self.times.push(t);
        self.record(sys, x);
    }
}

/// Trailing accepted solutions `(t, x)` for the LTE divided differences
/// and the predictor polynomial, oldest first. Evicted entries donate
/// their buffers back, so the history allocates nothing at steady state.
struct History {
    points: Vec<(f64, Vec<f64>)>,
}

impl History {
    const DEPTH: usize = 3;

    fn new(t: f64, x: &[f64]) -> History {
        let mut h = History {
            points: Vec::with_capacity(Self::DEPTH),
        };
        h.push(t, x);
        h
    }

    fn push(&mut self, t: f64, x: &[f64]) {
        let mut entry = if self.points.len() == Self::DEPTH {
            self.points.remove(0)
        } else {
            (0.0, Vec::with_capacity(x.len()))
        };
        entry.0 = t;
        entry.1.clear();
        entry.1.extend_from_slice(x);
        self.points.push(entry);
    }

    /// Drop everything before the discontinuity at the newest point:
    /// divided differences across a source breakpoint estimate nothing.
    fn restart(&mut self) {
        while self.points.len() > 1 {
            self.points.remove(0);
        }
    }

    /// Polynomial predictor: extrapolates the trailing solutions to `t`
    /// (quadratic through three points, linear through two) as the Newton
    /// warm start. Returns `false` when there is not enough history.
    fn predict_into(&self, t: f64, out: &mut Vec<f64>) -> bool {
        let n = self.points.len();
        out.clear();
        match n {
            0 | 1 => false,
            2 => {
                let (t1, x1) = &self.points[n - 2];
                let (t2, x2) = &self.points[n - 1];
                let s = (t - t2) / (t2 - t1);
                out.extend(x1.iter().zip(x2).map(|(a, b)| b + s * (b - a)));
                true
            }
            _ => {
                let (t0, x0) = &self.points[n - 3];
                let (t1, x1) = &self.points[n - 2];
                let (t2, x2) = &self.points[n - 1];
                let l0 = ((t - t1) * (t - t2)) / ((t0 - t1) * (t0 - t2));
                let l1 = ((t - t0) * (t - t2)) / ((t1 - t0) * (t1 - t2));
                let l2 = ((t - t0) * (t - t1)) / ((t2 - t0) * (t2 - t1));
                out.extend((0..x0.len()).map(|i| l0 * x0[i] + l1 * x1[i] + l2 * x2[i]));
                true
            }
        }
    }

    /// Worst per-node ratio of estimated local truncation error to its
    /// target for the candidate solution `x_new` at `t_new`.
    ///
    /// Backward Euler's LTE is `(h²/2)·x″`, the trapezoidal rule's
    /// `(h³/12)·x‴`; both derivatives come from divided differences over
    /// the trailing accepted points plus the candidate (`x″ ≈ 2·f[t₋₁,t₀,t₁]`,
    /// `x‴ ≈ 6·f[t₋₂,t₋₁,t₀,t₁]`). Only node-voltage rows participate —
    /// branch currents of ideal sources carry no integration error of
    /// their own. Returns `None` while the history is too short (right
    /// after DC or a breakpoint), where the estimate has no basis.
    fn lte_ratio(
        &self,
        t_new: f64,
        x_new: &[f64],
        n_v: usize,
        trap: bool,
        lte_tol: f64,
    ) -> Option<f64> {
        let n = self.points.len();
        if n < if trap { 3 } else { 2 } {
            return None;
        }
        let (t1, x1) = &self.points[n - 1];
        let (t2, x2) = &self.points[n - 2];
        let h_new = t_new - t1;
        let mut worst = 0.0f64;
        for i in 0..n_v {
            let d1a = (x_new[i] - x1[i]) / h_new;
            let d1b = (x1[i] - x2[i]) / (t1 - t2);
            let dd2 = (d1a - d1b) / (t_new - t2);
            let lte = if trap {
                let (t3, x3) = &self.points[n - 3];
                let d1c = (x2[i] - x3[i]) / (t2 - t3);
                let dd2b = (d1b - d1c) / (t1 - t3);
                let dd3 = (dd2 - dd2b) / (t_new - t3);
                0.5 * h_new.powi(3) * dd3
            } else {
                h_new * h_new * dd2
            };
            let target = lte_tol * (VNTOL + RELTOL * x_new[i].abs().max(x1[i].abs()));
            worst = worst.max(lte.abs() / target);
        }
        Some(worst)
    }
}

/// The adaptive pacing's step controller.
struct Lte {
    tstep_max: f64,
    lte_tol: f64,
    hist: History,
    x_pred: Vec<f64>,
    /// Rolling Newton-iteration count of the most recent cold-started
    /// solve; the basis of the predictor-savings estimate.
    cold_iters: u64,
}

/// The scalar transient march, one loop for both pacings of
/// [`SimOptions::timestep`].
///
/// The march opens a window `(t, end]` on the time grid and makes
/// integration attempts `(t_end, h)` inside it. Fixed pacing opens
/// `tstep` windows and covers each with one attempt, or with halvings
/// of it; adaptive pacing sizes each window from a local-truncation-error
/// estimate and attempts it whole, warm-started from a polynomial
/// predictor. A converged attempt is accepted (adaptive pacing first
/// checks its truncation error); one that does not converge is halved
/// down to `tstep_min`, then taken as a sliver when the boundary it aims
/// at lies within `2 * tstep_min`, then handed to the rescue ladder.
/// `DESIGN.md` §3.3 tabulates where the two pacings differ.
#[allow(clippy::too_many_arguments)]
fn march(
    sys: &MnaSystem,
    opts: &SimOptions,
    mut grid: StepGrid,
    ws: &mut TranWorkspace,
    mut x: Vec<f64>,
    mut states: Vec<CapState>,
    samples: &mut Samples,
) -> Result<(), SpiceError> {
    // Accepted-step growth is capped at 2x so the grid cannot jump from
    // edge-resolving to edge-skipping in one step; shrink decisions come
    // straight from the controller. 0.9 is the classic safety factor.
    const SAFETY: f64 = 0.9;
    const MAX_GROWTH: f64 = 2.0;
    const MAX_SHRINK: f64 = 0.1;
    let tm = crate::metrics::metrics();
    // `step` is the size of the next fixed attempt, or the adaptive
    // proposal before the grid snaps it.
    let (mut lte, mut step) = match opts.timestep {
        TimestepControl::Fixed => (None, 0.0),
        TimestepControl::Adaptive { tstep_max, lte_tol } => {
            let lte = Lte {
                tstep_max,
                lte_tol,
                hist: History::new(0.0, &x),
                x_pred: Vec::new(),
                cold_iters: 0,
            };
            (Some(lte), opts.tstep.min(tstep_max))
        }
    };
    let fixed = lte.is_none();
    // The march stands at `t` in the window `(t, end]`, which ends on a
    // breakpoint when `hit`.
    let (mut t, mut end, mut hit) = (0.0, 0.0, false);
    // Force a damping backward-Euler step after DC and after breakpoints.
    let mut force_be = true;
    // Backward Euler for the rest of the window once a rescue needed it:
    // the trapezoidal state history is no longer trustworthy past a point
    // that needed L-stable damping to converge at all.
    let mut window_be = false;

    loop {
        // A fixed window stays open until its attempts have covered it;
        // an adaptive window closes after its one attempt.
        if !fixed || end - t <= 0.5 * opts.tstep_min {
            if fixed {
                t = end;
                force_be |= hit;
            }
            if !grid.unfinished(t) {
                return Ok(());
            }
            if opts.deadline.as_ref().is_some_and(|d| d.expired()) {
                crate::metrics::rescue_metrics().deadline_expirations.incr();
                return Err(SpiceError::DeadlineExceeded { time: t });
            }
            let target = match &lte {
                None => t + opts.tstep,
                Some(a) => t + step.clamp(opts.tstep_min, a.tstep_max),
            };
            (end, hit) = grid.step_end(target);
            window_be = false;
            if fixed {
                if hit {
                    grid.consume();
                    tm.breakpoints_hit.incr();
                }
                step = end - t;
                if step <= 0.5 * opts.tstep_min {
                    continue;
                }
            } else if hit && end < target {
                crate::metrics::tran_metrics().breakpoint_clamps.incr();
            }
        }

        let h = if fixed { step } else { end - t };
        let t_end = if fixed { t + step } else { end };
        let be = force_be || window_be || opts.method == IntegrationMethod::BackwardEuler;
        // Predictor warm start; right after DC, a breakpoint or a rescue
        // the last accepted point is the only sensible start.
        let predicted = lte
            .as_mut()
            .is_some_and(|a| !force_be && a.hist.predict_into(t_end, &mut a.x_pred));
        let x_start: &[f64] = match &lte {
            Some(a) if predicted => &a.x_pred,
            _ => &x,
        };
        // A failed, unhalvable attempt is a sliver when `bound` is within
        // `2 * tstep_min`: the window end, or for adaptive pacing the next
        // breakpoint or `t_stop` — its exhausted step is always
        // sliver-sized by the time halving gives up, so measuring to its
        // own window end would swallow every failure.
        let bound = if fixed { end } else { grid.boundary() };

        // Whether the attempt left a solution to accept (a sliver leaves
        // none) and, for a rescued one, whether the ladder integrated it
        // with backward Euler.
        let attempt = ws.try_step(sys, x_start, &states, t_end, h, be, GMIN, opts);
        let (solved, rescued_be) = match attempt {
            Ok(iters) => {
                if let Some(a) = &mut lte {
                    // LTE accept/reject and next-step sizing. The error of
                    // this step scales as h² (BE) or h³ (trap), so the
                    // optimal-step exponent is 1/2 resp. 1/3.
                    let tmt = crate::metrics::tran_metrics();
                    let exponent = if be { 0.5 } else { 1.0 / 3.0 };
                    let x_new = &ws.newton.x;
                    let estimate = a.hist.lte_ratio(t_end, x_new, sys.n_v, !be, a.lte_tol);
                    // An overshoot with room to shrink is rejected and
                    // retried smaller. A retry the grid would snap back
                    // onto this attempt's end repeats it bit for bit,
                    // forever, so it leaves no room.
                    let retry = estimate
                        .filter(|&ratio| ratio > 1.0 && h > 2.0 * opts.tstep_min)
                        .map(|ratio| {
                            let factor = (SAFETY * ratio.powf(-exponent)).clamp(MAX_SHRINK, 0.9);
                            (h * factor).max(opts.tstep_min)
                        })
                        .filter(|&r| {
                            grid.step_end(t + r.clamp(opts.tstep_min, a.tstep_max)).0 < end
                        });
                    if let Some(r) = retry {
                        tm.steps_rejected.incr();
                        tmt.steps_rejected.incr();
                        tmt.lte_step_shrinks.incr();
                        step = r;
                        continue;
                    }
                    match estimate {
                        Some(ratio) => {
                            let factor = if ratio > 0.0 {
                                (SAFETY * ratio.powf(-exponent)).clamp(MAX_SHRINK, MAX_GROWTH)
                            } else {
                                MAX_GROWTH
                            };
                            step = (h * factor).clamp(opts.tstep_min, a.tstep_max);
                            if step > h {
                                tmt.lte_step_growths.incr();
                            } else if step < h {
                                tmt.lte_step_shrinks.incr();
                            }
                        }
                        // No estimate yet: grow cautiously towards the cap.
                        None => step = (h * MAX_GROWTH).clamp(opts.tstep_min, a.tstep_max),
                    }
                    if predicted {
                        let saved = a.cold_iters.saturating_sub(iters);
                        tmt.predictor_newton_iters_saved.add(saved);
                    } else {
                        a.cold_iters = iters;
                    }
                }
                (true, None)
            }
            Err(SpiceError::NonConvergence { .. }) if h / 2.0 >= opts.tstep_min => {
                tm.steps_rejected.incr();
                tm.step_halvings.incr();
                if !fixed {
                    crate::metrics::tran_metrics().steps_rejected.incr();
                }
                step = h / 2.0;
                continue;
            }
            // What is left is below the resolvable step size: treat the
            // window end as reached with the state from the last accepted
            // point, instead of failing the whole transient over a
            // sub-tolerance sliver.
            Err(SpiceError::NonConvergence { .. }) if bound - t <= 2.0 * opts.tstep_min => {
                tm.slivers_accepted.incr();
                (false, None)
            }
            // Halving is exhausted and the attempt is not a sliver:
            // climb the rescue ladder at this point. A rescued point
            // is accepted without the LTE test — the alternative is
            // failing the analysis.
            Err(e @ SpiceError::NonConvergence { .. }) if opts.rescue => {
                match rescue_step(sys, ws, x_start, &states, t_end, h, be, opts, e) {
                    RescueOutcome::Rescued { used_be } => (true, Some(used_be)),
                    RescueOutcome::Failed(err) => return Err(err),
                }
            }
            Err(e) => return Err(e),
        };

        if solved {
            t = t_end;
            std::mem::swap(&mut x, &mut ws.newton.x);
            std::mem::swap(&mut states, &mut ws.new_states);
            samples.accept(sys, t, &x);
            tm.steps_accepted.incr();
            force_be = false;
        } else {
            t = end;
        }
        window_be |= rescued_be == Some(true);
        match &mut lte {
            None => step = end - t,
            Some(a) => {
                if solved {
                    crate::metrics::tran_metrics().steps_accepted.incr();
                    a.hist.push(t, &x);
                }
                if hit {
                    grid.consume();
                    tm.breakpoints_hit.incr();
                }
                // A breakpoint or a rescued point is a discontinuity:
                // history restarts, the step size resets, and the next
                // step is damped with backward Euler.
                if hit || rescued_be.is_some() {
                    a.hist.restart();
                    step = opts.tstep.min(a.tstep_max);
                    force_be = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_netlist::{MosParams, MosPolarity, SourceWave, GROUND};

    fn rc_circuit(r: f64, c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-13))
            .unwrap();
        ckt.add_resistor("r", inp, out, r).unwrap();
        ckt.add_capacitor("c", out, GROUND, c).unwrap();
        (ckt, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (ckt, out) = rc_circuit(1e3, 1e-12); // tau = 1 ns
        let res = transient(&ckt, 5e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(out);
        for frac in [0.5f64, 1.0, 2.0, 3.0] {
            let t = frac * 1e-9;
            let expect = 1.0 - (-frac).exp();
            let got = w.value_at(t + 1e-13); // offset by the source rise
            assert!(
                (got - expect).abs() < 5e-3,
                "at {frac} tau: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn backward_euler_also_converges_to_final_value() {
        let (ckt, out) = rc_circuit(1e3, 1e-12);
        let opts = SimOptions {
            method: IntegrationMethod::BackwardEuler,
            ..SimOptions::default()
        };
        let res = transient(&ckt, 10e-9, &opts).unwrap();
        assert!((res.waveform(out).value_at(10e-9) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn times_strictly_increase_and_hit_breakpoints() {
        let (ckt, _) = rc_circuit(1e3, 1e-12);
        let res = transient(&ckt, 2e-9, &SimOptions::default()).unwrap();
        let t = res.times();
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        // The source has a breakpoint at 1e-13.
        assert!(t.iter().any(|&x| (x - 1e-13).abs() < 1e-15));
        assert!((t[t.len() - 1] - 2e-9).abs() < 1e-15);
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
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
                delay: 1e-9,
                rise: 0.2e-9,
                fall: 0.2e-9,
                width: 2e-9,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        let nmos = MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: 4e-6,
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
        ckt.add_capacitor("cl", out, GROUND, 50e-15).unwrap();

        let res = transient(&ckt, 6e-9, &SimOptions::default()).unwrap();
        let w = res.waveform(out);
        assert!(w.value_at(0.9e-9) > 4.9, "output high before the pulse");
        assert!(w.value_at(2.5e-9) < 0.1, "output low during the pulse");
        assert!(w.value_at(5.8e-9) > 4.9, "output recovers after the pulse");
    }

    #[test]
    fn waveform_lookup_by_name_and_source_current() {
        let (ckt, _) = rc_circuit(1e3, 1e-12);
        let res = transient(&ckt, 1e-9, &SimOptions::default()).unwrap();
        assert!(res.waveform_named("out").is_some());
        assert!(res.waveform_named("nope").is_none());
        let i = res.source_current("vin").unwrap();
        // Right after the step the full 1 V sits across R: 1 mA leaves the
        // source (negative branch current by convention).
        assert!(i.value_at(2e-13) < -0.5e-3);
        assert!(res.source_current("nope").is_none());
    }

    #[test]
    fn final_sliver_below_tstep_min_is_accepted() {
        // A capacitor-free inverter whose supply *and* input snap from 0
        // to 5 V at 1 ps. The DC point and the pre-step window are
        // all-zero (one Newton iteration each), but the post-step window
        // needs more than `max_newton_iters = 3` iterations: the 2 V
        // damping clamp alone takes three updates to walk a pinned node
        // from 0 to 5 V. With `tstep_min` at 0.9 * tstep the failed
        // window cannot be halved either, so the remaining sliver used to
        // surface as `NonConvergence` even though the simulation had
        // already reached every resolvable time point. It must instead be
        // accepted as reached.
        let step_to = |v2: f64| SourceWave::Pulse {
            v1: 0.0,
            v2,
            delay: 1.0e-12,
            rise: 0.01e-12,
            fall: 0.2e-12,
            width: 1e-9,
            period: f64::INFINITY,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("vdd", vdd, GROUND, step_to(5.0)).unwrap();
        ckt.add_vsource("vin", inp, GROUND, step_to(5.0)).unwrap();
        let no_parasitics = MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: 4e-6,
            l: 1.2e-6,
            cgs: 0.0,
            cgd: 0.0,
            cdb: 0.0,
        };
        ckt.add_mosfet(
            "mp",
            MosPolarity::Pmos,
            out,
            inp,
            vdd,
            MosParams {
                vth0: -0.9,
                kp: 20e-6,
                w: 10e-6,
                ..no_parasitics
            },
        )
        .unwrap();
        ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, no_parasitics)
            .unwrap();

        let opts = SimOptions {
            tstep: 1e-12,
            tstep_min: 0.9e-12,
            max_newton_iters: 3,
            ..SimOptions::default()
        };
        let res = transient(&ckt, 2.5e-12, &opts).expect("sliver must be accepted, not fail");
        // The pre-step window converged; the post-step window is the
        // accepted sliver (no solvable point inside it).
        assert_eq!(res.times(), &[0.0, 1.0e-12]);
    }

    #[test]
    fn rejects_bad_t_stop() {
        let (ckt, _) = rc_circuit(1e3, 1e-12);
        assert!(transient(&ckt, 0.0, &SimOptions::default()).is_err());
        assert!(transient(&ckt, f64::NAN, &SimOptions::default()).is_err());
    }

    fn adaptive_opts() -> SimOptions {
        SimOptions {
            timestep: TimestepControl::Adaptive {
                tstep_max: 200e-12,
                lte_tol: 1.0,
            },
            ..SimOptions::default()
        }
    }

    #[test]
    fn adaptive_rc_matches_analytic_with_far_fewer_steps() {
        let (ckt, out) = rc_circuit(1e3, 1e-12); // tau = 1 ns
        let fixed = transient(&ckt, 5e-9, &SimOptions::default()).unwrap();
        let adaptive = transient(&ckt, 5e-9, &adaptive_opts()).unwrap();

        let w = adaptive.waveform(out);
        for frac in [0.5f64, 1.0, 2.0, 3.0] {
            let expect = 1.0 - (-frac).exp();
            let got = w.value_at(frac * 1e-9 + 1e-13);
            assert!(
                (got - expect).abs() < 1e-2,
                "at {frac} tau: got {got}, expected {expect}"
            );
        }
        assert!(
            fixed.times().len() >= 3 * adaptive.times().len(),
            "adaptive took {} steps vs fixed {}",
            adaptive.times().len(),
            fixed.times().len()
        );
    }

    #[test]
    fn adaptive_grid_still_hits_breakpoints_exactly() {
        let (ckt, _) = rc_circuit(1e3, 1e-12);
        let res = transient(&ckt, 2e-9, &adaptive_opts()).unwrap();
        let t = res.times();
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        // The source has a breakpoint at 1e-13; the grid must land on it
        // even though the controller would prefer much larger steps.
        assert!(t.iter().any(|&x| (x - 1e-13).abs() < 1e-15));
        assert!((t[t.len() - 1] - 2e-9).abs() < 1e-15);
    }

    #[test]
    fn adaptive_backward_euler_matches_analytic() {
        let (ckt, out) = rc_circuit(1e3, 1e-12);
        let opts = SimOptions {
            method: IntegrationMethod::BackwardEuler,
            ..adaptive_opts()
        };
        let res = transient(&ckt, 10e-9, &opts).unwrap();
        assert!((res.waveform(out).value_at(10e-9) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn adaptive_inverter_agrees_with_fixed_grid() {
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
                delay: 1e-9,
                rise: 0.2e-9,
                fall: 0.2e-9,
                width: 2e-9,
                period: f64::INFINITY,
            },
        )
        .unwrap();
        let nmos = MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: 4e-6,
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
        ckt.add_capacitor("cl", out, GROUND, 50e-15).unwrap();

        let fixed = transient(&ckt, 6e-9, &SimOptions::default()).unwrap();
        let adaptive = transient(&ckt, 6e-9, &adaptive_opts()).unwrap();
        let diff = adaptive
            .waveform(out)
            .max_abs_difference(&fixed.waveform(out));
        assert!(diff < 0.1, "adaptive deviates from fixed by {diff} V");
        assert!(fixed.times().len() >= 3 * adaptive.times().len());
    }

    #[test]
    fn adaptive_rejection_never_repeats_a_snapped_step() {
        // With `tstep_min` at 40 ps, the step from 1.91 ns onto the
        // 2.01 ns fall edge overshoots its LTE target; its 82 ps retry
        // ends within `tstep_min` of the edge, so the grid snaps it back
        // onto the edge: the same step again, bit for bit. Rejecting it
        // each time would loop until the deadline.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let pulse = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 10e-12,
            fall: 10e-12,
            width: 1e-9,
            period: f64::INFINITY,
        };
        ckt.add_vsource("vin", inp, GROUND, pulse).unwrap();
        ckt.add_resistor("r", inp, out, 1e3).unwrap();
        ckt.add_capacitor("c", out, GROUND, 200e-15).unwrap();
        let opts = SimOptions {
            tstep: 100e-12,
            tstep_min: 40e-12,
            timestep: TimestepControl::Adaptive {
                tstep_max: 200e-12,
                lte_tol: 0.1,
            },
            deadline: Some(crate::Deadline::after(std::time::Duration::from_secs(30))),
            ..SimOptions::default()
        };
        let res = transient(&ckt, 3e-9, &opts).expect("the march must get past the edge");
        let t = res.times();
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        assert!(t.iter().any(|&x| (x - 2.01e-9).abs() < 1e-15));
        assert!(t[t.len() - 1] > 3e-9 - opts.tstep_min);
    }

    #[test]
    fn fixed_mode_is_unaffected_by_timestep_field() {
        // The default SimOptions carries TimestepControl::Fixed; an
        // explicit Fixed must produce the identical grid and samples.
        let (ckt, out) = rc_circuit(1e3, 1e-12);
        let implicit = transient(&ckt, 2e-9, &SimOptions::default()).unwrap();
        let explicit = transient(
            &ckt,
            2e-9,
            &SimOptions {
                timestep: TimestepControl::Fixed,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert_eq!(implicit.times(), explicit.times());
        assert_eq!(implicit.waveform(out), explicit.waveform(out));
    }
}
