//! MNA system assembly and the shared Newton–Raphson loop.
//!
//! The unknown vector is `[v_1 .. v_{n-1}, i_1 .. i_m]`: one voltage per
//! non-ground node followed by one branch current per voltage source. The
//! branch current `i_k` is defined flowing from the source's `plus` node
//! through the source to its `minus` node, so a supply delivering current
//! into the circuit shows a *negative* branch current.
//!
//! Stamping is compiled: [`MnaSystem`] derives the set of matrix positions
//! its devices touch once ([`MnaSystem::stamp_pattern`]) and resolves them
//! into a [`StampPlan`] of direct slot indices for the chosen backend
//! ([`DenseMatrix`] row-major offsets, or CSR slots of the sparse
//! solver's [`Symbolic`](crate::Symbolic) structure). Every Newton
//! iteration then writes through the precomputed offsets — no coordinate
//! arithmetic or binary searches on the hot path, and the same plan
//! drives both backends so their stamped matrices are entry-for-entry
//! identical.

use std::sync::Arc;

use clocksense_netlist::{Circuit, Device, MosParams, MosPolarity, NodeId, SourceWave};

use crate::error::SpiceError;
use crate::matrix::{DenseMatrix, LuScratch};
use crate::mos_eval::channel_current;
use crate::options::{SimOptions, SolverKind, ABSTOL, RELTOL, VNTOL};
use crate::sparse::{SparseMatrix, SymbolicCache};

/// The MNA matrix behind a Newton solve: dense reference backend or the
/// sparse structure-caching backend, selected by [`SimOptions::solver`].
/// Both expose the slot-addressed stamping the [`StampPlan`] compiles to.
#[derive(Debug, Clone)]
pub(crate) enum MnaMatrix {
    Dense(DenseMatrix),
    Sparse(SparseMatrix),
}

impl MnaMatrix {
    pub fn clear(&mut self) {
        match self {
            MnaMatrix::Dense(m) => m.clear(),
            MnaMatrix::Sparse(m) => m.clear(),
        }
    }

    #[inline]
    pub fn add_slot(&mut self, slot: usize, value: f64) {
        match self {
            MnaMatrix::Dense(m) => m.add_slot(slot, value),
            MnaMatrix::Sparse(m) => m.add_slot(slot, value),
        }
    }

    /// Solves `A x = b`, with the sparse backend's telemetry counts
    /// accumulated into `tally` instead of the global atomics (the dense
    /// backend records nothing either way). The Newton loop uses this
    /// and flushes once per solve.
    pub fn solve_into_tallied(
        &mut self,
        b: &[f64],
        scratch: &mut LuScratch,
        out: &mut Vec<f64>,
        tally: &mut crate::sparse::LuTally,
    ) -> Result<(), SpiceError> {
        match self {
            MnaMatrix::Dense(m) => m.solve_into(b, scratch, out),
            MnaMatrix::Sparse(m) => m.solve_into_tallied(b, scratch, out, tally),
        }
    }
}

/// Resolved slots of a two-terminal conductance stamp between rows `a`
/// and `b` (`None` where a terminal is ground).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairSlots {
    aa: Option<usize>,
    ab: Option<usize>,
    bb: Option<usize>,
    ba: Option<usize>,
}

impl PairSlots {
    fn resolve(a: Row, b: Row, slot: &mut impl FnMut(usize, usize) -> usize) -> PairSlots {
        PairSlots {
            aa: a.map(|ra| slot(ra, ra)),
            ab: a.and_then(|ra| b.map(|rb| slot(ra, rb))),
            bb: b.map(|rb| slot(rb, rb)),
            ba: b.and_then(|rb| a.map(|ra| slot(rb, ra))),
        }
    }

    /// Stamps conductance `g` (diagonal `+g`, off-diagonal `-g`), in the
    /// same operation order as the historical coordinate-based stamp so
    /// floating-point accumulation is bit-identical.
    #[inline]
    pub fn stamp(&self, m: &mut MnaMatrix, g: f64) {
        if let Some(s) = self.aa {
            m.add_slot(s, g);
        }
        if let Some(s) = self.ab {
            m.add_slot(s, -g);
        }
        if let Some(s) = self.bb {
            m.add_slot(s, g);
        }
        if let Some(s) = self.ba {
            m.add_slot(s, -g);
        }
    }

    /// [`stamp`](PairSlots::stamp) straight into `L` interleaved sparse
    /// value planes, without an `MnaMatrix` wrapper: slot `s` of lane `l`
    /// lives at `vals[s * L + l]`, so each slot update is one contiguous
    /// `L`-wide add the compiler turns into vector ops. Per lane the
    /// operation order matches the scalar stamp exactly; `L = 1` is a
    /// plain CSR value plane.
    #[inline]
    pub fn stamp_vals_lanes<const L: usize>(&self, vals: &mut [f64], g: &[f64; L]) {
        if let Some(s) = self.aa {
            for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
                *v += gl;
            }
        }
        if let Some(s) = self.ab {
            for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
                *v -= gl;
            }
        }
        if let Some(s) = self.bb {
            for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
                *v += gl;
            }
        }
        if let Some(s) = self.ba {
            for (v, gl) in vals[s * L..s * L + L].iter_mut().zip(g) {
                *v -= gl;
            }
        }
    }
}

/// Resolved slots of one capacitor's companion-model stamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapSlots {
    pair: PairSlots,
    a: Option<usize>,
    b: Option<usize>,
}

impl CapSlots {
    /// Stamps the companion model `i = geq·u − ieq`.
    #[inline]
    pub fn stamp(&self, m: &mut MnaMatrix, rhs: &mut [f64], geq: f64, ieq: f64) {
        self.pair.stamp(m, geq);
        if let Some(a) = self.a {
            rhs[a] += ieq;
        }
        if let Some(b) = self.b {
            rhs[b] -= ieq;
        }
    }

    /// Only the conductance half of the companion, one conductance per
    /// lane into an `L`-wide SoA value plane — the matrix side of a
    /// batched step whose `ieq` lands on the per-lane RHS later.
    #[inline]
    pub fn stamp_pair_vals_lanes<const L: usize>(&self, vals: &mut [f64], geq: &[f64; L]) {
        self.pair.stamp_vals_lanes(vals, geq);
    }

    /// Only the RHS half of the companion (`ieq`), one value per lane,
    /// into an `L`-wide SoA right-hand side — for capacitors whose
    /// conductance half already sits in a shared baseline plane.
    #[inline]
    pub fn stamp_rhs_lanes<const L: usize>(&self, rhs: &mut [f64], ieq: &[f64; L]) {
        if let Some(a) = self.a {
            for (v, i) in rhs[a * L..a * L + L].iter_mut().zip(ieq) {
                *v += i;
            }
        }
        if let Some(b) = self.b {
            for (v, i) in rhs[b * L..b * L + L].iter_mut().zip(ieq) {
                *v -= i;
            }
        }
    }
}

/// Resolved slots of one voltage source's constraint rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VsrcSlots {
    pub(crate) p_b: Option<usize>,
    pub(crate) b_p: Option<usize>,
    pub(crate) n_b: Option<usize>,
    pub(crate) b_n: Option<usize>,
    pub(crate) rhs_row: usize,
}

/// Resolved slots of one MOSFET's linearised companion stamp: the six
/// Jacobian partials that touch non-ground rows, the two RHS rows, and
/// the channel `gmin` conductance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosSlots {
    pub(crate) dd: Option<usize>,
    pub(crate) dg: Option<usize>,
    pub(crate) ds: Option<usize>,
    pub(crate) sd: Option<usize>,
    pub(crate) sg: Option<usize>,
    pub(crate) ss: Option<usize>,
    pub(crate) d: Option<usize>,
    pub(crate) s: Option<usize>,
    pub(crate) gmin: PairSlots,
}

/// A compiled stamp program for one circuit topology on one matrix
/// layout: every position a device writes, resolved to a direct slot
/// index. Built once per [`MnaSystem`] + backend and reused by every
/// Newton iteration, timestep and (via workspace cloning) variant.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampPlan {
    pub(crate) res: Vec<PairSlots>,
    pub(crate) vsrc: Vec<VsrcSlots>,
    pub caps: Vec<CapSlots>,
    pub(crate) mos: Vec<MosSlots>,
    pub(crate) node_diag: Vec<usize>,
}

/// Reusable buffers for the Newton loop: the MNA matrix (dense or
/// sparse), the compiled stamp plan, RHS, LU scratch and the
/// current/next solution vectors. One workspace serves every Newton
/// solve of a transient, so the hot path performs no heap allocation
/// after the first step.
#[derive(Debug, Clone)]
pub(crate) struct NewtonWorkspace {
    pub m: MnaMatrix,
    pub plan: Arc<StampPlan>,
    pub rhs: Vec<f64>,
    /// Current iterate on entry to a solve; the converged solution on a
    /// successful return.
    pub x: Vec<f64>,
    pub x_new: Vec<f64>,
    pub lu: LuScratch,
    /// Worst per-unknown update magnitude of each iteration of the most
    /// recent solve — the raw material of [`SimDiagnostics`]
    /// (`crate::SimDiagnostics`). Cleared per solve, capacity bounded by
    /// `max_newton_iters`, so the hot path allocates only once.
    pub delta_history: Vec<f64>,
    /// Row of the largest update in the most recent iteration.
    pub worst_row: Option<usize>,
}

impl NewtonWorkspace {
    /// Builds a workspace for `sys` on the chosen backend. For the sparse
    /// backend the symbolic analysis is taken from `cache` (hit ⇒ only
    /// numeric state is fresh), or computed and inserted on a miss.
    pub fn for_system(
        sys: &MnaSystem,
        solver: SolverKind,
        cache: &SymbolicCache,
    ) -> NewtonWorkspace {
        let dim = sys.dim;
        let (m, plan) = match solver {
            SolverKind::Dense => {
                let plan = sys.build_plan(&mut |r, c| r * dim + c);
                (MnaMatrix::Dense(DenseMatrix::new(dim)), plan)
            }
            SolverKind::Sparse => {
                let (m, plan) = sys.sparse_matrix(cache);
                (MnaMatrix::Sparse(m), plan)
            }
        };
        NewtonWorkspace {
            m,
            plan: Arc::new(plan),
            rhs: vec![0.0; dim],
            x: vec![0.0; dim],
            x_new: Vec::with_capacity(dim),
            lu: LuScratch::new(),
            delta_history: Vec::new(),
            worst_row: None,
        }
    }
}

/// Row index of a node in the MNA system; `None` is ground.
pub(crate) type Row = Option<usize>;

#[derive(Debug, Clone)]
pub(crate) struct ResistorInst {
    pub a: Row,
    pub b: Row,
    pub conductance: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct CapacitorInst {
    pub a: Row,
    pub b: Row,
    pub farads: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct VsourceInst {
    pub plus: Row,
    pub minus: Row,
    pub wave: SourceWave,
    /// Index of the branch-current unknown (offset past the node rows).
    pub branch: usize,
    pub name: String,
}

#[derive(Debug, Clone)]
pub(crate) struct IsourceInst {
    pub from: Row,
    pub to: Row,
    pub wave: SourceWave,
}

#[derive(Debug, Clone)]
pub(crate) struct MosInst {
    pub d: Row,
    pub g: Row,
    pub s: Row,
    pub polarity: MosPolarity,
    pub params: MosParams,
}

/// Flattened, solver-ready view of a [`Circuit`].
#[derive(Debug, Clone)]
pub(crate) struct MnaSystem {
    pub n_nodes: usize, // including ground
    pub n_v: usize,     // node unknowns
    pub dim: usize,     // n_v + number of voltage sources
    pub resistors: Vec<ResistorInst>,
    pub capacitors: Vec<CapacitorInst>,
    pub vsources: Vec<VsourceInst>,
    pub isources: Vec<IsourceInst>,
    pub mosfets: Vec<MosInst>,
    pub node_names: Vec<String>,
}

fn row_of(node: NodeId) -> Row {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

impl MnaSystem {
    /// Builds the solver view. Validates the circuit structurally first.
    pub fn build(circuit: &Circuit) -> Result<Self, SpiceError> {
        circuit.validate()?;
        let n_nodes = circuit.node_count();
        let n_v = n_nodes - 1;
        let mut sys = MnaSystem {
            n_nodes,
            n_v,
            dim: n_v,
            resistors: Vec::new(),
            capacitors: Vec::new(),
            vsources: Vec::new(),
            isources: Vec::new(),
            mosfets: Vec::new(),
            node_names: circuit
                .nodes()
                .map(|n| circuit.node_name(n).to_string())
                .collect(),
        };
        for (_, entry) in circuit.devices() {
            match &entry.device {
                Device::Resistor(r) => sys.resistors.push(ResistorInst {
                    a: row_of(r.a),
                    b: row_of(r.b),
                    conductance: 1.0 / r.ohms,
                }),
                Device::Capacitor(c) => sys.capacitors.push(CapacitorInst {
                    a: row_of(c.a),
                    b: row_of(c.b),
                    farads: c.farads,
                }),
                Device::VoltageSource(v) => {
                    let branch = sys.vsources.len();
                    sys.vsources.push(VsourceInst {
                        plus: row_of(v.plus),
                        minus: row_of(v.minus),
                        wave: v.wave.clone(),
                        branch,
                        name: entry.name.clone(),
                    });
                }
                Device::CurrentSource(i) => sys.isources.push(IsourceInst {
                    from: row_of(i.from),
                    to: row_of(i.to),
                    wave: i.wave.clone(),
                }),
                Device::Mosfet(m) => {
                    let (d, g, s) = (row_of(m.drain), row_of(m.gate), row_of(m.source));
                    sys.mosfets.push(MosInst {
                        d,
                        g,
                        s,
                        polarity: m.polarity,
                        params: m.params,
                    });
                    // Constant parasitic capacitances become plain caps.
                    // The drain-bulk junction goes to AC ground.
                    if m.params.cgs > 0.0 {
                        sys.capacitors.push(CapacitorInst {
                            a: g,
                            b: s,
                            farads: m.params.cgs,
                        });
                    }
                    if m.params.cgd > 0.0 {
                        sys.capacitors.push(CapacitorInst {
                            a: g,
                            b: d,
                            farads: m.params.cgd,
                        });
                    }
                    if m.params.cdb > 0.0 {
                        sys.capacitors.push(CapacitorInst {
                            a: d,
                            b: None,
                            farads: m.params.cdb,
                        });
                    }
                }
            }
        }
        sys.dim = sys.n_v + sys.vsources.len();
        Ok(sys)
    }

    /// Voltage of `row` in the solution vector `x` (ground is 0).
    #[inline]
    pub fn voltage(x: &[f64], row: Row) -> f64 {
        match row {
            Some(r) => x[r],
            None => 0.0,
        }
    }

    /// Every matrix position this system's devices stamp, sorted and
    /// deduplicated — the topology fingerprint the sparse backend's
    /// symbolic analysis (and the [`SymbolicCache`] key) is computed from.
    pub fn stamp_pattern(&self) -> Vec<(usize, usize)> {
        let mut pattern = Vec::new();
        self.each_position(&mut |r, c| pattern.push((r, c)));
        pattern.sort_unstable();
        pattern.dedup();
        pattern
    }

    /// Visits every `(row, col)` position the stamp methods can write.
    fn each_position(&self, visit: &mut impl FnMut(usize, usize)) {
        let pair = |a: Row, b: Row, visit: &mut dyn FnMut(usize, usize)| {
            if let Some(ra) = a {
                visit(ra, ra);
                if let Some(rb) = b {
                    visit(ra, rb);
                }
            }
            if let Some(rb) = b {
                visit(rb, rb);
                if let Some(ra) = a {
                    visit(rb, ra);
                }
            }
        };
        for r in &self.resistors {
            pair(r.a, r.b, visit);
        }
        for c in &self.capacitors {
            pair(c.a, c.b, visit);
        }
        for v in &self.vsources {
            let row = self.n_v + v.branch;
            if let Some(p) = v.plus {
                visit(p, row);
                visit(row, p);
            }
            if let Some(n) = v.minus {
                visit(n, row);
                visit(row, n);
            }
        }
        for m in &self.mosfets {
            for (r, c) in [
                (m.d, m.d),
                (m.d, m.g),
                (m.d, m.s),
                (m.s, m.d),
                (m.s, m.g),
                (m.s, m.s),
            ] {
                if let (Some(r), Some(c)) = (r, c) {
                    visit(r, c);
                }
            }
            pair(m.d, m.s, visit);
        }
        for r in 0..self.n_v {
            visit(r, r);
        }
    }

    /// A zero sparse matrix for this system and its stamp plan. The
    /// symbolic analysis is taken from `cache` (a hit makes even the
    /// first factorisation a symbolic reuse), or computed and inserted on
    /// a miss.
    pub(crate) fn sparse_matrix(&self, cache: &SymbolicCache) -> (SparseMatrix, StampPlan) {
        let (sym, hit) = cache.get_or_analyze(self.dim, &self.stamp_pattern(), self.vsources.len());
        let plan = self
            .build_plan(&mut |r, c| sym.slot(r, c).expect("stamped position is in the pattern"));
        let m = if hit {
            SparseMatrix::new_cached(sym)
        } else {
            SparseMatrix::new(sym)
        };
        (m, plan)
    }

    /// Compiles the stamp plan for this system on a matrix layout
    /// described by `slot` (row-major offsets for dense, CSR slots for
    /// sparse).
    pub fn build_plan(&self, slot: &mut impl FnMut(usize, usize) -> usize) -> StampPlan {
        StampPlan {
            res: self
                .resistors
                .iter()
                .map(|r| PairSlots::resolve(r.a, r.b, slot))
                .collect(),
            caps: self
                .capacitors
                .iter()
                .map(|c| CapSlots {
                    pair: PairSlots::resolve(c.a, c.b, slot),
                    a: c.a,
                    b: c.b,
                })
                .collect(),
            vsrc: self
                .vsources
                .iter()
                .map(|v| {
                    let row = self.n_v + v.branch;
                    VsrcSlots {
                        p_b: v.plus.map(|p| slot(p, row)),
                        b_p: v.plus.map(|p| slot(row, p)),
                        n_b: v.minus.map(|n| slot(n, row)),
                        b_n: v.minus.map(|n| slot(row, n)),
                        rhs_row: row,
                    }
                })
                .collect(),
            mos: self
                .mosfets
                .iter()
                .map(|m| {
                    let mut partial = |r: Row, c: Row| r.and_then(|r| c.map(|c| slot(r, c)));
                    MosSlots {
                        dd: partial(m.d, m.d),
                        dg: partial(m.d, m.g),
                        ds: partial(m.d, m.s),
                        sd: partial(m.s, m.d),
                        sg: partial(m.s, m.g),
                        ss: partial(m.s, m.s),
                        d: m.d,
                        s: m.s,
                        gmin: PairSlots::resolve(m.d, m.s, slot),
                    }
                })
                .collect(),
            node_diag: (0..self.n_v).map(|r| slot(r, r)).collect(),
        }
    }

    /// Stamps the linear, time-dependent part of the system: resistors,
    /// voltage sources (scaled by `source_scale`) and current sources.
    pub fn stamp_static(
        &self,
        plan: &StampPlan,
        m: &mut MnaMatrix,
        rhs: &mut [f64],
        t: f64,
        source_scale: f64,
    ) {
        for (r, slots) in self.resistors.iter().zip(&plan.res) {
            slots.stamp(m, r.conductance);
        }
        for (v, slots) in self.vsources.iter().zip(&plan.vsrc) {
            if let Some(s) = slots.p_b {
                m.add_slot(s, 1.0);
            }
            if let Some(s) = slots.b_p {
                m.add_slot(s, 1.0);
            }
            if let Some(s) = slots.n_b {
                m.add_slot(s, -1.0);
            }
            if let Some(s) = slots.b_n {
                m.add_slot(s, -1.0);
            }
            rhs[slots.rhs_row] += v.wave.value_at(t) * source_scale;
        }
        for i in &self.isources {
            let value = i.wave.value_at(t) * source_scale;
            if let Some(f) = i.from {
                rhs[f] -= value;
            }
            if let Some(to) = i.to {
                rhs[to] += value;
            }
        }
    }

    /// Stamps the linearised MOSFET companion models around solution `x`,
    /// adding `gmin` across every channel.
    pub fn stamp_mosfets(
        &self,
        plan: &StampPlan,
        m: &mut MnaMatrix,
        rhs: &mut [f64],
        x: &[f64],
        gmin: f64,
    ) {
        for (mos, slots) in self.mosfets.iter().zip(&plan.mos) {
            let vd = Self::voltage(x, mos.d);
            let vg = Self::voltage(x, mos.g);
            let vs = Self::voltage(x, mos.s);
            let op = channel_current(mos.polarity, &mos.params, vd, vg, vs);
            // I(v) ≈ id0 + g_d (vd - vd0) + g_g (vg - vg0) + g_s (vs - vs0)
            let i_eq = op.id - op.g_d * vd - op.g_g * vg - op.g_s * vs;
            for (slot, g) in [
                (slots.dd, op.g_d),
                (slots.dg, op.g_g),
                (slots.ds, op.g_s),
                (slots.sd, -op.g_d),
                (slots.sg, -op.g_g),
                (slots.ss, -op.g_s),
            ] {
                if let Some(s) = slot {
                    m.add_slot(s, g);
                }
            }
            if let Some(d) = slots.d {
                rhs[d] -= i_eq;
            }
            if let Some(s) = slots.s {
                rhs[s] += i_eq;
            }
            slots.gmin.stamp(m, gmin);
        }
    }

    /// Workspace-reusing Newton solve: iterates from `x_init`, leaving the
    /// converged solution in `ws.x` and returning the iteration count the
    /// solve took. No heap allocation once the workspace buffers have
    /// reached the system dimension.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newton_solve_ws(
        &self,
        t: f64,
        x_init: &[f64],
        opts: &SimOptions,
        gmin: f64,
        source_scale: f64,
        reactive: impl FnMut(&mut MnaMatrix, &mut [f64], &StampPlan),
        ws: &mut NewtonWorkspace,
    ) -> Result<u64, SpiceError> {
        // Iteration and factorisation counts are accumulated locally and
        // flushed to the telemetry registry once per solve, keeping the
        // Newton loop free of atomics.
        let mut lu_tally = crate::sparse::LuTally::default();
        let (iters, result) = self.newton_loop(
            t,
            x_init,
            opts,
            gmin,
            source_scale,
            reactive,
            ws,
            &mut lu_tally,
        );
        lu_tally.flush();
        let tm = crate::metrics::metrics();
        tm.newton_solves.incr();
        tm.newton_iterations.add(iters);
        tm.lu_factorizations.add(iters);
        tm.iters_per_solve.record(iters);
        if matches!(result, Err(SpiceError::NonConvergence { .. })) {
            tm.convergence_failures.incr();
        }
        result.map(|()| iters)
    }

    #[allow(clippy::too_many_arguments)]
    fn newton_loop(
        &self,
        t: f64,
        x_init: &[f64],
        opts: &SimOptions,
        gmin: f64,
        source_scale: f64,
        mut reactive: impl FnMut(&mut MnaMatrix, &mut [f64], &StampPlan),
        ws: &mut NewtonWorkspace,
        lu_tally: &mut crate::sparse::LuTally,
    ) -> (u64, Result<(), SpiceError>) {
        let dim = self.dim;
        ws.x.clear();
        ws.x.extend_from_slice(x_init);
        ws.delta_history.clear();
        ws.worst_row = None;
        let mut iters: u64 = 0;
        for _ in 0..opts.max_newton_iters {
            // Cooperative soft deadline: one relaxed load (plus a clock
            // read for timed tokens) per iteration, each of which costs a
            // full matrix factorisation — negligible overhead, bounded
            // reaction latency.
            if let Some(deadline) = &opts.deadline {
                if deadline.expired() {
                    return (iters, Err(SpiceError::DeadlineExceeded { time: t }));
                }
            }
            ws.m.clear();
            ws.rhs.fill(0.0);
            self.stamp_static(&ws.plan, &mut ws.m, &mut ws.rhs, t, source_scale);
            reactive(&mut ws.m, &mut ws.rhs, &ws.plan);
            self.stamp_mosfets(&ws.plan, &mut ws.m, &mut ws.rhs, &ws.x, gmin);
            // Diagonal gmin on node rows keeps near-floating gates solvable.
            for &slot in &ws.plan.node_diag {
                ws.m.add_slot(slot, gmin);
            }
            iters += 1;
            if let Err(e) =
                ws.m.solve_into_tallied(&ws.rhs, &mut ws.lu, &mut ws.x_new, lu_tally)
            {
                return (iters, Err(e));
            }
            let mut converged = true;
            let mut worst_delta = 0.0f64;
            let mut worst_row = 0usize;
            for r in 0..dim {
                let delta = ws.x_new[r] - ws.x[r];
                let tol = if r < self.n_v {
                    VNTOL + RELTOL * ws.x[r].abs().max(ws.x_new[r].abs())
                } else {
                    ABSTOL + RELTOL * ws.x[r].abs().max(ws.x_new[r].abs())
                };
                if delta.abs() > tol {
                    converged = false;
                }
                if delta.abs() > worst_delta {
                    worst_delta = delta.abs();
                    worst_row = r;
                }
                // Damp node-voltage updates to tame the quadratic model.
                let clamped = if r < self.n_v {
                    delta.clamp(-opts.newton_damping, opts.newton_damping)
                } else {
                    delta
                };
                ws.x[r] += clamped;
            }
            ws.delta_history.push(worst_delta);
            ws.worst_row = Some(worst_row);
            if converged {
                return (iters, Ok(()));
            }
        }
        let diagnostics = Box::new(crate::error::SimDiagnostics {
            worst_node: ws.worst_row.map(|r| self.unknown_name(r)),
            delta_history: ws.delta_history.clone(),
            final_delta: ws.delta_history.last().copied().unwrap_or(0.0),
            gmin_reached: gmin,
            stages_tried: Vec::new(),
        });
        (
            iters,
            Err(SpiceError::NonConvergence {
                time: t,
                diagnostics: Some(diagnostics),
            }),
        )
    }

    /// Human name of unknown `row`: the node's name for a voltage row,
    /// the source's name for a branch-current row.
    pub(crate) fn unknown_name(&self, row: usize) -> String {
        if row < self.n_v {
            // Row r is node index r + 1 (ground is not an unknown).
            self.node_names
                .get(row + 1)
                .cloned()
                .unwrap_or_else(|| format!("node#{}", row + 1))
        } else {
            let b = row - self.n_v;
            self.vsources
                .get(b)
                .map(|v| format!("i({})", v.name))
                .unwrap_or_else(|| format!("branch#{b}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::GMIN;
    use clocksense_netlist::GROUND;

    /// A DC Newton solve of `sys` from a flat start at `t = 0`.
    fn solve_flat(sys: &MnaSystem, opts: &SimOptions) -> Vec<f64> {
        let mut ws = NewtonWorkspace::for_system(sys, opts.solver, &SymbolicCache::new());
        let flat = vec![0.0; sys.dim];
        sys.newton_solve_ws(0.0, &flat, opts, GMIN, 1.0, |_, _, _| {}, &mut ws)
            .unwrap();
        ws.x
    }

    #[test]
    fn build_counts_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("v1", a, GROUND, SourceWave::Dc(1.0))
            .unwrap();
        ckt.add_resistor("r1", a, b, 10.0).unwrap();
        ckt.add_resistor("r2", b, GROUND, 10.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert_eq!(sys.n_v, 2);
        assert_eq!(sys.dim, 3);
        assert_eq!(sys.vsources.len(), 1);
        assert_eq!(sys.vsources[0].name, "v1");
    }

    #[test]
    fn mos_parasitics_become_capacitors() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("vg", g, GROUND, SourceWave::Dc(5.0))
            .unwrap();
        ckt.add_resistor("rd", d, GROUND, 1e3).unwrap();
        ckt.add_mosfet(
            "m1",
            MosPolarity::Nmos,
            d,
            g,
            GROUND,
            MosParams {
                vth0: 0.7,
                kp: 60e-6,
                lambda: 0.0,
                w: 2e-6,
                l: 1e-6,
                cgs: 1e-15,
                cgd: 2e-15,
                cdb: 3e-15,
            },
        )
        .unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert_eq!(sys.capacitors.len(), 3);
        assert_eq!(sys.mosfets.len(), 1);
    }

    #[test]
    fn resistive_divider_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("v1", a, GROUND, SourceWave::Dc(2.0))
            .unwrap();
        ckt.add_resistor("r1", a, b, 1000.0).unwrap();
        ckt.add_resistor("r2", b, GROUND, 1000.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let x = solve_flat(&sys, &SimOptions::default());
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-6);
        // Branch current: 1 mA flows out of the circuit into the source.
        assert!((x[2] + 1e-3).abs() < 1e-8);
    }

    #[test]
    fn divider_solves_identically_on_both_backends() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("v1", a, GROUND, SourceWave::Dc(2.0))
            .unwrap();
        ckt.add_resistor("r1", a, b, 1000.0).unwrap();
        ckt.add_resistor("r2", b, GROUND, 1000.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let dense_opts = SimOptions::default();
        let sparse_opts = SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        };
        let xd = solve_flat(&sys, &dense_opts);
        let xs = solve_flat(&sys, &sparse_opts);
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn stamp_pattern_is_canonical_and_covers_the_diagonal() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("v1", a, GROUND, SourceWave::Dc(1.0))
            .unwrap();
        ckt.add_resistor("r1", a, b, 10.0).unwrap();
        ckt.add_resistor("r2", b, GROUND, 10.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let pattern = sys.stamp_pattern();
        let mut sorted = pattern.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pattern, sorted, "pattern is sorted and deduplicated");
        for r in 0..sys.n_v {
            assert!(pattern.contains(&(r, r)), "node diagonal ({r},{r})");
        }
        // The vsource couples node row 0 and branch row 2 both ways.
        assert!(pattern.contains(&(0, 2)));
        assert!(pattern.contains(&(2, 0)));
    }
}
