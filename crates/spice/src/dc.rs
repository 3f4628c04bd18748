//! DC operating-point analysis; the quiescent supply current (IDDQ) is
//! read off the solution.

use clocksense_netlist::{Circuit, NodeId};

use crate::engine::{MnaSystem, NewtonWorkspace};
use crate::error::SpiceError;
use crate::options::{SimOptions, GMIN};
use crate::sparse::SymbolicCache;

/// A DC solution: node voltages and voltage-source branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    x: Vec<f64>,
    source_branches: Vec<(String, usize)>,
}

impl DcSolution {
    /// Voltage of `node` (ground reads 0).
    ///
    /// # Panics
    ///
    /// Panics if the node was not part of the analysed circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current of the named voltage source, defined flowing from its
    /// `plus` terminal through the source to `minus`. A supply delivering
    /// current into the circuit therefore reads *negative*; see
    /// [`iddq`](DcSolution::iddq) for the sign-corrected supply draw.
    pub fn source_current(&self, name: &str) -> Option<f64> {
        self.source_branches
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, row)| self.x[row])
    }

    /// Quiescent current delivered by the voltage source named `supply`
    /// at this operating point (positive for a normally loaded rail).
    ///
    /// This is the IDDQ observable the paper uses to catch pull-up
    /// stuck-on transistors and resistive bridgings that produce no logic
    /// error: a conducting fight between the pull-up and pull-down
    /// networks shows up as static current orders of magnitude above the
    /// fault-free leakage.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] if `supply` does not name a
    /// voltage source.
    pub fn iddq(&self, supply: &str) -> Result<f64, SpiceError> {
        self.source_current(supply)
            .map(|i| -i)
            .ok_or_else(|| SpiceError::UnknownProbe(supply.to_string()))
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn as_vector(&self) -> &[f64] {
        &self.x
    }
}

/// Solution vector of `sys` at time `t`: a direct Newton solve, then gmin
/// stepping, then source stepping. Shared by [`dc_operating_point`] and
/// the transient `t = 0` initial conditions.
pub(crate) fn solve_with_continuation(
    sys: &MnaSystem,
    t: f64,
    opts: &SimOptions,
    cache: &SymbolicCache,
) -> Result<Vec<f64>, SpiceError> {
    // One workspace (matrix structure + stamp plan) serves the whole
    // continuation ladder.
    let mut ws = NewtonWorkspace::for_system(sys, opts.solver, cache);
    let flat = vec![0.0; sys.dim];
    // 1. Direct attempt from a flat start.
    if sys
        .newton_solve_ws(t, &flat, opts, GMIN, 1.0, |_, _, _| {}, &mut ws)
        .is_ok()
    {
        return Ok(ws.x);
    }
    // 2. gmin stepping: start heavily damped, relax towards the target.
    // A failing rung no longer abandons the ladder outright: geometric
    // bisection between the last converged rung and the failing one
    // halves the continuation distance and retries, so one too-greedy
    // 10x relaxation cannot sink an otherwise healthy continuation. The
    // budget and the ratio floor bound the work on hopeless circuits.
    const BISECT_BUDGET: u32 = 8;
    let tm = crate::metrics::metrics();
    let mut x = flat.clone();
    let mut gmin = 1e-2;
    let mut last_good: Option<f64> = None;
    let mut bisect_budget = BISECT_BUDGET;
    let mut ok = true;
    while gmin > GMIN {
        tm.gmin_steps.incr();
        match sys.newton_solve_ws(t, &x, opts, gmin, 1.0, |_, _, _| {}, &mut ws) {
            Ok(_) => {
                x.copy_from_slice(&ws.x);
                last_good = Some(gmin);
                gmin /= 10.0;
            }
            Err(_) => match last_good {
                Some(good) if bisect_budget > 0 && good / gmin > 1.05 => {
                    bisect_budget -= 1;
                    crate::metrics::rescue_metrics().dc_gmin_bisections.incr();
                    gmin = (good * gmin).sqrt();
                }
                _ => {
                    ok = false;
                    break;
                }
            },
        }
    }
    if ok
        && sys
            .newton_solve_ws(t, &x, opts, GMIN, 1.0, |_, _, _| {}, &mut ws)
            .is_ok()
    {
        return Ok(ws.x);
    }
    // 3. Source stepping: ramp all sources from 0 to full value.
    let mut x = flat;
    for step in 1..=20 {
        tm.source_steps.incr();
        let scale = step as f64 / 20.0;
        sys.newton_solve_ws(t, &x, opts, GMIN, scale, |_, _, _| {}, &mut ws)
            .map_err(|e| match e {
                // Keep the Newton diagnostics of the failing ramp point;
                // normalise everything else to the documented error.
                SpiceError::NonConvergence { .. } | SpiceError::DeadlineExceeded { .. } => e,
                _ => SpiceError::non_convergence(t),
            })?;
        x.copy_from_slice(&ws.x);
    }
    Ok(x)
}

/// Computes the DC operating point of `circuit` with all sources at their
/// `t = 0` values and all capacitors open.
///
/// Convergence is attempted directly, then with gmin stepping, then with
/// source stepping — the standard SPICE continuation ladder. When
/// `opts.solver` is [`Sparse`](crate::SolverKind::Sparse), the symbolic
/// analysis of the circuit's topology is taken from (or inserted into)
/// `cache`, so same-topology variants — a fault campaign's static
/// patterns — pay for the fill-reducing ordering once; the dense backend
/// ignores the cache.
///
/// # Errors
///
/// Returns [`SpiceError::Netlist`] for structurally invalid circuits,
/// [`SpiceError::SingularMatrix`] for un-solvable topologies and
/// [`SpiceError::NonConvergence`] when every continuation strategy fails.
///
/// # Examples
///
/// ```
/// use clocksense_netlist::{Circuit, SourceWave, GROUND};
/// use clocksense_spice::{dc_operating_point, SimOptions, SymbolicCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("v", a, GROUND, SourceWave::Dc(10.0))?;
/// ckt.add_resistor("r1", a, b, 1_000.0)?;
/// ckt.add_resistor("r2", b, GROUND, 3_000.0)?;
/// let op = dc_operating_point(&ckt, &SimOptions::default(), &SymbolicCache::new())?;
/// assert!((op.voltage(b) - 7.5).abs() < 1e-6);
/// assert!((op.iddq("v")? - 2.5e-3).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(
    circuit: &Circuit,
    opts: &SimOptions,
    cache: &SymbolicCache,
) -> Result<DcSolution, SpiceError> {
    opts.validate()?;
    let sys = MnaSystem::build(circuit)?;
    let x = solve_with_continuation(&sys, 0.0, opts, cache)?;
    Ok(DcSolution {
        source_branches: sys
            .vsources
            .iter()
            .map(|v| (v.name.clone(), sys.n_v + v.branch))
            .collect(),
        x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_netlist::{MosParams, MosPolarity, SourceWave, GROUND};

    fn solve(ckt: &Circuit) -> DcSolution {
        dc_operating_point(ckt, &SimOptions::default(), &SymbolicCache::new()).unwrap()
    }

    fn nmos() -> MosParams {
        MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: 4e-6,
            l: 1.2e-6,
            cgs: 0.0,
            cgd: 0.0,
            cdb: 0.0,
        }
    }

    fn pmos() -> MosParams {
        MosParams {
            vth0: -0.9,
            kp: 20e-6,
            lambda: 0.02,
            w: 8e-6,
            l: 1.2e-6,
            cgs: 0.0,
            cgd: 0.0,
            cdb: 0.0,
        }
    }

    /// Builds a CMOS inverter; returns (circuit, in, out).
    fn inverter(vin: f64) -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
            .unwrap();
        ckt.add_vsource("vin", inp, GROUND, SourceWave::Dc(vin))
            .unwrap();
        ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos())
            .unwrap();
        ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos())
            .unwrap();
        (ckt, inp, out)
    }

    #[test]
    fn divider_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("v", a, GROUND, SourceWave::Dc(9.0))
            .unwrap();
        ckt.add_resistor("r1", a, b, 2000.0).unwrap();
        ckt.add_resistor("r2", b, GROUND, 1000.0).unwrap();
        let op = solve(&ckt);
        assert!((op.voltage(b) - 3.0).abs() < 1e-6);
        assert!((op.voltage(GROUND)).abs() < 1e-15);
        // 3 mA delivered: the branch current reads negative, the supply
        // draw positive.
        assert!((op.source_current("v").unwrap() + 3e-3).abs() < 1e-7);
        assert_eq!(op.iddq("v").unwrap(), -op.source_current("v").unwrap());
    }

    #[test]
    fn inverter_rails() {
        let (low_in, _, out) = inverter(0.0);
        assert!(
            solve(&low_in).voltage(out) > 4.99,
            "input low -> output at vdd"
        );

        let (high_in, _, out) = inverter(5.0);
        assert!(
            solve(&high_in).voltage(out) < 0.01,
            "input high -> output at ground"
        );
    }

    #[test]
    fn iddq_of_healthy_inverter_is_tiny() {
        let (ckt, _, _) = inverter(0.0);
        let i = solve(&ckt).iddq("vdd").unwrap();
        assert!(
            i.abs() < 1e-6,
            "quiescent current should be leakage only, got {i}"
        );
    }

    #[test]
    fn iddq_of_fighting_networks_is_large() {
        // Tie the inverter input to mid-rail: both devices conduct.
        let (ckt, _, _) = inverter(2.5);
        let i = solve(&ckt).iddq("vdd").unwrap();
        assert!(
            i > 1e-5,
            "conducting fight must draw static current, got {i}"
        );
    }

    #[test]
    fn unknown_supply_is_reported() {
        let (ckt, _, _) = inverter(0.0);
        let err = solve(&ckt).iddq("nope").unwrap_err();
        assert_eq!(err, SpiceError::UnknownProbe("nope".into()));
    }
}
