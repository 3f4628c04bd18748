//! Workload generators that take the sensing circuit beyond the
//! H-tree/DME decks it grew up on.
//!
//! Three families, one per module:
//!
//! * [`mesh`] — parameterized clock-mesh and TRIX-grid netlists in the
//!   1k–10k-node range, with **sensor arrays**: many sensing circuits
//!   grafted into one deck ([`array`](mod@array)), each monitoring a
//!   pair of grid taps that is nominally skew-free by symmetry.
//!   Value-variant copies of a deck (a resistive fault swept over a
//!   link) run in lockstep through the spice crate's lane-blocked batch
//!   kernel, `transient_batch`.
//! * [`two_phase`] — a programmable two-phase non-overlapping clock
//!   generator (margin, rise/fall, width), so the sensor is exercised
//!   against *generated* φ1/φ2 instead of ideal sources, and the skew
//!   at which detection flips can be swept against the generator
//!   parameters.
//! * [`dirty`] — composable stimulus decorators over a PULSE train:
//!   cycle-to-cycle jitter, duty-cycle distortion and supply droop.
//!   Dirty trains render to explicit [`SourceWave::Pwl`] corner lists,
//!   so **every perturbed edge is a simulator breakpoint by
//!   construction** — the invariant the adaptive and batched transient
//!   marchers need to never smear an edge (see `dirty`'s module docs).
//!
//! [`SourceWave::Pwl`]: clocksense_netlist::SourceWave

pub mod array;
pub mod dirty;
pub mod mesh;
pub mod two_phase;

mod error;

pub use array::{attach_sensor, SensorTap};
pub use dirty::{DirtyClock, PulseSpec};
pub use error::ScenarioError;
pub use mesh::{MeshSpec, ScenarioDeck, TrixSpec};
pub use two_phase::TwoPhaseSpec;

use clocksense_netlist::{Circuit, Device, NodeId, GROUND};

/// The node terminals of a device, gate included — connectivity here is
/// structural (is the netlist one piece?), not electrical.
fn terminals(device: &Device) -> Vec<NodeId> {
    match device {
        Device::Resistor(r) => vec![r.a, r.b],
        Device::Capacitor(c) => vec![c.a, c.b],
        Device::VoltageSource(v) => vec![v.plus, v.minus],
        Device::CurrentSource(i) => vec![i.from, i.to],
        Device::Mosfet(m) => vec![m.drain, m.gate, m.source],
    }
}

/// `true` when every node of `circuit` reaches ground through device
/// terminals (MOSFET gates count as terminals). Generated netlists must
/// pass this before simulation: a floating island has no DC solution.
///
/// # Examples
///
/// ```
/// use clocksense_netlist::{Circuit, GROUND};
/// use clocksense_scenarios::connected_to_ground;
///
/// # fn main() -> Result<(), clocksense_netlist::NetlistError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_resistor("r1", a, GROUND, 1e3)?;
/// assert!(connected_to_ground(&ckt));
/// let b = ckt.node("floating");
/// let c = ckt.node("island");
/// ckt.add_resistor("r2", b, c, 1e3)?;
/// assert!(!connected_to_ground(&ckt));
/// # Ok(())
/// # }
/// ```
pub fn connected_to_ground(circuit: &Circuit) -> bool {
    let n = circuit.node_count();
    if n == 0 {
        return true;
    }
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (_, entry) in circuit.devices() {
        let nodes = terminals(&entry.device);
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if a != b {
                    adjacency[a.index()].push(b.index());
                    adjacency[b.index()].push(a.index());
                }
            }
        }
    }
    let mut seen = vec![false; n];
    let mut queue = vec![GROUND.index()];
    seen[GROUND.index()] = true;
    while let Some(i) = queue.pop() {
        for &j in &adjacency[i] {
            if !seen[j] {
                seen[j] = true;
                queue.push(j);
            }
        }
    }
    seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_netlist::SourceWave;

    #[test]
    fn empty_circuit_is_trivially_connected() {
        assert!(connected_to_ground(&Circuit::new()));
    }

    #[test]
    fn gate_terminal_counts_for_connectivity() {
        use clocksense_netlist::{MosParams, MosPolarity};
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("v", d, GROUND, SourceWave::Dc(1.0))
            .unwrap();
        let params = MosParams {
            vth0: 0.8,
            kp: 8e-5,
            lambda: 0.02,
            w: 8e-6,
            l: 1.2e-6,
            cgs: 1e-15,
            cgd: 1e-15,
            cdb: 1e-15,
        };
        // The gate node hangs off the MOSFET only: structurally
        // connected, even though no DC current path exists.
        ckt.add_mosfet("m", MosPolarity::Nmos, d, g, GROUND, params)
            .unwrap();
        assert!(connected_to_ground(&ckt));
    }
}
