//! Clock-mesh and TRIX-grid scenario decks with grafted sensor arrays.
//!
//! Both generators follow the same shape: a [`GridPlan`]/[`TrixPlan`]
//! from `clocksense-clocktree` fixes the topology, this module turns it
//! into an electrical netlist (resistive links, a capacitor per node,
//! a pulsed driver), and [`attach_sensor`] grafts one sensing circuit
//! per planned monitor pair. The monitor pairs are symmetric by
//! construction, so a healthy deck must read `NoError` on every sensor
//! — any fault that breaks the symmetry (a resistive link sweep, the
//! bench's value variants) shows up as a verdict flip on exactly the
//! sensors whose taps straddle the asymmetry.

use clocksense_clocktree::{GridPlan, TrixPlan};
use clocksense_core::{interpret, ClockEdge, ClockPair, SensorBuilder, SkewVerdict, Technology};
use clocksense_netlist::{Circuit, NodeId, SourceWave, GROUND};
use clocksense_spice::TranResult;

use crate::array::{attach_sensor, SensorTap};
use crate::error::ScenarioError;

/// A generated scenario circuit: the distribution netlist, the grafted
/// sensor array and enough stimulus metadata to interpret the outputs.
#[derive(Debug, Clone)]
pub struct ScenarioDeck {
    /// The complete netlist: grid, driver, supply, sensors.
    pub circuit: Circuit,
    /// One entry per grafted sensor.
    pub taps: Vec<SensorTap>,
    /// The nominal clock timing, for output interpretation windows.
    pub clocks: ClockPair,
    /// Grid nodes (excluding driver, supply and sensor internals).
    pub grid_nodes: usize,
    /// The technology the sensors were built in.
    pub tech: Technology,
}

impl ScenarioDeck {
    /// Total node count of the deck (ground included).
    pub fn node_count(&self) -> usize {
        self.circuit.node_count()
    }

    /// A sensible transient stop time for the deck's stimulus.
    pub fn sim_stop_time(&self) -> f64 {
        self.clocks.sim_stop_time()
    }

    /// Reads every sensor's verdict out of a finished transient.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] if `result` lacks a
    /// tap's output nodes (it was simulated from a different deck).
    pub fn verdicts(&self, result: &TranResult) -> Result<Vec<SkewVerdict>, ScenarioError> {
        let v_th = self.tech.logic_threshold();
        self.taps
            .iter()
            .map(|tap| {
                let y1 = result.waveform_named(&tap.y1).ok_or_else(|| {
                    ScenarioError::InvalidParameter(format!("result has no node {}", tap.y1))
                })?;
                let y2 = result.waveform_named(&tap.y2).ok_or_else(|| {
                    ScenarioError::InvalidParameter(format!("result has no node {}", tap.y2))
                })?;
                Ok(interpret(y1, y2, &self.clocks, ClockEdge::Rising, v_th).verdict)
            })
            .collect()
    }
}

/// The default single-shot clock for grid decks: a fast edge early in
/// the window so a full deck transient stays short.
fn grid_clock(vdd: f64) -> ClockPair {
    ClockPair {
        vdd,
        delay: 0.1e-9,
        slew: 0.1e-9,
        width: 1.2e-9,
        period: f64::INFINITY,
        skew: 0.0,
    }
}

fn check_positive(name: &str, v: f64) -> Result<(), ScenarioError> {
    if !(v.is_finite() && v > 0.0) {
        return Err(ScenarioError::InvalidParameter(format!(
            "{name} must be positive, got {v}"
        )));
    }
    Ok(())
}

/// Looks up a planned monitor-pair node in the generated grid netlist.
fn grid_node(ckt: &Circuit, name: &str) -> Result<NodeId, ScenarioError> {
    ckt.find_node(name).ok_or_else(|| {
        ScenarioError::InvalidParameter(format!("monitor tap {name} is not a grid node"))
    })
}

/// Parameterized clock-mesh generator: an `rows` × `cols` resistive
/// grid driven from corner `(0, 0)`, monitored by up to `sensors`
/// sensing circuits on transpose-symmetric tap pairs.
///
/// # Examples
///
/// ```
/// use clocksense_scenarios::MeshSpec;
///
/// let deck = MeshSpec::new(8, 8).build().unwrap();
/// assert_eq!(deck.grid_nodes, 64);
/// assert_eq!(deck.taps.len(), 4);
/// deck.circuit.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Grid rows (>= 2).
    pub rows: usize,
    /// Grid columns (>= 2).
    pub cols: usize,
    /// Resistance of one grid segment (Ω).
    pub segment_ohms: f64,
    /// Capacitance at every grid node (F).
    pub node_farads: f64,
    /// Driver output resistance (Ω).
    pub driver_ohms: f64,
    /// Number of sensor pairs to graft (0 for a bare mesh).
    pub sensors: usize,
    /// Sensor output load capacitance (F).
    pub load_farads: f64,
    /// Clock stimulus timing; `vdd` should match `tech`.
    pub clocks: ClockPair,
    /// Technology of the grafted sensors.
    pub tech: Technology,
}

impl MeshSpec {
    /// A mesh spec with the default electrical parameters (2 Ω
    /// segments, 10 fF nodes, 4 sensors at 80 fF load).
    ///
    /// The driver resistance is sized against the whole deck: a mesh is
    /// driven by a buffer bank that grows with the tile count, so the
    /// default keeps the charging time-constant `driver_ohms * C_total`
    /// near 25 ps regardless of grid size (clamped to [1 Ω, 25 Ω]).
    /// With a fixed 25 Ω driver a 32x32 mesh would see ~250 ps slews at
    /// every tap and the sensors would read the slew, not the skew.
    pub fn new(rows: usize, cols: usize) -> MeshSpec {
        let tech = Technology::cmos12();
        let node_farads = 10e-15;
        let c_total = (rows * cols) as f64 * node_farads;
        let driver_ohms = (25e-12 / c_total).clamp(1.0, 25.0);
        MeshSpec {
            rows,
            cols,
            segment_ohms: 2.0,
            node_farads,
            driver_ohms,
            sensors: 4,
            load_farads: 80e-15,
            clocks: grid_clock(tech.vdd),
            tech,
        }
    }

    fn validate(&self) -> Result<GridPlan, ScenarioError> {
        check_positive("segment_ohms", self.segment_ohms)?;
        check_positive("node_farads", self.node_farads)?;
        check_positive("driver_ohms", self.driver_ohms)?;
        check_positive("load_farads", self.load_farads)?;
        self.clocks.validate()?;
        Ok(GridPlan::new(self.rows, self.cols)?)
    }

    /// Builds the bare mesh netlist (driver and clock source, no
    /// sensors, no supply) plus the grid plan — the round-trippable
    /// core the property tests exercise.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for out-of-domain
    /// parameters.
    pub fn netlist(&self) -> Result<(Circuit, GridPlan), ScenarioError> {
        let plan = self.validate()?;
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let (clk, _) = self.clocks.waveforms();
        ckt.add_vsource("vclk", src, GROUND, clk)?;
        let nodes: Vec<Vec<NodeId>> = (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| ckt.node(&plan.node_name(r, c)))
                    .collect()
            })
            .collect();
        ckt.add_resistor("rdrv", src, nodes[0][0], self.driver_ohms)?;
        for ((r1, c1), (r2, c2)) in plan.links() {
            let name = if r1 == r2 {
                format!("rh{r1}_{c1}")
            } else {
                format!("rv{r1}_{c1}")
            };
            ckt.add_resistor(&name, nodes[r1][c1], nodes[r2][c2], self.segment_ohms)?;
        }
        for (r, row) in nodes.iter().enumerate() {
            for (c, &node) in row.iter().enumerate() {
                ckt.add_capacitor(&format!("c{r}_{c}"), node, GROUND, self.node_farads)?;
            }
        }
        Ok((ckt, plan))
    }

    /// Builds the full scenario deck: mesh, supply and the grafted
    /// sensor array on the deepest transpose-symmetric pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for out-of-domain
    /// parameters.
    pub fn build(&self) -> Result<ScenarioDeck, ScenarioError> {
        let (mut ckt, plan) = self.netlist()?;
        let mut taps = Vec::new();
        if self.sensors > 0 {
            let vdd = ckt.node("vdd");
            ckt.add_vsource("vdd_supply", vdd, GROUND, SourceWave::Dc(self.tech.vdd))?;
            let sensor = SensorBuilder::new(self.tech)
                .load_capacitance(self.load_farads)
                .build()?;
            for (k, ((r1, c1), (r2, c2))) in
                plan.monitor_pairs(self.sensors).into_iter().enumerate()
            {
                let a = grid_node(&ckt, &plan.node_name(r1, c1))?;
                let b = grid_node(&ckt, &plan.node_name(r2, c2))?;
                taps.push(attach_sensor(
                    &mut ckt,
                    &sensor,
                    &format!("s{k}"),
                    a,
                    b,
                    vdd,
                )?);
            }
        }
        Ok(ScenarioDeck {
            circuit: ckt,
            taps,
            clocks: self.clocks,
            grid_nodes: self.rows * self.cols,
            tech: self.tech,
        })
    }
}

/// Parameterized TRIX-grid generator: `layers` ranks of `width` nodes,
/// each rank-`l+1` node fed by three rank-`l` neighbours, ranks driven
/// from a common driver into rank 0, mirror pairs of the last rank
/// monitored by grafted sensors.
///
/// # Examples
///
/// ```
/// use clocksense_scenarios::TrixSpec;
///
/// let deck = TrixSpec::new(6, 8).build().unwrap();
/// assert_eq!(deck.grid_nodes, 48);
/// assert!(!deck.taps.is_empty());
/// deck.circuit.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrixSpec {
    /// Number of ranks (>= 2).
    pub layers: usize,
    /// Nodes per rank (>= 3).
    pub width: usize,
    /// Wrap the diagonals at the rank edges (the TRIX cylinder).
    pub wrap: bool,
    /// Resistance of one propagation link (Ω).
    pub link_ohms: f64,
    /// Per-node branch resistance from the driver into rank 0 (Ω).
    pub feed_ohms: f64,
    /// Capacitance at every grid node (F).
    pub node_farads: f64,
    /// Driver output resistance (Ω).
    pub driver_ohms: f64,
    /// Number of sensor pairs to graft (0 for a bare grid).
    pub sensors: usize,
    /// Sensor output load capacitance (F).
    pub load_farads: f64,
    /// Clock stimulus timing; `vdd` should match `tech`.
    pub clocks: ClockPair,
    /// Technology of the grafted sensors.
    pub tech: Technology,
}

impl TrixSpec {
    /// A TRIX spec with the default electrical parameters (wrapped,
    /// 4 Ω links, 25 Ω balanced feeds, 8 fF nodes, 3 sensors).
    pub fn new(layers: usize, width: usize) -> TrixSpec {
        let tech = Technology::cmos12();
        TrixSpec {
            layers,
            width,
            wrap: true,
            link_ohms: 4.0,
            feed_ohms: 25.0,
            node_farads: 8e-15,
            driver_ohms: 10.0,
            sensors: 3,
            load_farads: 80e-15,
            clocks: grid_clock(tech.vdd),
            tech,
        }
    }

    fn validate(&self) -> Result<TrixPlan, ScenarioError> {
        check_positive("link_ohms", self.link_ohms)?;
        check_positive("feed_ohms", self.feed_ohms)?;
        check_positive("node_farads", self.node_farads)?;
        check_positive("driver_ohms", self.driver_ohms)?;
        check_positive("load_farads", self.load_farads)?;
        self.clocks.validate()?;
        Ok(TrixPlan::new(self.layers, self.width, self.wrap)?)
    }

    /// Builds the bare TRIX netlist (driver, balanced rank-0 feeds,
    /// propagation links, node capacitors — no sensors, no supply) plus
    /// the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for out-of-domain
    /// parameters.
    pub fn netlist(&self) -> Result<(Circuit, TrixPlan), ScenarioError> {
        let plan = self.validate()?;
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let drv = ckt.node("drv");
        let (clk, _) = self.clocks.waveforms();
        ckt.add_vsource("vclk", src, GROUND, clk)?;
        ckt.add_resistor("rdrv", src, drv, self.driver_ohms)?;
        let nodes: Vec<Vec<NodeId>> = (0..self.layers)
            .map(|l| {
                (0..self.width)
                    .map(|p| ckt.node(&plan.node_name(l, p)))
                    .collect()
            })
            .collect();
        for (p, &node) in nodes[0].iter().enumerate() {
            ckt.add_resistor(&format!("rin{p}"), drv, node, self.feed_ohms)?;
        }
        for ((l1, p1), (l2, p2)) in plan.links() {
            ckt.add_resistor(
                &format!("rl{l1}_{p1}_{p2}"),
                nodes[l1][p1],
                nodes[l2][p2],
                self.link_ohms,
            )?;
        }
        for (l, rank) in nodes.iter().enumerate() {
            for (p, &node) in rank.iter().enumerate() {
                ckt.add_capacitor(&format!("ct{l}_{p}"), node, GROUND, self.node_farads)?;
            }
        }
        Ok((ckt, plan))
    }

    /// Builds the full scenario deck: grid, supply and the grafted
    /// sensor array on mirror pairs of the last rank.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidParameter`] for out-of-domain
    /// parameters.
    pub fn build(&self) -> Result<ScenarioDeck, ScenarioError> {
        let (mut ckt, plan) = self.netlist()?;
        let mut taps = Vec::new();
        if self.sensors > 0 {
            let vdd = ckt.node("vdd");
            ckt.add_vsource("vdd_supply", vdd, GROUND, SourceWave::Dc(self.tech.vdd))?;
            let sensor = SensorBuilder::new(self.tech)
                .load_capacitance(self.load_farads)
                .build()?;
            for (k, ((l1, p1), (l2, p2))) in
                plan.monitor_pairs(self.sensors).into_iter().enumerate()
            {
                let a = grid_node(&ckt, &plan.node_name(l1, p1))?;
                let b = grid_node(&ckt, &plan.node_name(l2, p2))?;
                taps.push(attach_sensor(
                    &mut ckt,
                    &sensor,
                    &format!("s{k}"),
                    a,
                    b,
                    vdd,
                )?);
            }
        }
        Ok(ScenarioDeck {
            circuit: ckt,
            taps,
            clocks: self.clocks,
            grid_nodes: self.layers * self.width,
            tech: self.tech,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connected_to_ground;
    use clocksense_spice::{transient, SimOptions};

    #[test]
    fn mesh_deck_is_well_formed() {
        let deck = MeshSpec::new(6, 6).build().unwrap();
        deck.circuit.validate().unwrap();
        assert!(connected_to_ground(&deck.circuit));
        assert_eq!(deck.taps.len(), 4);
        // Grid + src + vdd + 4 sensors * 6 internal nodes + ground.
        assert!(deck.node_count() > deck.grid_nodes);
    }

    #[test]
    fn bare_mesh_has_no_sensors() {
        let spec = MeshSpec {
            sensors: 0,
            ..MeshSpec::new(4, 4)
        };
        let deck = spec.build().unwrap();
        assert!(deck.taps.is_empty());
        assert!(deck.circuit.find_device("vdd_supply").is_none());
        assert!(connected_to_ground(&deck.circuit));
    }

    #[test]
    fn trix_deck_is_well_formed() {
        let deck = TrixSpec::new(4, 7).build().unwrap();
        deck.circuit.validate().unwrap();
        assert!(connected_to_ground(&deck.circuit));
        assert_eq!(deck.taps.len(), 3);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(MeshSpec::new(1, 5).build().is_err());
        assert!(TrixSpec::new(1, 5).build().is_err());
        let bad = MeshSpec {
            segment_ohms: -1.0,
            ..MeshSpec::new(4, 4)
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn healthy_mesh_reads_no_error_on_every_sensor() {
        // Small deck so the dense transient stays fast in debug tests.
        let spec = MeshSpec {
            sensors: 2,
            ..MeshSpec::new(4, 4)
        };
        let deck = spec.build().unwrap();
        let opts = SimOptions {
            tstep: 4e-12,
            ..SimOptions::default()
        };
        let result = transient(&deck.circuit, deck.sim_stop_time(), &opts).unwrap();
        let verdicts = deck.verdicts(&result).unwrap();
        assert_eq!(verdicts.len(), 2);
        for v in verdicts {
            assert_eq!(v, SkewVerdict::NoError);
        }
    }

    #[test]
    fn verdicts_reject_a_foreign_result() {
        let deck = MeshSpec::new(4, 4).build().unwrap();
        let other = MeshSpec {
            sensors: 0,
            ..MeshSpec::new(4, 4)
        }
        .build()
        .unwrap();
        let opts = SimOptions::default();
        let result = transient(&other.circuit, 1e-10, &opts).unwrap();
        assert!(deck.verdicts(&result).is_err());
    }
}
