//! Construction of the sensing circuit (paper Fig. 1) and its test bench.

use clocksense_netlist::{Circuit, DeviceId, MosPolarity, NodeId, SourceWave, GROUND};
use clocksense_spice::{transient, SimOptions};

use crate::error::CoreError;
use crate::response::{interpret, observation_stop, SensorResponse};
use crate::stimulus::ClockPair;
use crate::tech::Technology;

/// Which clock edge the sensor monitors.
///
/// The paper's circuit watches *rising* edges ("this circuit can be used if
/// flip-flops sample on the rising edge, otherwise a dual circuit should be
/// used"); [`ClockEdge::Falling`] builds that dual circuit, with device
/// polarities and rails exchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClockEdge {
    /// Monitor rising edges (the paper's primary circuit).
    #[default]
    Rising,
    /// Monitor falling edges (the paper's dual circuit).
    Falling,
}

/// The paper's transistor labels (Fig. 1), used as fault-injection sites.
///
/// Labels `a`–`e` belong to block A, `f`–`l` to block B (the paper skips
/// `j`/`k`, using the Italian alphabet). Each block is a clocked
/// NAND-style cell whose pull-up is *gated by its own clock* through a
/// series device (`a`/`f`) feeding a parallel pair (`b`,`c` / `g`,`h`) —
/// the structure that makes the opposite block's output float ("high
/// impedance state") while its clock is still low, exactly as the paper
/// describes:
///
/// | label | device | gate | role |
/// |-------|--------|------|------|
/// | `A`   | PMOS   | φ1   | block A series pull-up (clock gate) |
/// | `B`   | PMOS   | φ2   | block A parallel pull-up (cross-clock) |
/// | `C`   | PMOS   | y2   | block A parallel pull-up (feedback) |
/// | `D`   | NMOS   | φ1   | block A series pull-down (top) |
/// | `E`   | NMOS   | y2   | block A series pull-down (bottom) |
/// | `F`   | PMOS   | φ2   | block B series pull-up (clock gate) |
/// | `G`   | PMOS   | y1   | block B parallel pull-up (feedback) |
/// | `H`   | PMOS   | φ1   | block B parallel pull-up (cross-clock) |
/// | `I`   | NMOS   | φ2   | block B series pull-down (top) |
/// | `L`   | NMOS   | y1   | block B series pull-down (bottom) |
///
/// (For the falling-edge dual every polarity is swapped.) The optional
/// full-swing keepers are extra, unlabelled devices
/// (`m_keep1`/`m_keep2` plus their feedback inverters).
///
/// Reconstructed schematic (rising-edge circuit, PMOS on top):
///
/// ```text
///        vdd                                vdd
///         |                                  |
///      a -| (phi1)                 (phi2) |- f
///         |  top_a                 top_b  |
///     +---+---+                       +---+---+
///  b -|       |- c                 g -|       |- h
/// (phi2)    (y2)                   (y1)    (phi1)
///     +---+---+                       +---+---+
///         +--------- y1       y2 ---------+
///         |            \     /            |
///      d -| (phi1)      cross              |- i (phi2)
///         |  mid_a     coupling    mid_b   |
///      e -| (y2)                    (y1)   |- l
///         |                                |
///        gnd                              gnd
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransistorLabel {
    /// Block A series pull-up, gated by `φ1`.
    A,
    /// Block A cross-clock pull-up, gated by `φ2`.
    B,
    /// Block A feedback pull-up, gated by `y2`.
    C,
    /// Block A clock series pull-down (top of the stack).
    D,
    /// Block A feedback series pull-down (bottom of the stack).
    E,
    /// Block B series pull-up, gated by `φ2`.
    F,
    /// Block B feedback pull-up, gated by `y1`.
    G,
    /// Block B cross-clock pull-up, gated by `φ1`.
    H,
    /// Block B clock series pull-down (top of the stack).
    I,
    /// Block B feedback series pull-down (bottom of the stack).
    L,
}

impl TransistorLabel {
    /// All ten transistors of the paper's circuit, in paper order.
    pub fn all() -> [TransistorLabel; 10] {
        use TransistorLabel::*;
        [A, B, C, D, E, F, G, H, I, L]
    }

    /// The device name used inside the built circuit (e.g. `"m_c"`).
    pub fn device_name(self) -> &'static str {
        use TransistorLabel::*;
        match self {
            A => "m_a",
            B => "m_b",
            C => "m_c",
            D => "m_d",
            E => "m_e",
            F => "m_f",
            G => "m_g",
            H => "m_h",
            I => "m_i",
            L => "m_l",
        }
    }

    /// `true` for the parallel pull-up transistors `b`, `c`, `g`, `h` —
    /// the set whose stuck-on faults the paper reports as undetectable by
    /// logic monitoring (they need IDDQ).
    pub fn is_parallel_pull_up(self) -> bool {
        use TransistorLabel::*;
        matches!(self, B | C | G | H)
    }
}

/// Builder for the sensing circuit.
///
/// Defaults reproduce the paper's 1.2 µm implementation: sized for a block
/// fall delay that puts the sensitivity `τ_min` in the 0.05–0.2 ns band
/// across the 80–240 fF loads of Fig. 4, no full-swing keepers, rising-edge
/// monitoring and zero external load (add the paper's loads with
/// [`SensorBuilder::load_capacitance`]).
///
/// # Examples
///
/// ```
/// use clocksense_core::{SensorBuilder, Technology};
///
/// # fn main() -> Result<(), clocksense_core::CoreError> {
/// let sensor = SensorBuilder::new(Technology::cmos12())
///     .load_capacitance(80e-15)
///     .full_swing_keepers(true)
///     .build()?;
/// assert!(sensor.circuit().device_count() > 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorBuilder {
    tech: Technology,
    nmos_width: f64,
    pmos_width: f64,
    load: f64,
    keepers: bool,
    edge: ClockEdge,
    line_resistance: f64,
}

/// Width of the weak keeper device of each full-swing keeper (m).
const KEEPER_WIDTH: f64 = 1e-6;

/// Output resistance of the clock drivers in the test bench (Ω): the
/// Thevenin impedance of the clock-tree buffers feeding the monitored
/// wires. This matters to fault injection: a node stuck-at fault on a
/// clock input only manifests if the driver cannot overpower the short.
const DRIVER_RESISTANCE: f64 = 200.0;

impl SensorBuilder {
    /// Starts a builder over the given technology.
    pub fn new(tech: Technology) -> Self {
        SensorBuilder {
            tech,
            nmos_width: 8e-6,
            pmos_width: 12e-6,
            load: 0.0,
            keepers: false,
            edge: ClockEdge::Rising,
            line_resistance: 0.0,
        }
    }

    /// Sets the same external load capacitance on both outputs (the `C_L`
    /// of Fig. 4: 80, 160 or 240 fF).
    #[must_use]
    pub fn load_capacitance(mut self, farads: f64) -> Self {
        self.load = farads;
        self
    }

    /// Enables the optional full-swing keepers (`a`, `f`): a feedback
    /// inverter driving a weak pull-down so the outputs reach the rail in
    /// the no-skew case instead of stopping near the NMOS threshold.
    #[must_use]
    pub fn full_swing_keepers(mut self, enable: bool) -> Self {
        self.keepers = enable;
        self
    }

    /// Sets the width of the main pull-down (NMOS) devices. Larger widths
    /// shorten the block delay `d` and sharpen the sensitivity.
    #[must_use]
    pub fn nmos_width(mut self, w: f64) -> Self {
        self.nmos_width = w;
        self
    }

    /// Sets the width of the main pull-up (PMOS) devices.
    #[must_use]
    pub fn pmos_width(mut self, w: f64) -> Self {
        self.pmos_width = w;
        self
    }

    /// Selects which clock edge the sensor monitors.
    #[must_use]
    pub fn edge(mut self, edge: ClockEdge) -> Self {
        self.edge = edge;
        self
    }

    /// Adds a matched series resistance on each clock input, modelling the
    /// balanced connection lines the paper requires between the monitored
    /// wires and the sensor ("connect each of such couples to a sensing
    /// circuit with balanced lines"). Zero (the default) omits the lines.
    #[must_use]
    pub fn line_resistance(mut self, ohms: f64) -> Self {
        self.line_resistance = ohms;
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        for (name, v) in [
            ("nmos_width", self.nmos_width),
            ("pmos_width", self.pmos_width),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        for (name, v) in [
            ("load", self.load),
            ("line_resistance", self.line_resistance),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "{name} must be non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// Builds the sensing circuit (without supply or clock sources — see
    /// [`SensingCircuit::testbench`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for out-of-domain widths,
    /// loads or line resistance.
    pub fn build(self) -> Result<SensingCircuit, CoreError> {
        self.validate()?;
        let tech = self.tech;
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let phi1 = ckt.node("phi1");
        let phi2 = ckt.node("phi2");
        let y1 = ckt.node("y1");
        let y2 = ckt.node("y2");
        let mid_a = ckt.node("mid_a");
        let mid_b = ckt.node("mid_b");
        // Internal nodes between the series pull-up gate and the parallel
        // pull-up pair of each block.
        let top_a = ckt.node("top_a");
        let top_b = ckt.node("top_b");

        // For the rising-edge circuit: pull-ups are PMOS to vdd, series
        // pull-downs NMOS to ground. The falling-edge dual swaps both.
        let (pull_pol, pull_rail, series_pol, series_rail) = match self.edge {
            ClockEdge::Rising => (MosPolarity::Pmos, vdd, MosPolarity::Nmos, GROUND),
            ClockEdge::Falling => (MosPolarity::Nmos, GROUND, MosPolarity::Pmos, vdd),
        };
        let pull_params = match self.edge {
            ClockEdge::Rising => tech.pmos_params(self.pmos_width),
            ClockEdge::Falling => tech.nmos_params(self.nmos_width),
        };
        let series_params = match self.edge {
            ClockEdge::Rising => tech.nmos_params(self.nmos_width),
            ClockEdge::Falling => tech.pmos_params(self.pmos_width),
        };

        // Block A. Pull-up: a (gate phi1) in series with the parallel pair
        // b (gate y2) / c (gate phi2); pull-down: d (gate phi1) stacked on
        // e (gate y2). While phi1 is high the series device isolates the
        // pull-up, so the output can only discharge — and stalls at the
        // n-channel threshold when e's gate (y2) falls with it.
        ckt.add_mosfet("m_a", pull_pol, top_a, phi1, pull_rail, pull_params)?;
        ckt.add_mosfet("m_b", pull_pol, y1, phi2, top_a, pull_params)?;
        ckt.add_mosfet("m_c", pull_pol, y1, y2, top_a, pull_params)?;
        ckt.add_mosfet("m_d", series_pol, y1, phi1, mid_a, series_params)?;
        ckt.add_mosfet("m_e", series_pol, mid_a, y2, series_rail, series_params)?;
        // Block B, symmetric.
        ckt.add_mosfet("m_f", pull_pol, top_b, phi2, pull_rail, pull_params)?;
        ckt.add_mosfet("m_g", pull_pol, y2, y1, top_b, pull_params)?;
        ckt.add_mosfet("m_h", pull_pol, y2, phi1, top_b, pull_params)?;
        ckt.add_mosfet("m_i", series_pol, y2, phi2, mid_b, series_params)?;
        ckt.add_mosfet("m_l", series_pol, mid_b, y1, series_rail, series_params)?;

        if self.load > 0.0 {
            ckt.add_capacitor("cl1", y1, GROUND, self.load)?;
            ckt.add_capacitor("cl2", y2, GROUND, self.load)?;
        }

        if self.keepers {
            // Feedback inverter + weak keeper restoring the far rail.
            let inv_n = tech.nmos_params(2e-6);
            let inv_p = tech.pmos_params(4e-6);
            let keeper_params = match self.edge {
                ClockEdge::Rising => tech.nmos_params(KEEPER_WIDTH),
                ClockEdge::Falling => tech.pmos_params(KEEPER_WIDTH),
            };
            let keeper_pol = series_pol;
            let keeper_rail = series_rail;
            for (out, inv_out, inv_p_name, inv_n_name, keeper_name) in [
                (y1, "na", "m_kp1", "m_kn1", "m_keep1"),
                (y2, "nb", "m_kp2", "m_kn2", "m_keep2"),
            ] {
                let inv_node = ckt.node(inv_out);
                ckt.add_mosfet(inv_p_name, MosPolarity::Pmos, inv_node, out, vdd, inv_p)?;
                ckt.add_mosfet(inv_n_name, MosPolarity::Nmos, inv_node, out, GROUND, inv_n)?;
                ckt.add_mosfet(
                    keeper_name,
                    keeper_pol,
                    out,
                    inv_node,
                    keeper_rail,
                    keeper_params,
                )?;
            }
        }

        let (phi1_port, phi2_port) = if self.line_resistance > 0.0 {
            let p1 = ckt.node("phi1_in");
            let p2 = ckt.node("phi2_in");
            ckt.add_resistor("rline1", p1, phi1, self.line_resistance)?;
            ckt.add_resistor("rline2", p2, phi2, self.line_resistance)?;
            ("phi1_in".to_string(), "phi2_in".to_string())
        } else {
            ("phi1".to_string(), "phi2".to_string())
        };

        Ok(SensingCircuit {
            circuit: ckt,
            tech,
            edge: self.edge,
            phi1_port,
            phi2_port,
            has_keepers: self.keepers,
            y1,
            y2,
        })
    }
}

/// A built sensing circuit, ready to be simulated or fault-injected.
///
/// The underlying [`Circuit`] exposes the nodes `vdd`, `phi1`, `phi2`,
/// `y1`, `y2` (plus internals) and the transistors named per
/// [`TransistorLabel::device_name`]. It carries no sources;
/// [`SensingCircuit::testbench`] clones it and adds the supply
/// (named [`SensingCircuit::SUPPLY`]) and the two clock sources.
#[derive(Debug, Clone)]
pub struct SensingCircuit {
    circuit: Circuit,
    tech: Technology,
    edge: ClockEdge,
    phi1_port: String,
    phi2_port: String,
    has_keepers: bool,
    y1: NodeId,
    y2: NodeId,
}

impl SensingCircuit {
    /// Name of the supply source added by [`SensingCircuit::testbench`].
    pub const SUPPLY: &'static str = "vdd_supply";

    /// The bare sensing circuit (no sources).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes the sensor and returns the bare circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Mutable access to the underlying circuit, for Monte-Carlo parameter
    /// perturbation and similar in-place edits.
    ///
    /// Renaming or removing the canonical nodes (`phi1`, `phi2`, `y1`,
    /// `y2`, `vdd`) or devices breaks the sensor's accessors; stick to
    /// value changes (device parameters, added parasitics).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// The technology the sensor was built in.
    pub fn technology(&self) -> Technology {
        self.tech
    }

    /// The monitored clock edge.
    pub fn edge(&self) -> ClockEdge {
        self.edge
    }

    /// `true` if the optional full-swing keepers are present.
    pub fn has_keepers(&self) -> bool {
        self.has_keepers
    }

    /// Device id of the transistor with the given paper label.
    ///
    /// All ten labels exist in every built sensor, so this only returns
    /// `None` after the device has been removed (e.g. by stuck-open fault
    /// injection).
    pub fn transistor(&self, label: TransistorLabel) -> Option<DeviceId> {
        self.circuit.find_device(label.device_name())
    }

    /// The output nodes `(y1, y2)`.
    ///
    /// The ids are captured at build time, so this stays valid (node ids
    /// are never reused) no matter how the circuit is later mutated.
    pub fn outputs(&self) -> (NodeId, NodeId) {
        (self.y1, self.y2)
    }

    /// Builds a complete test bench: the sensor plus a DC supply
    /// ([`SensingCircuit::SUPPLY`]) and the two clock sources (`vphi1`,
    /// `vphi2`) described by `clocks`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `clocks` fails
    /// validation.
    pub fn testbench(&self, clocks: &ClockPair) -> Result<Circuit, CoreError> {
        clocks.validate()?;
        let (w1, w2) = clocks.waveforms();
        self.testbench_with_waves(w1, w2)
    }

    /// Test bench with independently slewed clock inputs (the Monte-Carlo
    /// asymmetric-slew condition).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `clocks` fails validation
    /// or a slew is non-positive.
    pub fn testbench_with_slews(
        &self,
        clocks: &ClockPair,
        slew1: f64,
        slew2: f64,
    ) -> Result<Circuit, CoreError> {
        clocks.validate()?;
        if !(slew1.is_finite() && slew1 > 0.0 && slew2.is_finite() && slew2 > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "slews must be positive, got {slew1} and {slew2}"
            )));
        }
        let (w1, w2) = clocks.waveforms_with_slews(slew1, slew2);
        self.testbench_with_waves(w1, w2)
    }

    /// Test bench with arbitrary clock waveforms, e.g. waveforms extracted
    /// from a simulated clock-distribution tree.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] if the waveforms are malformed.
    pub fn testbench_with_waves(
        &self,
        phi1: SourceWave,
        phi2: SourceWave,
    ) -> Result<Circuit, CoreError> {
        let mut ckt = self.circuit.clone();
        let vdd = ckt.node("vdd");
        let p1 = ckt.node(&self.phi1_port.clone());
        let p2 = ckt.node(&self.phi2_port.clone());
        ckt.add_vsource(Self::SUPPLY, vdd, GROUND, SourceWave::Dc(self.tech.vdd))?;
        let d1 = ckt.node("phi1_drv");
        let d2 = ckt.node("phi2_drv");
        ckt.add_vsource("vphi1", d1, GROUND, phi1)?;
        ckt.add_vsource("vphi2", d2, GROUND, phi2)?;
        ckt.add_resistor("rdrv1", d1, p1, DRIVER_RESISTANCE)?;
        ckt.add_resistor("rdrv2", d2, p2, DRIVER_RESISTANCE)?;
        Ok(ckt)
    }

    /// Simulates the sensor against the given clock pair and interprets
    /// the outputs (transient analysis to [`ClockPair::sim_stop_time`],
    /// then V_min extraction and strobe classification against the
    /// technology's logic threshold).
    ///
    /// The run covers the whole pulse and the recovery after it, past the
    /// observation window, because callers read the waveforms there: the
    /// fig. 2 / fig. 3 plots, the indicator hold time and the recovery
    /// time of [`characterize`](crate::characterize). The verdict and the
    /// window extremes alone need only a run to
    /// [`SensingCircuit::observation_stop`], which is how
    /// [`sweep_vmin`](crate::sweep_vmin), [`find_tau_min`](crate::find_tau_min)
    /// and [`threshold_for_tolerance`](crate::threshold_for_tolerance) run.
    ///
    /// # Errors
    ///
    /// Propagates construction and simulation errors.
    pub fn simulate(
        &self,
        clocks: &ClockPair,
        opts: &SimOptions,
    ) -> Result<SensorResponse, CoreError> {
        self.simulate_to(clocks, clocks.sim_stop_time(), opts)
    }

    /// [`SensingCircuit::simulate`] stopped at the observation horizon:
    /// the same verdict and window extremes, bit for bit, with the
    /// waveforms cut shortly after the observation window.
    pub(crate) fn observe(
        &self,
        clocks: &ClockPair,
        opts: &SimOptions,
    ) -> Result<SensorResponse, CoreError> {
        self.simulate_to(clocks, self.observation_stop(clocks, opts), opts)
    }

    fn simulate_to(
        &self,
        clocks: &ClockPair,
        t_stop: f64,
        opts: &SimOptions,
    ) -> Result<SensorResponse, CoreError> {
        let bench = self.testbench(clocks)?;
        let result = transient(&bench, t_stop, opts)?;
        let (y1, y2) = self.outputs();
        Ok(interpret(
            result.waveform(y1),
            result.waveform(y2),
            clocks,
            self.edge,
            self.tech.logic_threshold(),
        ))
    }

    /// The observation horizon of this sensor under `clocks` and `opts`:
    /// the end of the observation window [`interpret`] reads for the
    /// sensor's edge, plus two of the longest steps `opts` allows
    /// (`tstep` for fixed pacing, `tstep_max` for adaptive), capped at
    /// [`ClockPair::sim_stop_time`].
    ///
    /// Pulse breakpoints and step ends depend only on the past, and
    /// `t_stop` changes only the step it clamps. So a transient to this
    /// horizon records a bit-identical prefix of the
    /// [`ClockPair::sim_stop_time`] run, through the first sample past
    /// the window end, and [`interpret`] returns the same extremes and
    /// verdict from either.
    pub fn observation_stop(&self, clocks: &ClockPair, opts: &SimOptions) -> f64 {
        observation_stop(clocks, self.edge, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::SkewVerdict;

    fn sensor() -> SensingCircuit {
        SensorBuilder::new(Technology::cmos12())
            .load_capacitance(160e-15)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_ten_labelled_transistors() {
        let s = sensor();
        for label in TransistorLabel::all() {
            assert!(s.transistor(label).is_some(), "{label:?} missing");
        }
        assert!(!s.has_keepers());
        // 10 transistors + 2 load caps.
        assert_eq!(s.circuit().device_count(), 12);
    }

    #[test]
    fn keepers_add_devices() {
        let s = SensorBuilder::new(Technology::cmos12())
            .full_swing_keepers(true)
            .build()
            .unwrap();
        assert!(s.has_keepers());
        assert!(s.circuit().find_device("m_keep1").is_some());
        assert!(s.circuit().find_device("m_keep2").is_some());
        assert_eq!(s.circuit().device_count(), 10 + 6);
    }

    #[test]
    fn testbench_validates() {
        let s = sensor();
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let bench = s.testbench(&clocks).unwrap();
        bench.validate().unwrap();
        assert!(bench.find_device(SensingCircuit::SUPPLY).is_some());
    }

    #[test]
    fn invalid_builder_parameters_rejected() {
        let t = Technology::cmos12();
        assert!(SensorBuilder::new(t).nmos_width(0.0).build().is_err());
        assert!(SensorBuilder::new(t)
            .load_capacitance(-1.0)
            .build()
            .is_err());
        assert!(SensorBuilder::new(t)
            .line_resistance(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn line_resistance_moves_the_ports() {
        let s = SensorBuilder::new(Technology::cmos12())
            .line_resistance(100.0)
            .build()
            .unwrap();
        assert!(s.circuit().find_node("phi1_in").is_some());
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        s.testbench(&clocks).unwrap().validate().unwrap();
    }

    #[test]
    fn no_skew_gives_no_error() {
        let s = sensor();
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let r = s.simulate(&clocks, &SimOptions::default()).unwrap();
        assert_eq!(r.verdict, SkewVerdict::NoError);
        // Outputs bottom out near the NMOS threshold, never near ground
        // (the feedback cut-off the paper describes) ...
        assert!(
            r.vmin_y1 > 0.2 && r.vmin_y1 < 1.5,
            "vmin_y1 = {}",
            r.vmin_y1
        );
        // ... and recover to the rail afterwards.
        assert!(r.y1.value_at(r.y1.t_end()) > 4.5);
    }

    #[test]
    fn large_skew_flags_late_phase() {
        let s = sensor();
        let clocks = ClockPair::single_shot(5.0, 0.2e-9).with_skew(0.6e-9);
        let r = s.simulate(&clocks, &SimOptions::default()).unwrap();
        assert_eq!(r.verdict, SkewVerdict::Phi2Late);
        // y1 fell fully; y2 stayed high.
        assert!(r.vmin_y1 < 0.5);
        assert!(r.vmin_y2 > 2.75);

        let r = s
            .simulate(&clocks.with_skew(-0.6e-9), &SimOptions::default())
            .unwrap();
        assert_eq!(r.verdict, SkewVerdict::Phi1Late);
    }

    #[test]
    fn keepers_give_full_swing() {
        let s = SensorBuilder::new(Technology::cmos12())
            .load_capacitance(160e-15)
            .full_swing_keepers(true)
            .build()
            .unwrap();
        // The keeper is deliberately weak (it must never win against the
        // pull-up), so give it a long low phase to do its work.
        let clocks = ClockPair {
            width: 5e-9,
            ..ClockPair::single_shot(5.0, 0.2e-9)
        };
        let r = s.simulate(&clocks, &SimOptions::default()).unwrap();
        assert_eq!(r.verdict, SkewVerdict::NoError);
        // Without keepers the outputs stall near the NMOS threshold
        // (~0.7 V); the keeper drags them towards the rail.
        let bare = sensor().simulate(&clocks, &SimOptions::default()).unwrap();
        assert!(
            r.vmin_y1 < bare.vmin_y1 - 0.25,
            "keeper must deepen the low level: {} vs {}",
            r.vmin_y1,
            bare.vmin_y1
        );
        assert!(r.vmin_y1 < 0.4, "vmin with keeper = {}", r.vmin_y1);
        // And it must not defeat skew detection.
        let skewed = s
            .simulate(&clocks.with_skew(0.5e-9), &SimOptions::default())
            .unwrap();
        assert_eq!(skewed.verdict, SkewVerdict::Phi2Late);
    }

    #[test]
    fn falling_edge_dual_detects_late_falling_edge() {
        let s = SensorBuilder::new(Technology::cmos12())
            .load_capacitance(160e-15)
            .edge(ClockEdge::Falling)
            .build()
            .unwrap();
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let r = s.simulate(&clocks, &SimOptions::default()).unwrap();
        assert_eq!(r.verdict, SkewVerdict::NoError, "no skew: no error");

        let r = s
            .simulate(&clocks.with_skew(0.6e-9), &SimOptions::default())
            .unwrap();
        assert_eq!(r.verdict, SkewVerdict::Phi2Late);
    }
}
