//! Modified-nodal-analysis (MNA) transient simulator with Level-1 MOSFETs.
//!
//! This crate is the electrical-level engine the paper's evaluation runs on:
//! a from-scratch analog simulator covering exactly the device set the
//! skew-sensing circuit needs — resistors, capacitors, independent sources
//! and Shichman–Hodges (SPICE Level-1) MOSFETs.
//!
//! * [`dc_operating_point`] — Newton–Raphson DC solution with gmin and
//!   source stepping fallbacks. [`DcSolution::iddq`] reads the quiescent
//!   supply current off it, the detection criterion the paper invokes
//!   for pull-up stuck-on and resistive bridging faults.
//! * [`transient`] / [`transient_cached`] — trapezoidal integration
//!   (backward-Euler start) with Newton iteration per step,
//!   source-breakpoint alignment and step halving on non-convergence.
//! * [`transient_batch`] — many same-topology variants marched in
//!   lockstep lane blocks.
//!
//! The analyses that take a [`SymbolicCache`] share the sparse backend's
//! symbolic analysis across same-topology circuits. The Newton
//! tolerances are the constants [`RELTOL`], [`VNTOL`], [`ABSTOL`] and
//! [`GMIN`]; everything else a run may vary is in [`SimOptions`].
//!
//! # Examples
//!
//! Simulate an RC low-pass step response and check the time constant:
//!
//! ```
//! use clocksense_netlist::{Circuit, SourceWave, GROUND};
//! use clocksense_spice::{transient, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))?;
//! ckt.add_resistor("r", inp, out, 1_000.0)?;
//! ckt.add_capacitor("c", out, GROUND, 1e-12)?; // tau = 1 ns
//! let result = transient(&ckt, 5e-9, &SimOptions::default())?;
//! let v_out = result.waveform(out);
//! let v_at_tau = v_out.value_at(1e-9);
//! assert!((v_at_tau - 0.632).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

mod batch;
mod dc;
mod engine;
mod error;
mod matrix;
mod metrics;
mod mos_eval;
mod options;
mod sparse;
mod tran;

pub use batch::{transient_batch, LANE_WIDTH};
pub use clocksense_exec::Deadline;
pub use dc::{dc_operating_point, DcSolution};
pub use error::{RescueStage, SimDiagnostics, SpiceError};
pub use matrix::{DenseMatrix, LuScratch};
pub use mos_eval::{channel_current, MosOperatingPoint, MosRegion};
pub use options::{
    IntegrationMethod, SimOptions, SolverKind, TimestepControl, ABSTOL, GMIN, RELTOL, VNTOL,
};
pub use sparse::{SparseMatrix, Symbolic, SymbolicCache};
pub use tran::{transient, transient_cached, TranResult};
