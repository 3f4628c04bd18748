//! Fault models, fault injection and fault-simulation campaigns.
//!
//! Implements the testability analysis of the paper's Section 3: the
//! realistic CMOS fault set (node stuck-at, transistor stuck-open and
//! stuck-on, resistive bridging), electrical-level fault injection into any
//! [`Circuit`], and campaign runners that classify each fault as detected
//! by logic monitoring, detected by IDDQ only, or undetected — under
//! *fault-free input stimuli*, because the clock inputs of the sensing
//! circuit cannot be controlled independently.
//!
//! [`Circuit`]: clocksense_netlist::Circuit
//!
//! # Examples
//!
//! ```no_run
//! use clocksense_core::{ClockPair, SensorBuilder, Technology};
//! use clocksense_faults::{sensor_fault_universe, run_campaign, CampaignConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::cmos12();
//! let sensor = SensorBuilder::new(tech).load_capacitance(160e-15).build()?;
//! let faults = sensor_fault_universe(&sensor, 100.0);
//! let cfg = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
//! let result = run_campaign(&sensor, &faults, &cfg)?;
//! println!("{result}");
//! # Ok(())
//! # }
//! ```

mod campaign;
pub mod checkpoint;
mod detect;
mod error;
mod inject;
mod model;
mod universe;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignResult, FailureInfo, FailureKind, FaultRecord,
};
pub use checkpoint::Journal;
pub use detect::{complementary_window, DetectionOutcome};
pub use error::FaultError;
pub use inject::{inject, Rails};
pub use model::{Fault, FaultClass, StuckLevel};
pub use universe::{
    bridge_universe, sensor_fault_universe, stuck_at_universe, transistor_universe,
};
