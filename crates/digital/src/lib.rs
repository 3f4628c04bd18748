//! Event-driven gate-level logic simulation with delay annotation.
//!
//! The paper situates its sensing scheme inside "digital synchronous ICs"
//! whose conventional test flows target "faults in IC's logic"; this crate
//! provides that surrounding logic so system-level consequences of clock
//! faults can be demonstrated: a delay-annotated gate network, edge-
//! triggered flip-flops with setup/hold checking, an event-driven
//! simulator, and converters between analog [`Waveform`]s (e.g. clock-tree
//! sink voltages) and digital signals.
//!
//! [`Waveform`]: clocksense_wave::Waveform
//!
//! # Examples
//!
//! A 2-gate circuit with real delays:
//!
//! ```
//! use clocksense_digital::{GateKind, GateNetwork, Schedule};
//!
//! # fn main() -> Result<(), clocksense_digital::DigitalError> {
//! let mut net = GateNetwork::new();
//! let a = net.input("a", Schedule::constant(false));
//! let b = net.input("b", Schedule::constant(true));
//! let x = net.gate(GateKind::Xor, &[a, b], 0.5e-9)?;
//! let q = net.gate(GateKind::Not, &[x], 0.3e-9)?;
//! let run = net.simulate(5e-9)?;
//! assert_eq!(run.value_at(x, 4e-9), Some(true));
//! assert_eq!(run.value_at(q, 4e-9), Some(false));
//! # Ok(())
//! # }
//! ```

mod convert;
mod network;
mod signal;
mod sim;

pub use convert::{schedule_from_waveform, source_from_run};
pub use network::{DffId, DigitalError, GateId, GateKind, GateNetwork, NetId, Schedule};
pub use signal::DigitalSignal;
pub use sim::{SimulationRun, TimingViolation};
