//! Seeded Monte-Carlo parameter variation and statistics.
//!
//! Reproduces the paper's Monte-Carlo methodology for Fig. 5 and Tab. 1:
//! "a uniform distribution (with 0.15 as relative variation from the
//! nominal value) of the circuit parameter and of C; moreover, the slew of
//! the monitored clock signals has been supposed to have a uniform
//! distribution in the interval [0.1 ns, 0.4 ns]. Both the input slews and
//! the load have been considered independent."
//!
//! Everything is deterministic given a seed, and samples are distributed
//! over worker threads with per-sample RNG streams. A scatter always runs
//! in full: unlike the fault campaign, it keeps no checkpoint journal.
//!
//! # Examples
//!
//! ```no_run
//! use clocksense_core::{ClockPair, SensorBuilder, Technology};
//! use clocksense_montecarlo::{run_scatter, McConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::cmos12();
//! let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
//! let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
//! let cfg = McConfig { samples: 100, ..McConfig::default() };
//! let taus: Vec<f64> = (0..=20).map(|i| i as f64 * 0.015e-9).collect();
//! let samples = run_scatter(&builder, &clocks, &taus, &cfg)?;
//! assert_eq!(samples.len(), 100);
//! # Ok(())
//! # }
//! ```

mod experiment;
mod histogram;
mod perturb;
mod stats;
mod tau_dist;

pub use experiment::{run_scatter, McConfig, McSample};
pub use histogram::Histogram;
pub use perturb::perturb_circuit_global;
pub use stats::{loose_false_probabilities, Estimate};
pub use tau_dist::{tau_min_samples, TauMinDistribution};
