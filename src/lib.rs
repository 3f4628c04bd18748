//! clocksense — facade crate.
//!
//! Re-exports every crate of the workspace under one roof. See the
//! individual crates for full documentation:
//!
//! * [`core`] — the skew-sensing circuit (the paper's contribution)
//! * [`netlist`] — circuit representation
//! * [`spice`] — MNA electrical simulator
//! * [`wave`] — waveforms and measurements
//! * [`faults`] — fault models and campaigns
//! * [`clocktree`] — clock distribution substrate
//! * [`checker`] — error indicators, two-rail checkers, scan paths, and
//!   the flip-flop/timing-path model (the synchronous context)
//! * [`montecarlo`] — parameter variation and statistics
//! * [`telemetry`] — runtime counters, timers and JSON run reports
//! * [`scenarios`] — workload generators: mesh/TRIX sensor-array decks,
//!   two-phase clock generation, dirty-stimulus pulse trains

pub use clocksense_checker as checker;
pub use clocksense_clocktree as clocktree;
pub use clocksense_core as core;
pub use clocksense_faults as faults;
pub use clocksense_montecarlo as montecarlo;
pub use clocksense_netlist as netlist;
pub use clocksense_scenarios as scenarios;
pub use clocksense_spice as spice;
pub use clocksense_telemetry as telemetry;
pub use clocksense_wave as wave;
