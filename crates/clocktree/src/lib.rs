//! Clock distribution substrate: RC trees, Elmore delay, H-trees and
//! zero-skew routing.
//!
//! The paper's sensing circuit monitors wires of a clock distribution
//! network; this crate builds that network. It provides:
//!
//! * [`RcTree`] — a distributed-RC clock net with Elmore delay analysis
//!   and an O(n)-per-step implicit transient solver (tree-structured
//!   Gaussian elimination), so whole distribution networks simulate in
//!   linear time where the dense MNA engine would cost O(n³);
//! * [`HTree`] — the classic symmetric H-tree topology generator;
//! * [`zero_skew_tree`] — a deferred-merge zero-skew router after Chao et
//!   al. (the paper's reference \[3\] baseline), balancing Elmore delays
//!   exactly at every merge;
//! * [`SkewAnalysis`] and [`plan_sensor_pairs`] — skew analysis and the
//!   paper's two sensor-placement criteria (skew-critical and physically
//!   close);
//! * fault and variation injection at tree level (resistive opens,
//!   parameter variation, crosstalk coupling), producing the degraded
//!   clock waveforms the sensing circuit must flag.
//!
//! # Examples
//!
//! ```
//! use clocksense_clocktree::{HTree, WireParasitics};
//!
//! let htree = HTree::new(3, 4e-3, WireParasitics::metal2());
//! let tree = htree.to_rc_tree(40e-15);
//! let delays = tree.elmore_delays(100.0);
//! let sinks = htree.sink_nodes();
//! // A fault-free H-tree is balanced: all sink delays agree.
//! let d0 = delays[sinks[0].index()];
//! assert!(sinks.iter().all(|&s| (delays[s.index()] - d0).abs() < 1e-15));
//! ```

mod dme;
mod error;
mod geometry;
mod grid;
mod htree;
mod rctree;
mod skew;
mod variation;

pub use dme::{zero_skew_tree, Sink, ZstResult};
pub use error::ClockTreeError;
pub use geometry::Point;
pub use grid::{GridPlan, TrixPlan};
pub use htree::{HTree, WireParasitics};
pub use rctree::{RcNodeId, RcTree, TreeTransient};
pub use skew::{plan_sensor_pairs, PairPlan, SensorPairCriteria, SkewAnalysis};
pub use variation::{Aggressor, TreeFault, TreeVariation};
