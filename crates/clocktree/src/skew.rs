//! Skew analysis and sensor-pair planning.

use crate::error::ClockTreeError;
use crate::rctree::{RcNodeId, RcTree};

/// Elmore-based arrival-time analysis of a clock net's sinks.
///
/// # Examples
///
/// ```
/// use clocksense_clocktree::{HTree, SkewAnalysis, WireParasitics};
///
/// let h = HTree::new(2, 2e-3, WireParasitics::metal2());
/// let tree = h.to_rc_tree(40e-15);
/// let analysis = SkewAnalysis::elmore(&tree, h.sink_nodes(), 150.0);
/// assert!(analysis.max_skew() < 1e-15); // balanced H-tree
/// ```
#[derive(Debug, Clone)]
pub struct SkewAnalysis {
    node_delays: Vec<f64>,
    sinks: Vec<RcNodeId>,
    parents: Vec<Option<usize>>,
    depths: Vec<usize>,
}

impl SkewAnalysis {
    /// Analyses arrival times with the Elmore model behind `driver_r`.
    pub fn elmore(tree: &RcTree, sinks: &[RcNodeId], driver_r: f64) -> Self {
        let node_delays = tree.elmore_delays(driver_r);
        let parents: Vec<Option<usize>> = tree
            .node_ids()
            .map(|n| tree.parent(n).map(|p| p.index()))
            .collect();
        let mut depths = vec![0usize; parents.len()];
        for i in 1..parents.len() {
            depths[i] = depths[parents[i].expect("non-root")] + 1;
        }
        SkewAnalysis {
            node_delays,
            sinks: sinks.to_vec(),
            parents,
            depths,
        }
    }

    /// Number of analysed sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Arrival time of the `i`-th sink.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sink_delay(&self, i: usize) -> f64 {
        self.node_delays[self.sinks[i].index()]
    }

    /// Signed skew between sinks `i` and `j` (positive when `j` is later).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn skew_between(&self, i: usize, j: usize) -> f64 {
        self.sink_delay(j) - self.sink_delay(i)
    }

    /// Worst-case skew over all sink pairs (max − min arrival).
    pub fn max_skew(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..self.sinks.len() {
            let d = self.sink_delay(i);
            min = min.min(d);
            max = max.max(d);
        }
        if self.sinks.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// The sink-index pair with the largest absolute skew, and that skew.
    ///
    /// Returns `None` with fewer than two sinks.
    pub fn worst_pair(&self) -> Option<(usize, usize, f64)> {
        if self.sinks.len() < 2 {
            return None;
        }
        let (mut earliest, mut latest) = (0, 0);
        for i in 1..self.sinks.len() {
            if self.sink_delay(i) < self.sink_delay(earliest) {
                earliest = i;
            }
            if self.sink_delay(i) > self.sink_delay(latest) {
                latest = i;
            }
        }
        Some((
            earliest,
            latest,
            self.sink_delay(latest) - self.sink_delay(earliest),
        ))
    }

    fn lca(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (a, b);
        while self.depths[a] > self.depths[b] {
            a = self.parents[a].expect("deeper node has parent");
        }
        while self.depths[b] > self.depths[a] {
            b = self.parents[b].expect("deeper node has parent");
        }
        while a != b {
            a = self.parents[a].expect("distinct nodes have parents");
            b = self.parents[b].expect("distinct nodes have parents");
        }
        a
    }

    /// Skew *criticality* of a sink pair: the total Elmore delay
    /// accumulated on the two paths *below* their lowest common ancestor.
    ///
    /// Delay on shared wire is common-mode and cannot produce skew;
    /// everything below the branch point varies independently, so a pair
    /// with a large uncommon delay has a high probability of large skew
    /// under parameter variation — the paper's first placement criterion.
    pub fn criticality(&self, i: usize, j: usize) -> f64 {
        let a = self.sinks[i].index();
        let b = self.sinks[j].index();
        let l = self.lca(a, b);
        (self.node_delays[a] - self.node_delays[l]) + (self.node_delays[b] - self.node_delays[l])
    }
}

/// The paper's two sensor-placement criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorPairCriteria {
    /// Maximum physical separation of a monitored pair (m): the wires must
    /// be "close enough to each other to allow for a suitable (i.e.
    /// balanced) connection to the sensing circuit".
    pub max_separation: f64,
    /// Maximum number of sensor pairs to place.
    pub max_pairs: usize,
}

/// A planned assignment of sensing circuits to sink pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPlan {
    /// Chosen `(sink_i, sink_j, criticality)` triples, most critical
    /// first. Each sink appears in at most one pair.
    pub pairs: Vec<(usize, usize, f64)>,
}

/// Plans sensor placements: among sink pairs whose physical separation is
/// within `criteria.max_separation`, pick the most skew-critical ones
/// (largest uncommon path delay), greedily and without reusing a sink.
///
/// # Errors
///
/// Returns [`ClockTreeError::InvalidParameter`] if any analysed sink lacks
/// a recorded position, or if `max_separation` is non-positive.
pub fn plan_sensor_pairs(
    tree: &RcTree,
    analysis: &SkewAnalysis,
    criteria: &SensorPairCriteria,
) -> Result<PairPlan, ClockTreeError> {
    if !(criteria.max_separation.is_finite() && criteria.max_separation > 0.0) {
        return Err(ClockTreeError::InvalidParameter(format!(
            "max_separation must be positive, got {}",
            criteria.max_separation
        )));
    }
    let positions: Vec<_> = analysis
        .sinks
        .iter()
        .map(|&s| {
            tree.position(s)
                .ok_or(ClockTreeError::InvalidParameter(format!(
                    "sink node {} has no recorded position",
                    s.index()
                )))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let n = analysis.sink_count();
    let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].manhattan(positions[j]) <= criteria.max_separation {
                candidates.push((i, j, analysis.criticality(i, j)));
            }
        }
    }
    candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite criticality"));
    let mut used = vec![false; n];
    let mut pairs = Vec::new();
    for (i, j, crit) in candidates {
        if pairs.len() >= criteria.max_pairs {
            break;
        }
        if !used[i] && !used[j] {
            used[i] = true;
            used[j] = true;
            pairs.push((i, j, crit));
        }
    }
    Ok(PairPlan { pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    /// Root -> stem -> two branches, one long and one short, plus a third
    /// sink near the root.
    fn sample() -> (RcTree, Vec<RcNodeId>) {
        let mut tree = RcTree::new(1e-15);
        tree.set_position(tree.root(), Point::new(0.0, 0.0))
            .unwrap();
        let stem = tree.add_node(tree.root(), 100.0, 10e-15).unwrap();
        tree.set_position(stem, Point::new(1e-4, 0.0)).unwrap();
        let near = tree.add_node(tree.root(), 50.0, 20e-15).unwrap();
        tree.set_position(near, Point::new(0.0, 1e-4)).unwrap();
        let fast = tree.add_node(stem, 100.0, 30e-15).unwrap();
        tree.set_position(fast, Point::new(2e-4, 0.0)).unwrap();
        let slow = tree.add_node(stem, 500.0, 90e-15).unwrap();
        tree.set_position(slow, Point::new(2e-4, 1e-4)).unwrap();
        (tree, vec![near, fast, slow])
    }

    #[test]
    fn skews_and_worst_pair() {
        let (tree, sinks) = sample();
        let a = SkewAnalysis::elmore(&tree, &sinks, 100.0);
        assert_eq!(a.sink_count(), 3);
        assert!(a.max_skew() > 0.0);
        let (early, late, skew) = a.worst_pair().unwrap();
        assert_eq!(early, 0, "the near sink arrives first");
        assert_eq!(late, 2, "the slow branch arrives last");
        assert!((skew - a.skew_between(early, late)).abs() < 1e-18);
        assert!(a.skew_between(1, 2) > 0.0);
        assert!((a.skew_between(2, 1) + a.skew_between(1, 2)).abs() < 1e-20);
    }

    #[test]
    fn criticality_excludes_shared_path() {
        let (tree, sinks) = sample();
        let a = SkewAnalysis::elmore(&tree, &sinks, 100.0);
        // fast & slow share the stem: their criticality counts only the
        // branch wires, so it is smaller than the sum of full delays.
        let crit = a.criticality(1, 2);
        assert!(crit > 0.0);
        assert!(crit < a.sink_delay(1) + a.sink_delay(2));
        // near & slow share only the root, so their criticality is larger
        // relative to their delays.
        let crit_nr = a.criticality(0, 2);
        assert!(crit_nr > a.sink_delay(2) - a.sink_delay(0) - 1e-18);
    }

    #[test]
    fn planning_respects_separation_and_uniqueness() {
        let (tree, sinks) = sample();
        let a = SkewAnalysis::elmore(&tree, &sinks, 100.0);
        // Tight separation: only fast & slow are within 2e-4 of each other
        // ... actually near-fast distance is 3e-4; fast-slow is 1e-4.
        let plan = plan_sensor_pairs(
            &tree,
            &a,
            &SensorPairCriteria {
                max_separation: 1.5e-4,
                max_pairs: 4,
            },
        )
        .unwrap();
        assert_eq!(plan.pairs.len(), 1);
        assert_eq!((plan.pairs[0].0, plan.pairs[0].1), (1, 2));

        // Generous separation: the greedy pass picks the most critical
        // disjoint pairs.
        let plan = plan_sensor_pairs(
            &tree,
            &a,
            &SensorPairCriteria {
                max_separation: 1.0,
                max_pairs: 4,
            },
        )
        .unwrap();
        assert!(!plan.pairs.is_empty());
        let mut seen = std::collections::HashSet::new();
        for &(i, j, _) in &plan.pairs {
            assert!(seen.insert(i));
            assert!(seen.insert(j));
        }
    }

    #[test]
    fn max_pairs_caps_the_plan() {
        let (tree, sinks) = sample();
        let a = SkewAnalysis::elmore(&tree, &sinks, 100.0);
        let plan = plan_sensor_pairs(
            &tree,
            &a,
            &SensorPairCriteria {
                max_separation: 1.0,
                max_pairs: 0,
            },
        )
        .unwrap();
        assert!(plan.pairs.is_empty());
    }

    #[test]
    fn missing_positions_are_an_error() {
        let mut tree = RcTree::new(0.0);
        let s = tree.add_node(tree.root(), 100.0, 10e-15).unwrap();
        let a = SkewAnalysis::elmore(&tree, &[s], 100.0);
        assert!(plan_sensor_pairs(
            &tree,
            &a,
            &SensorPairCriteria {
                max_separation: 1.0,
                max_pairs: 1,
            }
        )
        .is_err());
    }
}
