//! Distributed-RC tree: Elmore delay and an O(n) implicit transient solver.

use clocksense_netlist::SourceWave;
use clocksense_wave::Waveform;

use crate::error::ClockTreeError;
use crate::geometry::Point;

/// Identifier of a node in an [`RcTree`]. The root is node `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RcNodeId(pub(crate) usize);

impl RcNodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct RcNode {
    parent: Option<usize>,
    /// Wire resistance from the parent (Ω); unused for the root.
    r: f64,
    /// Capacitance to ground (F).
    c: f64,
    /// Optional planar position, used by placement criteria.
    position: Option<Point>,
}

/// A grounded-capacitor RC tree driven at its root — the standard model of
/// an on-chip clock net.
///
/// Children are always created after their parents, so iterating node
/// indices in reverse is a valid leaf-to-root order; the transient solver
/// exploits this for O(n) tree-structured elimination per time step.
///
/// # Examples
///
/// ```
/// use clocksense_clocktree::RcTree;
///
/// # fn main() -> Result<(), clocksense_clocktree::ClockTreeError> {
/// let mut tree = RcTree::new(10e-15);
/// let a = tree.add_node(tree.root(), 100.0, 20e-15)?;
/// let _b = tree.add_node(a, 150.0, 30e-15)?;
/// let delays = tree.elmore_delays(50.0);
/// assert!(delays[2] > delays[1]); // deeper node is slower
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RcTree {
    nodes: Vec<RcNode>,
}

impl RcTree {
    /// Creates a tree consisting of just the root with the given grounded
    /// capacitance.
    pub fn new(root_cap: f64) -> Self {
        RcTree {
            nodes: vec![RcNode {
                parent: None,
                r: 0.0,
                c: root_cap.max(0.0),
                position: None,
            }],
        }
    }

    /// The root node id.
    pub fn root(&self) -> RcNodeId {
        RcNodeId(0)
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`: a tree always contains at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a node connected to `parent` through resistance `r`, with
    /// grounded capacitance `c`.
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::UnknownNode`] for a dangling parent and
    /// [`ClockTreeError::InvalidParameter`] for non-positive `r` or
    /// negative `c`.
    pub fn add_node(
        &mut self,
        parent: RcNodeId,
        r: f64,
        c: f64,
    ) -> Result<RcNodeId, ClockTreeError> {
        if parent.0 >= self.nodes.len() {
            return Err(ClockTreeError::UnknownNode(parent.0));
        }
        if !(r.is_finite() && r > 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "segment resistance must be positive, got {r}"
            )));
        }
        if !(c.is_finite() && c >= 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "node capacitance must be non-negative, got {c}"
            )));
        }
        let id = RcNodeId(self.nodes.len());
        self.nodes.push(RcNode {
            parent: Some(parent.0),
            r,
            c,
            position: None,
        });
        Ok(id)
    }

    /// Records the planar position of a node (used by sensor placement).
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::UnknownNode`] for a dangling id.
    pub fn set_position(&mut self, node: RcNodeId, position: Point) -> Result<(), ClockTreeError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(ClockTreeError::UnknownNode(node.0))?
            .position = Some(position);
        Ok(())
    }

    /// The recorded position of a node, if any.
    pub fn position(&self, node: RcNodeId) -> Option<Point> {
        self.nodes.get(node.0).and_then(|n| n.position)
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, node: RcNodeId) -> Option<RcNodeId> {
        self.nodes.get(node.0).and_then(|n| n.parent.map(RcNodeId))
    }

    /// Segment resistance from `node` to its parent (0 for the root).
    pub fn resistance(&self, node: RcNodeId) -> f64 {
        self.nodes[node.0].r
    }

    /// Grounded capacitance at `node`.
    pub fn capacitance(&self, node: RcNodeId) -> f64 {
        self.nodes[node.0].c
    }

    /// Multiplies a segment's resistance by `factor` (variation or
    /// resistive-open injection).
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::InvalidParameter`] for a non-positive
    /// factor and [`ClockTreeError::UnknownNode`] for a dangling id.
    pub fn scale_resistance(&mut self, node: RcNodeId, factor: f64) -> Result<(), ClockTreeError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "resistance factor must be positive, got {factor}"
            )));
        }
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(ClockTreeError::UnknownNode(node.0))?;
        n.r *= factor;
        Ok(())
    }

    /// Multiplies a node's capacitance by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::InvalidParameter`] for a negative factor
    /// and [`ClockTreeError::UnknownNode`] for a dangling id.
    pub fn scale_capacitance(&mut self, node: RcNodeId, factor: f64) -> Result<(), ClockTreeError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "capacitance factor must be non-negative, got {factor}"
            )));
        }
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(ClockTreeError::UnknownNode(node.0))?;
        n.c *= factor;
        Ok(())
    }

    /// Adds extra series resistance on the segment feeding `node`
    /// (a resistive open).
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::InvalidParameter`] for negative `extra`,
    /// [`ClockTreeError::UnknownNode`] for a dangling id or the root
    /// (which has no feeding segment).
    pub fn add_series_resistance(
        &mut self,
        node: RcNodeId,
        extra: f64,
    ) -> Result<(), ClockTreeError> {
        if !(extra.is_finite() && extra >= 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "extra resistance must be non-negative, got {extra}"
            )));
        }
        if node.0 == 0 {
            return Err(ClockTreeError::InvalidParameter(
                "the root has no feeding segment".to_string(),
            ));
        }
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(ClockTreeError::UnknownNode(node.0))?;
        n.r += extra;
        Ok(())
    }

    /// Adds extra grounded capacitance at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::InvalidParameter`] for negative `extra`
    /// and [`ClockTreeError::UnknownNode`] for a dangling id.
    pub fn add_capacitance(&mut self, node: RcNodeId, extra: f64) -> Result<(), ClockTreeError> {
        if !(extra.is_finite() && extra >= 0.0) {
            return Err(ClockTreeError::InvalidParameter(format!(
                "extra capacitance must be non-negative, got {extra}"
            )));
        }
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(ClockTreeError::UnknownNode(node.0))?;
        n.c += extra;
        Ok(())
    }

    /// Iterates all node ids, root first.
    pub fn node_ids(&self) -> impl Iterator<Item = RcNodeId> {
        (0..self.nodes.len()).map(RcNodeId)
    }

    /// Capacitance of the subtree rooted at each node (`downstream[i]`
    /// includes node `i` itself).
    pub fn downstream_capacitance(&self) -> Vec<f64> {
        let mut down: Vec<f64> = self.nodes.iter().map(|n| n.c).collect();
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent.expect("non-root has parent");
            down[p] += down[i];
        }
        down
    }

    /// Total capacitance of the net.
    pub fn total_capacitance(&self) -> f64 {
        self.nodes.iter().map(|n| n.c).sum()
    }

    /// Elmore delay from an ideal step source behind `driver_r` to every
    /// node: `d(i) = driver_r · C_total + Σ_path r_k · C_downstream(k)`.
    pub fn elmore_delays(&self, driver_r: f64) -> Vec<f64> {
        let down = self.downstream_capacitance();
        let mut delay = vec![0.0; self.nodes.len()];
        delay[0] = driver_r * self.total_capacitance();
        for i in 1..self.nodes.len() {
            let p = self.nodes[i].parent.expect("non-root has parent");
            delay[i] = delay[p] + self.nodes[i].r * down[i];
        }
        delay
    }

    /// Implicit (backward-Euler) transient solution of the tree driven by
    /// `drive` through `driver_r`, with fixed step `dt` up to `t_stop`.
    ///
    /// Each step solves the tree-structured linear system in O(n) by
    /// leaf-to-root elimination and root-to-leaf back-substitution, so
    /// nets with tens of thousands of segments remain cheap.
    ///
    /// `couplings` injects crosstalk: each entry `(node, c_x, aggressor)`
    /// couples the node to an external aggressor waveform through `c_x`,
    /// adding the injection current `c_x · dV_aggressor/dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ClockTreeError::InvalidParameter`] for non-positive
    /// `dt`/`t_stop`/`driver_r` and [`ClockTreeError::UnknownNode`] for a
    /// dangling coupling node.
    pub fn transient(
        &self,
        drive: &SourceWave,
        driver_r: f64,
        t_stop: f64,
        dt: f64,
        couplings: &[(RcNodeId, f64, SourceWave)],
    ) -> Result<TreeTransient, ClockTreeError> {
        for (name, v) in [("dt", dt), ("t_stop", t_stop), ("driver_r", driver_r)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ClockTreeError::InvalidParameter(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        for &(node, c_x, _) in couplings {
            if node.0 >= self.nodes.len() {
                return Err(ClockTreeError::UnknownNode(node.0));
            }
            if !(c_x.is_finite() && c_x >= 0.0) {
                return Err(ClockTreeError::InvalidParameter(format!(
                    "coupling capacitance must be non-negative, got {c_x}"
                )));
            }
        }
        let n = self.nodes.len();
        let gd = 1.0 / driver_r;
        let g: Vec<f64> = self
            .nodes
            .iter()
            .map(|node| {
                if node.parent.is_some() {
                    1.0 / node.r
                } else {
                    0.0
                }
            })
            .collect();

        // Coupling caps add to the node's total capacitance (they load the
        // victim) and inject charge when the aggressor moves.
        let mut c_total: Vec<f64> = self.nodes.iter().map(|node| node.c).collect();
        for &(node, c_x, _) in couplings {
            c_total[node.0] += c_x;
        }

        let steps = (t_stop / dt).ceil() as usize;
        let mut v: Vec<f64> = vec![drive.value_at(0.0); n];
        let mut times = Vec::with_capacity(steps + 1);
        let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); n];
        times.push(0.0);
        for (i, series) in values.iter_mut().enumerate() {
            series.push(v[i]);
        }

        let mut diag = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut agg_prev: Vec<f64> = couplings.iter().map(|(_, _, w)| w.value_at(0.0)).collect();

        for k in 1..=steps {
            let t = (k as f64) * dt;
            // Assemble A_i and B_i.
            for i in 0..n {
                let ch = c_total[i] / dt;
                diag[i] = ch;
                rhs[i] = ch * v[i];
            }
            diag[0] += gd;
            rhs[0] += gd * drive.value_at(t);
            for (j, &(node, c_x, ref wave)) in couplings.iter().enumerate() {
                let a_now = wave.value_at(t);
                rhs[node.0] += c_x / dt * (a_now - agg_prev[j]);
                agg_prev[j] = a_now;
            }
            // Leaf-to-root elimination (children have larger indices).
            for i in (1..n).rev() {
                let p = self.nodes[i].parent.expect("non-root has parent");
                let gi = g[i];
                let denom = diag[i] + gi;
                diag[p] += gi - gi * gi / denom;
                rhs[p] += gi * rhs[i] / denom;
            }
            // Root solve and top-down back-substitution.
            v[0] = rhs[0] / diag[0];
            for i in 1..n {
                let p = self.nodes[i].parent.expect("non-root has parent");
                let gi = g[i];
                v[i] = (rhs[i] + gi * v[p]) / (diag[i] + gi);
            }
            times.push(t);
            for (i, series) in values.iter_mut().enumerate() {
                series.push(v[i]);
            }
        }
        Ok(TreeTransient { times, values })
    }
}

/// Result of an [`RcTree::transient`] run.
#[derive(Debug, Clone)]
pub struct TreeTransient {
    times: Vec<f64>,
    values: Vec<Vec<f64>>,
}

impl TreeTransient {
    /// The time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform at a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the solved tree.
    pub fn waveform(&self, node: RcNodeId) -> Waveform {
        Waveform::new(self.times.clone(), self.values[node.0].clone())
    }

    /// Time at which a node's rising waveform first crosses `threshold`,
    /// or `None` if it never does.
    pub fn rising_arrival(&self, node: RcNodeId, threshold: f64) -> Option<f64> {
        self.waveform(node)
            .rising_crossings(threshold)
            .first()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single RC: R = 1 kΩ (driver), C = 1 pF at root, tau = 1 ns.
    #[test]
    fn single_rc_matches_analytic() {
        let tree = RcTree::new(1e-12);
        let drive = SourceWave::step(0.0, 1.0, 0.0, 1e-13);
        let result = tree.transient(&drive, 1e3, 5e-9, 1e-12, &[]).unwrap();
        let w = result.waveform(tree.root());
        for frac in [1.0f64, 2.0, 3.0] {
            let expect = 1.0 - (-frac).exp();
            let got = w.value_at(frac * 1e-9);
            assert!(
                (got - expect).abs() < 6e-3,
                "at {frac} tau: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn elmore_of_ladder() {
        // Two-segment ladder: driver 100, r1=200/c1=1p, r2=300/c2=2p.
        let mut tree = RcTree::new(0.0);
        let a = tree.add_node(tree.root(), 200.0, 1e-12).unwrap();
        let b = tree.add_node(a, 300.0, 2e-12).unwrap();
        let d = tree.elmore_delays(100.0);
        let expect_root = 100.0 * 3e-12;
        let expect_a = expect_root + 200.0 * 3e-12;
        let expect_b = expect_a + 300.0 * 2e-12;
        assert!((d[tree.root().index()] - expect_root).abs() < 1e-18);
        assert!((d[a.index()] - expect_a).abs() < 1e-18);
        assert!((d[b.index()] - expect_b).abs() < 1e-18);
    }

    #[test]
    fn elmore_orders_transient_arrivals() {
        // Asymmetric fork: one branch heavier than the other.
        let mut tree = RcTree::new(5e-15);
        let stem = tree.add_node(tree.root(), 100.0, 10e-15).unwrap();
        let fast = tree.add_node(stem, 50.0, 20e-15).unwrap();
        let slow = tree.add_node(stem, 400.0, 80e-15).unwrap();
        let delays = tree.elmore_delays(100.0);
        assert!(delays[slow.index()] > delays[fast.index()]);

        let drive = SourceWave::step(0.0, 5.0, 0.0, 1e-12);
        let result = tree.transient(&drive, 100.0, 2e-9, 0.5e-12, &[]).unwrap();
        let t_fast = result.rising_arrival(fast, 2.5).unwrap();
        let t_slow = result.rising_arrival(slow, 2.5).unwrap();
        assert!(t_slow > t_fast, "transient must agree with elmore ordering");
    }

    #[test]
    fn unreachable_sink_reports_none() {
        // A drive that never rises: no node crosses the threshold.
        let mut tree = RcTree::new(5e-15);
        let stem = tree.add_node(tree.root(), 100.0, 10e-15).unwrap();
        let fast = tree.add_node(stem, 50.0, 20e-15).unwrap();
        let slow = tree.add_node(stem, 400.0, 80e-15).unwrap();
        let drive = SourceWave::Dc(0.0);
        let result = tree.transient(&drive, 100.0, 1e-9, 1e-12, &[]).unwrap();
        for node in [stem, fast, slow] {
            assert!(result.rising_arrival(node, 2.5).is_none());
        }
    }

    #[test]
    fn transient_approximates_elmore_at_half_rail() {
        // For RC trees the 50% crossing is close to 0.69x Elmore.
        let mut tree = RcTree::new(0.0);
        let mut prev = tree.root();
        for _ in 0..10 {
            prev = tree.add_node(prev, 100.0, 50e-15).unwrap();
        }
        let delays = tree.elmore_delays(200.0);
        let drive = SourceWave::step(0.0, 1.0, 0.0, 1e-13);
        let result = tree.transient(&drive, 200.0, 5e-9, 0.2e-12, &[]).unwrap();
        let t50 = result.rising_arrival(prev, 0.5).unwrap();
        let ratio = t50 / delays[prev.index()];
        assert!(
            (0.55..0.85).contains(&ratio),
            "t50/elmore = {ratio}, expected near ln 2"
        );
    }

    #[test]
    fn crosstalk_coupling_bumps_the_victim() {
        let mut tree = RcTree::new(0.0);
        let victim = tree.add_node(tree.root(), 500.0, 100e-15).unwrap();
        // Victim at rest; aggressor switches at 1 ns.
        let drive = SourceWave::Dc(0.0);
        let aggressor = SourceWave::step(0.0, 5.0, 1e-9, 0.1e-9);
        let quiet = tree.transient(&drive, 100.0, 3e-9, 1e-12, &[]).unwrap();
        let noisy = tree
            .transient(&drive, 100.0, 3e-9, 1e-12, &[(victim, 30e-15, aggressor)])
            .unwrap();
        let quiet_max = quiet.waveform(victim).max_in(0.0, 3e-9);
        let noisy_max = noisy.waveform(victim).max_in(0.0, 3e-9);
        assert!(quiet_max < 1e-6);
        assert!(
            noisy_max > 0.2,
            "coupling must bump the victim, got {noisy_max}"
        );
        // The bump decays back towards ground.
        let tail = noisy.waveform(victim).value_at(3e-9);
        assert!(tail < 0.5 * noisy_max);
    }

    #[test]
    fn mutators_change_delay() {
        let mut tree = RcTree::new(0.0);
        let a = tree.add_node(tree.root(), 100.0, 1e-12).unwrap();
        let base = tree.elmore_delays(100.0)[a.index()];
        tree.add_series_resistance(a, 100.0).unwrap();
        let slower = tree.elmore_delays(100.0)[a.index()];
        assert!(slower > base);
        tree.scale_capacitance(a, 2.0).unwrap();
        let slowest = tree.elmore_delays(100.0)[a.index()];
        assert!(slowest > slower);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut tree = RcTree::new(0.0);
        assert!(tree.add_node(RcNodeId(9), 1.0, 1e-15).is_err());
        assert!(tree.add_node(tree.root(), 0.0, 1e-15).is_err());
        assert!(tree.add_node(tree.root(), 1.0, -1.0).is_err());
        let a = tree.add_node(tree.root(), 1.0, 1e-15).unwrap();
        assert!(tree.scale_resistance(a, 0.0).is_err());
        assert!(tree.add_series_resistance(tree.root(), 5.0).is_err());
        let drive = SourceWave::Dc(0.0);
        assert!(tree.transient(&drive, 100.0, 0.0, 1e-12, &[]).is_err());
        assert!(tree
            .transient(
                &drive,
                100.0,
                1e-9,
                1e-12,
                &[(RcNodeId(99), 1e-15, drive.clone())]
            )
            .is_err());
    }

    #[test]
    fn positions_roundtrip() {
        let mut tree = RcTree::new(0.0);
        let a = tree.add_node(tree.root(), 1.0, 1e-15).unwrap();
        assert!(tree.position(a).is_none());
        tree.set_position(a, Point::new(1.0, 2.0)).unwrap();
        assert_eq!(tree.position(a), Some(Point::new(1.0, 2.0)));
    }
}
