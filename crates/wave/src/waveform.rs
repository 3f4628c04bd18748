//! Sampled waveforms.

use std::fmt;
use std::sync::Arc;

/// A sampled analog signal: strictly increasing times, one value each.
///
/// Between samples the signal is linearly interpolated; outside the sampled
/// span it is clamped to the first/last value. Construction validates the
/// time axis, so every `Waveform` in circulation is well-formed.
///
/// The time axis lives behind an [`Arc`], so waveforms probed off one
/// simulation share a single grid allocation — cloning a `Waveform` or
/// fanning one transient result out into per-node waveforms copies
/// values only. Equality still compares contents, not pointers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    times: Arc<[f64]>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from parallel `times` / `values` vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, contain
    /// non-finite entries, or if `times` is not strictly increasing. Use
    /// this for simulator output where those invariants hold by
    /// construction; data from outside should be checked first.
    pub fn new(times: Vec<f64>, values: Vec<f64>) -> Self {
        Waveform::with_shared_times(times.into(), values)
    }

    /// Creates a waveform on an already-shared time axis, avoiding a copy
    /// of the grid. Validation is identical to [`Waveform::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Waveform::new`].
    pub fn with_shared_times(times: Arc<[f64]>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(!times.is_empty(), "waveform must have at least one sample");
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "times must be strictly increasing"
        );
        assert!(
            times.iter().chain(values.iter()).all(|x| x.is_finite()),
            "waveform samples must be finite"
        );
        Waveform { times, values }
    }

    /// Samples `f` at `n` equidistant points spanning `[t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t1 <= t0`.
    pub fn from_fn(t0: f64, t1: f64, n: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        assert!(n >= 2, "need at least two samples");
        assert!(t1 > t0, "empty time span");
        let dt = (t1 - t0) / (n - 1) as f64;
        let times: Vec<f64> = (0..n).map(|i| t0 + dt * i as f64).collect();
        let values: Vec<f64> = times.iter().map(|&t| f(t)).collect();
        Waveform::new(times, values)
    }

    /// The sampled time axis.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The sampled values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the waveform has no samples.
    ///
    /// Always `false` for waveforms built through the public constructors,
    /// but kept for the `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First sampled time.
    pub fn t_start(&self) -> f64 {
        self.times[0]
    }

    /// Last sampled time.
    pub fn t_end(&self) -> f64 {
        *self.times.last().expect("waveform is never empty")
    }

    /// Linearly interpolated value at `t`, clamped outside the span.
    pub fn value_at(&self, t: f64) -> f64 {
        if t <= self.times[0] {
            return self.values[0];
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return self.values[last];
        }
        let idx = self.times.partition_point(|&pt| pt <= t);
        let (t0, v0) = (self.times[idx - 1], self.values[idx - 1]);
        let (t1, v1) = (self.times[idx], self.values[idx]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Minimum sampled value within `[t0, t1]`, including the interpolated
    /// endpoint values.
    ///
    /// This is the paper's V_min measurement: the lowest voltage an output
    /// reaches inside an observation window.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn min_in(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0, "window end before start");
        let mut min = self.value_at(t0).min(self.value_at(t1));
        for (t, v) in self.times.iter().zip(&self.values) {
            if *t >= t0 && *t <= t1 && *v < min {
                min = *v;
            }
        }
        min
    }

    /// Maximum value within `[t0, t1]`, including interpolated endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn max_in(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0, "window end before start");
        let mut max = self.value_at(t0).max(self.value_at(t1));
        for (t, v) in self.times.iter().zip(&self.values) {
            if *t >= t0 && *t <= t1 && *v > max {
                max = *v;
            }
        }
        max
    }

    /// Times at which the waveform crosses `threshold` going upward.
    pub fn rising_crossings(&self, threshold: f64) -> Vec<f64> {
        self.crossings(threshold, true)
    }

    /// Times at which the waveform crosses `threshold` going downward.
    pub fn falling_crossings(&self, threshold: f64) -> Vec<f64> {
        self.crossings(threshold, false)
    }

    fn crossings(&self, threshold: f64, rising: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for w in 0..self.times.len().saturating_sub(1) {
            let (v0, v1) = (self.values[w], self.values[w + 1]);
            let crossed = if rising {
                v0 < threshold && v1 >= threshold
            } else {
                v0 > threshold && v1 <= threshold
            };
            if crossed {
                let (t0, t1) = (self.times[w], self.times[w + 1]);
                let frac = (threshold - v0) / (v1 - v0);
                out.push(t0 + frac * (t1 - t0));
            }
        }
        out
    }

    /// Resamples onto `n` equidistant points across the full span.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the waveform has a single sample.
    pub fn resample(&self, n: usize) -> Waveform {
        Waveform::from_fn(self.t_start(), self.t_end(), n, |t| self.value_at(t))
    }

    /// Pointwise absolute difference with `other`, sampled on this
    /// waveform's time axis. Useful for regression-comparing solver
    /// back-ends.
    pub fn max_abs_difference(&self, other: &Waveform) -> f64 {
        self.times
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (v - other.value_at(t)).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "waveform[{} samples, {:.3e}..{:.3e}s]",
            self.len(),
            self.t_start(),
            self.t_end()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_and_clamping() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 10.0]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.25) - 2.5).abs() < 1e-12);
        assert_eq!(w.value_at(5.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_times() {
        Waveform::new(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_values() {
        Waveform::new(vec![0.0, 1.0], vec![1.0, f64::NAN]);
    }

    #[test]
    fn min_max_in_window() {
        let w = Waveform::from_fn(0.0, 2.0, 201, |t| (t - 1.0) * (t - 1.0));
        // Parabola with minimum 0 at t=1.
        assert!(w.min_in(0.5, 1.5) < 1e-3);
        assert!((w.max_in(0.0, 2.0) - 1.0).abs() < 1e-3);
        // Window that excludes the vertex: endpoint interpolation matters.
        assert!((w.min_in(0.0, 0.5) - 0.25).abs() < 1e-2);
    }

    #[test]
    fn crossings_are_interpolated() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 4.0, 0.0, 4.0]);
        let rising = w.rising_crossings(2.0);
        assert_eq!(rising.len(), 2);
        assert!((rising[0] - 0.5).abs() < 1e-12);
        assert!((rising[1] - 2.5).abs() < 1e-12);
        let falling = w.falling_crossings(2.0);
        assert_eq!(falling.len(), 1);
        assert!((falling[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn crossing_exactly_at_threshold_counts_once() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 4.0]);
        assert_eq!(w.rising_crossings(2.0).len(), 1);
    }

    #[test]
    fn resample_preserves_shape() {
        let w = Waveform::from_fn(0.0, 1.0, 11, |t| t * t);
        let r = w.resample(101);
        assert_eq!(r.len(), 101);
        assert!(w.max_abs_difference(&r) < 1e-12);
    }

    #[test]
    fn difference_of_identical_is_zero() {
        let w = Waveform::from_fn(0.0, 1.0, 50, f64::sin);
        assert_eq!(w.max_abs_difference(&w.clone()), 0.0);
    }

    #[test]
    fn shared_times_share_one_allocation_and_compare_by_contents() {
        let axis: Arc<[f64]> = vec![0.0, 1.0, 2.0].into();
        let a = Waveform::with_shared_times(Arc::clone(&axis), vec![0.0, 1.0, 4.0]);
        let b = Waveform::with_shared_times(Arc::clone(&axis), vec![0.0, 1.0, 4.0]);
        assert!(std::ptr::eq(a.times().as_ptr(), b.times().as_ptr()));
        assert_eq!(a, b);
        // An identical waveform on its own freshly-allocated axis is still
        // equal: Arc sharing is an optimisation, not part of the value.
        let c = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 4.0]);
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shared_times_constructor_still_validates() {
        let axis: Arc<[f64]> = vec![0.0, 1.0].into();
        Waveform::with_shared_times(axis, vec![1.0]);
    }
}
