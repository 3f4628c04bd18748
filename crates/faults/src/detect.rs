//! Detection criteria: logic monitoring and IDDQ.

use clocksense_wave::{LogicThresholds, Waveform};

/// How a fault was (or was not) detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionOutcome {
    /// The outputs produced a complementary error indication under
    /// fault-free stimuli: caught by the on-line error indicator.
    DetectedLogic,
    /// No logic error, but the quiescent supply current exceeded the IDDQ
    /// threshold under at least one static pattern.
    DetectedIddq,
    /// Neither criterion fired.
    Undetected,
    /// The faulty circuit could not be simulated (e.g. the fault made the
    /// system singular); reported separately rather than silently counted.
    Inconclusive,
}

impl DetectionOutcome {
    /// `true` for either detection outcome.
    pub fn is_detected(self) -> bool {
        matches!(
            self,
            DetectionOutcome::DetectedLogic | DetectionOutcome::DetectedIddq
        )
    }
}

/// Quiescent supply current (A) above which an IDDQ test flags the
/// device. Healthy CMOS draws leakage only (well below 1 µA here), while
/// a conducting fight or a 100 Ω bridge draws hundreds of µA, so 50 µA
/// separates them by orders of magnitude.
pub(crate) const IDDQ_THRESHOLD: f64 = 50e-6;

/// Returns the longest time interval during which `y1` and `y2` classify
/// to *complementary* logic values, or `None` if they never do.
///
/// This is the observable of the paper's error indicator: the fault-free
/// sensor always drives its outputs in the same direction (both high at
/// rest, both dipping together on clock edges), so any sustained
/// complementary interval — `(0,1)` or `(1,0)` — is an error indication,
/// whether caused by input skew or by an internal fault.
///
/// The scan runs over the union of both waveforms' sample points,
/// restricted to `t >= t_from` (campaigns scan from the second clock
/// cycle so the artificial DC initial condition of stuck-open circuits —
/// which have no DC path to their floating output — does not register as
/// a fault effect).
pub fn complementary_window(
    y1: &Waveform,
    y2: &Waveform,
    v_th: f64,
    t_from: f64,
) -> Option<(f64, f64)> {
    let th = LogicThresholds::single(v_th);
    let mut times: Vec<f64> = y1
        .times()
        .iter()
        .chain(y2.times())
        .copied()
        .filter(|&t| t >= t_from)
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times.dedup();

    let mut best: Option<(f64, f64)> = None;
    let mut run_start: Option<f64> = None;
    let close_run = |start: Option<f64>, end: f64, best: &mut Option<(f64, f64)>| {
        if let Some(s) = start {
            if best.is_none_or(|(bs, be)| end - s > be - bs) {
                *best = Some((s, end));
            }
        }
    };
    for &t in &times {
        let l1 = th.classify(y1.value_at(t));
        let l2 = th.classify(y2.value_at(t));
        let complementary = (l1.is_high() && l2.is_low()) || (l1.is_low() && l2.is_high());
        if complementary {
            if run_start.is_none() {
                run_start = Some(t);
            }
        } else {
            // The divergence persisted until (at most) this sample.
            close_run(run_start.take(), t, &mut best);
        }
    }
    if let Some(&t_end) = times.last() {
        close_run(run_start, t_end, &mut best);
    }
    best
}

/// `true` if the outputs hold a complementary indication at least
/// `t_hold` seconds long, looking only at `t >= t_from`: the logic
/// threshold `v_th` is that of the gate interpreting the sensor outputs,
/// and `t_hold` the minimum duration the error indicator latches (it
/// guards against the fleeting asymmetries of normal switching).
pub fn logic_detected(y1: &Waveform, y2: &Waveform, v_th: f64, t_hold: f64, t_from: f64) -> bool {
    complementary_window(y1, y2, v_th, t_from)
        .map(|(s, e)| e - s >= t_hold)
        .unwrap_or(false)
}

/// The paper's stuck-on criterion: a fault is detected if a *static*
/// output voltage lies on the opposite side of the logic threshold with
/// respect to its fault-free value, under at least one applicable input
/// pattern.
///
/// `fault_free` and `faulted` hold the `(y1, y2)` DC levels per pattern,
/// in matching order.
pub fn static_flip(fault_free: &[(f64, f64)], faulted: &[(f64, f64)], v_th: f64) -> bool {
    let th = LogicThresholds::single(v_th);
    fault_free.iter().zip(faulted).any(|(ff, f)| {
        th.classify(ff.0) != th.classify(f.0) || th.classify(ff.1) != th.classify(f.1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(points: &[(f64, f64)]) -> Waveform {
        Waveform::new(
            points.iter().map(|p| p.0).collect(),
            points.iter().map(|p| p.1).collect(),
        )
    }

    #[test]
    fn parallel_outputs_are_clean() {
        let y1 = wave(&[(0.0, 5.0), (1.0, 0.5), (2.0, 5.0)]);
        let y2 = wave(&[(0.0, 5.0), (1.0, 0.6), (2.0, 5.0)]);
        assert!(complementary_window(&y1, &y2, 2.75, 0.0).is_none());
    }

    #[test]
    fn complementary_interval_is_found() {
        let y1 = wave(&[(0.0, 5.0), (1.0, 0.2), (3.0, 0.2), (4.0, 5.0)]);
        let y2 = wave(&[(0.0, 5.0), (4.0, 5.0)]);
        let (s, e) = complementary_window(&y1, &y2, 2.75, 0.0).expect("divergent");
        assert!(s >= 0.0 && e <= 4.0 && e > s);
        assert!(e - s > 1.5, "window {s}..{e}");
    }

    #[test]
    fn t_hold_filters_glitches() {
        // Brief divergence of ~0.1 s.
        let y1 = wave(&[(0.0, 5.0), (1.0, 0.2), (1.1, 5.0), (2.0, 5.0)]);
        let y2 = wave(&[(0.0, 5.0), (2.0, 5.0)]);
        assert!(!logic_detected(&y1, &y2, 2.75, 0.5, 0.0));
        assert!(logic_detected(&y1, &y2, 2.75, 0.01, 0.0));
    }

    #[test]
    fn t_from_skips_early_divergence() {
        let y1 = wave(&[(0.0, 0.2), (1.0, 0.2), (1.2, 5.0), (9.0, 5.0)]);
        let y2 = wave(&[(0.0, 5.0), (9.0, 5.0)]);
        assert!(complementary_window(&y1, &y2, 2.75, 0.0).is_some());
        assert!(complementary_window(&y1, &y2, 2.75, 2.0).is_none());
    }

    #[test]
    fn longest_window_wins() {
        // Two divergent intervals; the second is longer.
        let y1 = wave(&[
            (0.0, 5.0),
            (1.0, 0.2),
            (1.5, 5.0),
            (3.0, 0.2),
            (5.0, 0.2),
            (5.5, 5.0),
        ]);
        let y2 = wave(&[(0.0, 5.0), (5.5, 5.0)]);
        let (s, e) = complementary_window(&y1, &y2, 2.75, 0.0).unwrap();
        assert!(e - s >= 1.9, "expected the long window, got {s}..{e}");
    }

    #[test]
    fn static_flip_detects_opposite_side_levels() {
        let fault_free = [(5.0, 5.0), (0.1, 0.1)];
        // Same side everywhere: no flip.
        assert!(!static_flip(&fault_free, &[(4.2, 4.8), (0.5, 0.2)], 2.75));
        // y1 flips under the second pattern.
        assert!(static_flip(&fault_free, &[(4.2, 4.8), (4.0, 0.2)], 2.75));
    }

    #[test]
    fn outcome_predicates() {
        assert!(DetectionOutcome::DetectedLogic.is_detected());
        assert!(DetectionOutcome::DetectedIddq.is_detected());
        assert!(!DetectionOutcome::Undetected.is_detected());
        assert!(!DetectionOutcome::Inconclusive.is_detected());
    }
}
