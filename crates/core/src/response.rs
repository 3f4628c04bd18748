//! Interpretation of the sensing-circuit outputs.

use std::fmt;

use clocksense_spice::{SimOptions, TimestepControl};
use clocksense_wave::{LogicThresholds, Waveform};

use crate::sensor::ClockEdge;
use crate::stimulus::ClockPair;

/// Verdict of one sensing operation.
///
/// The error indication is the *complementary* output pair the paper
/// describes: `(y1, y2) = (0, 1)` flags a late `φ2`, `(1, 0)` a late `φ1`
/// (for the rising-edge circuit; the falling-edge dual mirrors the coding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewVerdict {
    /// Outputs agree: skew below the sensitivity.
    NoError,
    /// The active edge of `φ1` arrived late.
    Phi1Late,
    /// The active edge of `φ2` arrived late.
    Phi2Late,
    /// Both outputs on the error side — impossible for the fault-free
    /// circuit; indicates an internal sensor fault.
    Invalid,
}

impl SkewVerdict {
    /// `true` for any verdict other than [`SkewVerdict::NoError`].
    pub fn is_error(self) -> bool {
        self != SkewVerdict::NoError
    }
}

impl fmt::Display for SkewVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SkewVerdict::NoError => "no error",
            SkewVerdict::Phi1Late => "phi1 late",
            SkewVerdict::Phi2Late => "phi2 late",
            SkewVerdict::Invalid => "invalid (both outputs erroneous)",
        };
        f.write_str(s)
    }
}

/// Full record of one sensing operation: output waveforms, their extreme
/// excursions inside the observation window, and the strobe verdict.
#[derive(Debug, Clone)]
pub struct SensorResponse {
    /// Output of block A.
    pub y1: Waveform,
    /// Output of block B.
    pub y2: Waveform,
    /// Minimum of `y1` in the observation window (the paper's V_min for
    /// the rising-edge circuit).
    pub vmin_y1: f64,
    /// Minimum of `y2` in the observation window.
    pub vmin_y2: f64,
    /// Maximum of `y1` in the observation window (the dual circuit's
    /// figure of merit).
    pub vmax_y1: f64,
    /// Maximum of `y2` in the observation window.
    pub vmax_y2: f64,
    /// Verdict at the strobe time.
    pub verdict: SkewVerdict,
    /// The strobe time used (s).
    pub strobe_time: f64,
}

impl SensorResponse {
    /// V_min of the output monitoring the *late* phase — the quantity
    /// plotted against `τ` in the paper's Fig. 4/5. With `φ2` late (or no
    /// skew) that is `y2`; with `φ1` late it is `y1`.
    pub fn vmin_late(&self, skew: f64) -> f64 {
        if skew < 0.0 {
            self.vmin_y1
        } else {
            self.vmin_y2
        }
    }
}

/// Observation window and strobe for the given edge.
fn windows(clocks: &ClockPair, edge: ClockEdge) -> (f64, f64, f64) {
    match edge {
        ClockEdge::Rising => (
            clocks.window_start(),
            clocks.window_end(),
            clocks.strobe_time(),
        ),
        ClockEdge::Falling => {
            // The active (falling) edge of the early clock starts here. The
            // strobe sits late in the window because the dual's outputs
            // rise through two series PMOS and settle slowly.
            let fall = clocks.delay + clocks.slew + clocks.width;
            let end = fall + clocks.skew.abs() + clocks.slew + 0.9 * clocks.width;
            (fall, end, end)
        }
    }
}

/// The observation horizon: the end of `edge`'s observation window plus
/// two of the longest steps `opts` allows (`tstep` for fixed pacing,
/// `tstep_max` for adaptive), capped at [`ClockPair::sim_stop_time`].
///
/// [`interpret`] reads nothing past the window end. A step starting at or
/// before it ends at most one step plus `tstep_min` later, so a run to
/// this horizon records the first sample past the window end before
/// `t_stop` clamps any step.
pub(crate) fn observation_stop(clocks: &ClockPair, edge: ClockEdge, opts: &SimOptions) -> f64 {
    let (_, end, _) = windows(clocks, edge);
    let longest = match opts.timestep {
        TimestepControl::Fixed => opts.tstep,
        TimestepControl::Adaptive { tstep_max, .. } => tstep_max,
    };
    (end + 2.0 * longest).min(clocks.sim_stop_time())
}

/// Interprets a pair of output waveforms against the logic threshold:
/// extracts the window extremes and classifies the strobe levels into a
/// [`SkewVerdict`]. This is what [`SensingCircuit::simulate`] applies to
/// its transient results; it is public so external experiment drivers
/// (Monte-Carlo, clock-tree co-simulation) can interpret waveforms they
/// obtained through other simulation paths.
///
/// [`SensingCircuit::simulate`]: crate::SensingCircuit::simulate
pub fn interpret(
    y1: Waveform,
    y2: Waveform,
    clocks: &ClockPair,
    edge: ClockEdge,
    v_th: f64,
) -> SensorResponse {
    let (w0, w1, strobe) = windows(clocks, edge);
    let th = LogicThresholds::single(v_th);
    let l1 = th.classify_at(&y1, strobe);
    let l2 = th.classify_at(&y2, strobe);
    let verdict = match edge {
        ClockEdge::Rising => match (l1.is_high(), l2.is_high()) {
            (false, false) => SkewVerdict::NoError,
            (true, false) => SkewVerdict::Phi1Late,
            (false, true) => SkewVerdict::Phi2Late,
            (true, true) => SkewVerdict::Invalid,
        },
        // For the dual circuit outputs *rise* on the active edge; the
        // output that stays low marks the late phase.
        ClockEdge::Falling => match (l1.is_high(), l2.is_high()) {
            (true, true) => SkewVerdict::NoError,
            (false, true) => SkewVerdict::Phi1Late,
            (true, false) => SkewVerdict::Phi2Late,
            (false, false) => SkewVerdict::Invalid,
        },
    };
    SensorResponse {
        vmin_y1: y1.min_in(w0, w1),
        vmin_y2: y2.min_in(w0, w1),
        vmax_y1: y1.max_in(w0, w1),
        vmax_y2: y2.max_in(w0, w1),
        y1,
        y2,
        verdict,
        strobe_time: strobe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(level: f64, t_end: f64) -> Waveform {
        Waveform::new(vec![0.0, t_end], vec![level, level])
    }

    fn clocks() -> ClockPair {
        ClockPair::single_shot(5.0, 0.2e-9)
    }

    #[test]
    fn rising_truth_table() {
        let c = clocks();
        let t = c.sim_stop_time();
        let cases = [
            (0.7, 0.7, SkewVerdict::NoError),
            (5.0, 0.1, SkewVerdict::Phi1Late),
            (0.1, 5.0, SkewVerdict::Phi2Late),
            (5.0, 5.0, SkewVerdict::Invalid),
        ];
        for (v1, v2, expect) in cases {
            let r = interpret(flat(v1, t), flat(v2, t), &c, ClockEdge::Rising, 2.75);
            assert_eq!(r.verdict, expect, "({v1},{v2})");
        }
    }

    #[test]
    fn falling_truth_table() {
        let c = clocks();
        let t = c.sim_stop_time();
        let cases = [
            (5.0, 5.0, SkewVerdict::NoError),
            (0.1, 5.0, SkewVerdict::Phi1Late),
            (5.0, 0.1, SkewVerdict::Phi2Late),
            (0.1, 0.1, SkewVerdict::Invalid),
        ];
        for (v1, v2, expect) in cases {
            let r = interpret(flat(v1, t), flat(v2, t), &c, ClockEdge::Falling, 2.75);
            assert_eq!(r.verdict, expect, "({v1},{v2})");
        }
    }

    #[test]
    fn vmin_late_follows_skew_sign() {
        let c = clocks();
        let t = c.sim_stop_time();
        let r = interpret(flat(1.0, t), flat(4.0, t), &c, ClockEdge::Rising, 2.75);
        assert_eq!(r.vmin_late(0.1e-9), 4.0);
        assert_eq!(r.vmin_late(-0.1e-9), 1.0);
        assert_eq!(r.vmin_late(0.0), 4.0, "zero skew reports y2 by convention");
    }

    #[test]
    fn verdict_display_and_predicates() {
        assert!(!SkewVerdict::NoError.is_error());
        assert!(SkewVerdict::Invalid.is_error());
        assert_eq!(SkewVerdict::Phi1Late.to_string(), "phi1 late");
    }

    fn adaptive(tstep_max: f64) -> SimOptions {
        SimOptions {
            tstep: 2e-12,
            timestep: TimestepControl::Adaptive {
                tstep_max,
                lte_tol: 0.1,
            },
            ..SimOptions::default()
        }
    }

    fn fixed(tstep: f64) -> SimOptions {
        SimOptions {
            tstep,
            ..SimOptions::default()
        }
    }

    #[test]
    fn horizon_lies_between_window_end_and_stop_time() {
        for edge in [ClockEdge::Rising, ClockEdge::Falling] {
            for skew in [-0.3e-9, 0.0, 0.1e-9, 0.6e-9] {
                for slew in [0.1e-9, 0.4e-9] {
                    let c = ClockPair::single_shot(5.0, slew).with_skew(skew);
                    let (_, end, _) = windows(&c, edge);
                    for opts in [fixed(2e-12), fixed(20e-12), adaptive(100e-12)] {
                        let h = observation_stop(&c, edge, &opts);
                        assert!(end < h && h <= c.sim_stop_time(), "{edge:?} {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn horizon_margin_follows_the_longest_step() {
        let c = clocks().with_skew(0.1e-9);
        for edge in [ClockEdge::Rising, ClockEdge::Falling] {
            let (_, end, _) = windows(&c, edge);
            assert_eq!(observation_stop(&c, edge, &fixed(2e-12)), end + 4e-12);
            assert_eq!(observation_stop(&c, edge, &fixed(10e-12)), end + 20e-12);
            // Adaptive pacing: the cap, not the initial step.
            assert_eq!(
                observation_stop(&c, edge, &adaptive(100e-12)),
                end + 200e-12
            );
        }
    }

    #[test]
    fn clock_too_narrow_for_the_margin_runs_to_the_stop_time() {
        // The dual's window ends 0.6 widths before the stop time: 3 ps
        // here, less than two 2 ps steps.
        let c = ClockPair {
            width: 5e-12,
            ..clocks()
        };
        assert_eq!(
            observation_stop(&c, ClockEdge::Falling, &fixed(2e-12)),
            c.sim_stop_time()
        );
        // The rising window ends a slew plus 1.55 widths before it: 175 ps
        // here, less than two 100 ps adaptive steps.
        let c = ClockPair {
            width: 100e-12,
            ..ClockPair::single_shot(5.0, 20e-12)
        };
        assert_eq!(
            observation_stop(&c, ClockEdge::Rising, &adaptive(100e-12)),
            c.sim_stop_time()
        );
        assert!(observation_stop(&c, ClockEdge::Rising, &fixed(2e-12)) < c.sim_stop_time());
    }

    #[test]
    fn window_extremes_are_recorded() {
        let c = clocks();
        let t_end = c.sim_stop_time();
        // A dip to 1 V inside the window.
        let w = Waveform::new(
            vec![0.0, c.delay + 0.5e-9, c.delay + 1.0e-9, t_end],
            vec![5.0, 1.0, 5.0, 5.0],
        );
        let r = interpret(w, flat(5.0, t_end), &c, ClockEdge::Rising, 2.75);
        assert!(r.vmin_y1 <= 1.0 + 1e-9);
        assert_eq!(r.vmax_y2, 5.0);
    }
}
