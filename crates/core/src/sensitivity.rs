//! Sensitivity analysis: V_min vs τ sweeps and τ_min extraction (Fig. 4).

use clocksense_spice::SimOptions;

use crate::error::CoreError;
use crate::sensor::SensingCircuit;
use crate::stimulus::ClockPair;

/// One point of a V_min vs τ characteristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSample {
    /// Injected skew τ (s).
    pub tau: f64,
    /// Minimum voltage reached by the late output inside the observation
    /// window (V).
    pub vmin: f64,
    /// `true` if the response is interpreted as an error indication
    /// (V_min above the logic threshold).
    pub detected: bool,
}

/// Sweeps the skew over `taus` and records the late output's V_min — the
/// data behind the paper's Fig. 4 curves.
///
/// `clocks` provides the edge slew and timing; its own `skew` field is
/// overridden by each sweep value. Each point is a transient to
/// [`SensingCircuit::observation_stop`] rather than the full
/// [`ClockPair::sim_stop_time`]; its V_min and verdict are bit-identical
/// to those of [`SensingCircuit::simulate`].
///
/// # Errors
///
/// Propagates simulation errors from any sweep point.
///
/// # Examples
///
/// ```no_run
/// use clocksense_core::{sweep_vmin, ClockPair, SensorBuilder, Technology};
///
/// # fn main() -> Result<(), clocksense_core::CoreError> {
/// let tech = Technology::cmos12();
/// let sensor = SensorBuilder::new(tech).load_capacitance(160e-15).build()?;
/// let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
/// let taus: Vec<f64> = (0..=20).map(|i| i as f64 * 0.02e-9).collect();
/// let curve = sweep_vmin(&sensor, &clocks, &taus, &Default::default())?;
/// assert!(curve.last().unwrap().detected);
/// # Ok(())
/// # }
/// ```
pub fn sweep_vmin(
    sensor: &SensingCircuit,
    clocks: &ClockPair,
    taus: &[f64],
    opts: &SimOptions,
) -> Result<Vec<SkewSample>, CoreError> {
    let v_th = sensor.technology().logic_threshold();
    let mut out = Vec::with_capacity(taus.len());
    for &tau in taus {
        let response = sensor.observe(&clocks.with_skew(tau), opts)?;
        let vmin = response.vmin_late(tau);
        out.push(SkewSample {
            tau,
            vmin,
            detected: vmin > v_th,
        });
    }
    Ok(out)
}

/// Finds the sensitivity τ_min — the smallest skew whose error indication
/// survives the logic threshold — by bisection over `[0, tau_hi]`.
///
/// Returns `Ok(None)` if even `tau_hi` is not detected (the sensor is too
/// slow for the requested range). The search assumes detection is monotone
/// in τ, which holds for the fault-free circuit: a larger skew gives the
/// early output strictly more time to block the late block's pull-down.
///
/// Each probe is a transient to [`SensingCircuit::observation_stop`],
/// whose verdict is bit-identical to that of [`SensingCircuit::simulate`].
///
/// # Errors
///
/// Propagates simulation errors; rejects non-positive `tau_hi`/`tolerance`.
pub fn find_tau_min(
    sensor: &SensingCircuit,
    clocks: &ClockPair,
    tau_hi: f64,
    tolerance: f64,
    opts: &SimOptions,
) -> Result<Option<f64>, CoreError> {
    if !(tau_hi.is_finite() && tau_hi > 0.0) {
        return Err(CoreError::InvalidParameter(format!(
            "tau_hi must be positive, got {tau_hi}"
        )));
    }
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(CoreError::InvalidParameter(format!(
            "tolerance must be positive, got {tolerance}"
        )));
    }
    let detected = |tau: f64| -> Result<bool, CoreError> {
        let response = sensor.observe(&clocks.with_skew(tau), opts)?;
        Ok(response.verdict.is_error())
    };
    if !detected(tau_hi)? {
        return Ok(None);
    }
    let mut lo = 0.0;
    let mut hi = tau_hi;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if detected(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

/// Computes the interpretation threshold that sets the sensor\'s
/// tolerance interval to `target_tau` — the paper\'s primary knob: "by
/// acting on such a threshold voltage (V_th) ... it is possible to set a
/// suitable tolerance interval".
///
/// By construction `V_min(τ)` is monotone in τ, so interpreting the
/// output against `V_th = V_min(target_tau)` makes `target_tau` exactly
/// the boundary skew: anything larger reads as an error. One simulation
/// suffices, a transient to [`SensingCircuit::observation_stop`] whose
/// V_min is bit-identical to that of [`SensingCircuit::simulate`].
///
/// # Errors
///
/// Propagates simulation errors; rejects non-positive targets and targets
/// whose `V_min` sits too close to the no-skew output floor (below 35 %
/// of V_DD — a hair-trigger threshold) or too close to the rail (above
/// 90 % of V_DD), where a real gate could not realise the threshold with
/// any margin.
///
/// # Examples
///
/// ```no_run
/// use clocksense_core::{threshold_for_tolerance, ClockPair, SensorBuilder, Technology};
///
/// # fn main() -> Result<(), clocksense_core::CoreError> {
/// let tech = Technology::cmos12();
/// let sensor = SensorBuilder::new(tech).load_capacitance(160e-15).build()?;
/// let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
/// let v_th = threshold_for_tolerance(&sensor, &clocks, 0.15e-9, &Default::default())?;
/// assert!(v_th > 1.0 && v_th < 4.5);
/// # Ok(())
/// # }
/// ```
pub fn threshold_for_tolerance(
    sensor: &SensingCircuit,
    clocks: &ClockPair,
    target_tau: f64,
    opts: &SimOptions,
) -> Result<f64, CoreError> {
    if !(target_tau.is_finite() && target_tau > 0.0) {
        return Err(CoreError::InvalidParameter(format!(
            "target_tau must be positive, got {target_tau}"
        )));
    }
    let response = sensor.observe(&clocks.with_skew(target_tau), opts)?;
    let v_th = response.vmin_late(target_tau);
    let vdd = sensor.technology().vdd;
    if !(0.35 * vdd..=0.9 * vdd).contains(&v_th) {
        return Err(CoreError::InvalidParameter(format!(
            "target tolerance {target_tau} puts the threshold at {v_th:.2} V, \
             outside the realisable gate-threshold range"
        )));
    }
    Ok(v_th)
}

/// Sizes a sensor\'s devices for a target sensitivity at the standard
/// interpretation threshold — the paper\'s second knob, "the delay of the
/// sensing circuit blocks".
///
/// Searches the pull-down width (pull-up follows at 1.5×) by bisection
/// over the well-behaved regime `[5 µm, 40 µm]`. Below ~5 µm the slow
/// cross-coupled race turns the cell into a metastability amplifier that
/// flags arbitrarily small skews, so narrower devices are excluded. The
/// achievable τ_min band at a given load is narrow (the block delay only
/// scales weakly once self-loading dominates); targets outside it are
/// clamped to the closest endpoint, with the achieved value returned so
/// the caller can decide whether to adjust V_th instead (see
/// [`threshold_for_tolerance`]).
///
/// # Errors
///
/// Propagates simulation errors; rejects non-positive targets or
/// tolerances.
pub fn size_for_tolerance(
    base: &crate::sensor::SensorBuilder,
    clocks: &ClockPair,
    target_tau: f64,
    tolerance: f64,
    opts: &SimOptions,
) -> Result<(crate::sensor::SensorBuilder, f64), CoreError> {
    if !(target_tau.is_finite() && target_tau > 0.0) {
        return Err(CoreError::InvalidParameter(format!(
            "target_tau must be positive, got {target_tau}"
        )));
    }
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(CoreError::InvalidParameter(format!(
            "tolerance must be positive, got {tolerance}"
        )));
    }
    let tau_hi = (4.0 * target_tau).max(0.6e-9).min(0.45 * clocks.width);
    let tau_of = |w: f64| -> Result<f64, CoreError> {
        let sensor = (*base).nmos_width(w).pmos_width(1.5 * w).build()?;
        Ok(find_tau_min(&sensor, clocks, tau_hi, 2e-12, opts)?.unwrap_or(tau_hi))
    };
    let (mut w_lo, mut w_hi) = (5e-6, 40e-6);
    // tau decreases with width over this range: tau(w_lo) is the loosest,
    // tau(w_hi) the sharpest the search can reach.
    let tau_slow = tau_of(w_lo)?;
    if target_tau >= tau_slow {
        return Ok(((*base).nmos_width(w_lo).pmos_width(1.5 * w_lo), tau_slow));
    }
    let tau_sharp = tau_of(w_hi)?;
    if target_tau <= tau_sharp {
        return Ok(((*base).nmos_width(w_hi).pmos_width(1.5 * w_hi), tau_sharp));
    }
    let mut achieved = tau_slow;
    for _ in 0..10 {
        let w = 0.5 * (w_lo + w_hi);
        achieved = tau_of(w)?;
        if (achieved - target_tau).abs() <= tolerance {
            return Ok(((*base).nmos_width(w).pmos_width(1.5 * w), achieved));
        }
        if achieved > target_tau {
            // Too slow: widen.
            w_lo = w;
        } else {
            w_hi = w;
        }
    }
    let w = 0.5 * (w_lo + w_hi);
    Ok(((*base).nmos_width(w).pmos_width(1.5 * w), achieved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorBuilder;
    use crate::tech::Technology;

    fn fast_opts() -> SimOptions {
        SimOptions {
            tstep: 2e-12,
            ..SimOptions::default()
        }
    }

    fn sensor(load: f64) -> SensingCircuit {
        SensorBuilder::new(Technology::cmos12())
            .load_capacitance(load)
            .build()
            .unwrap()
    }

    #[test]
    fn vmin_grows_with_skew() {
        let s = sensor(160e-15);
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let taus = [0.0, 0.1e-9, 0.2e-9, 0.4e-9];
        let curve = sweep_vmin(&s, &clocks, &taus, &fast_opts()).unwrap();
        for pair in curve.windows(2) {
            assert!(
                pair[1].vmin >= pair[0].vmin - 0.05,
                "vmin must grow with tau: {pair:?}"
            );
        }
        assert!(!curve[0].detected, "zero skew must not flag");
        assert!(curve[3].detected, "0.4 ns skew must flag");
    }

    #[test]
    fn tau_min_exists_and_is_sub_nanosecond() {
        let s = sensor(160e-15);
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let tau = find_tau_min(&s, &clocks, 0.5e-9, 2e-12, &fast_opts())
            .unwrap()
            .expect("detectable within 0.5 ns");
        assert!(tau > 0.0 && tau < 0.5e-9, "tau_min = {tau}");
    }

    #[test]
    fn tau_min_grows_with_load() {
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let t80 = find_tau_min(&sensor(80e-15), &clocks, 0.5e-9, 2e-12, &fast_opts())
            .unwrap()
            .unwrap();
        let t240 = find_tau_min(&sensor(240e-15), &clocks, 0.5e-9, 2e-12, &fast_opts())
            .unwrap()
            .unwrap();
        assert!(
            t240 > t80,
            "heavier load must slow the block: {t80} vs {t240}"
        );
    }

    #[test]
    fn scaled_process_sharpens_the_sensitivity() {
        // The same cell in the faster 0.8 um process resolves smaller
        // skews at the same external load.
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        let tau_of = |tech: Technology| {
            let s = SensorBuilder::new(tech)
                .load_capacitance(160e-15)
                .build()
                .unwrap();
            find_tau_min(&s, &clocks, 0.5e-9, 2e-12, &fast_opts())
                .unwrap()
                .expect("detectable")
        };
        let old = tau_of(Technology::cmos12());
        let new = tau_of(Technology::cmos08());
        assert!(new < old, "0.8 um must be sharper: {new} vs {old}");
    }

    #[test]
    fn undetectable_range_returns_none() {
        let s = sensor(160e-15);
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        // 1 fs of skew is far below any achievable sensitivity.
        let r = find_tau_min(&s, &clocks, 1e-15, 1e-16, &fast_opts()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn sizing_search_hits_an_achievable_target() {
        let tech = Technology::cmos12();
        let base = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        // 105 ps sits inside the achievable [~95, ~125] ps band.
        let target = 0.105e-9;
        let (sized, achieved) =
            size_for_tolerance(&base, &clocks, target, 4e-12, &fast_opts()).unwrap();
        assert!(
            (achieved - target).abs() <= 8e-12,
            "achieved {achieved} vs target {target}"
        );
        // The sized builder reproduces the achieved sensitivity.
        let sensor = sized.build().unwrap();
        let check = find_tau_min(&sensor, &clocks, 0.6e-9, 2e-12, &fast_opts())
            .unwrap()
            .unwrap();
        assert!((check - achieved).abs() < 10e-12);
    }

    #[test]
    fn sizing_search_clamps_out_of_range_targets() {
        let tech = Technology::cmos12();
        let base = SensorBuilder::new(tech).load_capacitance(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        // An absurdly loose target: even the narrowest device is sharper.
        let (_, achieved) =
            size_for_tolerance(&base, &clocks, 0.8e-9, 10e-12, &fast_opts()).unwrap();
        assert!(achieved < 0.8e-9);
        assert!(size_for_tolerance(&base, &clocks, -1.0, 1e-12, &fast_opts()).is_err());
        assert!(size_for_tolerance(&base, &clocks, 0.1e-9, 0.0, &fast_opts()).is_err());
    }

    #[test]
    fn threshold_knob_sets_the_tolerance_directly() {
        let tech = Technology::cmos12();
        let sensor = sensor(160e-15);
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
        let target = 0.2e-9;
        let v_th = threshold_for_tolerance(&sensor, &clocks, target, &fast_opts()).unwrap();
        // The threshold is above the default (looser tolerance than the
        // default ~112 ps needs a higher threshold).
        assert!(v_th > tech.logic_threshold(), "v_th = {v_th}");
        // Verify: at the computed threshold, skews below the target stay
        // clean and skews above it flag.
        let below = sensor
            .simulate(&clocks.with_skew(0.8 * target), &fast_opts())
            .unwrap();
        let above = sensor
            .simulate(&clocks.with_skew(1.2 * target), &fast_opts())
            .unwrap();
        assert!(below.vmin_late(0.8 * target) < v_th);
        assert!(above.vmin_late(1.2 * target) > v_th);
        // Unrealisable tolerances are rejected.
        assert!(threshold_for_tolerance(&sensor, &clocks, 1e-12, &fast_opts()).is_err());
    }

    #[test]
    fn parameter_validation() {
        let s = sensor(160e-15);
        let clocks = ClockPair::single_shot(5.0, 0.2e-9);
        assert!(find_tau_min(&s, &clocks, -1.0, 1e-12, &fast_opts()).is_err());
        assert!(find_tau_min(&s, &clocks, 1e-9, 0.0, &fast_opts()).is_err());
    }
}
