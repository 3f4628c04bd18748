//! Level-1 (Shichman–Hodges) MOSFET evaluation.
//!
//! [`channel_current`] returns the channel current and its partial
//! derivatives with respect to the *actual terminal node voltages*, with
//! polarity folding and drain/source swapping handled internally, so the
//! stamping code is polarity-agnostic.

use clocksense_netlist::{MosParams, MosPolarity};

/// Operating region of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosRegion {
    /// `|Vgs| <= |Vth|`: no channel.
    Cutoff,
    /// `|Vds| < |Vgs - Vth|`: resistive channel.
    Triode,
    /// `|Vds| >= |Vgs - Vth|`: pinched-off channel.
    Saturation,
}

/// Linearised operating point of a MOSFET at given terminal voltages.
///
/// `id` is the conventional current entering the drain terminal and leaving
/// the source terminal; `g_d`, `g_g`, `g_s` are its partial derivatives with
/// respect to the drain, gate and source node voltages. By KCL on the
/// three-terminal device, `g_d + g_g + g_s == 0` up to rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOperatingPoint {
    /// Channel current into the drain terminal (A).
    pub id: f64,
    /// `∂id/∂v_drain` (S).
    pub g_d: f64,
    /// `∂id/∂v_gate` (S).
    pub g_g: f64,
    /// `∂id/∂v_source` (S).
    pub g_s: f64,
    /// Operating region.
    pub region: MosRegion,
}

/// Shichman–Hodges current for an n-equivalent device with `vds >= 0`.
///
/// Returns `(id, gm, gds)` where `gm = ∂id/∂vgs` and `gds = ∂id/∂vds`.
fn shichman_hodges(params: &MosParams, vth: f64, vgs: f64, vds: f64) -> (f64, f64, f64, MosRegion) {
    debug_assert!(vds >= 0.0);
    let beta = params.beta();
    let lambda = params.lambda;
    let vov = vgs - vth;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0, MosRegion::Cutoff);
    }
    let clm = 1.0 + lambda * vds;
    if vds < vov {
        // Triode.
        let core = vov * vds - 0.5 * vds * vds;
        let id = beta * core * clm;
        let gm = beta * vds * clm;
        let gds = beta * ((vov - vds) * clm + core * lambda);
        (id, gm, gds, MosRegion::Triode)
    } else {
        // Saturation.
        let core = 0.5 * vov * vov;
        let id = beta * core * clm;
        let gm = beta * vov * clm;
        let gds = beta * core * lambda;
        (id, gm, gds, MosRegion::Saturation)
    }
}

/// Evaluates the Level-1 channel current and its partials at the given
/// terminal node voltages.
///
/// Both polarities are folded onto the n-channel equations (voltages and
/// current negate for PMOS); a device biased with `vds < 0` is evaluated
/// with drain and source exchanged, exploiting MOSFET symmetry. The
/// returned partials are already with respect to the actual node voltages,
/// so stamping code needs no polarity or orientation cases.
///
/// # Examples
///
/// ```
/// use clocksense_netlist::{MosParams, MosPolarity};
/// use clocksense_spice::{channel_current, MosRegion};
///
/// let p = MosParams {
///     vth0: 0.7, kp: 60e-6, lambda: 0.0,
///     w: 3e-6, l: 1e-6, cgs: 0.0, cgd: 0.0, cdb: 0.0,
/// };
/// // Saturated NMOS: Vgs = 2 V, Vds = 3 V.
/// let op = channel_current(MosPolarity::Nmos, &p, 3.0, 2.0, 0.0);
/// assert_eq!(op.region, MosRegion::Saturation);
/// let expect = 0.5 * p.beta() * (2.0f64 - 0.7).powi(2);
/// assert!((op.id - expect).abs() / expect < 1e-12);
/// ```
pub fn channel_current(
    polarity: MosPolarity,
    params: &MosParams,
    v_drain: f64,
    v_gate: f64,
    v_source: f64,
) -> MosOperatingPoint {
    eval_folded(polarity.sign(), params, v_drain, v_gate, v_source)
}

/// Evaluates one MOSFET across a whole lane block: lane `l` sees the
/// device with `params[l]` at terminal voltages `(vd[l], vg[l], vs[l])`.
/// The batched transient kernel calls this once per device per Newton
/// iteration, so the polarity fold is hoisted out of the per-variant
/// work and the lane results land contiguously for the SoA Jacobian
/// stamp. Each lane computes exactly the floating-point sequence of
/// [`channel_current`], so laned and scalar evaluation agree bitwise.
pub(crate) fn channel_current_lanes<const L: usize>(
    polarity: MosPolarity,
    params: &[MosParams; L],
    vd: &[f64; L],
    vg: &[f64; L],
    vs: &[f64; L],
) -> [MosOperatingPoint; L] {
    let sign = polarity.sign();
    std::array::from_fn(|l| eval_folded(sign, &params[l], vd[l], vg[l], vs[l]))
}

/// The shared polarity-folding core of [`channel_current`] and
/// [`channel_current_lanes`].
#[inline(always)]
fn eval_folded(
    sign: f64,
    params: &MosParams,
    v_drain: f64,
    v_gate: f64,
    v_source: f64,
) -> MosOperatingPoint {
    // Fold to n-type terminal voltages.
    let vd = sign * v_drain;
    let vg = sign * v_gate;
    let vs = sign * v_source;
    let vth = sign * params.vth0;

    if vd >= vs {
        // Normal orientation.
        let (id_n, gm, gds, region) = shichman_hodges(params, vth, vg - vs, vd - vs);
        MosOperatingPoint {
            // id = sign * id_n; partials w.r.t. actual voltages pick up
            // sign^2 = 1, so they equal the n-equivalent partials.
            id: sign * id_n,
            g_d: gds,
            g_g: gm,
            g_s: -(gm + gds),
            region,
        }
    } else {
        // Source and drain exchanged: vds_n < 0.
        let (id_n, gm, gds, region) = shichman_hodges(params, vth, vg - vd, vs - vd);
        MosOperatingPoint {
            id: -sign * id_n,
            g_d: gm + gds,
            g_g: -gm,
            g_s: -gds,
            region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_params() -> MosParams {
        MosParams {
            vth0: 0.7,
            kp: 60e-6,
            lambda: 0.02,
            w: 4e-6,
            l: 1.2e-6,
            cgs: 0.0,
            cgd: 0.0,
            cdb: 0.0,
        }
    }

    fn pmos_params() -> MosParams {
        MosParams {
            vth0: -0.9,
            kp: 20e-6,
            lambda: 0.02,
            w: 8e-6,
            l: 1.2e-6,
            cgs: 0.0,
            cgd: 0.0,
            cdb: 0.0,
        }
    }

    #[test]
    fn cutoff_carries_no_current() {
        let op = channel_current(MosPolarity::Nmos, &nmos_params(), 5.0, 0.5, 0.0);
        assert_eq!(op.region, MosRegion::Cutoff);
        assert_eq!(op.id, 0.0);
        assert_eq!(op.g_g, 0.0);
    }

    #[test]
    fn triode_vs_saturation_boundary() {
        let p = nmos_params();
        let vov = 2.0 - 0.7;
        let just_triode = channel_current(MosPolarity::Nmos, &p, vov - 1e-6, 2.0, 0.0);
        let just_sat = channel_current(MosPolarity::Nmos, &p, vov + 1e-6, 2.0, 0.0);
        assert_eq!(just_triode.region, MosRegion::Triode);
        assert_eq!(just_sat.region, MosRegion::Saturation);
        // Current is continuous across the boundary.
        assert!((just_triode.id - just_sat.id).abs() < 1e-9);
    }

    #[test]
    fn pmos_pull_up_current_direction() {
        // PMOS with source at 5 V, gate at 0: strongly on, current flows
        // source -> drain, i.e. *out of* the drain terminal => id < 0.
        let op = channel_current(MosPolarity::Pmos, &pmos_params(), 2.0, 0.0, 5.0);
        assert!(op.id < 0.0, "pull-up drain current must be negative");
        assert_ne!(op.region, MosRegion::Cutoff);
    }

    #[test]
    fn pmos_cutoff_when_gate_high() {
        let op = channel_current(MosPolarity::Pmos, &pmos_params(), 0.0, 5.0, 5.0);
        assert_eq!(op.region, MosRegion::Cutoff);
    }

    #[test]
    fn partials_sum_to_zero() {
        for (vd, vg, vs) in [
            (3.0, 2.0, 0.0),
            (0.5, 2.0, 0.0),
            (0.0, 2.0, 3.0), // swapped orientation
            (2.0, 0.0, 5.0),
        ] {
            let op = channel_current(MosPolarity::Nmos, &nmos_params(), vd, vg, vs);
            assert!(
                (op.g_d + op.g_g + op.g_s).abs() < 1e-12,
                "partials must sum to zero at ({vd},{vg},{vs})"
            );
        }
    }

    #[test]
    fn symmetry_under_terminal_swap() {
        // Swapping drain and source voltages must negate the current.
        let p = nmos_params();
        let fwd = channel_current(MosPolarity::Nmos, &p, 1.0, 3.0, 0.0);
        let rev = channel_current(MosPolarity::Nmos, &p, 0.0, 3.0, 1.0);
        assert!((fwd.id + rev.id).abs() < 1e-15);
    }

    #[test]
    fn partials_match_finite_differences() {
        let p = nmos_params();
        let h = 1e-7;
        for (vd, vg, vs) in [(3.0, 2.0, 0.0), (0.8, 2.0, 0.0), (0.0, 2.5, 1.2)] {
            let op = channel_current(MosPolarity::Nmos, &p, vd, vg, vs);
            let fd_d = (channel_current(MosPolarity::Nmos, &p, vd + h, vg, vs).id
                - channel_current(MosPolarity::Nmos, &p, vd - h, vg, vs).id)
                / (2.0 * h);
            let fd_g = (channel_current(MosPolarity::Nmos, &p, vd, vg + h, vs).id
                - channel_current(MosPolarity::Nmos, &p, vd, vg - h, vs).id)
                / (2.0 * h);
            let fd_s = (channel_current(MosPolarity::Nmos, &p, vd, vg, vs + h).id
                - channel_current(MosPolarity::Nmos, &p, vd, vg, vs - h).id)
                / (2.0 * h);
            assert!((op.g_d - fd_d).abs() < 1e-6, "g_d at ({vd},{vg},{vs})");
            assert!((op.g_g - fd_g).abs() < 1e-6, "g_g at ({vd},{vg},{vs})");
            assert!((op.g_s - fd_s).abs() < 1e-6, "g_s at ({vd},{vg},{vs})");
        }
    }

    #[test]
    fn pmos_partials_match_finite_differences() {
        let p = pmos_params();
        let h = 1e-7;
        for (vd, vg, vs) in [(2.0, 0.0, 5.0), (4.9, 0.0, 5.0), (5.0, 2.0, 1.0)] {
            let op = channel_current(MosPolarity::Pmos, &p, vd, vg, vs);
            let fd_d = (channel_current(MosPolarity::Pmos, &p, vd + h, vg, vs).id
                - channel_current(MosPolarity::Pmos, &p, vd - h, vg, vs).id)
                / (2.0 * h);
            let fd_g = (channel_current(MosPolarity::Pmos, &p, vd, vg + h, vs).id
                - channel_current(MosPolarity::Pmos, &p, vd, vg - h, vs).id)
                / (2.0 * h);
            assert!((op.g_d - fd_d).abs() < 1e-6, "g_d at ({vd},{vg},{vs})");
            assert!((op.g_g - fd_g).abs() < 1e-6, "g_g at ({vd},{vg},{vs})");
        }
    }
}
