//! In-place uniform parameter perturbation of a circuit.

use clocksense_netlist::{Circuit, Device};
use rand::Rng;

/// Multiplies every electrical parameter of every device by an
/// independent uniform factor in `[1 − spread, 1 + spread]`.
///
/// Perturbed quantities: MOSFET `vth0`, `kp`, `w` and the three parasitic
/// capacitances; resistor and capacitor values. This is the paper's
/// "uniform distribution (with 0.15 as relative variation from the
/// nominal value) of the circuit parameter and of C", applied per device
/// so block A and block B vary independently (asymmetric conditions).
///
/// # Panics
///
/// Panics if `spread` is not in `[0, 1)`.
///
/// # Examples
///
/// ```
/// use clocksense_montecarlo::perturb_circuit;
/// use clocksense_netlist::{Circuit, GROUND};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), clocksense_netlist::NetlistError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_resistor("r", a, GROUND, 1000.0)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// perturb_circuit(&mut ckt, 0.15, &mut rng);
/// let id = ckt.find_device("r").expect("still there");
/// if let clocksense_netlist::Device::Resistor(r) = &ckt.device(id).unwrap().device {
///     assert!(r.ohms >= 850.0 && r.ohms <= 1150.0);
/// }
/// # Ok(())
/// # }
/// ```
pub fn perturb_circuit(circuit: &mut Circuit, spread: f64, rng: &mut impl Rng) {
    assert!(
        spread.is_finite() && (0.0..1.0).contains(&spread),
        "spread must be in [0, 1)"
    );
    let factor =
        move |rng: &mut dyn rand::RngCore| -> f64 { 1.0 + spread * (2.0 * rng.gen::<f64>() - 1.0) };
    let ids: Vec<_> = circuit.devices().map(|(id, _)| id).collect();
    for id in ids {
        let Some(entry) = circuit.device_mut(id) else {
            continue;
        };
        match &mut entry.device {
            Device::Resistor(r) => r.ohms *= factor(rng),
            Device::Capacitor(c) => c.farads *= factor(rng),
            Device::Mosfet(m) => {
                m.params.vth0 *= factor(rng);
                m.params.kp *= factor(rng);
                m.params.w *= factor(rng);
                m.params.cgs *= factor(rng);
                m.params.cgd *= factor(rng);
                m.params.cdb *= factor(rng);
            }
            Device::VoltageSource(_) | Device::CurrentSource(_) => {}
        }
    }
}

/// Die-level (common-mode) process variation: draws *one* uniform factor
/// in `[1 − spread, 1 + spread]` per process parameter class and applies
/// it to every device, then perturbs the named capacitors independently.
///
/// This is the paper's Fig. 5 / Tab. 1 methodology: the circuit parameters
/// vary with the process — identically for the two symmetric blocks —
/// while "both the input slews and the load have been considered
/// independent, in order to account for asymmetric conditions". Fully
/// independent per-device variation (see [`perturb_circuit`]) models
/// *mismatch* instead and produces a far wider spread than the paper's
/// scatter.
///
/// `independent_caps` lists capacitor device names (the explicit loads,
/// e.g. `"cl1"`/`"cl2"`) that each receive their own factor.
///
/// # Panics
///
/// Panics if `spread` is not in `[0, 1)`.
pub fn perturb_circuit_global(
    circuit: &mut Circuit,
    spread: f64,
    independent_caps: &[&str],
    rng: &mut impl Rng,
) {
    assert!(
        spread.is_finite() && (0.0..1.0).contains(&spread),
        "spread must be in [0, 1)"
    );
    let mut factor = || 1.0 + spread * (2.0 * rng.gen::<f64>() - 1.0);
    // One draw per process-parameter class.
    let f_vth_n = factor();
    let f_vth_p = factor();
    let f_kp_n = factor();
    let f_kp_p = factor();
    let f_w = factor();
    let f_cap = factor();
    let f_res = factor();
    let independent: Vec<(String, f64)> = independent_caps
        .iter()
        .map(|name| (name.to_string(), factor()))
        .collect();

    let ids: Vec<_> = circuit.devices().map(|(id, _)| id).collect();
    for id in ids {
        let Some(entry) = circuit.device_mut(id) else {
            continue;
        };
        let name = entry.name.clone();
        match &mut entry.device {
            Device::Resistor(r) => r.ohms *= f_res,
            Device::Capacitor(c) => {
                let f = independent
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, f)| f)
                    .unwrap_or(f_cap);
                c.farads *= f;
            }
            Device::Mosfet(m) => {
                let n_channel = m.params.vth0 >= 0.0;
                m.params.vth0 *= if n_channel { f_vth_n } else { f_vth_p };
                m.params.kp *= if n_channel { f_kp_n } else { f_kp_p };
                m.params.w *= f_w;
                m.params.cgs *= f_cap;
                m.params.cgd *= f_cap;
                m.params.cdb *= f_cap;
            }
            Device::VoltageSource(_) | Device::CurrentSource(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_netlist::{MosParams, MosPolarity, GROUND};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("r", a, GROUND, 1000.0).unwrap();
        ckt.add_capacitor("c", a, GROUND, 1e-12).unwrap();
        ckt.add_mosfet(
            "m",
            MosPolarity::Nmos,
            a,
            a,
            GROUND,
            MosParams {
                vth0: 0.7,
                kp: 60e-6,
                lambda: 0.02,
                w: 4e-6,
                l: 1.2e-6,
                cgs: 5e-15,
                cgd: 5e-15,
                cdb: 4e-15,
            },
        )
        .unwrap();
        ckt
    }

    #[test]
    fn zero_spread_is_identity() {
        let mut ckt = sample_circuit();
        let mut rng = StdRng::seed_from_u64(1);
        perturb_circuit(&mut ckt, 0.0, &mut rng);
        let id = ckt.find_device("m").unwrap();
        let m = ckt.device(id).unwrap().device.as_mosfet().unwrap();
        assert_eq!(m.params.vth0, 0.7);
        assert_eq!(m.params.kp, 60e-6);
    }

    #[test]
    fn spread_bounds_hold() {
        for seed in 0..20 {
            let mut ckt = sample_circuit();
            let mut rng = StdRng::seed_from_u64(seed);
            perturb_circuit(&mut ckt, 0.15, &mut rng);
            let id = ckt.find_device("m").unwrap();
            let m = ckt.device(id).unwrap().device.as_mosfet().unwrap();
            assert!(
                (0.595..=0.805).contains(&m.params.vth0),
                "vth {}",
                m.params.vth0
            );
            assert!(m.params.kp >= 51e-6 && m.params.kp <= 69e-6);
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = sample_circuit();
        let mut b = sample_circuit();
        perturb_circuit(&mut a, 0.15, &mut StdRng::seed_from_u64(42));
        perturb_circuit(&mut b, 0.15, &mut StdRng::seed_from_u64(42));
        let ia = a.find_device("m").unwrap();
        let ib = b.find_device("m").unwrap();
        assert_eq!(
            a.device(ia).unwrap().device.as_mosfet().unwrap().params,
            b.device(ib).unwrap().device.as_mosfet().unwrap().params
        );
    }

    #[test]
    #[should_panic(expected = "spread must be in")]
    fn out_of_range_spread_panics() {
        let mut ckt = sample_circuit();
        perturb_circuit(&mut ckt, 1.5, &mut StdRng::seed_from_u64(0));
    }
}
