//! In-place uniform parameter perturbation of a circuit.

use clocksense_netlist::{Circuit, Device};
use rand::Rng;

/// Die-level (common-mode) process variation: draws *one* uniform factor
/// in `[1 − spread, 1 + spread]` per process parameter class and applies
/// it to every device, then perturbs the named capacitors independently.
///
/// This is the paper's Fig. 5 / Tab. 1 methodology: the circuit parameters
/// vary with the process — identically for the two symmetric blocks —
/// while "both the input slews and the load have been considered
/// independent, in order to account for asymmetric conditions". Fully
/// independent per-device variation would model *mismatch* instead and
/// produce a far wider spread than the paper's scatter.
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

    fn params(ckt: &Circuit) -> (MosParams, f64) {
        let m = ckt.find_device("m").unwrap();
        let c = ckt.find_device("c").unwrap();
        let Device::Capacitor(cap) = &ckt.device(c).unwrap().device else {
            panic!("c is a capacitor");
        };
        (
            ckt.device(m).unwrap().device.as_mosfet().unwrap().params,
            cap.farads,
        )
    }

    #[test]
    fn zero_spread_is_identity() {
        let mut ckt = sample_circuit();
        let mut rng = StdRng::seed_from_u64(1);
        perturb_circuit_global(&mut ckt, 0.0, &["c"], &mut rng);
        assert_eq!(params(&ckt), params(&sample_circuit()));
    }

    #[test]
    fn spread_bounds_hold() {
        for seed in 0..20 {
            let mut ckt = sample_circuit();
            let mut rng = StdRng::seed_from_u64(seed);
            perturb_circuit_global(&mut ckt, 0.15, &["c"], &mut rng);
            let (m, c) = params(&ckt);
            assert!((0.595..=0.805).contains(&m.vth0), "vth {}", m.vth0);
            assert!(m.kp >= 51e-6 && m.kp <= 69e-6);
            assert!((0.85e-12..=1.15e-12).contains(&c), "c {c}");
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = sample_circuit();
        let mut b = sample_circuit();
        perturb_circuit_global(&mut a, 0.15, &["c"], &mut StdRng::seed_from_u64(42));
        perturb_circuit_global(&mut b, 0.15, &["c"], &mut StdRng::seed_from_u64(42));
        assert_eq!(params(&a), params(&b));
    }

    #[test]
    #[should_panic(expected = "spread must be in")]
    fn out_of_range_spread_panics() {
        let mut ckt = sample_circuit();
        perturb_circuit_global(&mut ckt, 1.0, &[], &mut StdRng::seed_from_u64(0));
    }
}
