//! Bit-level pins of the scalar transient march.
//!
//! Every other transient test compares two runs of the same code, or a
//! run against an analytic curve within a tolerance; neither notices a
//! change in the last bit of a sample. These tests hash the exact bit
//! pattern of every time point, node voltage and branch current of a
//! set of runs — fixed and adaptive pacing, trapezoidal and backward
//! Euler, a window that halves, a sub-`tstep_min` sliver and a step the
//! rescue ladder has to converge — and compare the hash with a digest
//! recorded from the reference implementation. A refactor of the
//! marching loop that keeps every digest is bit-identical on these
//! paths; one that moves a digest changed the numbers. The sparse
//! digests pin the same march through the CSR LU, so a change of the
//! default solver, or the removal of the dense one, has a bit-level
//! oracle for the sparse path too.

use clocksense_netlist::{from_spice, Circuit, Device, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    transient, IntegrationMethod, SimOptions, SolverKind, TimestepControl, TranResult,
};

/// The paper's sensing circuit in its two-phase testbench: 200 ps clock
/// edges, phase 2 late by 300 ps, 160 fF loads, 200 Ω drivers.
const SENSOR_DECK: &str = "\
* sensor testbench
m_a top_a phi1 vdd 0 pch W=12u L=1.2u
m_b y1 phi2 top_a 0 pch W=12u L=1.2u
m_c y1 y2 top_a 0 pch W=12u L=1.2u
m_d y1 phi1 mid_a 0 nch W=8u L=1.2u
m_e mid_a y2 0 0 nch W=8u L=1.2u
m_f top_b phi2 vdd 0 pch W=12u L=1.2u
m_g y2 y1 top_b 0 pch W=12u L=1.2u
m_h y2 phi1 top_b 0 pch W=12u L=1.2u
m_i y2 phi2 mid_b 0 nch W=8u L=1.2u
m_l mid_b y1 0 0 nch W=8u L=1.2u
cl1 y1 0 160f
cl2 y2 0 160f
vdd_supply vdd 0 DC 5
vphi1 phi1_drv 0 PULSE(0 5 1n 200p 200p 2n)
vphi2 phi2_drv 0 PULSE(0 5 1.3n 200p 200p 2n)
rdrv1 phi1_drv phi1 200
rdrv2 phi2_drv phi2 200
.model pch PMOS (LEVEL=1 VTO=-900m KP=20u LAMBDA=20m CGS=15.84f CGD=15.84f CDB=6f)
.model nch NMOS (LEVEL=1 VTO=700m KP=60u LAMBDA=20m CGS=10.56f CGD=10.56f CDB=4f)
.end
";

const SENSOR_STOP: f64 = 6.7e-9;

fn sensor() -> Circuit {
    from_spice(SENSOR_DECK).expect("sensor deck parses")
}

/// A complete binary RC tree of 64 non-root nodes driven through a
/// source resistor by a 0 → 5 V pulse: 200 Ω / 20 fF per segment with a
/// per-level spread so no two branches are symmetric.
fn rc_tree() -> Circuit {
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let root = ckt.node("t0");
    ckt.add_vsource(
        "vclk",
        drv,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 5.0,
            delay: 0.2e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.8e-9,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    ckt.add_resistor("rsrc", drv, root, 50.0).unwrap();
    ckt.add_capacitor("c0", root, GROUND, 20e-15).unwrap();
    let mut nodes = vec![root];
    for k in 1..=64usize {
        let parent = nodes[(k - 1) / 2];
        let node = ckt.node(&format!("t{k}"));
        let spread = 1.0 + 0.01 * (k % 7) as f64;
        ckt.add_resistor(&format!("r{k}"), parent, node, 200.0 * spread)
            .unwrap();
        ckt.add_capacitor(&format!("c{k}"), node, GROUND, 20e-15 / spread)
            .unwrap();
        nodes.push(node);
    }
    ckt
}

/// The capacitor-free inverter of `tran`'s sliver unit test: supply and
/// input snap to 5 V at 1 ps, and the post-step window needs more than
/// three Newton iterations with a `tstep_min` too close to `tstep` to
/// halve, so it is accepted as a sub-`tstep_min` sliver.
fn sliver_inverter() -> Circuit {
    let step_to = |v2: f64| SourceWave::Pulse {
        v1: 0.0,
        v2,
        delay: 1.0e-12,
        rise: 0.01e-12,
        fall: 0.2e-12,
        width: 1e-9,
        period: f64::INFINITY,
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, GROUND, step_to(5.0)).unwrap();
    ckt.add_vsource("vin", inp, GROUND, step_to(5.0)).unwrap();
    let nmos = MosParams {
        vth0: 0.7,
        kp: 60e-6,
        lambda: 0.02,
        w: 4e-6,
        l: 1.2e-6,
        cgs: 0.0,
        cgd: 0.0,
        cdb: 0.0,
    };
    let pmos = MosParams {
        vth0: -0.9,
        kp: 20e-6,
        w: 10e-6,
        ..nmos
    };
    ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos)
        .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos)
        .unwrap();
    ckt
}

fn sliver_opts() -> SimOptions {
    SimOptions {
        tstep: 1e-12,
        tstep_min: 0.9e-12,
        max_newton_iters: 3,
        ..SimOptions::default()
    }
}

/// The rescue ladder's pathological bench (`rescue_ladder.rs`): a
/// two-stage buffer whose input crosses the switching threshold inside
/// one minimum step, under options that starve Newton.
fn pathological_buffer() -> Circuit {
    let nmos = MosParams {
        vth0: 0.7,
        kp: 60e-6,
        lambda: 0.02,
        w: 4e-6,
        l: 1.2e-6,
        cgs: 3e-15,
        cgd: 3e-15,
        cdb: 2e-15,
    };
    let pmos = MosParams {
        vth0: -0.9,
        kp: 20e-6,
        w: 8e-6,
        ..nmos
    };
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let mid = ckt.node("mid");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::step(0.0, 5.0, 0.0, 0.4e-9))
        .unwrap();
    ckt.add_vsource(
        "vin",
        inp,
        GROUND,
        SourceWave::step(0.0, 5.0, 1.0e-9, 0.01e-12),
    )
    .unwrap();
    for (name, i, o) in [("s1", inp, mid), ("s2", mid, out)] {
        ckt.add_mosfet(&format!("{name}_p"), MosPolarity::Pmos, o, i, vdd, pmos)
            .unwrap();
        ckt.add_mosfet(&format!("{name}_n"), MosPolarity::Nmos, o, i, GROUND, nmos)
            .unwrap();
    }
    ckt.add_capacitor("cm", mid, GROUND, 5e-15).unwrap();
    ckt.add_capacitor("cl", out, GROUND, 5e-15).unwrap();
    ckt
}

fn starved_opts() -> SimOptions {
    SimOptions {
        tstep: 100e-12,
        tstep_min: 40e-12,
        max_newton_iters: 3,
        ..SimOptions::default()
    }
}

fn adaptive(tstep_max: f64) -> TimestepControl {
    TimestepControl::Adaptive {
        tstep_max,
        lte_tol: 1.0,
    }
}

fn be() -> IntegrationMethod {
    IntegrationMethod::BackwardEuler
}

/// FNV-1a over the bit patterns of the time axis, then every node's
/// voltage series in node order, then every voltage source's branch
/// current series in device order, each series prefixed by its length.
fn digest(ckt: &Circuit, res: &TranResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |series: &[f64]| {
        for word in std::iter::once(series.len() as u64).chain(series.iter().map(|v| v.to_bits())) {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    };
    eat(res.times());
    for node in ckt.nodes() {
        eat(res.waveform(node).values());
    }
    for (_, entry) in ckt.devices() {
        if let Device::VoltageSource(_) = entry.device {
            eat(res.source_current(&entry.name).unwrap().values());
        }
    }
    h
}

fn check(name: &str, ckt: &Circuit, t_stop: f64, opts: &SimOptions, expected: u64) -> TranResult {
    let res = transient(ckt, t_stop, opts).unwrap_or_else(|e| panic!("{name}: {e}"));
    let got = digest(ckt, &res);
    assert_eq!(
        got,
        expected,
        "{name}: march digest moved to {got:#018x} ({} time points)",
        res.times().len()
    );
    res
}

#[test]
fn sensor_fixed_trapezoidal() {
    check(
        "sensor fixed trap",
        &sensor(),
        SENSOR_STOP,
        &SimOptions::default(),
        0xfa00_18a8_44f9_abca,
    );
}

#[test]
fn sensor_fixed_backward_euler() {
    let opts = SimOptions {
        method: be(),
        ..SimOptions::default()
    };
    check(
        "sensor fixed BE",
        &sensor(),
        SENSOR_STOP,
        &opts,
        0xa25a_0a64_3a96_9d34,
    );
}

#[test]
fn sensor_adaptive_trapezoidal() {
    let opts = SimOptions {
        timestep: adaptive(50e-12),
        ..SimOptions::default()
    };
    check(
        "sensor adaptive trap",
        &sensor(),
        SENSOR_STOP,
        &opts,
        0x6d95_2332_8087_bd3d,
    );
}

#[test]
fn sensor_adaptive_backward_euler() {
    let opts = SimOptions {
        timestep: adaptive(50e-12),
        method: be(),
        ..SimOptions::default()
    };
    check(
        "sensor adaptive BE",
        &sensor(),
        SENSOR_STOP,
        &opts,
        0xffc2_ea5d_bc4e_03bc,
    );
}

#[test]
fn sensor_fixed_window_halves() {
    // 500 ps windows with a five-iteration Newton budget: the clock-edge
    // windows do not converge whole and are split, the rest do.
    let roomy = SimOptions {
        tstep: 500e-12,
        ..SimOptions::default()
    };
    let starved = SimOptions {
        max_newton_iters: 5,
        ..roomy.clone()
    };
    let unsplit = transient(&sensor(), SENSOR_STOP, &roomy).unwrap();
    let split = check(
        "sensor halving",
        &sensor(),
        SENSOR_STOP,
        &starved,
        0x9650_de7d_2bb3_cdf1,
    );
    assert!(
        split.times().len() > unsplit.times().len(),
        "no window halved: {} vs {} time points",
        split.times().len(),
        unsplit.times().len()
    );
}

#[test]
fn rc_tree_fixed_both_methods() {
    let ckt = rc_tree();
    check(
        "rc tree fixed trap",
        &ckt,
        2e-9,
        &SimOptions::default(),
        0x0a95_acf1_7c0f_01d1,
    );
    let opts = SimOptions {
        method: be(),
        ..SimOptions::default()
    };
    check("rc tree fixed BE", &ckt, 2e-9, &opts, 0x0798_c380_8644_46cb);
}

#[test]
fn rc_tree_adaptive_both_methods() {
    let ckt = rc_tree();
    let opts = SimOptions {
        timestep: adaptive(100e-12),
        ..SimOptions::default()
    };
    check(
        "rc tree adaptive trap",
        &ckt,
        2e-9,
        &opts,
        0x066d_1a0e_9594_0653,
    );
    let opts = SimOptions {
        method: be(),
        ..opts
    };
    check(
        "rc tree adaptive BE",
        &ckt,
        2e-9,
        &opts,
        0x3808_03ab_7ec3_ed69,
    );
}

#[test]
fn sliver_window_is_accepted() {
    let res = check(
        "sliver",
        &sliver_inverter(),
        2.5e-12,
        &sliver_opts(),
        0xab9d_f052_f746_6684,
    );
    assert_eq!(res.times(), &[0.0, 1.0e-12]);
}

#[test]
fn rescued_steps_fixed_and_adaptive() {
    let ckt = pathological_buffer();
    let bare = SimOptions {
        rescue: false,
        ..starved_opts()
    };
    assert!(
        transient(&ckt, 2e-9, &bare).is_err(),
        "bench needs the ladder"
    );
    check(
        "rescue fixed",
        &ckt,
        2e-9,
        &starved_opts(),
        0x1890_043a_6e1d_f8dc,
    );
    let opts = SimOptions {
        timestep: adaptive(200e-12),
        ..starved_opts()
    };
    check("rescue adaptive", &ckt, 2e-9, &opts, 0x0fa8_22b7_580e_5370);
}

fn sparse() -> SimOptions {
    SimOptions {
        solver: SolverKind::Sparse,
        ..SimOptions::default()
    }
}

#[test]
fn sensor_sparse_fixed_and_adaptive() {
    check(
        "sensor sparse fixed trap",
        &sensor(),
        SENSOR_STOP,
        &sparse(),
        0x315c_6e77_a663_4980,
    );
    let opts = SimOptions {
        timestep: adaptive(50e-12),
        ..sparse()
    };
    check(
        "sensor sparse adaptive trap",
        &sensor(),
        SENSOR_STOP,
        &opts,
        0xe989_4d5a_d95d_e4ca,
    );
}

#[test]
fn rc_tree_sparse_fixed_and_adaptive() {
    let ckt = rc_tree();
    check(
        "rc tree sparse fixed trap",
        &ckt,
        2e-9,
        &sparse(),
        0x6419_23ff_767f_684e,
    );
    let opts = SimOptions {
        timestep: adaptive(100e-12),
        ..sparse()
    };
    check(
        "rc tree sparse adaptive trap",
        &ckt,
        2e-9,
        &opts,
        0x1398_b1d4_8cdf_96aa,
    );
}
