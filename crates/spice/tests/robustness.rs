//! Robustness tests for the MNA engine: pathological topologies,
//! bistable circuits, breakpoint-dense sources and accuracy checks.

use clocksense_netlist::{Circuit, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    dc_operating_point, transient, IntegrationMethod, SimOptions, SpiceError, SymbolicCache,
};

fn nmos() -> MosParams {
    MosParams {
        vth0: 0.7,
        kp: 60e-6,
        lambda: 0.02,
        w: 4e-6,
        l: 1.2e-6,
        cgs: 3e-15,
        cgd: 3e-15,
        cdb: 2e-15,
    }
}

fn pmos() -> MosParams {
    MosParams {
        vth0: -0.9,
        kp: 20e-6,
        w: 8e-6,
        ..nmos()
    }
}

/// Two ideal sources fighting on one node: the MNA system is inconsistent
/// and must be reported, not silently resolved.
#[test]
fn conflicting_ideal_sources_are_rejected() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_vsource("v1", a, GROUND, SourceWave::Dc(1.0))
        .unwrap();
    ckt.add_vsource("v2", a, GROUND, SourceWave::Dc(2.0))
        .unwrap();
    ckt.add_resistor("r", a, GROUND, 1e3).unwrap();
    let err = dc_operating_point(&ckt, &SimOptions::default(), &SymbolicCache::new()).unwrap_err();
    assert!(
        matches!(
            err,
            SpiceError::SingularMatrix | SpiceError::NonConvergence { .. }
        ),
        "got {err:?}"
    );
}

/// A CMOS latch (cross-coupled inverters) is bistable. Newton
/// continuation may land on the metastable midpoint — a legitimate
/// solution, and an exact equilibrium that a noiseless deterministic
/// integrator will sit on forever. The physical test of bistability is a
/// kick: a brief current pulse must set the latch, and the state must be
/// retained after the pulse ends.
#[test]
fn bistable_latch_sets_and_retains_state() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
        .unwrap();
    for (name, inp, out) in [("i1", a, b), ("i2", b, a)] {
        ckt.add_mosfet(
            &format!("{name}_p"),
            MosPolarity::Pmos,
            out,
            inp,
            vdd,
            pmos(),
        )
        .unwrap();
        ckt.add_mosfet(
            &format!("{name}_n"),
            MosPolarity::Nmos,
            out,
            inp,
            GROUND,
            nmos(),
        )
        .unwrap();
    }
    // The DC point exists (midpoint or railed, all are solutions).
    dc_operating_point(&ckt, &SimOptions::default(), &SymbolicCache::new()).unwrap();
    // Kick node a high with a 1 ns, 200 uA pulse, then release.
    ckt.add_isource(
        "kick",
        GROUND,
        a,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 200e-6,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 1e-9,
            period: f64::INFINITY,
        },
    )
    .unwrap();
    let res = transient(
        &ckt,
        20e-9,
        &SimOptions {
            tstep: 10e-12,
            ..SimOptions::default()
        },
    )
    .unwrap();
    let va = res.waveform(a).value_at(20e-9);
    let vb = res.waveform(b).value_at(20e-9);
    assert!(
        va > 4.0 && vb < 1.0,
        "latch must retain the kicked state: a = {va}, b = {vb}"
    );
}

/// A long periodic source exercises the breakpoint scheduler: every edge
/// must be resolved (the inverter output toggles every cycle).
#[test]
fn dense_breakpoints_are_all_hit() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
        .unwrap();
    ckt.add_vsource(
        "vin",
        inp,
        GROUND,
        SourceWave::Pulse {
            v1: 0.0,
            v2: 5.0,
            delay: 0.5e-9,
            rise: 0.05e-9,
            fall: 0.05e-9,
            width: 0.4e-9,
            period: 1e-9,
        },
    )
    .unwrap();
    ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos())
        .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos())
        .unwrap();
    ckt.add_capacitor("cl", out, GROUND, 20e-15).unwrap();
    let opts = SimOptions {
        tstep: 10e-12,
        ..SimOptions::default()
    };
    let res = transient(&ckt, 20e-9, &opts).unwrap();
    let w = res.waveform(out);
    // 20 cycles: 20 falling and 19-20 rising output edges.
    let falls = w.falling_crossings(2.5).len();
    assert!((19..=21).contains(&falls), "got {falls} output falls");
}

/// Trapezoidal and backward Euler agree on a smooth RC curve within the
/// methods' order-of-accuracy difference.
#[test]
fn integration_methods_agree_on_smooth_response() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource(
        "vin",
        inp,
        GROUND,
        SourceWave::step(0.0, 1.0, 0.1e-9, 0.1e-9),
    )
    .unwrap();
    ckt.add_resistor("r", inp, out, 10e3).unwrap();
    ckt.add_capacitor("c", out, GROUND, 100e-15).unwrap();
    let trap = transient(
        &ckt,
        5e-9,
        &SimOptions {
            tstep: 5e-12,
            method: IntegrationMethod::Trapezoidal,
            ..SimOptions::default()
        },
    )
    .unwrap();
    let be = transient(
        &ckt,
        5e-9,
        &SimOptions {
            tstep: 5e-12,
            method: IntegrationMethod::BackwardEuler,
            ..SimOptions::default()
        },
    )
    .unwrap();
    let diff = trap.waveform(out).max_abs_difference(&be.waveform(out));
    assert!(diff < 5e-3, "methods diverge by {diff}");
}

/// Very stiff circuits (fF capacitor against a mΩ-scale conductance
/// through an ideal source) still integrate stably.
#[test]
fn stiff_time_constants_remain_stable() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("v", a, GROUND, SourceWave::step(0.0, 1.0, 1e-9, 0.01e-9))
        .unwrap();
    ckt.add_resistor("rsmall", a, b, 0.1).unwrap(); // tau = 0.1 fs
    ckt.add_capacitor("c", b, GROUND, 1e-15).unwrap();
    let res = transient(
        &ckt,
        3e-9,
        &SimOptions {
            tstep: 20e-12,
            ..SimOptions::default()
        },
    )
    .unwrap();
    let w = res.waveform(b);
    // The output tracks the input exactly (tau << tstep) without ringing.
    assert!((w.value_at(3e-9) - 1.0).abs() < 1e-6);
    assert!(w.max_in(0.0, 3e-9) < 1.0 + 1e-6, "no overshoot allowed");
}

/// The engine caps step halving at `tstep_min` and reports
/// non-convergence rather than hanging.
#[test]
fn non_convergence_is_reported_not_hung() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_vsource("v", a, GROUND, SourceWave::step(0.0, 5.0, 1e-10, 1e-12))
        .unwrap();
    ckt.add_resistor("r", a, GROUND, 1e3).unwrap();
    // Pathological options: allow almost no Newton iterations.
    let opts = SimOptions {
        tstep: 1e-12,
        tstep_min: 0.5e-12,
        max_newton_iters: 2,
        ..SimOptions::default()
    };
    // Even if this easy circuit converges, the API contract is a clean
    // Result either way.
    let result = transient(&ckt, 1e-9, &opts);
    match result {
        Ok(res) => assert!(res.times().len() > 2),
        Err(SpiceError::NonConvergence { time, .. }) => assert!(time > 0.0),
        Err(other) => panic!("unexpected error {other:?}"),
    }
}
