//! Tests of the convergence rescue ladder, the failure diagnostics and
//! the cooperative deadline.
//!
//! The pathological bench is a two-stage (high combined gain) CMOS
//! buffer whose input edge crosses the switching threshold inside a
//! single minimum-size step: the internal nodes must swing rail to rail
//! in one Newton solve, which a tiny iteration budget cannot do from the
//! previous-point warm start. The local gmin ramp converges the same
//! timepoint by walking the solve in from a heavily damped system.

use std::time::Duration;

use clocksense_netlist::{Circuit, MosParams, MosPolarity, SourceWave, GROUND};
use clocksense_spice::{
    transient, Deadline, IntegrationMethod, SimOptions, SpiceError, TimestepControl,
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

/// Two cascaded inverters driven by a ramp that crosses the switching
/// threshold inside one minimum step, with options that starve Newton:
/// the second stage swings rail to rail in a single solve. Both supplies
/// start at 0 V so the t = 0 operating point is trivial — the failure
/// must come from a transient step, where the ladder can reach it.
fn pathological_bench() -> Circuit {
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
        ckt.add_mosfet(&format!("{name}_p"), MosPolarity::Pmos, o, i, vdd, pmos())
            .unwrap();
        ckt.add_mosfet(
            &format!("{name}_n"),
            MosPolarity::Nmos,
            o,
            i,
            GROUND,
            nmos(),
        )
        .unwrap();
    }
    ckt.add_capacitor("cm", mid, GROUND, 5e-15).unwrap();
    ckt.add_capacitor("cl", out, GROUND, 5e-15).unwrap();
    ckt
}

/// Options that starve the Newton loop while keeping the halving range
/// too short to smooth the transition: the threshold crossing must be
/// taken in one `tstep_min`-scale solve.
fn starved_opts() -> SimOptions {
    SimOptions {
        tstep: 100e-12,
        tstep_min: 40e-12,
        max_newton_iters: 3,
        ..SimOptions::default()
    }
}

#[test]
fn pathological_bench_fails_without_rescue_and_converges_with_it() {
    let ckt = pathological_bench();
    let no_rescue = SimOptions {
        rescue: false,
        ..starved_opts()
    };
    let err = transient(&ckt, 2e-9, &no_rescue).expect_err("bench must defeat the bare engine");
    assert!(
        matches!(err, SpiceError::NonConvergence { .. }),
        "got {err:?}"
    );
    // Diagnostics travel on the error even without the ladder.
    let diag = err
        .diagnostics()
        .expect("non-convergence carries diagnostics");
    assert!(diag.worst_node.is_some());
    assert!(!diag.delta_history.is_empty());
    assert!(diag.stages_tried.is_empty(), "no rescue ran");

    let rescued = transient(&ckt, 2e-9, &starved_opts())
        .expect("the rescue ladder must converge the same bench");
    let out = rescued.waveform_named("out").unwrap();
    // The buffer output ends high (input high -> mid low -> out high).
    assert!(out.value_at(2e-9) > 4.5);
}

#[test]
fn adaptive_marcher_is_also_rescued() {
    let ckt = pathological_bench();
    let adaptive = |rescue| SimOptions {
        timestep: TimestepControl::Adaptive {
            tstep_max: 200e-12,
            lte_tol: 1.0,
        },
        rescue,
        ..starved_opts()
    };
    assert!(
        transient(&ckt, 2e-9, &adaptive(false)).is_err(),
        "bench must defeat the bare adaptive engine"
    );
    let rescued = transient(&ckt, 2e-9, &adaptive(true)).expect("adaptive rescue must converge");
    assert!(rescued.waveform_named("out").unwrap().value_at(2e-9) > 4.5);
}

#[test]
fn ladder_failure_reports_stages_and_worst_node() {
    // A current source feeding a node whose only other element is a
    // cut-off transistor channel: the node is held by gmin alone, so its
    // solution sits at I/gmin = 1e6 V. Under the 2 V damping clamp no
    // iteration budget reaches that, and each descending gmin rung moves
    // the target another decade away — every ladder stage must fail.
    let mut ckt = Circuit::new();
    let float = ckt.node("float");
    ckt.add_isource(
        "iin",
        GROUND,
        float,
        SourceWave::step(0.0, 1e-6, 0.2e-9, 0.01e-12),
    )
    .unwrap();
    let no_caps = MosParams {
        cgs: 0.0,
        cgd: 0.0,
        cdb: 0.0,
        ..nmos()
    };
    ckt.add_mosfet("mn", MosPolarity::Nmos, float, GROUND, GROUND, no_caps)
        .unwrap();
    let opts = SimOptions {
        tstep: 100e-12,
        tstep_min: 40e-12,
        ..SimOptions::default()
    };
    let err = transient(&ckt, 1e-9, &opts).expect_err("nothing can converge this");
    let diag = err
        .diagnostics()
        .expect("ladder failure carries diagnostics");
    assert!(
        !diag.stages_tried.is_empty(),
        "the tried rescue stages must be recorded"
    );
    assert!(diag.worst_node.is_some());
    // The error display folds the diagnostics in for logs and reports.
    let text = err.to_string();
    assert!(text.contains("rescue"), "{text}");
}

#[test]
fn clean_circuit_goldens_are_bit_identical_with_rescue_enabled() {
    // An RC low-pass plus inverter: converges first try everywhere, so
    // the ladder must be a strict no-op — times and samples bitwise
    // equal with rescue on and off, in both marching modes.
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
        SourceWave::step(0.0, 5.0, 0.5e-9, 0.2e-9),
    )
    .unwrap();
    ckt.add_mosfet("mp", MosPolarity::Pmos, out, inp, vdd, pmos())
        .unwrap();
    ckt.add_mosfet("mn", MosPolarity::Nmos, out, inp, GROUND, nmos())
        .unwrap();
    ckt.add_capacitor("cl", out, GROUND, 20e-15).unwrap();

    for timestep in [
        TimestepControl::Fixed,
        TimestepControl::Adaptive {
            tstep_max: 200e-12,
            lte_tol: 1.0,
        },
    ] {
        let with = SimOptions {
            timestep,
            rescue: true,
            ..SimOptions::default()
        };
        let without = SimOptions {
            rescue: false,
            ..with.clone()
        };
        let a = transient(&ckt, 3e-9, &with).unwrap();
        let b = transient(&ckt, 3e-9, &without).unwrap();
        assert_eq!(a.times(), b.times(), "grids must be bitwise identical");
        for name in ["in", "mid", "out"] {
            let (wa, wb) = match (a.waveform_named(name), b.waveform_named(name)) {
                (Some(wa), Some(wb)) => (wa, wb),
                _ => continue,
            };
            assert_eq!(wa, wb, "node {name} must be bitwise identical");
        }
    }
}

#[test]
fn expired_deadline_aborts_the_transient() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))
        .unwrap();
    ckt.add_resistor("r", inp, out, 1e3).unwrap();
    ckt.add_capacitor("c", out, GROUND, 1e-12).unwrap();
    let opts = SimOptions {
        deadline: Some(Deadline::after(Duration::ZERO)),
        ..SimOptions::default()
    };
    let err = transient(&ckt, 5e-9, &opts).unwrap_err();
    assert!(
        matches!(err, SpiceError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
}

#[test]
fn cancelled_deadline_aborts_mid_run_methods_too() {
    // BackwardEuler + adaptive combination, cancelled before the run:
    // both pacings of the march must poll the token.
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))
        .unwrap();
    ckt.add_resistor("r", inp, out, 1e3).unwrap();
    ckt.add_capacitor("c", out, GROUND, 1e-12).unwrap();
    let token = Deadline::manual();
    token.cancel();
    let opts = SimOptions {
        deadline: Some(token),
        method: IntegrationMethod::BackwardEuler,
        timestep: TimestepControl::Adaptive {
            tstep_max: 100e-12,
            lte_tol: 1.0,
        },
        ..SimOptions::default()
    };
    let err = transient(&ckt, 5e-9, &opts).unwrap_err();
    assert!(matches!(err, SpiceError::DeadlineExceeded { .. }));
}

#[test]
fn unexpired_deadline_changes_nothing() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))
        .unwrap();
    ckt.add_resistor("r", inp, out, 1e3).unwrap();
    ckt.add_capacitor("c", out, GROUND, 1e-12).unwrap();
    let with = SimOptions {
        deadline: Some(Deadline::after(Duration::from_secs(3600))),
        ..SimOptions::default()
    };
    let without = SimOptions::default();
    let a = transient(&ckt, 2e-9, &with).unwrap();
    let b = transient(&ckt, 2e-9, &without).unwrap();
    assert_eq!(a.times(), b.times());
    assert_eq!(a.waveform_named("out"), b.waveform_named("out"));
}
