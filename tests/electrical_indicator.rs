//! Electrical co-simulation of the sensing circuit and the
//! transistor-level indicator cell: the complete analog detection chain
//! of the paper's Fig. 6, in one MNA system.

use clocksense::checker::IndicatorCell;
use clocksense::core::{ClockPair, SensorBuilder, Technology};
use clocksense::netlist::{instantiate, Circuit, PortMap, SourceWave, GROUND};
use clocksense::spice::{transient, SimOptions};

fn indicator_cell(tech: Technology) -> clocksense::checker::BuiltIndicatorCell {
    IndicatorCell::new(tech.nmos_params(3e-6), tech.pmos_params(6e-6))
        .build()
        .expect("valid cell")
}

fn opts() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    }
}

/// Drives the bare indicator cell with explicit input waveforms and
/// returns the err output waveform.
fn drive_cell(
    tech: Technology,
    w1: SourceWave,
    w2: SourceWave,
    t_stop: f64,
) -> clocksense::wave::Waveform {
    let cell = indicator_cell(tech);
    let mut bench = Circuit::new();
    let vdd = bench.node("vdd");
    let a = bench.node("a");
    let b = bench.node("b");
    let reset = bench.node("reset");
    bench
        .add_vsource("vdd", vdd, GROUND, SourceWave::Dc(tech.vdd))
        .expect("supply");
    bench.add_vsource("va", a, GROUND, w1).expect("input a");
    bench.add_vsource("vb", b, GROUND, w2).expect("input b");
    // Power-up reset: an SR latch wakes in an arbitrary state, so real
    // usage clears it before monitoring starts.
    bench
        .add_vsource(
            "vreset",
            reset,
            GROUND,
            SourceWave::Pulse {
                v1: 0.0,
                v2: 5.0,
                delay: 0.1e-9,
                rise: 0.1e-9,
                fall: 0.1e-9,
                width: 0.5e-9,
                period: f64::INFINITY,
            },
        )
        .expect("reset");
    instantiate(
        &mut bench,
        cell.circuit(),
        "u_ind",
        PortMap::new()
            .map("vdd", vdd)
            .map("in1", a)
            .map("in2", b)
            .map("reset", reset),
    )
    .expect("instantiates");
    let result = transient(&bench, t_stop, &opts()).expect("simulates");
    result.waveform_named("u_ind.err").expect("err exists")
}

#[test]
fn cell_latches_a_complementary_pulse_and_holds() {
    let tech = Technology::cmos12();
    // Inputs equal (high) except a 1 ns window where they are complementary.
    let w1 = SourceWave::Dc(5.0);
    let w2 = SourceWave::Pulse {
        v1: 5.0,
        v2: 0.0,
        delay: 2e-9,
        rise: 0.2e-9,
        fall: 0.2e-9,
        width: 1e-9,
        period: f64::INFINITY,
    };
    let err = drive_cell(tech, w1, w2, 8e-9);
    assert!(err.value_at(1.5e-9) < 0.5, "clean before the event");
    assert!(
        err.value_at(4e-9) > 4.0,
        "latched during the event: {}",
        err.value_at(4e-9)
    );
    assert!(
        err.value_at(7.5e-9) > 4.0,
        "held after the inputs equalise: {}",
        err.value_at(7.5e-9)
    );
}

#[test]
fn cell_ignores_common_mode_activity() {
    let tech = Technology::cmos12();
    // Both inputs toggle together: never complementary.
    let pulse = SourceWave::Pulse {
        v1: 0.0,
        v2: 5.0,
        delay: 1e-9,
        rise: 0.2e-9,
        fall: 0.2e-9,
        width: 1.5e-9,
        period: 4e-9,
    };
    let err = drive_cell(tech, pulse.clone(), pulse, 10e-9);
    assert!(
        err.max_in(0.5e-9, 10e-9) < 1.0,
        "common-mode switching must not set the latch: {}",
        err.max_in(0.5e-9, 10e-9)
    );
}

#[test]
fn reset_clears_the_latch() {
    let tech = Technology::cmos12();
    let cell = indicator_cell(tech);
    let mut bench = Circuit::new();
    let vdd = bench.node("vdd");
    let a = bench.node("a");
    let b = bench.node("b");
    let reset = bench.node("reset");
    bench
        .add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
        .unwrap();
    bench
        .add_vsource("va", a, GROUND, SourceWave::Dc(5.0))
        .unwrap();
    // A complementary window 1..2 ns sets the latch; reset pulses at 5 ns.
    bench
        .add_vsource(
            "vb",
            b,
            GROUND,
            SourceWave::Pwl(vec![
                (0.0, 5.0),
                (1e-9, 5.0),
                (1.2e-9, 0.0),
                (2e-9, 0.0),
                (2.2e-9, 5.0),
            ]),
        )
        .unwrap();
    bench
        .add_vsource(
            "vreset",
            reset,
            GROUND,
            SourceWave::Pulse {
                v1: 0.0,
                v2: 5.0,
                delay: 5e-9,
                rise: 0.2e-9,
                fall: 0.2e-9,
                width: 1e-9,
                period: f64::INFINITY,
            },
        )
        .unwrap();
    instantiate(
        &mut bench,
        cell.circuit(),
        "u_ind",
        PortMap::new()
            .map("vdd", vdd)
            .map("in1", a)
            .map("in2", b)
            .map("reset", reset),
    )
    .unwrap();
    let result = transient(&bench, 8e-9, &opts()).unwrap();
    let err = result.waveform_named("u_ind.err").unwrap();
    assert!(err.value_at(4e-9) > 4.0, "latched: {}", err.value_at(4e-9));
    assert!(
        err.value_at(7.5e-9) < 0.5,
        "cleared: {}",
        err.value_at(7.5e-9)
    );
}

/// The full analog chain: sensor and indicator in one circuit. A skewed
/// clock pair sets the electrical latch; a clean pair does not.
#[test]
fn sensor_and_indicator_co_simulate() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(80e-15)
        .build()
        .expect("valid sensor");
    let cell = indicator_cell(tech);

    for (skew, expect_latch) in [(0.4e-9, true), (0.0, false)] {
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9).with_skew(skew);
        let mut bench = sensor.testbench(&clocks).expect("bench builds");
        let vdd = bench.node("vdd");
        let y1 = bench.node("y1");
        let y2 = bench.node("y2");
        let reset = bench.node("ind_reset");
        // Power-up reset pulse before the clock edges arrive.
        bench
            .add_vsource(
                "vreset",
                reset,
                GROUND,
                SourceWave::Pulse {
                    v1: 0.0,
                    v2: 5.0,
                    delay: 0.1e-9,
                    rise: 0.1e-9,
                    fall: 0.1e-9,
                    width: 0.5e-9,
                    period: f64::INFINITY,
                },
            )
            .expect("reset source");
        instantiate(
            &mut bench,
            cell.circuit(),
            "u_ind",
            PortMap::new()
                .map("vdd", vdd)
                .map("in1", y1)
                .map("in2", y2)
                .map("reset", reset),
        )
        .expect("instantiates");
        let result = transient(&bench, clocks.sim_stop_time(), &opts()).expect("simulates");
        let err = result.waveform_named("u_ind.err").expect("err exists");
        let level = err.value_at(clocks.sim_stop_time());
        if expect_latch {
            assert!(level > 4.0, "skewed pair must latch, err = {level}");
        } else {
            assert!(level < 0.5, "clean pair must stay clear, err = {level}");
        }
    }
}

/// The electrical two-rail checker cell implements the morphic truth
/// table: valid codeword inputs give valid outputs; any invalid input
/// yields an invalid output.
#[test]
fn electrical_trc_cell_truth_table() {
    use clocksense::checker::trc_cell_circuit;
    use clocksense::spice::{dc_operating_point, SymbolicCache};

    let tech = Technology::cmos12();
    let cell =
        trc_cell_circuit(tech.nmos_params(3e-6), tech.pmos_params(6e-6)).expect("valid cell");
    let cases = [
        // (x0, x1, y0, y1) -> expected (z0, z1) validity and values.
        ((0.0, 5.0), (0.0, 5.0), Some((true, false))),
        ((0.0, 5.0), (5.0, 0.0), Some((false, true))),
        ((5.0, 0.0), (0.0, 5.0), Some((false, true))),
        ((5.0, 0.0), (5.0, 0.0), Some((true, false))),
        // Invalid inputs propagate invalidity (z0 == z1).
        ((0.0, 0.0), (0.0, 5.0), None),
        ((5.0, 5.0), (5.0, 0.0), None),
    ];
    for ((x0, x1), (y0, y1), expect) in cases {
        let mut bench = Circuit::new();
        let vdd = bench.node("vdd");
        bench
            .add_vsource("vdd", vdd, GROUND, SourceWave::Dc(5.0))
            .unwrap();
        for (name, value) in [("x0", x0), ("x1", x1), ("y0", y0), ("y1", y1)] {
            let node = bench.node(name);
            bench
                .add_vsource(&format!("v{name}"), node, GROUND, SourceWave::Dc(value))
                .unwrap();
        }
        let mut ports = PortMap::new().map("vdd", vdd);
        for name in ["x0", "x1", "y0", "y1"] {
            let node = bench.node(name);
            ports = ports.map(name, node);
        }
        instantiate(&mut bench, &cell, "u", ports).unwrap();
        let op = dc_operating_point(&bench, &opts(), &SymbolicCache::new()).expect("op converges");
        let z0 = op.voltage(bench.find_node("u.z0").unwrap()) > 2.5;
        let z1 = op.voltage(bench.find_node("u.z1").unwrap()) > 2.5;
        match expect {
            Some((e0, e1)) => {
                assert_eq!((z0, z1), (e0, e1), "inputs ({x0},{x1},{y0},{y1})");
            }
            None => {
                assert_eq!(z0, z1, "invalid input must give invalid (equal) outputs");
            }
        }
    }
}
