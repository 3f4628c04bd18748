//! Testability of the error-indicator cell itself — the paper's reference
//! [9] is titled "Compact and *Highly Testable* Error Indicator", and the
//! scheme's reliability rests on the read-out circuitry being at least as
//! testable as the sensor. This campaign exercises the generic fault APIs
//! on a circuit other than the sensor.
//!
//! Unlike the sensor's clock inputs, the indicator's inputs *can* be
//! controlled independently, so the stimulus walks both complementary
//! polarities and both latch transitions, and IDDQ applies all four
//! static patterns.

use clocksense::checker::IndicatorCell;
use clocksense::core::Technology;
use clocksense::faults::{inject, stuck_at_universe, transistor_universe, Fault, Rails};
use clocksense::netlist::{instantiate, Circuit, PortMap, SourceWave, GROUND};
use clocksense::spice::{dc_operating_point, transient, SimOptions, SymbolicCache};
use clocksense::wave::{LogicThresholds, Waveform};

fn cell(tech: Technology) -> clocksense::checker::BuiltIndicatorCell {
    IndicatorCell::new(tech.nmos_params(3e-6), tech.pmos_params(6e-6))
        .build()
        .expect("valid cell")
}

fn instantiate_cell(
    bench: &mut Circuit,
    tech: Technology,
) -> Result<(), clocksense::netlist::NetlistError> {
    let built = cell(tech);
    let vdd = bench.node("vdd");
    let a = bench.node("a");
    let b = bench.node("b");
    let reset = bench.node("reset");
    instantiate(
        bench,
        built.circuit(),
        "u",
        PortMap::new()
            .map("vdd", vdd)
            .map("in1", a)
            .map("in2", b)
            .map("reset", reset),
    )?;
    Ok(())
}

/// Exercising bench: power-up reset; common-mode toggle; complementary
/// event of each polarity, each latched and then cleared.
fn dynamic_bench(tech: Technology) -> Circuit {
    let mut bench = Circuit::new();
    let vdd = bench.node("vdd");
    let a = bench.node("a");
    let b = bench.node("b");
    let reset = bench.node("reset");
    bench
        .add_vsource("vdd_supply", vdd, GROUND, SourceWave::Dc(tech.vdd))
        .expect("supply");
    // a: high, common-mode dip 1.5..2.5, event A low 3.5..4.5, high after.
    bench
        .add_vsource(
            "va",
            a,
            GROUND,
            SourceWave::Pwl(vec![
                (0.0, 5.0),
                (1.5e-9, 5.0),
                (1.7e-9, 0.0),
                (2.5e-9, 0.0),
                (2.7e-9, 5.0),
                (3.5e-9, 5.0),
                (3.7e-9, 0.0),
                (4.5e-9, 0.0),
                (4.7e-9, 5.0),
                (10.5e-9, 5.0),
            ]),
        )
        .expect("input a");
    // b: same common-mode dip, event B low 7.0..8.0.
    bench
        .add_vsource(
            "vb",
            b,
            GROUND,
            SourceWave::Pwl(vec![
                (0.0, 5.0),
                (1.5e-9, 5.0),
                (1.7e-9, 0.0),
                (2.5e-9, 0.0),
                (2.7e-9, 5.0),
                (7.0e-9, 5.0),
                (7.2e-9, 0.0),
                (8.0e-9, 0.0),
                (8.2e-9, 5.0),
                (10.5e-9, 5.0),
            ]),
        )
        .expect("input b");
    // reset: power-up, clear after event A, clear after event B.
    bench
        .add_vsource(
            "vreset",
            reset,
            GROUND,
            SourceWave::Pwl(vec![
                (0.0, 0.0),
                (0.1e-9, 5.0),
                (0.6e-9, 5.0),
                (0.8e-9, 0.0),
                (5.5e-9, 0.0),
                (5.7e-9, 5.0),
                (6.2e-9, 5.0),
                (6.4e-9, 0.0),
                (9.0e-9, 0.0),
                (9.2e-9, 5.0),
                (9.7e-9, 5.0),
                (9.9e-9, 0.0),
            ]),
        )
        .expect("reset");
    instantiate_cell(&mut bench, tech).expect("instantiates");
    bench
}

/// Static bench for IDDQ at one `(a, b)` pattern (reset low).
fn static_bench(tech: Technology, va: f64, vb: f64) -> Circuit {
    let mut bench = Circuit::new();
    let vdd = bench.node("vdd");
    let a = bench.node("a");
    let b = bench.node("b");
    let reset = bench.node("reset");
    bench
        .add_vsource("vdd_supply", vdd, GROUND, SourceWave::Dc(tech.vdd))
        .expect("supply");
    bench
        .add_vsource("va", a, GROUND, SourceWave::Dc(va))
        .expect("a");
    bench
        .add_vsource("vb", b, GROUND, SourceWave::Dc(vb))
        .expect("b");
    bench
        .add_vsource("vreset", reset, GROUND, SourceWave::Dc(0.0))
        .expect("reset");
    instantiate_cell(&mut bench, tech).expect("instantiates");
    bench
}

/// Probe times: after power-up, after the common-mode toggle, latched on
/// event A, cleared, latched on event B, cleared.
const PROBES: [f64; 6] = [1.2e-9, 3.2e-9, 5.2e-9, 6.8e-9, 8.7e-9, 10.4e-9];

fn signature(err: &Waveform, th: &LogicThresholds) -> Vec<bool> {
    PROBES
        .iter()
        .map(|&t| th.classify_at(err, t).is_high())
        .collect()
}

#[test]
fn indicator_cell_is_highly_testable() {
    let tech = Technology::cmos12();
    let reference_bench = dynamic_bench(tech);
    let opts = SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    };
    let th = LogicThresholds::single(tech.logic_threshold());
    let reference = transient(&reference_bench, 10.5e-9, &opts).expect("fault-free run");
    let ref_sig = signature(&reference.waveform_named("u.err").expect("err"), &th);
    // Sanity: clear, clear, latched, cleared, latched, cleared.
    assert_eq!(ref_sig, vec![false, false, true, false, true, false]);

    // Fault universe restricted to the cell's own nodes and devices.
    let mut faults: Vec<Fault> = stuck_at_universe(&reference_bench)
        .into_iter()
        .filter(|f| f.id().contains("(u."))
        .collect();
    faults.extend(
        transistor_universe(&reference_bench)
            .into_iter()
            .filter(|f| f.id().contains("(u.")),
    );
    assert!(faults.len() > 50, "universe has {} faults", faults.len());

    let rails = Rails::vdd_gnd("vdd");
    let patterns = [(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (5.0, 5.0)];
    let cache = SymbolicCache::new();
    let mut logic = 0;
    let mut iddq_only = 0;
    let mut undetected_ids = Vec::new();
    for fault in &faults {
        let faulted = inject(&reference_bench, fault, &rails).expect("injects");
        let caught = match transient(&faulted, 10.5e-9, &opts) {
            Ok(result) => signature(&result.waveform_named("u.err").expect("err"), &th) != ref_sig,
            Err(_) => true,
        };
        if caught {
            logic += 1;
            continue;
        }
        // IDDQ over all four patterns (inputs independently controllable).
        let mut iddq_hit = false;
        for &(va, vb) in &patterns {
            let sb = static_bench(tech, va, vb);
            let faulted = inject(&sb, fault, &rails).expect("injects");
            let op = dc_operating_point(&faulted, &opts, &cache);
            if let Ok(current) = op.and_then(|op| op.iddq("vdd_supply")) {
                if current.abs() > 50e-6 {
                    iddq_hit = true;
                    break;
                }
            }
        }
        if iddq_hit {
            iddq_only += 1;
        } else {
            undetected_ids.push(fault.id());
        }
    }
    let combined = (logic + iddq_only) as f64 / faults.len() as f64;
    let logic_cov = logic as f64 / faults.len() as f64;
    // "Highly testable": most faults fall out of normal operation, and
    // IDDQ mops up the conducting-fight remainder.
    assert!(
        logic_cov > 0.7,
        "logic coverage {:.0}% too low; escapes: {:?}",
        logic_cov * 100.0,
        undetected_ids
    );
    assert!(
        combined >= 0.9,
        "combined coverage {:.0}% too low; escapes: {:?}",
        combined * 100.0,
        undetected_ids
    );
}
