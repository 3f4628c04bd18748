//! Scenario: why clock faults need their own testing scheme — the paper's
//! central motivating argument, end to end.
//!
//! "A clock distribution fault resulting in one or more flip-flops'
//! delayed sampling cannot be immediately assimilated to delay faults
//! inside the combinational part of the circuit, because a delayed
//! flip-flop's response may be masked by its delayed sampling."
//!
//! We build a launch–capture path clocked from two branches of an H-tree,
//! skew the capture branch with a resistive open, and show:
//!   1. a combinational delay fault that a delay test would catch on the
//!      healthy clock is *masked* by the skewed capture clock;
//!   2. the same skew silently destroys the short-path hold margin;
//!   3. the skew sensor across the two branches flags the root cause and
//!      names the late branch.
//!
//! Run with: `cargo run --release --example delay_fault_masking`

use clocksense::checker::{ErrorIndicator, FlipFlop, Indication, TimingPath};
use clocksense::clocktree::{HTree, TreeFault, WireParasitics};
use clocksense::core::{SensorBuilder, Technology};
use clocksense::netlist::SourceWave;
use clocksense::spice::{transient, SimOptions};
use clocksense::wave::Waveform;

fn to_pwl(w: &Waveform) -> SourceWave {
    let r = w.resample(160);
    SourceWave::Pwl(
        r.times()
            .iter()
            .copied()
            .zip(r.values().iter().copied())
            .collect(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos12();

    // Clock distribution: launch FF on sink 0, capture FF on sink 1.
    let htree = HTree::new(2, 3e-3, WireParasitics::metal2());
    let mut tree = htree.to_rc_tree(50e-15);
    let sinks = htree.sink_nodes().to_vec();
    // The clock fault: a resistive open retarding the capture branch.
    TreeFault::ResistiveOpen {
        node: sinks[1],
        extra_ohms: 10e3,
    }
    .apply(&mut tree)?;

    let clock = SourceWave::Pulse {
        v1: 0.0,
        v2: tech.vdd,
        delay: 1e-9,
        rise: 0.2e-9,
        fall: 0.2e-9,
        width: 2.4e-9,
        period: 5e-9,
    };
    let waves = tree.transient(&clock, 150.0, 12e-9, 2e-12, &[])?;
    let launch_clk = waves.waveform(sinks[0]);
    let capture_clk = waves.waveform(sinks[1]);
    let v_mid = tech.vdd / 2.0;
    let launch_edges = launch_clk.rising_crossings(v_mid);
    let capture_edges = capture_clk.rising_crossings(v_mid);
    let skew = capture_edges[0] - launch_edges[0];
    println!(
        "capture clock arrives {:.0} ps late (the clock fault)",
        skew * 1e12
    );

    // The timing path under test: 3.5 ns long path, 0.2 ns short path,
    // 5 ns cycle.
    let path = TimingPath {
        launch: FlipFlop::cmos12(),
        capture: FlipFlop::cmos12(),
        comb_max: 3.5e-9,
        comb_min: 0.2e-9,
    };
    let t_launch = launch_edges[0];
    let t_capture_next = capture_edges[1]; // next-cycle capture
    let t_capture_same = capture_edges[0]; // same-cycle (hold check)
    let t_capture_healthy = launch_edges[1]; // where the edge should be

    // 1. A 1 ns combinational delay fault.
    let extra = 1.0e-9;
    let faulty = TimingPath {
        comb_max: path.comb_max + extra,
        ..path
    };
    let visible_on_healthy = faulty.setup_slack(t_launch, t_capture_healthy) < 0.0;
    let visible_on_skewed = faulty.setup_slack(t_launch, t_capture_next) < 0.0;
    println!(
        "1 ns combinational delay fault: delay test {} on the healthy clock, \
         but {} under the skewed capture clock",
        if visible_on_healthy {
            "FAILS (fault caught)"
        } else {
            "passes"
        },
        if visible_on_skewed {
            "fails"
        } else {
            "PASSES (fault masked)"
        },
    );
    assert!(visible_on_healthy && !visible_on_skewed);

    // 2. The hold hazard the skew creates on the short path.
    let hold_healthy = path.hold_slack(t_launch, t_launch);
    let hold_skewed = path.hold_slack(t_launch, t_capture_same);
    println!(
        "short-path hold slack: {:.0} ps healthy -> {:.0} ps under skew{}",
        hold_healthy * 1e12,
        hold_skewed * 1e12,
        if hold_skewed < 0.0 {
            "  (VIOLATED)"
        } else {
            ""
        }
    );
    assert!(hold_healthy > 0.0 && hold_skewed < 0.0);

    // 3. The sensing circuit across the two branches flags the root cause.
    let sensor = SensorBuilder::new(tech).load_capacitance(80e-15).build()?;
    let bench = sensor.testbench_with_waves(to_pwl(&launch_clk), to_pwl(&capture_clk))?;
    let result = transient(
        &bench,
        10e-9,
        &SimOptions {
            tstep: 2e-12,
            ..SimOptions::default()
        },
    )?;
    let (y1, y2) = sensor.outputs();
    let mut indicator = ErrorIndicator::new(tech.logic_threshold(), 0.5e-9);
    indicator.observe_waveforms(&result.waveform(y1), &result.waveform(y2));
    println!(
        "skew sensor across the two branches: {}",
        match indicator.latched() {
            Some(_) => "ERROR INDICATION LATCHED - the clock fault is caught directly",
            None => "quiet",
        }
    );
    // (y1, y2) = (0, 1) flags the second monitored phase, the capture
    // branch, as the late one.
    assert_eq!(indicator.latched(), Some(Indication::ZeroOne));
    println!("\nconclusion: logic delay tests miss what the sensing scheme catches");
    Ok(())
}
