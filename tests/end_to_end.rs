//! End-to-end integration: clock tree → skewed waveforms → sensing
//! circuit → error indicator → two-rail checker → scan path.

use clocksense::checker::{ErrorIndicator, OnlineMonitor, ScanPath};
use clocksense::clocktree::{HTree, SkewAnalysis, TreeFault, WireParasitics};
use clocksense::core::{ClockPair, SensorBuilder, Technology};
use clocksense::faults::{inject, Fault, Rails, StuckLevel};
use clocksense::netlist::SourceWave;
use clocksense::spice::{dc_operating_point, transient, SimOptions, SymbolicCache};
use clocksense::wave::Waveform;

fn to_pwl(w: &Waveform) -> SourceWave {
    let r = w.resample(150);
    SourceWave::Pwl(
        r.times()
            .iter()
            .copied()
            .zip(r.values().iter().copied())
            .collect(),
    )
}

fn opts() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    }
}

/// A tree-level resistive open produces a skew the full sensing stack
/// catches; the healthy couple stays quiet.
#[test]
fn tree_fault_reaches_the_checker() {
    let tech = Technology::cmos12();
    let htree = HTree::new(2, 3e-3, WireParasitics::metal2());
    let mut tree = htree.to_rc_tree(50e-15);
    let sinks = htree.sink_nodes().to_vec();

    TreeFault::ResistiveOpen {
        node: sinks[0],
        extra_ohms: 10e3,
    }
    .apply(&mut tree)
    .expect("valid fault");
    let skew = SkewAnalysis::elmore(&tree, &sinks, 150.0).skew_between(1, 0);
    assert!(
        skew > 0.15e-9,
        "the open must produce real skew, got {skew}"
    );

    let clock = SourceWave::Pulse {
        v1: 0.0,
        v2: tech.vdd,
        delay: 1e-9,
        rise: 0.2e-9,
        fall: 0.2e-9,
        width: 2.5e-9,
        period: f64::INFINITY,
    };
    let waves = tree
        .transient(&clock, 150.0, 7e-9, 2e-12, &[])
        .expect("tree solve");

    let sensor = SensorBuilder::new(tech)
        .load_capacitance(80e-15)
        .build()
        .expect("valid sensor");
    let (y1, y2) = sensor.outputs();
    let mut pairs = Vec::new();
    for (i, j) in [(0usize, 1usize), (2, 3)] {
        let bench = sensor
            .testbench_with_waves(
                to_pwl(&waves.waveform(sinks[i])),
                to_pwl(&waves.waveform(sinks[j])),
            )
            .expect("bench builds");
        let result = transient(&bench, 7e-9, &opts()).expect("sensor sim");
        pairs.push((result.waveform(y1), result.waveform(y2)));
    }

    let mut monitor = OnlineMonitor::new(2, tech.logic_threshold(), 0.5e-9);
    let report = monitor.run(&pairs).expect("pair count matches");
    assert!(report.any_error());
    assert!(report.indications[0].is_some(), "faulted couple flags");
    assert!(
        report.indications[1].is_none(),
        "healthy couple stays quiet"
    );

    // Off-line read-out.
    let mut scan = ScanPath::new(2);
    scan.load(&[
        report.indications[0].is_some(),
        report.indications[1].is_some(),
    ])
    .expect("lengths match");
    assert_eq!(scan.shift_out_all(), vec![true, false]);
}

/// A fault inside the sensor itself reveals itself under fault-free
/// clocks (self-testing), through the same indicator the skews use.
#[test]
fn internal_fault_is_self_testing() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("valid sensor");
    let clocks = ClockPair::periodic(tech.vdd, 0.2e-9, 6e-9);
    let bench = sensor.testbench(&clocks).expect("bench builds");
    let faulted = inject(
        &bench,
        &Fault::NodeStuckAt {
            node: "y1".into(),
            level: StuckLevel::Zero,
        },
        &Rails::vdd_gnd("vdd"),
    )
    .expect("fault applies");
    let result = transient(&faulted, 13e-9, &opts()).expect("sim converges");
    let (y1, y2) = sensor.outputs();
    let mut indicator = ErrorIndicator::new(tech.logic_threshold(), 0.5e-9);
    indicator.observe_waveforms(&result.waveform(y1), &result.waveform(y2));
    assert!(
        indicator.latched().is_some(),
        "stuck output must be flagged"
    );
}

/// IDDQ through the whole stack: a bridging fault invisible to the
/// indicator draws orders of magnitude more quiescent current.
#[test]
fn iddq_separates_faulty_from_healthy() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("valid sensor");
    let static_bench = sensor
        .testbench_with_waves(SourceWave::Dc(0.0), SourceWave::Dc(0.0))
        .expect("bench builds");
    let cache = SymbolicCache::new();
    let iddq = |bench| {
        dc_operating_point(bench, &opts(), &cache)
            .expect("op converges")
            .iddq("vdd_supply")
            .expect("supply exists")
    };
    let healthy = iddq(&static_bench);

    let faulted = inject(
        &static_bench,
        &Fault::Bridge {
            a: "y1".into(),
            b: "0".into(),
            ohms: 100.0,
        },
        &Rails::vdd_gnd("vdd"),
    )
    .expect("fault applies");
    let sick = iddq(&faulted);
    assert!(
        sick > 1_000.0 * healthy.abs().max(1e-12),
        "bridge current {sick} must dwarf leakage {healthy}"
    );
}

/// The Monte-Carlo layer and the statistics layer compose: a seeded run
/// reproduces, and its probabilities land in [0, 1] with sane intervals.
#[test]
fn montecarlo_statistics_compose() {
    use clocksense::montecarlo::{loose_false_probabilities, run_scatter, McConfig};
    let tech = Technology::cmos12();
    let builder = SensorBuilder::new(tech).load_capacitance(160e-15);
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);
    let cfg = McConfig {
        samples: 12,
        sim: SimOptions {
            tstep: 4e-12,
            ..SimOptions::default()
        },
        ..McConfig::default()
    };
    let taus = [0.02e-9, 0.11e-9, 0.3e-9];
    let scatter = run_scatter(&builder, &clocks, &taus, &cfg).expect("mc runs");
    assert_eq!(scatter.len(), 12);
    let (p_loose, p_false) = loose_false_probabilities(&scatter, 0.11e-9);
    for e in [p_loose, p_false] {
        assert!(e.p >= 0.0 && e.p <= 1.0);
        assert!(e.lo <= e.p + 1e-12 && e.p <= e.hi + 1e-12);
    }
}
