//! Adaptive (LTE-controlled) timestep vs the fixed golden grid, at the
//! level the paper's conclusions live: skew verdicts, the τ_min
//! sensitivity bound and fault-campaign detection outcomes must not
//! depend on how the transient grid was chosen — while the adaptive grid
//! must be at least 3x coarser on the sensor workload and on an H-tree
//! RC clock net.

use clocksense::core::{find_tau_min, ClockPair, SensorBuilder, Technology};
use clocksense::faults::{run_campaign, CampaignConfig, Fault, StuckLevel};
use clocksense::netlist::{Circuit, SourceWave, GROUND};
use clocksense::spice::{transient, SimOptions, TimestepControl};

fn fixed_opts() -> SimOptions {
    SimOptions {
        tstep: 2e-12,
        ..SimOptions::default()
    }
}

fn adaptive_opts() -> SimOptions {
    SimOptions {
        timestep: TimestepControl::Adaptive {
            tstep_max: 100e-12,
            lte_tol: 1.0,
        },
        ..fixed_opts()
    }
}

#[test]
fn sensor_verdicts_and_vmin_agree_across_grids() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");

    for &skew in &[0.0, 0.15e-9, 0.4e-9, -0.4e-9] {
        let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9).with_skew(skew);
        let fixed = sensor.simulate(&clocks, &fixed_opts()).expect("fixed run");
        let adaptive = sensor
            .simulate(&clocks, &adaptive_opts())
            .expect("adaptive run");

        assert_eq!(
            fixed.verdict, adaptive.verdict,
            "verdict changed with the grid at skew {skew:e}"
        );
        assert!(
            (fixed.vmin_y1 - adaptive.vmin_y1).abs() < 0.1,
            "vmin_y1 drift at skew {skew:e}: {} vs {}",
            fixed.vmin_y1,
            adaptive.vmin_y1
        );
        assert!(
            (fixed.vmin_y2 - adaptive.vmin_y2).abs() < 0.1,
            "vmin_y2 drift at skew {skew:e}: {} vs {}",
            fixed.vmin_y2,
            adaptive.vmin_y2
        );
        assert!(
            fixed.y1.len() >= 3 * adaptive.y1.len(),
            "adaptive must be >= 3x coarser at skew {skew:e}: {} vs {}",
            fixed.y1.len(),
            adaptive.y1.len()
        );
    }
}

#[test]
fn tau_min_sensitivity_agrees_within_tolerance() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");
    let clocks = ClockPair::single_shot(tech.vdd, 0.2e-9);

    let tol = 2e-12;
    let fixed = find_tau_min(&sensor, &clocks, 1e-9, tol, &fixed_opts())
        .expect("fixed tau search")
        .expect("sensor is sensitive to some skew");
    let adaptive = find_tau_min(&sensor, &clocks, 1e-9, tol, &adaptive_opts())
        .expect("adaptive tau search")
        .expect("sensor is sensitive to some skew");

    // Both searches bisect to `tol`; the grids may disagree by a few
    // more picoseconds of verdict-boundary placement.
    assert!(
        (fixed - adaptive).abs() <= 5e-12,
        "tau_min moved with the grid: fixed {fixed:e} vs adaptive {adaptive:e}"
    );
}

#[test]
fn campaign_detection_outcomes_agree_across_grids() {
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("sensor builds");
    let faults = vec![
        Fault::NodeStuckAt {
            node: "y1".into(),
            level: StuckLevel::Zero,
        },
        Fault::NodeStuckAt {
            node: "y2".into(),
            level: StuckLevel::One,
        },
        Fault::Bridge {
            a: "y1".into(),
            b: "y2".into(),
            ohms: 100.0,
        },
        Fault::StuckOpen {
            device: "m_a".into(),
        },
    ];

    let run = |sim: SimOptions| {
        let mut cfg = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
        cfg.sim = sim;
        cfg.threads = 1;
        run_campaign(&sensor, &faults, &cfg).expect("campaign runs")
    };
    let fixed = run(fixed_opts());
    let adaptive = run(adaptive_opts());

    for (f, a) in fixed.records().iter().zip(adaptive.records()) {
        assert_eq!(f.fault, a.fault);
        assert_eq!(
            f.outcome, a.outcome,
            "detection outcome changed with the grid for {:?}",
            f.fault
        );
        assert_eq!(
            f.masks_skew, a.masks_skew,
            "skew-masking changed with the grid for {:?}",
            f.fault
        );
    }
}

/// A 64-node H-tree clock net: a complete binary RC tree in heap layout
/// behind a 50 Ω driver, segment resistance halving per level, 5 fF per
/// internal node and 20 fF per leaf, driven by one clock edge. Most of
/// the 0.5 ns window is the quiescent tail the adaptive grid strides
/// across, so the leaf must track the fixed grid on >= 3x fewer steps.
#[test]
fn htree_leaf_agrees_across_grids_on_3x_fewer_steps() {
    const N: usize = 64;
    let t_stop = 0.5e-9;
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let clock = SourceWave::Pulse {
        v1: 0.0,
        v2: 1.0,
        delay: 10e-12,
        rise: 50e-12,
        fall: 50e-12,
        width: 400e-12,
        period: f64::INFINITY,
    };
    ckt.add_vsource("vclk", src, GROUND, clock).unwrap();
    let nodes: Vec<_> = (0..N).map(|i| ckt.node(&format!("n{i}"))).collect();
    ckt.add_resistor("rdrv", src, nodes[0], 50.0).unwrap();
    for (i, &node) in nodes.iter().enumerate() {
        let depth = (usize::BITS - (i + 1).leading_zeros()) as i32;
        for child in [2 * i + 1, 2 * i + 2].into_iter().filter(|&c| c < N) {
            let ohms = 200.0 / f64::powi(2.0, depth - 1);
            ckt.add_resistor(&format!("r{i}_{child}"), node, nodes[child], ohms)
                .unwrap();
        }
        let farads = if 2 * i + 1 >= N { 20e-15 } else { 5e-15 };
        ckt.add_capacitor(&format!("c{i}"), node, GROUND, farads)
            .unwrap();
    }
    let leaf = nodes[N - 1];

    let fixed = transient(&ckt, t_stop, &fixed_opts()).expect("fixed run");
    let adaptive = transient(&ckt, t_stop, &adaptive_opts()).expect("adaptive run");
    let (f, a) = (fixed.waveform(leaf), adaptive.waveform(leaf));
    let dv = (0..=200)
        .map(|k| {
            let t = t_stop * k as f64 / 200.0;
            (f.value_at(t) - a.value_at(t)).abs()
        })
        .fold(0.0f64, f64::max);
    assert!(dv < 0.05, "leaf diverged by {dv} V");
    let (f_steps, a_steps) = (fixed.times().len(), adaptive.times().len());
    assert!(
        f_steps >= 3 * a_steps,
        "adaptive must take >= 3x fewer steps: {f_steps} vs {a_steps}"
    );
}
