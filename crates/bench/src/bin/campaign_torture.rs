//! Torture run of the Section-3 fault campaign under a starved simulator
//! budget: the Newton loop gets a fraction of its default iteration
//! allowance, so the faulted benches that are hard to converge (stuck-open
//! continuation ladders, bridges that fight the supplies) fail outright
//! unless the convergence rescue ladder and the campaign's relaxed retry
//! pass recover them.
//!
//! The binary runs the same campaign twice — rescue and retry disabled,
//! then enabled — and compares completion rates (faults that received a
//! verdict rather than an `Inconclusive` record). `--report <path>`
//! archives the telemetry snapshot, including the `rescue.*` ladder
//! counters and the `campaign.retry_*` / `campaign.quarantined` retry
//! accounting, as `results/campaign_torture.json`. At the end of the run
//! the bench asserts that retry accounting closes: every scheduled retry
//! was either recovered or quarantined.

use clocksense_bench::report::counter;
use clocksense_bench::{fast_mode, print_header, Table};
use clocksense_core::{ClockPair, SensorBuilder, Technology};
use clocksense_faults::{run_campaign, sensor_fault_universe, CampaignConfig, DetectionOutcome};
use clocksense_spice::SimOptions;

fn main() {
    let bench = clocksense_bench::report::start_scoped("campaign_torture", "torture");
    // The end-of-run assertions read the `campaign.*` counters, so this
    // bench records telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("valid sensor");
    let mut faults = sensor_fault_universe(&sensor, 100.0);
    if fast_mode() {
        faults.truncate(12);
    }

    // The torture screw: three Newton iterations per solve — a 2 V
    // damping-clamp walk across a 5 V swing alone needs more. Quiescent
    // benches still converge; every fault variant that makes a node
    // swing hard in one step does not — without help.
    let base = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
    let starved = SimOptions {
        max_newton_iters: 3,
        ..base.sim.clone()
    };

    print_header(&format!(
        "Torture campaign: {} faults at a 3-iteration Newton budget, rescue off vs on",
        faults.len()
    ));
    let torture = &bench.tele;
    torture.counter("faults").add(faults.len() as u64);

    let mut table = Table::new(&[
        "rescue",
        "classified",
        "inconclusive",
        "retried",
        "quarantined",
        "completion",
    ]);
    let mut rates = Vec::new();
    for (label, rescue) in [("off", false), ("on", true)] {
        let cfg = CampaignConfig {
            sim: SimOptions {
                rescue,
                ..starved.clone()
            },
            // The retry/quarantine machinery is part of the rescue story:
            // both sides of the comparison switch together.
            retry: rescue,
            ..base.clone()
        };
        let result = run_campaign(&sensor, &faults, &cfg).expect("campaign runs");
        assert_eq!(
            result.records().len(),
            faults.len(),
            "every fault must produce a record"
        );
        let inconclusive = result
            .records()
            .iter()
            .filter(|r| r.outcome == DetectionOutcome::Inconclusive)
            .count();
        let classified = faults.len() - inconclusive;
        let retried = result.records().iter().filter(|r| r.retried).count();
        let quarantined = result.quarantined().count();
        let rate = classified as f64 / faults.len() as f64;
        rates.push((label, rate));
        torture
            .counter(&format!("classified_rescue_{label}"))
            .add(classified as u64);
        torture
            .counter(&format!("inconclusive_rescue_{label}"))
            .add(inconclusive as u64);
        table.row(&[
            label.into(),
            format!("{classified}"),
            format!("{inconclusive}"),
            format!("{retried}"),
            format!("{quarantined}"),
            format!("{:.0} %", 100.0 * rate),
        ]);
    }
    println!("{}", table.render());

    let on = rates.iter().find(|(l, _)| *l == "on").unwrap().1;
    let off = rates.iter().find(|(l, _)| *l == "off").unwrap().1;
    assert!(
        on >= off,
        "the rescue ladder must never lose classifications (on {on:.2} vs off {off:.2})"
    );
    println!(
        "rescue ladder + relaxed retry recover {:.0} % of the starved universe \
         (completion {:.0} % -> {:.0} %)",
        100.0 * (on - off),
        100.0 * off,
        100.0 * on,
    );

    let scheduled = counter("campaign.retry_scheduled");
    let recovered = counter("campaign.retry_recovered");
    let quarantined = counter("campaign.quarantined");
    assert!(
        quarantined <= scheduled,
        "{quarantined} quarantined faults exceed {scheduled} scheduled retries"
    );
    assert_eq!(
        recovered + quarantined,
        scheduled,
        "retry accounting leaks: recovered + quarantined != scheduled"
    );
    bench.finish();
}
