//! Chaos torture: randomized fault-injection schedules against the
//! checkpoint journal, the campaign executor and the batch kernel.
//!
//! Each schedule samples one injection (worker panic, forced deadline
//! expiry, killed journal flush, load-time truncation/bit-flip, batch
//! lane poison) from a seeded chaos space, runs the owning subsystem
//! while armed, and checks the durability contracts: no lost or
//! duplicated verdicts, byte-identical resume after every kill, no
//! cross-lane contamination from a poisoned variant. `--seed N` replays
//! a specific schedule sequence; `--schedules N` overrides the count
//! (200 full, 12 under `CLOCKSENSE_FAST=1`). At the end of the run the
//! bench also asserts that the injection accounting closes (every
//! planned injection fired or was suppressed) and that the batch
//! fixture's lane blocks account for every scheduled lane slot with at
//! least half of them live. `--report <path>` archives the tally and the
//! `chaos.*` injection accounting as `results/chaos_torture.json`.

use clocksense_bench::chaos::run_torture;
use clocksense_bench::report::{counter, counter_at_least};
use clocksense_bench::{fast_mode, print_header, Table};

/// Parses `--seed N` / `--schedules N` (also `=`-joined) from the
/// process arguments.
fn u64_arg(name: &str, default: u64) -> u64 {
    let mut value = default;
    let mut args = std::env::args().skip(1);
    let parse = |v: &str| -> u64 {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} requires a non-negative integer, got {v:?}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        if arg == name {
            match args.next() {
                Some(v) => value = parse(&v),
                None => {
                    eprintln!("error: {name} requires a value");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
            value = parse(v);
        }
    }
    value
}

fn main() {
    let bench = clocksense_bench::report::start("chaos_torture");
    // The end-of-run assertions read the `chaos.*` and `batch.*`
    // counters, so this bench records telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let seed = u64_arg("--seed", 42);
    let schedules = u64_arg("--schedules", if fast_mode() { 12 } else { 200 });

    print_header(&format!(
        "Chaos torture: {schedules} randomized kill schedules (seed {seed})"
    ));
    let tally = run_torture(seed, schedules);
    tally.record(&bench.tele);

    let mut table = Table::new(&["invariant", "violations"]);
    table.row(&["verdicts lost".into(), format!("{}", tally.verdicts_lost)]);
    table.row(&[
        "verdicts duplicated".into(),
        format!("{}", tally.verdicts_duplicated),
    ]);
    table.row(&["verdict flips".into(), format!("{}", tally.verdict_flips)]);
    table.row(&[
        "resume mismatches".into(),
        format!("{}", tally.resume_mismatches),
    ]);
    table.row(&[
        "lane contaminations".into(),
        format!("{}", tally.lane_contaminations),
    ]);
    println!("{}", table.render());
    println!(
        "{} schedules: {} injections fired, {} suppressed, {} structured degradations",
        tally.schedules, tally.fired, tally.suppressed, tally.structured_degradations
    );
    for v in &tally.violations {
        eprintln!("VIOLATION: {v}");
    }
    assert!(
        tally.clean(),
        "{} durability violations under chaos (seed {seed})",
        tally.violations.len()
    );
    println!("all durability contracts held under chaos");

    counter_at_least("chaos_torture.schedules_total", 1);
    assert_eq!(
        counter("chaos.injections_planned"),
        counter("chaos.injections_fired") + counter("chaos.injections_suppressed"),
        "every planned injection must fire or be suppressed"
    );
    counter_at_least("batch.lane_blocks", 1);
    counter_at_least("batch.lane_factor_sweeps", 1);
    let scheduled = counter("batch.lane_slots_scheduled");
    let active = counter("batch.lane_slots_active");
    assert_eq!(
        active + counter("batch.lane_slots_parked") + counter("batch.lane_slots_padding"),
        scheduled,
        "every scheduled lane slot must be active, parked or padding"
    );
    assert!(
        2 * active >= scheduled,
        "lane occupancy {active}/{scheduled}: more than half the slots carried no live variant"
    );
    bench.finish();
}
