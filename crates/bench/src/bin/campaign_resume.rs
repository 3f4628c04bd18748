//! Kill/resume exercise of the checkpointed fault campaign.
//!
//! The binary runs the Section-3 campaign four ways against one journal:
//! a golden un-checkpointed run, a full checkpointed run, a resume after
//! the journal is torn back to ~50 % of its records (emulating a
//! `SIGKILL` mid-campaign), and an unchanged re-run. It asserts the
//! contract the checkpoint layer sells: every checkpointed variant
//! renders a byte-identical final report, the resume re-simulates only
//! the missing half, the re-run is pure memo hits — and editing one
//! device value afterwards re-simulates exactly the one fault whose
//! canonical hash moved. Over the whole run it asserts that the journal
//! accounting closes: every item is a memo hit or a miss, every hit
//! replayed one journal record and every miss wrote one. `--report
//! <path>` archives the telemetry snapshot (the `checkpoint.*` counters)
//! as `results/campaign_resume.json`.

use std::fs;

use clocksense_bench::report::{counter, counter_at_least};
use clocksense_bench::{fast_mode, print_header, threads_arg, Table};
use clocksense_core::{ClockPair, SensorBuilder, Technology};
use clocksense_faults::{run_campaign, sensor_fault_universe, CampaignConfig, Fault};

fn ckpt_counters() -> (u64, u64, u64) {
    let snap = clocksense_telemetry::global().snapshot();
    (
        snap.counter("checkpoint.memo_hits").unwrap_or(0),
        snap.counter("checkpoint.memo_misses").unwrap_or(0),
        snap.counter("checkpoint.records_written").unwrap_or(0),
    )
}

fn main() {
    let bench = clocksense_bench::report::start_scoped("campaign_resume", "resume_bench");
    // The pass/fail criteria below read the `checkpoint.*` counters, so
    // this bench records telemetry even without `--report`.
    clocksense_telemetry::global().enable();
    let tech = Technology::cmos12();
    let sensor = SensorBuilder::new(tech)
        .load_capacitance(160e-15)
        .build()
        .expect("valid sensor");
    let mut faults = sensor_fault_universe(&sensor, 100.0);
    if fast_mode() {
        // Keep one bridge: the edit-one-value phase below perturbs its
        // resistance, and the universe lists all bridges last.
        let bridge = faults
            .iter()
            .rfind(|f| matches!(f, Fault::Bridge { .. }))
            .cloned()
            .expect("universe contains a bridge");
        faults.truncate(11);
        faults.push(bridge);
    }
    let journal = std::env::temp_dir().join(format!(
        "clocksense_campaign_resume_{}.journal",
        std::process::id()
    ));
    let _ = fs::remove_file(&journal);

    // The campaign solves every fault on its own grid, so the resumed
    // report must match the uninterrupted one byte for byte (DESIGN.md
    // §3.6).
    let mut base = CampaignConfig::new(ClockPair::single_shot(tech.vdd, 0.2e-9));
    base.threads = threads_arg();
    let ckpt_cfg = base.clone().checkpoint(&journal);

    print_header(&format!(
        "Checkpointed campaign: {} faults, kill at 50 %, resume, re-run",
        faults.len()
    ));
    let resume_scope = &bench.tele;
    resume_scope.counter("faults").add(faults.len() as u64);

    let mut table = Table::new(&["phase", "memo hits", "misses", "written", "report"]);
    let mut phase =
        |name: &str, slug: &str, run: &mut dyn FnMut() -> String, golden: Option<&str>| {
            let before = ckpt_counters();
            let rendered = run();
            let after = ckpt_counters();
            let (hits, misses, written) =
                (after.0 - before.0, after.1 - before.1, after.2 - before.2);
            let verdict = match golden {
                Some(golden) if rendered == golden => "byte-identical",
                Some(_) => "DIVERGED",
                None => "golden",
            };
            table.row(&[
                name.into(),
                format!("{hits}"),
                format!("{misses}"),
                format!("{written}"),
                verdict.into(),
            ]);
            resume_scope.counter(&format!("{slug}_hits")).add(hits);
            resume_scope.counter(&format!("{slug}_misses")).add(misses);
            (rendered, hits, misses)
        };

    let (golden, _, _) = phase(
        "golden",
        "golden",
        &mut || {
            run_campaign(&sensor, &faults, &base)
                .expect("golden")
                .to_string()
        },
        None,
    );
    let run_ckpt = |cfg: &CampaignConfig, faults: &[Fault]| {
        run_campaign(&sensor, faults, cfg)
            .expect("checkpointed campaign")
            .to_string()
    };

    let (full, _, full_misses) = phase(
        "full",
        "full",
        &mut || run_ckpt(&ckpt_cfg, &faults),
        Some(&golden),
    );
    assert_eq!(full, golden, "checkpointing changed the report");
    assert_eq!(full_misses as usize, faults.len());

    // Kill at 50 %: tear the journal back to its header plus half the
    // records, exactly what a SIGKILL between two atomic flushes leaves.
    let text = fs::read_to_string(&journal).expect("journal exists");
    let keep: Vec<&str> = text.lines().take(1 + faults.len() / 2).collect();
    fs::write(&journal, format!("{}\n", keep.join("\n"))).expect("tear journal");

    let (resumed, resumed_hits, resumed_misses) = phase(
        "resume@50%",
        "resume",
        &mut || run_ckpt(&ckpt_cfg, &faults),
        Some(&golden),
    );
    assert_eq!(resumed, golden, "resumed report is not byte-identical");
    assert_eq!(resumed_hits as usize, faults.len() / 2);
    assert_eq!(resumed_misses as usize, faults.len() - faults.len() / 2);

    let (rerun, rerun_hits, rerun_misses) = phase(
        "re-run",
        "rerun",
        &mut || run_ckpt(&ckpt_cfg, &faults),
        Some(&golden),
    );
    assert_eq!(rerun, golden);
    assert_eq!(
        rerun_hits as usize,
        faults.len(),
        "re-run must be pure hits"
    );
    assert_eq!(rerun_misses, 0, "re-run re-simulated a memoized fault");

    // Move one device value: only that fault's canonical hash moves.
    let mut edited = faults.clone();
    let bridge = edited
        .iter_mut()
        .find_map(|f| match f {
            Fault::Bridge { ohms, .. } => Some(ohms),
            _ => None,
        })
        .expect("universe contains a bridge");
    *bridge *= 2.5;
    let (_, edit_hits, edit_misses) = phase(
        "edit one value",
        "edit",
        &mut || run_ckpt(&ckpt_cfg, &edited),
        None,
    );
    assert_eq!(edit_misses, 1, "exactly the edited fault must re-simulate");
    assert_eq!(edit_hits as usize, faults.len() - 1);

    println!("{}", table.render());
    println!(
        "resume re-simulated {resumed_misses}/{} faults; unchanged re-run hit {rerun_hits}/{} \
         ({:.0} % memo rate); one edited value cost {edit_misses} re-simulation",
        faults.len(),
        faults.len(),
        100.0 * rerun_hits as f64 / faults.len() as f64,
    );
    let _ = fs::remove_file(&journal);

    let hits = counter_at_least("checkpoint.memo_hits", 1);
    let misses = counter("checkpoint.memo_misses");
    assert_eq!(
        hits + misses,
        counter("checkpoint.items_total"),
        "every checkpointed item must be a memo hit or a miss"
    );
    assert_eq!(
        counter("checkpoint.records_replayed"),
        hits,
        "every memo hit must replay exactly one journal record"
    );
    assert_eq!(
        counter("checkpoint.records_written"),
        misses,
        "every memo miss must journal exactly one final record"
    );
    bench.finish();
}
