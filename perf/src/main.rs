//! `perf` — end-to-end and per-layer benchmark of the paper workloads.
//!
//! ```text
//! perf --workload <tau_sweep|fault_campaign|mc_scatter|mesh_batch> --seed <n>
//!      [--seconds <s>] [--threads <n>] [--trace <0|1>]
//!      [--trace-out <path>] [--write-golden]
//! ```
//!
//! A run sets up three times (fixture, rep-0 inputs and the warm-up rep;
//! `setup_s` is the median), then runs timed reps with fresh inputs from
//! `(seed, rep)` until `--seconds` have passed, one client, closed loop.
//! Afterwards, untimed, it checks the warm-up and the timed reps against
//! `perf/golden/<workload>-<seed>.tsv` where that file holds the rep,
//! else against the oracle path run in-process: always for the warm-up,
//! then rep by rep within an oracle budget of half of `--seconds`. It
//! prints each metric as `name value unit` with its quartiles and sample
//! count, and ends with one JSON line. `--trace 1` traces a fixed set of
//! reps between untraced ones and reports the per-layer metrics instead
//! of the end-to-end ones. The exit code is 1 when an output disagrees
//! with its golden, 2 on a usage or set-up error.

mod golden;
mod host;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clocksense_telemetry::Report;

use crate::golden::{Row, Tally};
use crate::trace::Tracer;
use crate::workload::{Fixture, Path, RepOutput, Size, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed reps a run makes even when `--seconds` has already passed, so
/// every median has at least this many samples.
const MIN_REPS: u64 = 5;
/// Traced reps of a `--trace 1` run: the even reps `2, 4, …,
/// 2 × TRACED_REPS`, between untraced odd ones. A fixed set keeps the
/// per-layer counts independent of how fast the host runs.
const TRACED_REPS: u64 = 3;
/// Reps a golden file holds: the warm-up rep 0 and timed rep 1.
const GOLDEN_REPS: u64 = 2;
/// Oracle time the check may spend on timed reps without a golden, as a
/// share of `--seconds`. The warm-up rep is always checked; the oracle
/// costs as much as the timed path today (twice as much on the grid
/// decks), so checking every rep would double the run.
const ORACLE_BUDGET: f64 = 0.5;

/// The golden directory, fixed at build time so the binary finds it from
/// any working directory.
fn golden_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}-{seed}.tsv", workload.name()))
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    trace_out: Option<PathBuf>,
    write_golden: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut parsed = Args {
        workload: Workload::TauSweep,
        seed: 0,
        seconds: 10.0,
        // One worker per core, as the campaign and Monte-Carlo binaries.
        threads: host::cores(),
        trace: false,
        trace_out: None,
        write_golden: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--write-golden" {
            parsed.write_golden = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: invalid value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--threads" => {
                parsed.threads = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.write_golden {
            write_golden(&args).map(|()| ExitCode::SUCCESS)
        } else {
            run(&args)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

/// Writes the oracle outputs of reps `0..GOLDEN_REPS` as this seed's
/// golden file.
fn write_golden(args: &Args) -> Result<(), String> {
    let tracer = Tracer::new();
    let fixture = Fixture::build(args.workload, Size::full(), args.threads, &tracer)?;
    let mut reps = Vec::new();
    for rep in 0..GOLDEN_REPS {
        let out = fixture.run(&fixture.inputs(args.seed, rep), Path::Oracle, &tracer);
        if out.failed > 0 || out.invariant_errors > 0 {
            return Err(format!("oracle rep {rep} failed: {:?}", out.rows.first()));
        }
        reps.push((rep, out.rows));
    }
    let header = format!(
        "clocksense perf golden v1\nworkload={} seed={} reps=0..{GOLDEN_REPS}\n\
         oracle: dense LU, fixed steps, no batching (grid decks: per-variant scalar sparse)\n\
         columns: rep, item, key, name=value fields",
        args.workload.name(),
        args.seed
    );
    let path = golden_path(args.workload, args.seed);
    std::fs::write(&path, golden::to_tsv(&header, &reps))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One timed rep.
struct Rep {
    rep: u64,
    wall: Duration,
    cpu: Option<f64>,
    traced: bool,
    out: RepOutput,
}

impl Rep {
    fn items_per_s(&self) -> f64 {
        self.out.items as f64 / self.wall.as_secs_f64()
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let goldens = golden::read(&golden_path(args.workload, args.seed))?;
    let registry = clocksense_telemetry::global();
    let tracer = Tracer::new();
    // Set-up spans carry rep 0 and are reported apart from the traced
    // reps (`setup.*`); the telemetry counters start only with those reps.
    tracer.set_enabled(args.trace);

    // Set-up, repeated: fixture, rep-0 inputs and the warm-up rep. Every
    // set-up must reproduce the first one's warm-up outputs exactly.
    let mut setup_s = Vec::new();
    let mut built: Option<(Fixture, RepOutput)> = None;
    let mut setup_mismatches = 0;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (fixture, warm) = tracer.span("perf.setup", || {
            let fixture = Fixture::build(args.workload, Size::full(), args.threads, &tracer)?;
            let input = tracer.span("perf.inputs", || fixture.inputs(args.seed, 0));
            let warm = fixture.run(&input, Path::Timed, &tracer);
            Ok::<_, String>((fixture, warm))
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        match &built {
            Some((_, first)) => setup_mismatches += usize::from(*first != warm),
            None => built = Some((fixture, warm)),
        }
    }
    let (fixture, warm) = built.expect("SETUPS > 0");

    // Timed reps. Traced runs switch telemetry and spans on for the even
    // reps up to 2 × TRACED_REPS and run at least that many reps.
    registry.reset();
    let min_reps = if args.trace {
        MIN_REPS.max(2 * TRACED_REPS)
    } else {
        MIN_REPS
    };
    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    for rep in 1.. {
        let traced = args.trace && rep % 2 == 0 && rep <= 2 * TRACED_REPS;
        if traced {
            registry.enable();
        } else {
            registry.disable();
        }
        tracer.set_enabled(traced);
        tracer.set_rep(rep);
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let out = tracer.span("perf.rep", || {
            let input = tracer.span("perf.inputs", || fixture.inputs(args.seed, rep));
            fixture.run(&input, Path::Timed, &tracer)
        });
        let wall = start.elapsed();
        let cpu = cpu0.zip(host::cpu_seconds()).map(|(a, b)| b - a);
        reps.push(Rep {
            rep,
            wall,
            cpu,
            traced,
            out,
        });
        if rep >= min_reps && window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    registry.disable();
    tracer.set_enabled(false);
    let peak_rss = host::peak_rss_mib();
    let snapshot = registry.snapshot();

    // Untimed check: the warm-up always, timed reps from their golden or
    // within the oracle budget.
    let mut tally = Tally::default();
    let (mut checked, mut unchecked) = (0usize, 0usize);
    let budget = Duration::from_secs_f64(args.seconds * ORACLE_BUDGET);
    let mut oracle_time = Duration::ZERO;
    let all = std::iter::once((0, &warm)).chain(reps.iter().map(|r| (r.rep, &r.out)));
    for (rep, out) in all {
        let expected: Vec<Row> = match goldens.get(&rep) {
            Some(rows) => rows.clone(),
            None if rep == 0 || oracle_time < budget => {
                let start = Instant::now();
                let oracle = fixture.run(&fixture.inputs(args.seed, rep), Path::Oracle, &tracer);
                oracle_time += start.elapsed();
                oracle.rows
            }
            None => {
                unchecked += 1;
                continue;
            }
        };
        tally.check(rep, &expected, &out.rows);
        checked += 1;
    }
    let invariant_errors: usize = std::iter::once(&warm)
        .chain(reps.iter().map(|r| &r.out))
        .map(|o| o.invariant_errors)
        .sum();
    let check_errors = tally.check_errors() + invariant_errors + setup_mismatches;
    for note in &tally.notes {
        eprintln!("perf: golden mismatch: {note}");
    }

    let attempted: usize = reps.iter().map(|r| r.out.items).sum();
    let failed: usize = reps.iter().map(|r| r.out.failed).sum();
    let traced_reps = reps.iter().filter(|r| r.traced).count();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# host cores={} threads={} simd={} profile={}",
        host::cores(),
        args.threads,
        host::simd_tier(),
        host::profile()
    );
    let _ = writeln!(
        out,
        "# run workload={} seed={} seconds={} setups={SETUPS} reps={} traced_reps={traced_reps} \
         window_s={:.3} checked_reps={checked} unchecked_reps={unchecked} item={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        reps.len(),
        window_s,
        args.workload.item_unit(),
    );

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let metrics = if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let spans = tracer.spans();
        let layers = per_layer(&snapshot, &spans, &traced, &untraced, args.threads);
        if let Some(path) = &args.trace_out {
            write_trace(path, args, &spans, &snapshot, &layers)?;
        }
        layers
    } else {
        end_to_end(
            &setup_s,
            &untraced,
            peak_rss,
            attempted,
            failed,
            check_errors,
            &tally,
        )
    };
    for m in &metrics {
        let _ = writeln!(out, "{}", m.line());
    }

    let correct = check_errors == 0 && failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().filter(|m| m.in_json).enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    print!("{out}");
    println!("{json}");
    Ok(if check_errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// A JSON number with every digit the value carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Quartiles, sample count and tail, or a ratio's numerator and
    /// denominator.
    detail: String,
    /// Listed in `BENCHMARK.json` and so in the JSON line.
    in_json: bool,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, in_json: bool) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            detail: String::new(),
            in_json,
        }
    }

    /// Median of `samples`, with quartiles, count and the tail percentile.
    fn median(name: &str, samples: &[f64], unit: &'static str, in_json: bool) -> Metric {
        let (q1, med, q3) = stats::quartiles(samples).unwrap_or((0.0, 0.0, 0.0));
        let mut detail = format!("median={med:.6} q1={q1:.6} q3={q3:.6} n={}", samples.len());
        if let Some((p, v)) = stats::tail_percentile(samples) {
            let _ = write!(detail, " p{p}={v:.6}");
        }
        Metric {
            detail,
            ..Metric::new(name, med, unit, in_json)
        }
    }

    /// `num / den`, 0 when the denominator is 0.
    fn ratio(name: &str, num: f64, den: f64, unit: &'static str, in_json: bool) -> Metric {
        let value = if den > 0.0 { num / den } else { 0.0 };
        Metric {
            detail: format!("= {num} / {den}"),
            ..Metric::new(name, value, unit, in_json)
        }
    }

    fn line(&self) -> String {
        format!(
            "{} {} {}  {}",
            self.name, self.value, self.unit, self.detail
        )
        .trim_end()
        .to_string()
    }
}

fn end_to_end(
    setup_s: &[f64],
    reps: &[&Rep],
    peak_rss: Option<f64>,
    attempted: usize,
    failed: usize,
    check_errors: usize,
    tally: &Tally,
) -> Vec<Metric> {
    let ips: Vec<f64> = reps.iter().map(|r| r.items_per_s()).collect();
    let cpu: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.cpu.map(|c| c / r.out.items as f64))
        .collect();
    let rep_s: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    vec![
        Metric::median("setup_s", setup_s, "s", true),
        Metric::median("items_per_s", &ips, "items/s", true),
        Metric::median("cpu_s_per_item", &cpu, "s", true),
        Metric::new("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB", true),
        Metric::ratio(
            "failed_frac",
            failed as f64,
            attempted as f64,
            "frac",
            false,
        ),
        Metric::new("check_errors", check_errors as f64, "count", false),
        Metric::new("vmin_err_mv", tally.vmin_err * 1e3, "mV", false),
        Metric::new("tau_min_err_ps", tally.tau_err * 1e12, "ps", false),
        Metric::new("iddq_rel_err", tally.iddq_rel_err, "frac", false),
        Metric::median("rep_s", &rep_s, "s", false),
    ]
}

/// The per-layer metrics of a traced run. Counts are totals over the
/// fixed set of traced reps (`trace.items` is their base); `_pct`
/// metrics are a span name's self time as a share of those reps' root
/// spans, and `setup.*_pct` a share of the set-up spans (rep 0); the
/// `_s` twins print the seconds and stay out of the JSON, since a layer
/// a workload never calls reads exactly zero.
fn per_layer(
    snap: &Report,
    spans: &[trace::Span],
    traced: &[&Rep],
    untraced: &[&Rep],
    threads: usize,
) -> Vec<Metric> {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let timer_s = |name: &str| {
        snap.timer(name)
            .map_or(0.0, |t| t.total_nanos as f64 * 1e-9)
    };
    let is_rep = |s: &trace::Span| s.rep > 0;
    let is_setup = |s: &trace::Span| s.rep == 0;
    let layers = trace::layer_times(spans, is_rep);
    let root_s = trace::root_seconds(spans, is_rep);
    let setup_layers = trace::layer_times(spans, is_setup);
    let setup_root_s = trace::root_seconds(spans, is_setup);
    let items: f64 = traced.iter().map(|r| r.out.items as f64).sum();
    let wall: f64 = traced.iter().map(|r| r.wall.as_secs_f64()).sum();

    let mut out = Vec::new();
    let count = |out: &mut Vec<Metric>, name: &'static str| {
        out.push(Metric::new(name, c(name), "count", true));
    };
    let span_time = |out: &mut Vec<Metric>, name: &str, t: trace::LayerTime, whole: f64| {
        out.push(Metric {
            detail: format!("self time of {} spans", t.count),
            ..Metric::new(format!("{name}_s"), t.self_s, "s", false)
        });
        out.push(share(&format!("{name}_pct"), t.self_s, whole));
    };
    let time = |out: &mut Vec<Metric>, layer: &str| {
        let t = layers.get(layer).copied().unwrap_or_default();
        span_time(out, layer, t, root_s);
    };

    for name in [
        "spice.newton_iterations",
        "spice.steps_accepted",
        "spice.steps_rejected",
        "spice.lu_factorizations",
        "spice.breakpoints_hit",
    ] {
        count(&mut out, name);
    }
    let (newton, steps) = (c("spice.newton_iterations"), c("spice.steps_accepted"));
    out.push(Metric::ratio(
        "spice.newton_per_step",
        newton,
        steps,
        "ratio",
        true,
    ));
    out.push(Metric::ratio(
        "spice.steps_per_item",
        steps,
        items,
        "ratio",
        true,
    ));
    out.push(Metric::ratio(
        "spice.us_per_newton",
        wall * 1e6,
        newton,
        "us",
        true,
    ));
    for name in [
        "spice.gmin_steps",
        "spice.convergence_failures",
        "rescue.steps_rescued",
        "rescue.ladder_failures",
        "spice.numeric_refactors",
        "spice.symbolic_analyses",
        "spice.symbolic_cache_hits",
        "spice.fill_in",
    ] {
        count(&mut out, name);
    }

    time(&mut out, "batch.transient_batch");
    let scheduled = c("batch.lane_slots_scheduled");
    let active = c("batch.lane_slots_active");
    out.push(Metric::ratio(
        "batch.lane_occupancy",
        active,
        scheduled,
        "ratio",
        true,
    ));
    out.push(Metric::ratio(
        "batch.padding_frac",
        c("batch.lane_slots_padding"),
        scheduled,
        "ratio",
        true,
    ));
    let fallback = c("batch.variants_scalar_fallback");
    out.push(Metric::ratio(
        "batch.scalar_fallback_frac",
        fallback,
        fallback + c("batch.variants_batched"),
        "ratio",
        true,
    ));
    count(&mut out, "batch.lane_factor_sweeps");
    count(&mut out, "batch.lane_slots_active");
    let batch_s = layers
        .get("batch.transient_batch")
        .map_or(0.0, |t| t.total_s);
    out.push(Metric::ratio(
        "batch.us_per_lane_step",
        batch_s * 1e6,
        active,
        "us",
        false,
    ));

    let busy = timer_s("faults.item_wall") + timer_s("montecarlo.item_wall");
    out.push(Metric::new("exec.busy_s", busy, "s", false));
    out.push(Metric::ratio(
        "exec.busy_frac",
        busy,
        wall * threads as f64,
        "ratio",
        true,
    ));
    let exec_items = c("faults.items") + c("montecarlo.items");
    out.push(Metric::new("exec.items", exec_items, "count", true));
    let panics = c("faults.panics") + c("montecarlo.panics");
    out.push(Metric::new("exec.panics", panics, "count", true));

    time(&mut out, "core.build");
    time(&mut out, "core.sweep_vmin");
    time(&mut out, "core.find_tau_min");

    time(&mut out, "faults.run_campaign");
    time(&mut out, "faults.universe");
    count(&mut out, "faults.inconclusive");
    out.push(Metric::ratio(
        "faults.retry_frac",
        c("campaign.retry_scheduled"),
        c("faults.faults_evaluated"),
        "ratio",
        true,
    ));
    count(&mut out, "campaign.quarantined");
    count(&mut out, "faults.template_cache_hits");

    time(&mut out, "montecarlo.run_scatter");
    count(&mut out, "montecarlo.samples");
    count(&mut out, "montecarlo.detected");

    time(&mut out, "netlist.variants");
    time(&mut out, "scenarios.verdicts");
    // The decks are built once per set-up, so their cost is a share of
    // set-up time.
    let build = setup_layers
        .get("scenarios.build")
        .copied()
        .unwrap_or_default();
    span_time(&mut out, "setup.scenarios.build", build, setup_root_s);

    let harness: f64 = ["perf.rep", "perf.inputs"]
        .iter()
        .filter_map(|n| layers.get(n))
        .map(|t| t.self_s)
        .sum();
    out.push(share("perf.harness_pct", harness, root_s));

    let median_ips = |reps: &[&Rep]| {
        let ips: Vec<f64> = reps.iter().map(|r| r.items_per_s()).collect();
        stats::quartiles(&ips).map_or(0.0, |q| q.1)
    };
    let (on, off) = (median_ips(traced), median_ips(untraced));
    let overhead = Metric::ratio("telemetry.overhead_frac", off - on, off, "ratio", true);
    out.push(Metric {
        detail: format!("= 1 - {on} / {off} (traced / untraced items_per_s medians)"),
        ..overhead
    });
    out.push(Metric::new("trace.items", items, "count", true));
    out.push(Metric::new("trace.wall_s", wall, "s", true));
    out
}

/// `part` as a percentage of `whole` seconds.
fn share(name: &str, part: f64, whole: f64) -> Metric {
    Metric {
        detail: format!("= 100 * {part} s / {whole} s"),
        ..Metric::ratio(name, 100.0 * part, whole, "%", true)
    }
}

/// Writes the spans as Chrome trace events, with the host metadata, the
/// telemetry snapshot and the per-layer table alongside.
fn write_trace(
    path: &std::path::Path,
    args: &Args,
    spans: &[trace::Span],
    snap: &Report,
    layers: &[Metric],
) -> Result<(), String> {
    let mut table = BTreeMap::new();
    for m in layers {
        table.insert(m.name.as_str(), (m.value, m.unit));
    }
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"host\": {{\"cores\": {}, \"threads\": {}, \"simd\": \"{}\", \"profile\": \"{}\"}},",
        host::cores(),
        args.threads,
        host::simd_tier(),
        host::profile()
    );
    let _ = writeln!(
        out,
        "  \"run\": {{\"workload\": \"{}\", \"seed\": {}}},",
        args.workload.name(),
        args.seed
    );
    out.push_str("  \"per_layer\": {");
    for (i, (name, (value, unit))) in table.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("\n  },\n  \"telemetry\": ");
    out.push_str(snap.to_json().trim_end().replace('\n', "\n  ").as_str());
    out.push_str(",\n  \"traceEvents\": ");
    out.push_str(&trace::chrome_events(spans));
    out.push_str("\n}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn benchmark_command_line_parses() {
        let a = args(&[
            "--threads",
            "2",
            "--workload",
            "mesh_batch",
            "--seed",
            "4",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::MeshBatch);
        assert_eq!((a.seed, a.seconds, a.threads, a.trace), (4, 8.0, 2, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "tau_sweep"]).is_err());
        assert!(args(&["--workload", "tau_sweep", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "tau_sweep", "--seed", "1", "--seconds", "0"]).is_err());
    }

    /// Every metric the JSON line carries is declared in `BENCHMARK.json`.
    #[test]
    fn json_metrics_are_declared_in_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let rep = Rep {
            rep: 1,
            wall: Duration::from_millis(10),
            cpu: Some(0.01),
            traced: false,
            out: RepOutput {
                items: 1,
                failed: 0,
                rows: Vec::new(),
                invariant_errors: 0,
            },
        };
        let e2e = end_to_end(&[1.0], &[&rep], Some(1.0), 1, 0, 0, &Tally::default());
        let layers = per_layer(&Report::default(), &[], &[&rep], &[&rep], 2);
        let declared = spec.matches("\"name\":").count();
        let mut emitted = 0;
        for m in e2e.iter().chain(&layers).filter(|m| m.in_json) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
            emitted += 1;
        }
        // Declared names are the metrics plus the four workloads.
        assert_eq!(declared, emitted + Workload::ALL.len());
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
