//! Shared experiment-binary reporting conventions.
//!
//! Every bench binary in this crate follows the same protocol: parse the
//! `--report <path>` flag, enable the process-wide telemetry registry
//! when it is present, record counters under one scope named after the
//! binary, and write the JSON snapshot next to the text results on exit.
//! [`start`] packages that whole protocol into one call so the binaries
//! carry no per-file boilerplate:
//!
//! ```no_run
//! let bench = clocksense_bench::report::start("my_experiment");
//! bench.tele.counter("items").add(3);
//! bench.finish(); // writes the --report JSON, if requested
//! ```

use std::path::PathBuf;

use clocksense_telemetry::Scope;

/// One bench binary's reporting session: the parsed `--report` flag plus
/// the binary's telemetry scope. Created by [`start`]; call
/// [`finish`](BenchReport::finish) (or just let it drop) after the
/// experiment to write the JSON report.
#[derive(Debug)]
pub struct BenchReport {
    run: RunReport,
    /// The binary's counter scope — counters created here land in the
    /// report as `<scope>.<name>`.
    pub tele: Scope,
}

impl BenchReport {
    /// Writes the telemetry snapshot to the `--report` path (a no-op
    /// when the flag was absent).
    pub fn finish(self) {
        self.run.finish();
    }
}

/// Starts a reporting session for `bench`: parses `--report` from the
/// process arguments, enables the global registry when present, and
/// scopes the binary's counters under `bench` itself.
#[must_use]
pub fn start(bench: &str) -> BenchReport {
    start_scoped(bench, bench)
}

/// [`start`] with a counter scope that differs from the binary name —
/// for binaries whose archived counter names predate this helper (e.g.
/// `campaign_torture` records under `torture.*`).
#[must_use]
pub fn start_scoped(bench: &str, scope: &str) -> BenchReport {
    let run = RunReport::from_env(bench);
    BenchReport {
        run,
        tele: clocksense_telemetry::global().scope(scope),
    }
}

/// Reads counter `name` from the global registry for an end-of-run
/// assertion. Panics, so the binary exits non-zero, when the run never
/// registered the counter. A binary that asserts on counters enables the
/// registry itself, so the counters record with or without `--report`.
#[track_caller]
pub fn counter(name: &str) -> u64 {
    let Some(value) = clocksense_telemetry::global().snapshot().counter(name) else {
        panic!("counter `{name}` was never recorded");
    };
    value
}

/// [`counter`], asserting the value is at least `min`.
#[track_caller]
pub fn counter_at_least(name: &str, min: u64) -> u64 {
    let value = counter(name);
    assert!(value >= min, "{name} = {value}, expected >= {min}");
    value
}

/// Telemetry reporting for an experiment binary, driven by the shared
/// `--report <path>` (or `--report=<path>`) command-line flag.
///
/// Most binaries should use [`start`] instead, which pairs the report
/// with the binary's counter scope. Create a bare `RunReport` with
/// [`RunReport::from_env`] only when the binary records no counters of
/// its own; when the flag is present this enables the process-wide
/// telemetry registry so the solver and campaign counters start
/// recording. Call [`RunReport::finish`] after the experiment to write
/// the JSON run report next to the text results. Without the flag both
/// calls are no-ops and the run records nothing.
#[derive(Debug)]
pub struct RunReport {
    path: Option<PathBuf>,
    bench: String,
}

impl RunReport {
    /// Parses `--report` from the process arguments and, if present,
    /// enables the global telemetry registry.
    ///
    /// `bench` names the binary in the report's `meta` block. An
    /// unrecognised form (`--report` as the last argument, with no
    /// path) aborts with exit code 2.
    pub fn from_env(bench: &str) -> RunReport {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--report" {
                match args.next() {
                    Some(p) => path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --report requires a file path");
                        std::process::exit(2);
                    }
                }
            } else if let Some(p) = arg.strip_prefix("--report=") {
                path = Some(PathBuf::from(p));
            }
        }
        if path.is_some() {
            clocksense_telemetry::global().enable();
        }
        RunReport {
            path,
            bench: bench.to_string(),
        }
    }

    /// Writes the telemetry snapshot as JSON to the `--report` path (a
    /// no-op when the flag was absent). Dropping the `RunReport` has
    /// the same effect, so a binary only needs to keep the value alive
    /// for the duration of `main` — except while a panic unwinds: a run
    /// whose assertions failed writes no report.
    pub fn finish(mut self) {
        self.write();
    }

    fn write(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let mut report = clocksense_telemetry::global().snapshot();
        report.set_meta("bench", &self.bench);
        report.set_meta("invocation", std::env::args().collect::<Vec<_>>().join(" "));
        if crate::fast_mode() {
            report.set_meta("fast_mode", "1");
        }
        match report.write_json_file(&path) {
            Ok(()) => println!("telemetry report written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write report to {}: {e}", path.display());
            }
        }
    }
}

impl Drop for RunReport {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.write();
        }
    }
}
