//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig2_no_skew` | Fig. 2 — waveforms with no skew |
//! | `fig3_skew` | Fig. 3 — waveforms with an abnormal skew |
//! | `fig4_vmin_vs_skew` | Fig. 4 — V_min vs τ per load and slew |
//! | `fig5_montecarlo` | Fig. 5 — Monte-Carlo scatter of V_min vs τ |
//! | `tab1_probabilities` | Tab. 1 — p_loose / p_false per load |
//! | `sec3_testability` | Section 3 — fault coverage per class |
//! | `fig6_clock_distribution` | Fig. 6 — sensors monitoring an H-tree |
//! | `ablation_threshold` | sensitivity vs V_th and device sizing |
//! | `ablation_keepers` | effect of the full-swing keepers |
//!
//! Set `CLOCKSENSE_FAST=1` to cut sample counts for smoke runs.

use clocksense_wave::Waveform;

pub mod chaos;
pub mod report;

pub use report::RunReport;

/// `true` when the `CLOCKSENSE_FAST` environment variable requests
/// reduced sample counts.
pub fn fast_mode() -> bool {
    std::env::var_os("CLOCKSENSE_FAST").is_some()
}

/// Parses the shared `--threads N` (or `--threads=N`) flag from the
/// process arguments. Returns `0` — "one worker per available core" for
/// every driver in the workspace — when the flag is absent; aborts with
/// exit code 2 on a malformed value.
pub fn threads_arg() -> usize {
    let mut threads = 0;
    let mut args = std::env::args().skip(1);
    let parse = |value: &str| -> usize {
        value.parse().unwrap_or_else(|_| {
            eprintln!("error: --threads requires a non-negative integer, got {value:?}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            match args.next() {
                Some(v) => threads = parse(&v),
                None => {
                    eprintln!("error: --threads requires a worker count");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = parse(v);
        }
    }
    threads
}

/// Picks `full` or `fast` depending on [`fast_mode`].
pub fn scaled(full: usize, fast: usize) -> usize {
    if fast_mode() {
        fast
    } else {
        full
    }
}

/// Prints a section header.
pub fn print_header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Renders labelled waveforms as an ASCII chart (one character per series
/// in each cell; later series overwrite earlier ones on collision).
pub fn ascii_chart(
    series: &[(&str, &Waveform)],
    t_range: (f64, f64),
    v_range: (f64, f64),
    width: usize,
    height: usize,
) -> String {
    const MARKS: &[char] = &['*', '+', 'o', 'x', '#', '@'];
    let (t0, t1) = t_range;
    let (v0, v1) = v_range;
    let mut grid = vec![vec![' '; width]; height];
    for (s, (_, w)) in series.iter().enumerate() {
        let mark = MARKS[s % MARKS.len()];
        // Column-major walk over a row-major grid: the row index depends on
        // the sampled value, so the column loop stays index-based.
        #[allow(clippy::needless_range_loop)]
        for col in 0..width {
            let t = t0 + (t1 - t0) * col as f64 / (width - 1).max(1) as f64;
            let v = w.value_at(t);
            let frac = ((v - v0) / (v1 - v0)).clamp(0.0, 1.0);
            let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            grid[row][col] = mark;
        }
    }
    let mut out = String::new();
    for (r, line) in grid.iter().enumerate() {
        let v = v1 - (v1 - v0) * r as f64 / (height - 1).max(1) as f64;
        out.push_str(&format!("{v:6.2} |"));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "       +{}\n        t: {:.2e} .. {:.2e} s   ",
        "-".repeat(width),
        t0,
        t1
    ));
    for (s, (label, _)) in series.iter().enumerate() {
        out.push_str(&format!("[{}] {label}  ", MARKS[s % MARKS.len()]));
    }
    out.push('\n');
    out
}

/// Formats seconds as picoseconds with one decimal.
pub fn ps(t: f64) -> String {
    format!("{:.1}", t * 1e12)
}

/// Formats farads as femtofarads.
pub fn ff(c: f64) -> String {
    format!("{:.0}", c * 1e15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[3].contains("333"));
    }

    #[test]
    fn chart_contains_all_series_markers() {
        let w1 = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]);
        let w2 = Waveform::new(vec![0.0, 1.0], vec![1.0, 0.0]);
        let s = ascii_chart(&[("up", &w1), ("down", &w2)], (0.0, 1.0), (0.0, 1.0), 20, 8);
        assert!(s.contains('*'));
        assert!(s.contains('+'));
        assert!(s.contains("up"));
        assert!(s.contains("down"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(ps(1.5e-12), "1.5");
        assert_eq!(ff(80e-15), "80");
    }

    #[test]
    fn scaled_depends_on_env() {
        // Not fast mode by default in the test environment (unless set).
        if !fast_mode() {
            assert_eq!(scaled(100, 10), 100);
        }
    }
}
