//! Output rows, the golden TSV format and the tolerance checker.
//!
//! Every workload reduces one rep's results to [`Row`]s: a key naming the
//! output (`c2/t7`, `sop(m_c)`, `mesh/v3/s5`, …), the item it belongs to and
//! `name=value` fields. The field name fixes how it is compared: `vmin*`
//! within 10 mV, `tau_min` within 2 ps, `iddq` within 1e-6 relative, any
//! other field (verdicts, outcomes, detected flags) exactly. Floats are
//! written in Rust's shortest round-trip form, so a file read back holds
//! the very values that were written.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// V_min tolerance (V).
pub const VMIN_TOL: f64 = 10e-3;
/// τ_min tolerance (s): the bisection resolution.
pub const TAU_TOL: f64 = 2e-12;
/// IDDQ tolerance, relative to the golden value.
pub const IDDQ_REL_TOL: f64 = 1e-6;

/// One output of one item.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Item index within the rep (config, fault, sample or deck variant).
    pub item: usize,
    /// Output name, unique within the rep.
    pub key: String,
    /// `(name, value)` pairs.
    pub fields: Vec<(String, String)>,
}

impl Row {
    /// A row with no fields yet.
    pub fn new(item: usize, key: impl Into<String>) -> Row {
        Row {
            item,
            key: key.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a float field in shortest round-trip form.
    #[must_use]
    pub fn num(mut self, name: &str, value: f64) -> Row {
        self.fields.push((name.to_string(), format!("{value:?}")));
        self
    }

    /// Appends a field compared exactly.
    #[must_use]
    pub fn text(mut self, name: &str, value: impl ToString) -> Row {
        self.fields.push((name.to_string(), value.to_string()));
        self
    }
}

/// How a field is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Vmin,
    TauMin,
    Iddq,
    Exact,
}

fn kind_of(name: &str) -> Kind {
    match name {
        n if n.starts_with("vmin") => Kind::Vmin,
        "tau_min" => Kind::TauMin,
        "iddq" => Kind::Iddq,
        _ => Kind::Exact,
    }
}

/// Running result of checking reps against their goldens.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// `(rep, item)` pairs with at least one output beyond tolerance.
    pub bad_items: BTreeSet<(u64, usize)>,
    /// Largest |V_min − golden| seen (V).
    pub vmin_err: f64,
    /// Largest |τ_min − golden| seen (s).
    pub tau_err: f64,
    /// Largest |IDDQ − golden| / |golden| seen.
    pub iddq_rel_err: f64,
    /// First few disagreements, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Items disagreeing with the golden beyond tolerance.
    pub fn check_errors(&self) -> usize {
        self.bad_items.len()
    }

    fn flag(&mut self, rep: u64, item: usize, note: String) {
        self.bad_items.insert((rep, item));
        if self.notes.len() < 8 {
            self.notes.push(format!("rep {rep}: {note}"));
        }
    }

    /// Compares one rep's `actual` rows with its `golden` rows. A key
    /// present on one side only is a disagreement of its item.
    pub fn check(&mut self, rep: u64, golden: &[Row], actual: &[Row]) {
        let by_key: BTreeMap<&str, &Row> = golden.iter().map(|r| (r.key.as_str(), r)).collect();
        let mut seen = BTreeSet::new();
        for row in actual {
            seen.insert(row.key.as_str());
            match by_key.get(row.key.as_str()) {
                Some(g) => self.check_row(rep, g, row),
                None => self.flag(rep, row.item, format!("{} has no golden row", row.key)),
            }
        }
        for g in golden.iter().filter(|g| !seen.contains(g.key.as_str())) {
            self.flag(rep, g.item, format!("{} missing from the output", g.key));
        }
    }

    fn check_row(&mut self, rep: u64, golden: &Row, actual: &Row) {
        if golden.fields.len() != actual.fields.len() {
            self.flag(
                rep,
                actual.item,
                format!("{}: field count differs", actual.key),
            );
            return;
        }
        for ((gn, gv), (an, av)) in golden.fields.iter().zip(&actual.fields) {
            if gn != an || !self.field_agrees(kind_of(gn), gv, av) {
                self.flag(
                    rep,
                    actual.item,
                    format!("{}: {an}={av}, golden {gn}={gv}", actual.key),
                );
            }
        }
    }

    fn field_agrees(&mut self, kind: Kind, golden: &str, actual: &str) -> bool {
        let numbers = golden.parse::<f64>().ok().zip(actual.parse::<f64>().ok());
        let Some((g, a)) = numbers.filter(|_| kind != Kind::Exact) else {
            return golden == actual;
        };
        let err = (a - g).abs();
        match kind {
            Kind::Vmin => {
                self.vmin_err = self.vmin_err.max(err);
                err <= VMIN_TOL
            }
            Kind::TauMin => {
                self.tau_err = self.tau_err.max(err);
                err <= TAU_TOL
            }
            Kind::Iddq => {
                if g != 0.0 {
                    self.iddq_rel_err = self.iddq_rel_err.max(err / g.abs());
                }
                err <= IDDQ_REL_TOL * g.abs()
            }
            Kind::Exact => unreachable!("exact fields return above"),
        }
    }
}

/// Serialises golden rows per rep.
pub fn to_tsv(header: &str, reps: &[(u64, Vec<Row>)]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        let _ = writeln!(out, "# {line}");
    }
    for (rep, rows) in reps {
        for row in rows {
            let _ = write!(out, "{rep}\t{}\t{}", row.item, row.key);
            for (name, value) in &row.fields {
                let _ = write!(out, "\t{name}={value}");
            }
            out.push('\n');
        }
    }
    out
}

/// Parses [`to_tsv`] output back into rows per rep.
///
/// # Errors
///
/// Names the first malformed line.
pub fn from_tsv(text: &str) -> Result<BTreeMap<u64, Vec<Row>>, String> {
    let mut reps: BTreeMap<u64, Vec<Row>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("golden line {}: malformed: {line:?}", n + 1);
        let mut cols = line.split('\t');
        let rep: u64 = cols.next().and_then(|c| c.parse().ok()).ok_or_else(bad)?;
        let item: usize = cols.next().and_then(|c| c.parse().ok()).ok_or_else(bad)?;
        let key = cols.next().ok_or_else(bad)?;
        let mut row = Row::new(item, key);
        for col in cols {
            let (name, value) = col.split_once('=').ok_or_else(bad)?;
            row = row.text(name, value);
        }
        reps.entry(rep).or_default().push(row);
    }
    Ok(reps)
}

/// Reads a golden file; no reps when it does not exist.
///
/// # Errors
///
/// Propagates read errors other than absence, and parse errors.
pub fn read(path: &Path) -> Result<BTreeMap<u64, Vec<Row>>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => from_tsv(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn one(name: &str, golden: f64, actual: f64) -> Tally {
        let mut t = Tally::default();
        t.check(
            1,
            &[Row::new(0, "k").num(name, golden)],
            &[Row::new(0, "k").num(name, actual)],
        );
        t
    }

    #[test]
    fn vmin_tolerance_is_inclusive_at_10_mv() {
        assert_eq!(one("vmin", 0.0, 0.010).check_errors(), 0);
        assert_eq!(one("vmin2", 0.0, -0.010).check_errors(), 0);
        let past = one("vmin", 0.0, next_up(0.010));
        assert_eq!(past.check_errors(), 1);
        assert!(past.vmin_err > VMIN_TOL);
    }

    #[test]
    fn tau_tolerance_is_inclusive_at_2_ps() {
        assert_eq!(one("tau_min", 0.0, 2e-12).check_errors(), 0);
        assert_eq!(one("tau_min", 0.0, next_up(2e-12)).check_errors(), 1);
    }

    #[test]
    fn iddq_tolerance_is_relative() {
        // 1e6 · 1e-6 rounds to exactly 1.0, so 1e6 + 1 sits on the bound.
        assert_eq!(IDDQ_REL_TOL * 1e6, 1.0);
        assert_eq!(one("iddq", 1e6, 1e6 + 1.0).check_errors(), 0);
        assert_eq!(one("iddq", 1e6, next_up(1e6 + 1.0)).check_errors(), 1);
        assert_eq!(one("iddq", 0.0, 0.0).check_errors(), 0);
    }

    #[test]
    fn exact_fields_and_missing_rows_are_disagreements() {
        let mut t = Tally::default();
        let golden = [
            Row::new(0, "a").text("verdict", "NoError"),
            Row::new(1, "b").text("detected", 1),
        ];
        t.check(2, &golden, &[Row::new(0, "a").text("verdict", "Phi2Late")]);
        assert_eq!(t.check_errors(), 2);
        assert!(t.bad_items.contains(&(2, 0)) && t.bad_items.contains(&(2, 1)));
    }

    #[test]
    fn tsv_round_trips_exact_values() {
        let rows = vec![
            Row::new(0, "c0/t1")
                .num("vmin", 1.234_567_890_123_456_7)
                .text("detected", 1),
            Row::new(0, "c0").num("tau_min", 1.234e-10),
        ];
        let text = to_tsv("workload=tau_sweep\nseed=1", &[(0, rows.clone())]);
        assert!(text.starts_with("# workload=tau_sweep\n# seed=1\n"));
        let back = from_tsv(&text).unwrap();
        assert_eq!(back[&0], rows);
        assert!(from_tsv("0\tx\tk\n").is_err());
    }
}
