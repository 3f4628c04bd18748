//! Campaign checkpoint journal and canonical-hash memo cache.
//!
//! A campaign configured with [`CampaignConfig::checkpoint`] writes one
//! journal record per *completed* fault item, keyed by a canonical
//! content hash of exactly what was simulated: the injected test-bench
//! netlist ([`clocksense_netlist::canonical_form`]) plus a fingerprint
//! of every option that can influence the verdict ([`SimOptions`],
//! clocks, detection criteria, retry policy). On the next run the
//! journal is replayed first: items whose hash already carries a record
//! are skipped entirely (a *memo hit*), and only the remainder is handed
//! to the executor — so an interrupted campaign resumes where it died,
//! an unchanged campaign is pure cache hits, and editing one device's
//! value re-simulates only the variants whose hashes moved.
//!
//! # File format and atomicity
//!
//! The journal is a line-oriented text file:
//!
//! ```text
//! clocksense-journal/v1
//! <hash:016x>\t<tag>\t<field>\t<field>...
//! ```
//!
//! Fields are tab-separated with `\\`/`\t`/`\n`/`\r` escaped, so failure
//! details (panic messages, solver diagnostics) survive verbatim. Every
//! flush rewrites the whole journal to a sibling `*.tmp` file, syncs it,
//! and atomically renames it over the real path: a `SIGKILL` at any
//! instant leaves either the previous journal or the new one, never a
//! torn file. The loader is additionally lenient — a missing file or a
//! foreign header is an empty journal (every item simply misses), a
//! torn final line (no terminator) is dropped, and a malformed
//! *interior* line — bit-flipped media, an editor accident — is skipped
//! and tallied under `checkpoint.records_corrupt` instead of aborting
//! the replay: corruption costs exactly the records it touched, which
//! simply re-simulate as memo misses.
//!
//! A record is journalled only once it is *final* — after the retry pass
//! when the campaign retries, immediately otherwise — so a resume can
//! never replay a pre-retry verdict that the uninterrupted run would
//! have overwritten.
//!
//! [`CampaignConfig::checkpoint`]: crate::CampaignConfig::checkpoint
//! [`SimOptions`]: clocksense_spice::SimOptions

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use clocksense_netlist::f64_bits;
use clocksense_spice::{
    IntegrationMethod, SimOptions, SolverKind, TimestepControl, ABSTOL, GMIN, RELTOL, VNTOL,
};

use crate::campaign::{CampaignConfig, FailureInfo, FailureKind, FaultRecord, MASKING_SKEW};
use crate::detect::{DetectionOutcome, IDDQ_THRESHOLD};
use crate::model::Fault;

/// Version header leading every journal file. A journal with any other
/// first line is treated as empty, so format changes degrade to memo
/// misses instead of misreads.
pub const JOURNAL_VERSION: &str = "clocksense-journal/v1";

/// Record tag used for campaign fault items.
pub const TAG_FAULT: &str = "fault";

fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Parses the 16-hex-digit bit pattern written by
/// [`f64_bits`](clocksense_netlist::f64_bits) back into an `f64`.
fn parse_f64_bits(field: &str) -> Option<f64> {
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

/// One parsed journal line.
#[derive(Debug, Clone)]
struct Entry {
    hash: u64,
    tag: String,
    fields: Vec<String>,
}

/// Parses one newline-stripped journal line; `None` marks a malformed
/// (corrupt) line the loader skips and counts.
fn parse_entry(line: &str) -> Option<Entry> {
    let mut parts = line.split('\t');
    let (hash, tag) = (parts.next()?, parts.next()?);
    // The hash field is always exactly 16 hex digits; anything else —
    // including a flipped digit that shortened or lengthened it — is
    // corruption, not a record.
    if hash.len() != 16 || tag.is_empty() {
        return None;
    }
    let hash = u64::from_str_radix(hash, 16).ok()?;
    Some(Entry {
        hash,
        tag: unescape(tag),
        fields: parts.map(unescape).collect(),
    })
}

/// Append-only, atomically-flushed campaign journal.
///
/// Lookups return the *latest* record for a hash; appends rewrite the
/// whole file through a temp-file+rename, which keeps every flush
/// atomic at the cost of O(journal) bytes per record — the right trade
/// for campaign-sized universes where one fault's simulation dwarfs one
/// file rewrite.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: Vec<Entry>,
    latest: HashMap<u64, usize>,
}

impl Journal {
    /// Opens (or conceptually creates) the journal at `path`.
    ///
    /// A missing file or a file with a foreign header loads as an empty
    /// journal; a torn (unterminated) tail costs only the records
    /// behind it; a malformed interior line is skipped and tallied
    /// under the lazily-scoped `checkpoint.records_corrupt` counter, so
    /// bit-flipped media degrades to memo misses rather than aborting
    /// the replay.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let mut journal = Journal {
            path,
            entries: Vec::new(),
            latest: HashMap::new(),
        };
        let mut text = match fs::read_to_string(&journal.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(journal),
            Err(e) => return Err(e),
        };
        // Chaos hook: an armed plan may truncate or bit-flip the loaded
        // text here, simulating media corruption between runs.
        clocksense_chaos::journal_load_hook(&mut text);
        // Only newline-terminated lines count: a writer that crashed
        // mid-append (without the atomic rename) leaves a torn final
        // line, recognisable precisely by its missing terminator.
        let mut lines: Vec<&str> = text.split('\n').collect();
        lines.pop();
        let mut lines = lines.into_iter();
        if lines.next() != Some(JOURNAL_VERSION) {
            return Ok(journal);
        }
        let mut corrupt = 0u64;
        for line in lines {
            let Some(entry) = parse_entry(line) else {
                corrupt += 1;
                continue;
            };
            journal.latest.insert(entry.hash, journal.entries.len());
            journal.entries.push(entry);
        }
        if corrupt > 0 {
            clocksense_telemetry::global()
                .scope("checkpoint")
                .counter("records_corrupt")
                .add(corrupt);
        }
        Ok(journal)
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded + appended records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The latest record stored under `hash`, if it carries `tag`.
    pub fn lookup(&self, hash: u64, tag: &str) -> Option<&[String]> {
        let &i = self.latest.get(&hash)?;
        let entry = &self.entries[i];
        (entry.tag == tag).then_some(entry.fields.as_slice())
    }

    /// Appends one record and atomically flushes the journal to disk.
    ///
    /// Bumps the lazily-scoped `checkpoint.records_written` counter, so
    /// runs that never touch a journal keep their telemetry snapshots
    /// byte-identical.
    pub fn append(&mut self, hash: u64, tag: &str, fields: &[String]) -> io::Result<()> {
        let entry = Entry {
            hash,
            tag: tag.to_string(),
            fields: fields.to_vec(),
        };
        self.latest.insert(hash, self.entries.len());
        self.entries.push(entry);
        self.flush()?;
        clocksense_telemetry::global()
            .scope("checkpoint")
            .counter("records_written")
            .incr();
        Ok(())
    }

    fn flush(&self) -> io::Result<()> {
        let mut text = String::with_capacity(64 * (self.entries.len() + 1));
        text.push_str(JOURNAL_VERSION);
        text.push('\n');
        for entry in &self.entries {
            let _ = write!(text, "{:016x}\t{}", entry.hash, escape(&entry.tag));
            for field in &entry.fields {
                text.push('\t');
                text.push_str(&escape(field));
            }
            text.push('\n');
        }
        let file_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "journal".to_string());
        let tmp = self.path.with_file_name(format!("{file_name}.tmp"));
        // Chaos hook: an armed plan may kill this flush — the temp file
        // receives only a prefix of the bytes and the rename never
        // happens, exactly the on-disk state a SIGKILL here leaves. The
        // error aborts the campaign the way the signal would have.
        if let Some(keep) = clocksense_chaos::flush_kill_hook(text.len()) {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&text.as_bytes()[..keep.min(text.len())])?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: journal flush killed before rename",
            ));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)
    }
}

fn duration_field(d: Option<std::time::Duration>) -> String {
    match d {
        Some(d) => format!("{}", d.as_nanos()),
        None => "-".to_string(),
    }
}

/// Fingerprint of every [`SimOptions`] field that can influence a
/// simulation result. The `deadline` token is deliberately excluded: it
/// is per-item wall-clock state, covered by the campaign fingerprint's
/// `item_deadline` budget instead. `batch` is kept although no campaign
/// result depends on it, and the fixed Newton tolerances
/// ([`RELTOL`], [`VNTOL`], [`ABSTOL`], [`GMIN`]) are printed where they
/// were once options, so that existing journals keep their item hashes.
fn sim_options_fingerprint(sim: &SimOptions) -> String {
    let method = match sim.method {
        IntegrationMethod::Trapezoidal => "trap",
        IntegrationMethod::BackwardEuler => "be",
    };
    let timestep = match sim.timestep {
        TimestepControl::Fixed => "fixed".to_string(),
        TimestepControl::Adaptive { tstep_max, lte_tol } => {
            format!("adaptive,{},{}", f64_bits(tstep_max), f64_bits(lte_tol))
        }
    };
    let solver = match sim.solver {
        SolverKind::Dense => "dense",
        SolverKind::Sparse => "sparse",
    };
    format!(
        "sim;reltol={};vntol={};abstol={};gmin={};iters={};tstep={};tstep_min={};method={method};timestep={timestep};solver={solver};damping={};rescue={};batch={}",
        f64_bits(RELTOL),
        f64_bits(VNTOL),
        f64_bits(ABSTOL),
        f64_bits(GMIN),
        sim.max_newton_iters,
        f64_bits(sim.tstep),
        f64_bits(sim.tstep_min),
        f64_bits(sim.newton_damping),
        sim.rescue,
        sim.batch,
    )
}

/// Fingerprint of everything besides the injected netlist that decides a
/// campaign item's record: solver options, clock stimulus, detection
/// criteria (with the sensor's actual logic threshold `v_th`), IDDQ
/// patterns, masking skew, deadline budget and retry policy. Worker-thread
/// count is excluded — results are thread-count invariant by design. The
/// hold time, IDDQ threshold, IDDQ patterns and masking skew are fixed by
/// the campaign now, but they are still printed where they were once
/// config fields, so that existing journals keep their item hashes.
pub fn campaign_fingerprint(cfg: &CampaignConfig, v_th: f64) -> String {
    let mut fp = sim_options_fingerprint(&cfg.sim);
    let c = &cfg.clocks;
    let _ = write!(
        fp,
        "|clocks;{};{};{};{};{};{}",
        f64_bits(c.vdd),
        f64_bits(c.delay),
        f64_bits(c.slew),
        f64_bits(c.width),
        f64_bits(c.period),
        f64_bits(c.skew),
    );
    let _ = write!(
        fp,
        "|criteria;v_th={};t_hold={};iddq={}",
        f64_bits(v_th),
        f64_bits(cfg.t_hold()),
        f64_bits(IDDQ_THRESHOLD),
    );
    fp.push_str("|iddq_patterns");
    for (a, b) in cfg.iddq_patterns() {
        let _ = write!(fp, ";{},{}", f64_bits(a), f64_bits(b));
    }
    let _ = write!(fp, "|skew_check={}", f64_bits(MASKING_SKEW));
    let _ = write!(
        fp,
        "|deadline={};retry={}",
        duration_field(cfg.item_deadline),
        cfg.retry,
    );
    fp
}

fn outcome_field(outcome: DetectionOutcome) -> &'static str {
    match outcome {
        DetectionOutcome::DetectedLogic => "logic",
        DetectionOutcome::DetectedIddq => "iddq",
        DetectionOutcome::Undetected => "undetected",
        DetectionOutcome::Inconclusive => "inconclusive",
    }
}

fn parse_outcome(field: &str) -> Option<DetectionOutcome> {
    Some(match field {
        "logic" => DetectionOutcome::DetectedLogic,
        "iddq" => DetectionOutcome::DetectedIddq,
        "undetected" => DetectionOutcome::Undetected,
        "inconclusive" => DetectionOutcome::Inconclusive,
        _ => return None,
    })
}

fn failure_kind_field(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Panic => "panic",
        FailureKind::NonConvergence => "non-convergence",
        FailureKind::Deadline => "deadline",
        FailureKind::Other => "other",
    }
}

fn parse_failure_kind(field: &str) -> Option<FailureKind> {
    Some(match field {
        "panic" => FailureKind::Panic,
        "non-convergence" => FailureKind::NonConvergence,
        "deadline" => FailureKind::Deadline,
        "other" => FailureKind::Other,
        _ => return None,
    })
}

/// Serialises a final [`FaultRecord`] into journal fields:
/// `[fault_id, outcome, iddq, masks_skew, retried, failure_kind, failure_detail]`
/// with `-` standing for absent optionals and all floats as exact bit
/// patterns.
pub fn encode_fault_record(record: &FaultRecord) -> Vec<String> {
    vec![
        record.fault.id(),
        outcome_field(record.outcome).to_string(),
        record.iddq.map_or("-".to_string(), f64_bits),
        match record.masks_skew {
            None => "-".to_string(),
            Some(false) => "0".to_string(),
            Some(true) => "1".to_string(),
        },
        if record.retried { "1" } else { "0" }.to_string(),
        record
            .failure
            .as_ref()
            .map_or("-", |f| failure_kind_field(f.kind))
            .to_string(),
        record
            .failure
            .as_ref()
            .map_or(String::new(), |f| f.detail.clone()),
    ]
}

/// Reconstructs a [`FaultRecord`] from journal fields, cross-checking the
/// stored fault id against `fault` (a hash collision or aliased journal
/// entry decodes to `None` and counts as a memo miss, never as a wrong
/// verdict).
pub fn decode_fault_record(fields: &[String], fault: &Fault) -> Option<FaultRecord> {
    if fields.len() != 7 || fields[0] != fault.id() {
        return None;
    }
    let outcome = parse_outcome(&fields[1])?;
    let iddq = match fields[2].as_str() {
        "-" => None,
        bits => Some(parse_f64_bits(bits)?),
    };
    let masks_skew = match fields[3].as_str() {
        "-" => None,
        "0" => Some(false),
        "1" => Some(true),
        _ => return None,
    };
    let retried = match fields[4].as_str() {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let failure = match fields[5].as_str() {
        "-" => None,
        kind => Some(FailureInfo {
            kind: parse_failure_kind(kind)?,
            detail: fields[6].clone(),
        }),
    };
    // A failure reason travels exactly on inconclusive records; anything
    // else is a corrupt entry.
    if (failure.is_some()) != (outcome == DetectionOutcome::Inconclusive) {
        return None;
    }
    Some(FaultRecord {
        fault: fault.clone(),
        outcome,
        iddq,
        masks_skew,
        failure,
        retried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StuckLevel;
    use clocksense_core::ClockPair;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clocksense_journal_{}_{name}", std::process::id()))
    }

    fn sample_record(retried: bool) -> FaultRecord {
        FaultRecord {
            fault: Fault::NodeStuckAt {
                node: "y1".into(),
                level: StuckLevel::Zero,
            },
            outcome: DetectionOutcome::Inconclusive,
            iddq: Some(42.5e-6),
            masks_skew: Some(true),
            failure: Some(FailureInfo {
                kind: FailureKind::NonConvergence,
                detail: "worst node \"n1\"\n\tdelta=1e-3".into(),
            }),
            retried,
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let path = tmp_path("round_trip");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        j.append(0xabc, TAG_FAULT, &["a".into(), "b\tc".into()])
            .unwrap();
        j.append(0xdef, "other", &["x\ny".into()]).unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(
            j2.lookup(0xabc, TAG_FAULT).unwrap(),
            &["a".to_string(), "b\tc".to_string()]
        );
        assert_eq!(j2.lookup(0xdef, "other").unwrap(), &["x\ny".to_string()]);
        // Tag mismatch and unknown hash both miss.
        assert!(j2.lookup(0xabc, "other").is_none());
        assert!(j2.lookup(0x123, TAG_FAULT).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp_path("truncated");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(1, TAG_FAULT, &["one".into()]).unwrap();
        j.append(2, TAG_FAULT, &["two".into()]).unwrap();
        // Emulate a crashed writer tearing the last line.
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 5];
        fs::write(&path, torn).unwrap();
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 1);
        assert!(j2.lookup(1, TAG_FAULT).is_some());
        assert!(j2.lookup(2, TAG_FAULT).is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_record_corruption_is_skipped_not_fatal() {
        let path = tmp_path("mid_corrupt");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(1, TAG_FAULT, &["one".into()]).unwrap();
        j.append(2, TAG_FAULT, &["two".into()]).unwrap();
        j.append(3, TAG_FAULT, &["three".into()]).unwrap();
        // Flip a bit inside the *middle* record's hash field: the line
        // count is unchanged, but record 2 no longer parses as itself.
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        let mangled = lines[2].replacen('0', "z", 1);
        let corrupted = [lines[0], lines[1], &mangled, lines[3], ""].join("\n");
        fs::write(&path, corrupted).unwrap();
        let j2 = Journal::open(&path).unwrap();
        // Records before AND after the corrupt line both survive.
        assert_eq!(j2.len(), 2);
        assert!(j2.lookup(1, TAG_FAULT).is_some());
        assert!(j2.lookup(2, TAG_FAULT).is_none());
        assert!(j2.lookup(3, TAG_FAULT).is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn hash_field_must_be_exactly_sixteen_hex_digits() {
        assert!(parse_entry("0123456789abcdef\tfault\tx").is_some());
        assert!(parse_entry("123\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdeff\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdeg\tfault\tx").is_none());
        assert!(parse_entry("0123456789abcdef\t\tx").is_none());
        assert!(parse_entry("").is_none());
    }

    #[test]
    fn foreign_header_loads_empty() {
        let path = tmp_path("foreign");
        fs::write(&path, "some-other-format/v9\n1\tfault\tx\n").unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn latest_entry_wins() {
        let path = tmp_path("latest");
        let _ = fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(7, TAG_FAULT, &["old".into()]).unwrap();
        j.append(7, TAG_FAULT, &["new".into()]).unwrap();
        assert_eq!(j.lookup(7, TAG_FAULT).unwrap(), &["new".to_string()]);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.lookup(7, TAG_FAULT).unwrap(), &["new".to_string()]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fault_record_codec_round_trips() {
        for retried in [false, true] {
            let record = sample_record(retried);
            let fields = encode_fault_record(&record);
            let back = decode_fault_record(&fields, &record.fault).unwrap();
            assert_eq!(back, record);
        }
        // Plain verdicts too.
        let record = FaultRecord {
            fault: Fault::StuckOn {
                device: "m_b".into(),
            },
            outcome: DetectionOutcome::DetectedIddq,
            iddq: Some(1.25e-4),
            masks_skew: None,
            failure: None,
            retried: false,
        };
        let fields = encode_fault_record(&record);
        assert_eq!(decode_fault_record(&fields, &record.fault).unwrap(), record);
        // Wrong fault id is a miss, not a misread.
        let other = Fault::StuckOn {
            device: "m_c".into(),
        };
        assert!(decode_fault_record(&fields, &other).is_none());
    }

    #[test]
    fn default_sim_fingerprint_text_is_pinned() {
        // Journals written before the tolerances became constants hash
        // this exact text; any change turns all their records into misses.
        assert_eq!(
            sim_options_fingerprint(&SimOptions::default()),
            "sim;reltol=3f50624dd2f1a9fc;vntol=3eb0c6f7a0b5ed8d;abstol=3d719799812dea11;\
             gmin=3d719799812dea11;iters=100;tstep=3d719799812dea11;tstep_min=3c9cd2b297d889bc;\
             method=trap;timestep=fixed;solver=dense;damping=4000000000000000;rescue=true;batch=0"
        );
    }

    #[test]
    fn default_campaign_fingerprint_text_is_pinned() {
        // Journals written while the IDDQ patterns and the masking skew
        // were config fields hash this exact text.
        let cfg = CampaignConfig::new(ClockPair::single_shot(5.0, 0.2e-9));
        assert_eq!(
            campaign_fingerprint(&cfg, 2.5),
            "sim;reltol=3f50624dd2f1a9fc;vntol=3eb0c6f7a0b5ed8d;abstol=3d719799812dea11;\
             gmin=3d719799812dea11;iters=100;tstep=3d819799812dea11;tstep_min=3c9cd2b297d889bc;\
             method=trap;timestep=fixed;solver=dense;damping=4000000000000000;rescue=true;batch=0\
             |clocks;4014000000000000;3e112e0be826d695;3deb7cdfd9d7bdbb;3e212e0be826d695;\
             3e349da7e361ce4c;0000000000000000\
             |criteria;v_th=4004000000000000;t_hold=3e149da7e361ce4c;iddq=3f0a36e2eb1c432d\
             |iddq_patterns;0000000000000000,0000000000000000;4014000000000000,4014000000000000\
             |skew_check=3e049da7e361ce4c|deadline=-;retry=true"
        );
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = CampaignConfig::new(ClockPair::single_shot(5.0, 0.2e-9));
        let fp = campaign_fingerprint(&base, 2.5);
        let mut sim = base.clone();
        sim.sim.tstep_min *= 2.0;
        assert_ne!(campaign_fingerprint(&sim, 2.5), fp);
        let mut retry = base.clone();
        retry.retry = false;
        assert_ne!(campaign_fingerprint(&retry, 2.5), fp);
        let mut clocks = base.clone();
        clocks.clocks.skew += 1e-12;
        assert_ne!(campaign_fingerprint(&clocks, 2.5), fp);
        assert_ne!(campaign_fingerprint(&base, 2.500001), fp);
        // Thread count is not part of the identity.
        let mut threads = base.clone();
        threads.threads = 7;
        assert_eq!(campaign_fingerprint(&threads, 2.5), fp);
    }
}
