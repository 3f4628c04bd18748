//! Deterministic, seed-driven fault injection for the clocksense stack.
//!
//! PRs 5 and 7 built the survival machinery — panic isolation, deadline
//! cancellation, the retry/quarantine ladder, atomically-flushed resume
//! journals — but nothing adversarially exercised it. This crate is the
//! adversary: a [`ChaosPlan`] describes a small set of injections
//! (worker panics, forced deadline expiry, a killed journal flush,
//! journal corruption on load, a NaN-poisoned SIMD lane), and hook
//! functions compiled into the production seams fire them when a plan
//! is armed.
//!
//! # Determinism contract
//!
//! A plan is data: the same seed always samples the same injections
//! ([`ChaosPlan::sample`] is pure SplitMix64), and every hook consumes
//! plan state through monotone per-site counters, so a given plan fires
//! at the same site visit every run. With a single-worker executor the
//! *identity* of the victim item is reproducible too; with several
//! workers the interleaving chooses the victim, but exactly one
//! injection still fires per planned entry — the invariants the torture
//! harness checks (one final verdict per fault, byte-identical resume,
//! no cross-lane contamination) are interleaving-independent.
//!
//! # Zero cost when disarmed
//!
//! Every hook starts with one relaxed atomic load of a global flag and
//! returns immediately when no plan is armed. Production binaries never
//! arm a plan, so the clean-path goldens are unaffected byte-for-byte.
//!
//! # Accounting
//!
//! Arming records `chaos.injections_planned`; every fire records
//! `chaos.injections_fired`; [`disarm`] records the remainder as
//! `chaos.injections_suppressed` (a planned injection whose site was
//! never reached — e.g. a flush kill scheduled past the last flush).
//! `planned == fired + suppressed`; the `chaos_torture` bench asserts it
//! at the end of every run.
//!
//! # Examples
//!
//! ```
//! use clocksense_chaos::{ChaosPlan, Injection};
//!
//! let plan = ChaosPlan::new(42).with(Injection::DeadlineExpiry { after_polls: 3 });
//! let guard = plan.arm_scoped();
//! assert!(!clocksense_chaos::deadline_poll_hook()); // poll 0
//! assert!(!clocksense_chaos::deadline_poll_hook()); // poll 1
//! assert!(!clocksense_chaos::deadline_poll_hook()); // poll 2
//! assert!(clocksense_chaos::deadline_poll_hook()); // poll 3: forced expiry
//! let summary = guard.disarm();
//! assert_eq!((summary.planned, summary.fired), (1, 1));
//! ```

#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// SplitMix64: the tiny, statistically solid generator used for every
/// seed-derived decision in this crate (and by the scenario crate's
/// dirty-stimulus jitter). One `u64` of state, no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`0` for a zero bound).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift range reduction: bias below 2^-40 for the
        // campaign-sized bounds used here, and branch-free.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// One planned fault injection. Fractional positions are carried in
/// per-mille (`0..=1000`) so plans stay `Eq`/hashable and trivially
/// serialisable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Panic inside the executor worker when it claims its `item`-th
    /// work unit (0-based, counted across every `Executor` run while
    /// armed). Lands in the per-item `catch_unwind`, so it degrades to
    /// a `JobPanic` record exactly like a real library bug would.
    WorkerPanic {
        /// Hook-call ordinal at which to panic.
        item: u64,
    },
    /// Force `Deadline::expired` to return `true` from its
    /// `after_polls`-th poll onward (sticky, like a real expiry).
    DeadlineExpiry {
        /// Number of polls to let through before the forced expiry.
        after_polls: u64,
    },
    /// Kill the `flush`-th journal flush: the temp file receives only
    /// the first `keep_milli`/1000 of its bytes and the atomic rename
    /// never happens — the on-disk journal stays at its previous state,
    /// exactly as a `SIGKILL` between write and rename would leave it.
    FlushKill {
        /// Flush ordinal to kill (0-based, counted while armed).
        flush: u64,
        /// Per-mille of the temp file's bytes written before the kill.
        keep_milli: u16,
    },
    /// Truncate the journal text to `keep_milli`/1000 of its bytes at
    /// the next load — a torn or half-synced file.
    JournalTruncate {
        /// Per-mille of the journal bytes that survive.
        keep_milli: u16,
    },
    /// Flip one bit (XOR `0x02`) of the journal byte nearest to
    /// `pos_milli`/1000 of the text at the next load — interior media
    /// corruption rather than a torn tail.
    JournalBitFlip {
        /// Per-mille position of the corrupted byte.
        pos_milli: u16,
    },
    /// Overwrite one gathered device value of lane `lane` in the first
    /// SoA lane block packed while armed (`lane` is clamped to the
    /// block's real width, so the poison always lands on a live lane).
    LanePoison {
        /// Lane index to poison.
        lane: u8,
        /// `true` poisons with `+inf`, `false` with NaN.
        infinity: bool,
    },
}

/// A reproducible set of [`Injection`]s derived from (or attached to) a
/// seed. Build one explicitly with [`ChaosPlan::with`], or sample a
/// random single-injection plan with [`ChaosPlan::sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed this plan was derived from (recorded for diagnostics;
    /// [`ChaosPlan::with`] does not consume it).
    pub seed: u64,
    /// The injections to fire, in no particular order.
    pub injections: Vec<Injection>,
}

impl ChaosPlan {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            injections: Vec::new(),
        }
    }

    /// Adds one injection.
    #[must_use]
    pub fn with(mut self, injection: Injection) -> ChaosPlan {
        self.injections.push(injection);
        self
    }

    /// Samples a random single-injection plan: the seed picks the site
    /// and every site parameter. The same seed always yields the same
    /// plan.
    pub fn sample(seed: u64) -> ChaosPlan {
        let mut rng = SplitMix64::new(seed);
        let injection = match rng.next_below(6) {
            0 => Injection::WorkerPanic {
                item: rng.next_below(32),
            },
            1 => Injection::DeadlineExpiry {
                after_polls: rng.next_below(10_000),
            },
            2 => Injection::FlushKill {
                flush: rng.next_below(24),
                keep_milli: rng.next_below(1001) as u16,
            },
            3 => Injection::JournalTruncate {
                keep_milli: rng.next_below(1001) as u16,
            },
            4 => Injection::JournalBitFlip {
                pos_milli: rng.next_below(1001) as u16,
            },
            _ => Injection::LanePoison {
                lane: rng.next_below(8) as u8,
                infinity: rng.next_below(2) == 1,
            },
        };
        ChaosPlan::new(seed).with(injection)
    }

    /// Arms this plan process-wide and returns a guard that disarms it
    /// on drop. See [`arm`] for the (single-plan) arming semantics.
    #[must_use]
    pub fn arm_scoped(self) -> ArmedGuard {
        arm(self);
        ArmedGuard { disarmed: false }
    }
}

/// What happened to an armed plan, returned by [`disarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSummary {
    /// Injections the plan carried.
    pub planned: u64,
    /// Injections whose site was reached and which actually fired.
    pub fired: u64,
}

impl ChaosSummary {
    /// Planned injections whose site was never reached.
    pub fn suppressed(&self) -> u64 {
        self.planned - self.fired
    }
}

/// Disarms the active plan when dropped — keeps a panicking test from
/// leaving chaos armed for every test that follows it.
#[derive(Debug)]
pub struct ArmedGuard {
    disarmed: bool,
}

impl ArmedGuard {
    /// Disarms now and returns the plan's [`ChaosSummary`].
    pub fn disarm(mut self) -> ChaosSummary {
        self.disarmed = true;
        disarm()
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        if !self.disarmed {
            disarm();
        }
    }
}

struct Active {
    plan: ChaosPlan,
    fired: Vec<AtomicBool>,
    worker_items: AtomicU64,
    deadline_polls: AtomicU64,
    flushes: AtomicU64,
    lane_blocks: AtomicU64,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<Active>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Active>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn current() -> Option<Arc<Active>> {
    slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

fn counter(name: &str) -> clocksense_telemetry::Counter {
    clocksense_telemetry::global().scope("chaos").counter(name)
}

/// Arms `plan` process-wide, replacing (and implicitly disarming) any
/// previously armed plan. Chaos state is global: callers that arm
/// concurrently from several threads get *a* plan, not their own —
/// the torture harness runs schedules sequentially for exactly this
/// reason.
pub fn arm(plan: ChaosPlan) {
    let fired = plan
        .injections
        .iter()
        .map(|_| AtomicBool::new(false))
        .collect();
    counter("injections_planned").add(plan.injections.len() as u64);
    let active = Arc::new(Active {
        plan,
        fired,
        worker_items: AtomicU64::new(0),
        deadline_polls: AtomicU64::new(0),
        flushes: AtomicU64::new(0),
        lane_blocks: AtomicU64::new(0),
    });
    *slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(active);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the active plan (a no-op summary if none was armed) and
/// records the never-reached injections as suppressed.
pub fn disarm() -> ChaosSummary {
    ARMED.store(false, Ordering::SeqCst);
    let active = slot().lock().unwrap_or_else(PoisonError::into_inner).take();
    let Some(active) = active else {
        return ChaosSummary::default();
    };
    let planned = active.plan.injections.len() as u64;
    let fired = active
        .fired
        .iter()
        .filter(|f| f.load(Ordering::Relaxed))
        .count() as u64;
    counter("injections_suppressed").add(planned - fired);
    ChaosSummary { planned, fired }
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn mark_fired(active: &Active, index: usize) -> bool {
    let first = !active.fired[index].swap(true, Ordering::Relaxed);
    if first {
        counter("injections_fired").incr();
    }
    first
}

/// Executor hook: called once per claimed work item, *inside* the
/// per-item `catch_unwind`. Panics when the armed plan schedules a
/// [`Injection::WorkerPanic`] at this hook-call ordinal.
#[inline]
pub fn worker_item_hook(index: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    worker_item_slow(index);
}

#[cold]
fn worker_item_slow(index: usize) {
    let Some(active) = current() else { return };
    let n = active.worker_items.fetch_add(1, Ordering::Relaxed);
    for (k, injection) in active.plan.injections.iter().enumerate() {
        if let Injection::WorkerPanic { item } = injection {
            if n == *item && mark_fired(&active, k) {
                panic!("chaos: injected worker panic at work unit {n} (item index {index})");
            }
        }
    }
}

/// Deadline hook: called from every `Deadline::expired` poll. Returns
/// `true` (sticky) once the armed plan's poll budget is exhausted.
#[inline]
pub fn deadline_poll_hook() -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    deadline_poll_slow()
}

#[cold]
fn deadline_poll_slow() -> bool {
    let Some(active) = current() else {
        return false;
    };
    let n = active.deadline_polls.fetch_add(1, Ordering::Relaxed);
    let mut expired = false;
    for (k, injection) in active.plan.injections.iter().enumerate() {
        if let Injection::DeadlineExpiry { after_polls } = injection {
            if n >= *after_polls {
                mark_fired(&active, k);
                expired = true;
            }
        }
    }
    expired
}

/// Journal-flush hook: given the byte length of the text about to be
/// flushed, returns `Some(keep_bytes)` when this flush must be killed —
/// the caller writes only that prefix to the temp file, skips the
/// rename, and fails as if the process had died mid-flush.
#[inline]
pub fn flush_kill_hook(len: usize) -> Option<usize> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    flush_kill_slow(len)
}

#[cold]
fn flush_kill_slow(len: usize) -> Option<usize> {
    let active = current()?;
    let n = active.flushes.fetch_add(1, Ordering::Relaxed);
    for (k, injection) in active.plan.injections.iter().enumerate() {
        if let Injection::FlushKill { flush, keep_milli } = injection {
            if n == *flush && mark_fired(&active, k) {
                return Some(len * usize::from(*keep_milli) / 1000);
            }
        }
    }
    None
}

/// Journal-load hook: corrupts `text` in place (truncation or an
/// interior bit flip) when the armed plan schedules it. Returns `true`
/// if the text was modified. The bit flip XORs `0x02` into the nearest
/// ASCII byte, which keeps the text valid UTF-8 and never fabricates a
/// newline, so the corruption stays *inside* a record — the case the
/// lenient loader must skip and count rather than trip over.
#[inline]
pub fn journal_load_hook(text: &mut String) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    journal_load_slow(text)
}

#[cold]
fn journal_load_slow(text: &mut String) -> bool {
    let Some(active) = current() else {
        return false;
    };
    let mut changed = false;
    for (k, injection) in active.plan.injections.iter().enumerate() {
        match injection {
            Injection::JournalTruncate { keep_milli } => {
                if text.is_empty() || !mark_fired(&active, k) {
                    continue;
                }
                let mut keep = text.len() * usize::from(*keep_milli) / 1000;
                while keep < text.len() && !text.is_char_boundary(keep) {
                    keep += 1;
                }
                text.truncate(keep);
                changed = true;
            }
            Injection::JournalBitFlip { pos_milli } => {
                if text.is_empty() || !mark_fired(&active, k) {
                    continue;
                }
                let mut bytes = std::mem::take(text).into_bytes();
                let start = (bytes.len() * usize::from(*pos_milli) / 1000).min(bytes.len() - 1);
                // Walk forward (wrapping) to an ASCII byte so the flip
                // cannot break UTF-8 validity.
                let pos = (0..bytes.len())
                    .map(|d| (start + d) % bytes.len())
                    .find(|&p| bytes[p].is_ascii());
                if let Some(p) = pos {
                    bytes[p] ^= 0x02;
                    changed = true;
                }
                *text = String::from_utf8(bytes).unwrap_or_default();
            }
            _ => {}
        }
    }
    changed
}

/// Lane-block hook: when the armed plan schedules a
/// [`Injection::LanePoison`], the *first* lane block packed while armed
/// gets `Some((lane, poison))` — the caller overwrites one gathered
/// device value of that lane. `lane` is clamped to `width - 1` so the
/// poison always lands on a live lane, never on ride-along padding.
#[inline]
pub fn lane_poison_hook(width: usize) -> Option<(usize, f64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    lane_poison_slow(width)
}

#[cold]
fn lane_poison_slow(width: usize) -> Option<(usize, f64)> {
    let active = current()?;
    let n = active.lane_blocks.fetch_add(1, Ordering::Relaxed);
    for (k, injection) in active.plan.injections.iter().enumerate() {
        if let Injection::LanePoison { lane, infinity } = injection {
            if n == 0 && width > 0 && mark_fired(&active, k) {
                let value = if *infinity { f64::INFINITY } else { f64::NAN };
                return Some((usize::from(*lane).min(width - 1), value));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // Chaos state is process-global; the tests in this module serialise
    // on one mutex so `cargo test`'s parallel runner cannot interleave
    // their arm/disarm windows.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
        assert_eq!(SplitMix64::new(1).next_below(0), 0);
    }

    #[test]
    fn sample_is_pure_in_the_seed() {
        for seed in 0..64 {
            assert_eq!(ChaosPlan::sample(seed), ChaosPlan::sample(seed));
            assert_eq!(ChaosPlan::sample(seed).injections.len(), 1);
        }
        // The sampler reaches every site across a modest seed range.
        let mut sites = [false; 6];
        for seed in 0..256 {
            let site = match ChaosPlan::sample(seed).injections[0] {
                Injection::WorkerPanic { .. } => 0,
                Injection::DeadlineExpiry { .. } => 1,
                Injection::FlushKill { .. } => 2,
                Injection::JournalTruncate { .. } => 3,
                Injection::JournalBitFlip { .. } => 4,
                Injection::LanePoison { .. } => 5,
            };
            sites[site] = true;
        }
        assert!(sites.iter().all(|&s| s), "sampler missed a site: {sites:?}");
    }

    #[test]
    fn hooks_are_inert_when_disarmed() {
        let _gate = lock();
        assert!(!is_armed());
        worker_item_hook(3);
        assert!(!deadline_poll_hook());
        assert_eq!(flush_kill_hook(100), None);
        let mut text = "abc".to_string();
        assert!(!journal_load_hook(&mut text));
        assert_eq!(text, "abc");
        assert_eq!(lane_poison_hook(8), None);
        assert_eq!(disarm(), ChaosSummary::default());
    }

    #[test]
    fn worker_panic_fires_exactly_once_at_its_ordinal() {
        let _gate = lock();
        let guard = ChaosPlan::new(1)
            .with(Injection::WorkerPanic { item: 2 })
            .arm_scoped();
        worker_item_hook(10); // ordinal 0
        worker_item_hook(11); // ordinal 1
        let caught = std::panic::catch_unwind(|| worker_item_hook(12));
        assert!(caught.is_err(), "ordinal 2 must panic");
        worker_item_hook(13); // ordinal 3: the injection is spent
        let summary = guard.disarm();
        assert_eq!(
            (summary.planned, summary.fired, summary.suppressed()),
            (1, 1, 0)
        );
    }

    #[test]
    fn deadline_expiry_is_sticky() {
        let _gate = lock();
        let guard = ChaosPlan::new(2)
            .with(Injection::DeadlineExpiry { after_polls: 1 })
            .arm_scoped();
        assert!(!deadline_poll_hook());
        assert!(deadline_poll_hook());
        assert!(deadline_poll_hook());
        assert_eq!(guard.disarm().fired, 1);
    }

    #[test]
    fn flush_kill_hits_its_flush_ordinal_only() {
        let _gate = lock();
        let guard = ChaosPlan::new(3)
            .with(Injection::FlushKill {
                flush: 1,
                keep_milli: 500,
            })
            .arm_scoped();
        assert_eq!(flush_kill_hook(100), None);
        assert_eq!(flush_kill_hook(100), Some(50));
        assert_eq!(flush_kill_hook(100), None);
        assert_eq!(guard.disarm().fired, 1);
    }

    #[test]
    fn unreached_injections_count_as_suppressed() {
        let _gate = lock();
        let guard = ChaosPlan::new(4)
            .with(Injection::FlushKill {
                flush: 99,
                keep_milli: 0,
            })
            .arm_scoped();
        assert_eq!(flush_kill_hook(10), None);
        let summary = guard.disarm();
        assert_eq!((summary.fired, summary.suppressed()), (0, 1));
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let _gate = lock();
        let guard = ChaosPlan::new(5)
            .with(Injection::JournalTruncate { keep_milli: 500 })
            .arm_scoped();
        let mut text = "héllo wörld".to_string();
        assert!(journal_load_hook(&mut text));
        assert!(text.len() < "héllo wörld".len());
        assert!(std::str::from_utf8(text.as_bytes()).is_ok());
        guard.disarm();
    }

    #[test]
    fn bit_flip_changes_one_ascii_byte_and_stays_utf8() {
        let _gate = lock();
        let guard = ChaosPlan::new(6)
            .with(Injection::JournalBitFlip { pos_milli: 400 })
            .arm_scoped();
        let original = "clocksense-journal/v1\nabc\tdef\n".to_string();
        let mut text = original.clone();
        assert!(journal_load_hook(&mut text));
        assert_eq!(text.len(), original.len());
        let diffs = original
            .bytes()
            .zip(text.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        // Fires once: a second load sees the text untouched.
        let mut again = original.clone();
        assert!(!journal_load_hook(&mut again));
        assert_eq!(again, original);
        guard.disarm();
    }

    #[test]
    fn lane_poison_clamps_to_live_width_and_fires_once() {
        let _gate = lock();
        let guard = ChaosPlan::new(7)
            .with(Injection::LanePoison {
                lane: 6,
                infinity: false,
            })
            .arm_scoped();
        let (lane, value) = lane_poison_hook(3).expect("first block is poisoned");
        assert_eq!(lane, 2, "lane must clamp to width - 1");
        assert!(value.is_nan());
        assert_eq!(lane_poison_hook(8), None, "later blocks stay clean");
        assert_eq!(guard.disarm().fired, 1);
    }

    #[test]
    fn arm_scoped_guard_disarms_on_drop() {
        let _gate = lock();
        {
            let _guard = ChaosPlan::new(8)
                .with(Injection::DeadlineExpiry { after_polls: 0 })
                .arm_scoped();
            assert!(is_armed());
        }
        assert!(!is_armed());
        assert!(!deadline_poll_hook());
    }
}
