//! Work-stealing executor shared by the fault-campaign and Monte-Carlo
//! drivers.
//!
//! The three parallel drivers in this workspace (`faults::run_campaign`,
//! `montecarlo::run_scatter`, `montecarlo::tau_min_samples`) used to carry
//! copy-pasted `thread::scope` blocks that split the work into static
//! per-thread chunks. Static chunking is pathological for fault campaigns:
//! one stuck-open fault that needs the full gmin/source continuation ladder
//! costs 10–100× the median item, and every other core idles behind it.
//!
//! [`Executor::run`] instead has each worker pull the *next* item index off
//! a shared atomic counter — self-balancing regardless of per-item cost —
//! while preserving the two invariants the drivers rely on:
//!
//! * **deterministic ordering** — results land in a slot per item, so the
//!   output `Vec` is in item order no matter which worker ran what when;
//! * **panic isolation** — each item runs under
//!   [`std::panic::catch_unwind`]; a panicking item becomes a
//!   [`JobPanic`] record in its slot instead of aborting the run.
//!
//! Per-item wall clock and panic counts are recorded through an optional
//! `clocksense-telemetry` scope (`items`, `panics`, `item_wall`).
//!
//! Scheduling is per item only: a caller that wants SIMD lanes packs its
//! variants itself and calls the spice crate's `transient_batch`.
//!
//! ```
//! use clocksense_exec::Executor;
//!
//! let squares = Executor::new(4).run(8, |i| i * i);
//! let squares: Vec<usize> = squares.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use clocksense_telemetry::{Counter, Scope, Timer};

/// A cooperative cancellation token with an optional wall-clock expiry.
///
/// Long-running per-item work (a Newton iteration, a transient step) polls
/// [`expired`](Deadline::expired) at its inner-loop boundaries and bails
/// out cleanly when the token has expired or been cancelled — the
/// *soft-deadline* mechanism that keeps one pathological item from
/// stalling a whole campaign. The token is a cheap `Arc` handle:
/// clone it into workers freely, cancel it from anywhere.
///
/// Expiry is checked lazily against [`Instant::now`]; nothing is spawned
/// and nothing fires asynchronously, so a deadline only takes effect at
/// the polling points the computation itself provides (hence *soft*).
///
/// # Examples
///
/// ```
/// use clocksense_exec::Deadline;
/// use std::time::Duration;
///
/// let d = Deadline::after(Duration::from_secs(3600));
/// assert!(!d.expired());
/// d.cancel();
/// assert!(d.expired());
///
/// let already = Deadline::after(Duration::ZERO);
/// assert!(already.expired());
/// ```
#[derive(Debug, Clone)]
pub struct Deadline {
    inner: Arc<DeadlineInner>,
}

#[derive(Debug)]
struct DeadlineInner {
    expires_at: Option<Instant>,
    cancelled: AtomicBool,
}

impl Deadline {
    /// A deadline that expires `budget` from now (or is already expired
    /// for a zero budget).
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            inner: Arc::new(DeadlineInner {
                expires_at: Some(Instant::now() + budget),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A deadline with no wall-clock expiry: it only trips when
    /// [`cancel`](Deadline::cancel) is called on any clone.
    pub fn manual() -> Deadline {
        Deadline {
            inner: Arc::new(DeadlineInner {
                expires_at: None,
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// Trips the token immediately; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once the token has been cancelled or its wall-clock budget
    /// has run out. Cheap enough to poll from inner loops: one relaxed
    /// atomic load plus (for timed deadlines) one monotonic clock read.
    ///
    /// Every poll also passes through the chaos deadline hook, so an
    /// armed [`clocksense_chaos`] plan can force an expiry mid-Newton
    /// exactly where a real wall-clock expiry would be observed. The
    /// hook is one relaxed load when no plan is armed.
    pub fn expired(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || clocksense_chaos::deadline_poll_hook()
            || self.inner.expires_at.is_some_and(|t| Instant::now() >= t)
    }
}

/// Two handles are equal iff they are clones of one token. This is what
/// lets option structs carrying a `Deadline` stay `PartialEq` without
/// pretending two independent tokens with the same budget are the same
/// deadline.
impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A worker item panicked; its slot carries this record instead of a value.
///
/// The message is the stringified panic payload (`&str` / `String`
/// payloads are preserved verbatim; anything else becomes a placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Shared work-stealing executor over scoped threads.
///
/// Construction is cheap (no threads are kept alive between [`run`]
/// calls); the pool lives only for the duration of one `run`.
///
/// [`run`]: Executor::run
#[derive(Debug, Clone, Default)]
pub struct Executor {
    threads: usize,
    telemetry: Option<Scope>,
}

impl Executor {
    /// An executor with `threads` workers; `0` means one per available core.
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads,
            telemetry: None,
        }
    }

    /// Record `items` / `panics` counters and the `item_wall` timer under
    /// `scope` for every subsequent [`run`](Executor::run).
    pub fn with_telemetry(mut self, scope: Scope) -> Executor {
        self.telemetry = Some(scope);
        self
    }

    /// The worker count a call to [`run`](Executor::run) over `items`
    /// items would use.
    pub fn workers_for(&self, items: usize) -> usize {
        let threads = if self.threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        threads.min(items).max(1)
    }

    /// Run `job` for every index in `0..items`, in parallel, returning the
    /// results in item order.
    ///
    /// Workers repeatedly claim the next unclaimed index from a shared
    /// atomic counter, so expensive items do not serialise the rest of the
    /// batch behind one thread. Slot `i` of the returned `Vec` holds
    /// `Ok(job(i))`, or `Err(JobPanic)` if that particular call panicked;
    /// panics never propagate across items or out of `run`.
    pub fn run<T, F>(&self, items: usize, job: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if items == 0 {
            return Vec::new();
        }
        let workers = self.workers_for(items);
        let (item_counter, panic_counter, item_wall) = match &self.telemetry {
            Some(scope) => (
                scope.counter("items"),
                scope.counter("panics"),
                scope.timer("item_wall"),
            ),
            None => (Counter::noop(), Counter::noop(), Timer::noop()),
        };

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, JobPanic>)>();
        let job = &job;

        let mut slots: Vec<Option<Result<T, JobPanic>>> = Vec::new();
        slots.resize_with(items, || None);

        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let item_counter = item_counter.clone();
                let panic_counter = panic_counter.clone();
                let item_wall = item_wall.clone();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let tick = item_wall.start();
                    // The chaos hook runs inside the catch_unwind so an
                    // injected worker panic degrades to a JobPanic
                    // record through exactly the code path a real
                    // library bug would take.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        clocksense_chaos::worker_item_hook(i);
                        job(i)
                    }));
                    tick.stop();
                    item_counter.incr();
                    let outcome = outcome.map_err(|payload| {
                        panic_counter.incr();
                        JobPanic {
                            index: i,
                            message: panic_message(payload),
                        }
                    });
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, outcome) in rx {
                slots[i] = Some(outcome);
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every item index is claimed exactly once"))
            .collect()
    }

    /// Run `job` for every index in `indices`, in parallel, returning the
    /// results in `indices` order.
    ///
    /// This is the work-list form of [`run`](Executor::run) used by the
    /// checkpoint/resume layer: after a journal replay filters out the
    /// already-verdicted items, only the surviving original indices are
    /// handed to the workers. Slot `k` of the returned `Vec` corresponds
    /// to `indices[k]`, and a panicking call reports the *original* index
    /// in its [`JobPanic`], so callers can merge results back into a full
    /// work list without extra bookkeeping.
    ///
    /// ```
    /// use clocksense_exec::Executor;
    ///
    /// let out = Executor::new(2).run_indexed(&[4, 1, 7], |i| i * 10);
    /// let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
    /// assert_eq!(values, vec![40, 10, 70]);
    /// ```
    pub fn run_indexed<T, F>(&self, indices: &[usize], job: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(indices.len(), |k| job(indices[k]))
            .into_iter()
            .enumerate()
            .map(|(k, outcome)| {
                outcome.map_err(|panic| JobPanic {
                    index: indices[k],
                    message: panic.message,
                })
            })
            .collect()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_indexed_reports_original_indices() {
        let out = Executor::new(3).run_indexed(&[9, 2, 5, 11], |i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i + 100
        });
        assert_eq!(out[0], Ok(109));
        assert_eq!(out[1], Ok(102));
        let panic = out[2].as_ref().unwrap_err();
        assert_eq!(panic.index, 5);
        assert!(panic.message.contains("boom at 5"));
        assert_eq!(out[3], Ok(111));
        assert!(Executor::new(2).run_indexed(&[], |i: usize| i).is_empty());
    }

    #[test]
    fn results_are_in_item_order() {
        // Make later items finish first by sleeping on the early ones.
        let out = Executor::new(4).run(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let seq = Executor::new(1).run(33, |i| i * i + 1);
        let par = Executor::new(8).run(33, |i| i * i + 1);
        let seq: Vec<usize> = seq.into_iter().map(Result::unwrap).collect();
        let par: Vec<usize> = par.into_iter().map(Result::unwrap).collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn a_panicking_item_is_isolated() {
        let out = Executor::new(3).run(10, |i| {
            if i == 4 {
                panic!("injected failure on item {i}");
            }
            i
        });
        for (i, slot) in out.iter().enumerate() {
            if i == 4 {
                let err = slot.as_ref().unwrap_err();
                assert_eq!(err.index, 4);
                assert!(err.message.contains("injected failure"), "{}", err.message);
            } else {
                assert_eq!(*slot.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = Executor::new(7).run(100, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_items_is_a_noop() {
        let out = Executor::new(4).run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_clamped_to_items() {
        let ex = Executor::new(8);
        assert_eq!(ex.workers_for(3), 3);
        assert_eq!(ex.workers_for(100), 8);
        assert_eq!(ex.workers_for(1), 1);
    }

    #[test]
    fn deadline_cancel_reaches_every_clone() {
        let d = Deadline::manual();
        let clone = d.clone();
        assert!(!clone.expired());
        d.cancel();
        assert!(clone.expired());
    }

    #[test]
    fn deadline_zero_budget_is_expired_and_long_budget_is_not() {
        assert!(Deadline::after(std::time::Duration::ZERO).expired());
        assert!(!Deadline::after(std::time::Duration::from_secs(3600)).expired());
    }

    #[test]
    fn deadline_equality_is_identity() {
        let a = Deadline::manual();
        let b = Deadline::manual();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }

    #[test]
    fn telemetry_counts_items_and_panics() {
        let registry = clocksense_telemetry::Registry::new();
        let scope = registry.scope("exec_test");
        let out = Executor::new(2).with_telemetry(scope).run(6, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
        let report = registry.snapshot();
        assert_eq!(report.counter("exec_test.items"), Some(6));
        assert_eq!(report.counter("exec_test.panics"), Some(1));
    }
}
