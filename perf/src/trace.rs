//! In-memory spans around the harness's calls into each layer.
//!
//! A span has a name, a start and end relative to the tracer's origin,
//! the span that was open when it started (its parent) and the rep it
//! belongs to; the rep is the "request". Spans are recorded only from
//! the harness thread, so the tracer needs no synchronisation. They stay
//! in memory and are written once, at exit, as Chrome trace events.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `core.sweep_vmin`; roots are `perf.setup` and
    /// `perf.rep`.
    pub name: &'static str,
    /// Start, relative to the tracer origin.
    pub start: Duration,
    /// End, relative to the tracer origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to (0 is the warm-up rep of set-up).
    pub rep: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans while enabled; a disabled tracer only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    rep: Cell<u64>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            rep: Cell::new(0),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans opened from now on with `rep`.
    pub fn set_rep(&self, rep: u64) {
        self.rep.set(rep);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let start = self.origin.elapsed();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.borrow().last().copied(),
                rep: self.rep.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations (s).
    pub total_s: f64,
    /// Summed durations minus the time their child spans cover (s).
    pub self_s: f64,
}

/// Per-name totals and self times of the spans `keep` accepts. Children
/// of one span run one after the other on the harness thread, so the
/// time they cover is the sum of their durations.
pub fn layer_times(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, LayerTime> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_time[p] += span.duration();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        if !keep(span) {
            continue;
        }
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += span.duration().as_secs_f64();
        entry.self_s += span.duration().saturating_sub(children).as_secs_f64();
    }
    out
}

/// Total duration of the root spans (those without a parent) `keep`
/// accepts, in s.
pub fn root_seconds(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && keep(s))
        .map(|s| s.duration().as_secs_f64())
        .sum()
}

/// The spans as Chrome trace-event JSON objects (complete events, µs).
pub fn chrome_events(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \
             \"parent\": {parent}, \"rep\": {}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start.as_secs_f64() * 1e6,
            s.duration().as_secs_f64() * 1e6,
            s.rep,
        );
    }
    out.push_str("\n  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // set-up [0, 40) with a build [0, 30); rep [100, 200): build
        // [100, 110), sweep [110, 170) with a nested inner [120, 150),
        // tau [170, 195).
        let spans = vec![
            Span {
                rep: 0,
                ..span("perf.setup", 0, 40, None)
            },
            Span {
                rep: 0,
                ..span("core.build", 0, 30, Some(0))
            },
            span("perf.rep", 100, 200, None),
            span("core.build", 100, 110, Some(2)),
            span("core.sweep_vmin", 110, 170, Some(2)),
            span("inner", 120, 150, Some(4)),
            span("core.find_tau_min", 170, 195, Some(2)),
        ];
        let is_rep = |s: &Span| s.rep > 0;
        let t = layer_times(&spans, is_rep);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t["perf.rep"].total_s, 0.100));
        assert!(close(t["perf.rep"].self_s, 0.005));
        assert!(close(t["core.sweep_vmin"].total_s, 0.060));
        assert!(close(t["core.sweep_vmin"].self_s, 0.030));
        assert!(close(t["inner"].self_s, 0.030));
        assert!(close(t["core.build"].self_s, 0.010));
        assert!(!t.contains_key("perf.setup"));
        assert!(close(root_seconds(&spans, is_rep), 0.100));
        // Self times partition the root's duration.
        let self_sum: f64 = t.values().map(|l| l.self_s).sum();
        assert!(close(self_sum, 0.100));
        // The set-up tree is counted on its own base.
        let setup = layer_times(&spans, |s| s.rep == 0);
        assert!(close(setup["core.build"].self_s, 0.030));
        assert!(close(setup["perf.setup"].self_s, 0.010));
        assert!(close(root_seconds(&spans, |s| s.rep == 0), 0.040));
    }

    #[test]
    fn tracer_records_parents_only_while_enabled() {
        let tracer = Tracer::new();
        tracer.span("ignored", || ());
        tracer.set_enabled(true);
        tracer.set_rep(3);
        let v = tracer.span("perf.rep", || tracer.span("core.build", || 7));
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end >= s.start));
        assert!(chrome_events(&spans).contains("\"parent\": 0"));
    }
}
