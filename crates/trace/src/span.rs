//! The thread-local span stack: wall-clock self/total time per span.
//!
//! A span is opened with [`span`] (or [`span_with`] for lazily built
//! labels) and closed when the returned [`SpanGuard`] drops. Spans nest
//! lexically — `evaluate` → `stratum` → `iteration` → `rule` in the
//! deductive engine — and on close each span knows its *total* time (wall
//! clock inside the span) and its *self* time (total minus child spans).
//!
//! Spans are **inert unless observed**: when no sink is installed and
//! profiling is off, opening a span reads one thread-local flag and does
//! not even take a timestamp. When active, closing a span emits
//! [`EventKind::SpanEnter`]/[`EventKind::SpanExit`] events (if a sink is
//! installed) and accumulates into the thread's [`Profile`] (if profiling
//! is on), which the shell's `profile` command renders as a per-rule
//! self-time table.

use crate::collector;
use crate::event::EventKind;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The fixed span taxonomy. `Op` covers instrumented `itdb-lrp` algebra
/// and relation operations below the engine's four structural levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// One whole evaluation (engine entry point).
    Evaluate,
    /// One stratum of the stratified fixpoint.
    Stratum,
    /// One iteration of `T_GP`.
    Iteration,
    /// One clause application.
    Rule,
    /// A sub-engine operation (algebra op, coalesce, subsumption insert).
    Op,
}

impl SpanKind {
    /// Stable lowercase name used in event streams and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Evaluate => "evaluate",
            SpanKind::Stratum => "stratum",
            SpanKind::Iteration => "iteration",
            SpanKind::Rule => "rule",
            SpanKind::Op => "op",
        }
    }
}

struct Frame {
    kind: SpanKind,
    label: String,
    start: Instant,
    /// Accumulated total time of direct children, for self-time.
    child: Duration,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    static PROFILE: RefCell<HashMap<(SpanKind, String), ProfileEntry>> =
        RefCell::new(HashMap::new());
}

/// Is span profiling on for this thread?
pub fn profiling() -> bool {
    PROFILING.with(|p| p.get())
}

/// Turns span profiling on or off for this thread. While on, closing
/// spans accumulate into the profile returned by [`take_profile`].
pub fn set_profiling(on: bool) {
    PROFILING.with(|p| p.set(on));
}

/// Returns the profile accumulated since the last call (or since
/// profiling was enabled) and clears the accumulator.
pub fn take_profile() -> Profile {
    let mut entries: Vec<ProfileEntry> = PROFILE.with(|p| {
        let mut map = p.borrow_mut();
        let out = map.values().cloned().collect();
        map.clear();
        out
    });
    entries.sort_by_key(|e| std::cmp::Reverse(e.self_time));
    Profile { entries }
}

/// Aggregated span timings for one measurement window, sorted by
/// descending self-time (the shell's `profile` table order).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One entry per distinct `(kind, label)` pair.
    pub entries: Vec<ProfileEntry>,
}

/// Aggregate timings for one `(kind, label)` span identity.
#[derive(Debug, Clone)]
pub struct ProfileEntry {
    /// Span kind.
    pub kind: SpanKind,
    /// Span label (e.g. the rule's source text).
    pub label: String,
    /// Number of times the span ran.
    pub count: u64,
    /// Total wall clock, children included.
    pub total: Duration,
    /// Wall clock minus child spans.
    pub self_time: Duration,
}

impl Profile {
    /// Entries of one kind, in the profile's (self-time) order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &ProfileEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }
}

/// Formats a duration human-friendly: `1.234s`, `12.345ms`, `45.6µs`,
/// `789ns`. Shared by `EvalStats` display and the `profile` table so the
/// two surfaces render identically.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// RAII guard closing the span on drop. Inert (no timestamp was taken)
/// when tracing and profiling were both off at open time.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span. The label is borrowed and only copied when the span is
/// actually observed (a sink is installed or profiling is on).
pub fn span(kind: SpanKind, label: &str) -> SpanGuard {
    span_with(kind, || label.to_string())
}

/// Opens a span with a lazily built label: `label()` runs only when the
/// span is observed, so hot call sites pay nothing to format labels that
/// nobody is looking at.
pub fn span_with(kind: SpanKind, label: impl FnOnce() -> String) -> SpanGuard {
    if !collector::enabled() && !profiling() {
        return SpanGuard { active: false };
    }
    let label = label();
    let depth = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len();
        stack.push(Frame {
            kind,
            label: label.clone(),
            start: Instant::now(),
            child: Duration::ZERO,
        });
        depth
    });
    collector::emit(|| EventKind::SpanEnter { kind, label, depth });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some((frame, depth)) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop()?;
            Some((frame, stack.len()))
        }) else {
            return;
        };
        let total = frame.start.elapsed();
        let self_time = total.saturating_sub(frame.child);
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                parent.child += total;
            }
        });
        if profiling() {
            PROFILE.with(|p| {
                let mut map = p.borrow_mut();
                let entry = map
                    .entry((frame.kind, frame.label.clone()))
                    .or_insert_with(|| ProfileEntry {
                        kind: frame.kind,
                        label: frame.label.clone(),
                        count: 0,
                        total: Duration::ZERO,
                        self_time: Duration::ZERO,
                    });
                entry.count += 1;
                entry.total += total;
                entry.self_time += self_time;
            });
        }
        collector::emit(|| EventKind::SpanExit {
            kind: frame.kind,
            label: frame.label,
            depth,
            total_us: total.as_micros().min(u128::from(u64::MAX)) as u64,
            self_us: self_time.as_micros().min(u128::from(u64::MAX)) as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_when_disabled() {
        set_profiling(false);
        let g = span(SpanKind::Evaluate, "nobody-watching");
        assert!(!g.active);
        drop(g);
        assert!(take_profile().entries.is_empty());
    }

    #[test]
    fn profile_accumulates_self_and_total_time() {
        set_profiling(true);
        {
            let _outer = span(SpanKind::Evaluate, "outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span(SpanKind::Rule, "inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        set_profiling(false);
        let profile = take_profile();
        let outer = profile
            .entries
            .iter()
            .find(|e| e.label == "outer")
            .expect("outer profiled");
        let inner = profile
            .entries
            .iter()
            .find(|e| e.label == "inner")
            .expect("inner profiled");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer total covers inner; outer self excludes it.
        assert!(outer.total >= inner.total);
        assert!(outer.self_time <= outer.total - inner.total + Duration::from_millis(1));
        assert_eq!(inner.self_time, inner.total);
        // Second take is empty (accumulator cleared).
        assert!(take_profile().entries.is_empty());
    }

    #[test]
    fn durations_render_human_friendly() {
        assert_eq!(fmt_duration(Duration::from_nanos(789)), "789ns");
        assert_eq!(fmt_duration(Duration::from_micros(45_600)), "45.600ms");
        assert_eq!(fmt_duration(Duration::from_nanos(45_600)), "45.6µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_234)), "1.234s");
    }
}
