//! # itdb-trace — structured tracing and metrics export for the workspace
//!
//! A zero-dependency observability layer (offline-friendly, like the
//! vendored `third_party/` shims) the fixpoint engines report into:
//!
//! * **Spans** ([`span`], [`SpanKind`]) — a thread-local stack
//!   (`evaluate` → `stratum` → `iteration` → `rule`) with wall-clock
//!   *total* and *self* time per span, accumulated into a [`Profile`]
//!   when profiling is on;
//! * **Events** ([`Event`]) — typed records of what the engine did:
//!   tuples derived/inserted/subsumed (with rule id and source facts, so
//!   derivations can be replayed), governor trips, index lookups, span
//!   boundaries;
//! * **Sinks** ([`Sink`]) — pluggable consumers: a bounded [`RingSink`]
//!   for the interactive shell, a [`JsonlSink`] writing one JSON object
//!   per line for offline analysis, a [`MemorySink`] for tests. With no
//!   sink installed, emission is a single thread-local flag check and the
//!   event is never even constructed;
//! * **Metrics** ([`prom`]) — a small Prometheus text exposition-format
//!   builder (names validated, label values escaped) used to render
//!   evaluation statistics and span timings as `.prom` files;
//! * **JSON** ([`json`]) — a minimal parser used by golden tests and CI
//!   to validate the JSONL event stream without external crates;
//! * **Request context** ([`context`]) — a thread-local request id
//!   stamped onto every emitted event, so a multiplexed stream can be
//!   filtered down to one request after the fact;
//! * **Flight recorder** ([`flight`]) — an always-on bounded per-thread
//!   ring of recent events with a global registry, snapshotted into a
//!   forensic dump on governor trips, worker panics, and sheds.
//!
//! Everything is **thread-local by design**: each evaluation thread owns
//! its span stack, sink list, and profile, so concurrent evaluations never
//! interleave their streams. The overhead contract when disabled — no
//! sinks, profiling off — is one `Cell` read per instrumentation site.

#![warn(missing_docs)]

mod collector;
pub mod context;
mod event;
mod fanout;
pub mod flight;
pub mod json;
pub mod prom;
mod sink;
mod span;

pub use collector::{add_sink, clear_sinks, emit, enabled, flush_sinks, remove_sink, SinkId};
pub use context::{current_request_id, set_request_id, RequestIdGuard};
pub use event::{Event, EventKind, SourceFact};
pub use fanout::{FanoutSink, Subscription};
pub use sink::{dropped_events, JsonlSink, MemorySink, RingSink, Sink};
pub use span::{
    fmt_duration, profiling, set_profiling, span, span_with, take_profile, Profile, ProfileEntry,
    SpanGuard, SpanKind,
};
