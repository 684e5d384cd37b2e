//! Deterministic fault injection for the serve runtime (feature `chaos`,
//! test/CI only — never compiled into a default build).
//!
//! A [`ChaosConfig`] describes a schedule of faults; [`Chaos`]
//! executes it against a live server:
//!
//! - **worker panics** — every `panic_every`-th request panics inside the
//!   request handler (caught by the worker's `catch_unwind`, answered
//!   `500`);
//! - **worker deaths** — every `kill_every`-th request answers `500` and
//!   then panics *outside* the catch region, killing the worker thread so
//!   the supervisor must respawn it.
//!
//! The schedule is purely counter-driven: the same config
//! against the same request sequence injects the same faults, which is
//! what lets the chaos soak assert exact invariants instead of "it
//! probably survived".

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

/// The fault schedule.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic inside the handler on every Nth request (1-based; `None`
    /// disables).
    pub panic_every: Option<u64>,
    /// Kill the worker thread on every Nth request (after answering the
    /// request with a 500, so no accepted request loses its response).
    pub kill_every: Option<u64>,
}

impl ChaosConfig {
    /// Reads the schedule from `ITDB_CHAOS_*` environment variables
    /// (`PANIC_EVERY`, `KILL_EVERY`). Returns `None` when no fault is
    /// enabled.
    pub fn from_env() -> Option<ChaosConfig> {
        let get =
            |name: &str| -> Option<u64> { std::env::var(name).ok().and_then(|v| v.parse().ok()) };
        let cfg = ChaosConfig {
            panic_every: get("ITDB_CHAOS_PANIC_EVERY").filter(|&n| n > 0),
            kill_every: get("ITDB_CHAOS_KILL_EVERY").filter(|&n| n > 0),
        };
        (cfg.panic_every.is_some() || cfg.kill_every.is_some()).then_some(cfg)
    }
}

/// What the schedule says to do with the request just popped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Handle it normally.
    None,
    /// Panic inside the handler (caught, answered 500).
    PanicInHandler,
    /// Answer 500, then panic outside the catch region (worker dies).
    KillWorker,
}

/// Executes a [`ChaosConfig`] against the live request stream.
#[derive(Debug)]
pub struct Chaos {
    config: ChaosConfig,
    requests: AtomicU64,
}

impl Chaos {
    /// A chaos driver for `config`.
    pub fn new(config: ChaosConfig) -> Self {
        Chaos {
            config,
            requests: AtomicU64::new(0),
        }
    }

    /// Advances the request counter and returns the scheduled action.
    /// `KillWorker` wins when both faults land on the same request.
    pub fn on_request(&self) -> ChaosAction {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.kill_every.is_some_and(|k| n.is_multiple_of(k)) {
            return ChaosAction::KillWorker;
        }
        if self.config.panic_every.is_some_and(|k| n.is_multiple_of(k)) {
            return ChaosAction::PanicInHandler;
        }
        ChaosAction::None
    }

    /// Requests seen so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_kill_wins_ties() {
        let chaos = Chaos::new(ChaosConfig {
            panic_every: Some(3),
            kill_every: Some(6),
        });
        let actions: Vec<ChaosAction> = (0..12).map(|_| chaos.on_request()).collect();
        use ChaosAction::*;
        assert_eq!(
            actions,
            vec![
                None,
                None,
                PanicInHandler,
                None,
                None,
                KillWorker, // 6 is a multiple of both: kill wins
                None,
                None,
                PanicInHandler,
                None,
                None,
                KillWorker,
            ]
        );
    }
}
