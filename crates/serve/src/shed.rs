//! Deadline-aware admission control: shed what would expire in queue.
//!
//! Every accepted connection is stamped at enqueue time. When a worker
//! finally pops it, [`AdmissionControl::verdict`] compares the time
//! already waited plus the *expected* service time — an EWMA of observed
//! request latencies — against the request's queue deadline. A request
//! that would blow its deadline anyway is answered with a fast `503` and
//! a `Retry-After` derived from the same EWMA and the current queue
//! depth, instead of wasting a worker on an answer nobody is waiting for.
//!
//! Everything is integer atomics (µs); no locks on the hot path.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// EWMA smoothing factor as a right-shift: alpha = 1/8.
const EWMA_SHIFT: u32 = 3;

/// What to do with a request a worker just popped off the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Serve it.
    Serve,
    /// Shed it with `503` and this `Retry-After`, in seconds.
    Shed {
        /// Seconds the client should wait before retrying.
        retry_after_s: u64,
    },
}

/// Shared admission state: queue depth and the service-time EWMA.
#[derive(Debug)]
pub struct AdmissionControl {
    /// Smoothed observed service time, µs. 0 = no observation yet.
    ewma_us: AtomicU64,
    /// Connections currently queued (enqueued, not yet popped).
    depth: AtomicU64,
    workers: u64,
}

impl AdmissionControl {
    /// A controller for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        AdmissionControl {
            ewma_us: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            workers: workers.max(1) as u64,
        }
    }

    /// A connection entered the queue.
    pub fn on_enqueue(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left the queue (popped by a worker, or bounced by a
    /// full queue after the optimistic increment).
    pub fn on_dequeue(&self) {
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Connections currently waiting in queue.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Folds one observed request service time into the EWMA.
    pub fn observe_service(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        // Racy read-modify-write is fine: the EWMA is a smoothing
        // heuristic, and a lost update only delays convergence by one
        // sample.
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else if sample >= old {
            old + ((sample - old) >> EWMA_SHIFT)
        } else {
            old - ((old - sample) >> EWMA_SHIFT)
        };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    /// The smoothed service time, µs (0 until the first observation).
    pub fn ewma_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }

    /// Decides a popped request's fate: shed if the time already waited
    /// plus the expected service time exceeds `deadline`.
    pub fn verdict(&self, waited: Duration, deadline: Duration) -> Admission {
        let ewma = self.ewma_us();
        let waited_us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
        let deadline_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        if waited_us.saturating_add(ewma) <= deadline_us {
            return Admission::Serve;
        }
        Admission::Shed {
            retry_after_s: self.retry_after_s(),
        }
    }

    /// How long a client should back off: the EWMA times the work queued
    /// ahead of it, spread over the pool, rounded up — never less than 1s.
    pub fn retry_after_s(&self) -> u64 {
        let ewma = self.ewma_us();
        let backlog_us = ewma.saturating_mul(self.depth() + 1) / self.workers;
        (backlog_us.div_ceil(1_000_000)).max(1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_then_smooths() {
        let ac = AdmissionControl::new(4);
        assert_eq!(ac.ewma_us(), 0);
        ac.observe_service(Duration::from_micros(800));
        assert_eq!(ac.ewma_us(), 800, "first sample seeds");
        ac.observe_service(Duration::from_micros(1600));
        assert_eq!(ac.ewma_us(), 900, "800 + (1600-800)/8");
        ac.observe_service(Duration::from_micros(100));
        assert_eq!(ac.ewma_us(), 800, "900 - (900-100)/8");
    }

    #[test]
    fn fresh_requests_are_served_and_expired_ones_shed() {
        let ac = AdmissionControl::new(2);
        ac.observe_service(Duration::from_millis(100));
        // Plenty of deadline left: serve.
        assert_eq!(
            ac.verdict(Duration::from_millis(10), Duration::from_secs(1)),
            Admission::Serve
        );
        // Waited 950ms of a 1s deadline with ~100ms expected service:
        // would expire — shed.
        let v = ac.verdict(Duration::from_millis(950), Duration::from_secs(1));
        assert!(matches!(v, Admission::Shed { retry_after_s } if retry_after_s >= 1));
    }

    #[test]
    fn zero_ewma_never_sheds_before_the_deadline() {
        let ac = AdmissionControl::new(2);
        assert_eq!(
            ac.verdict(Duration::from_millis(500), Duration::from_secs(1)),
            Admission::Serve,
            "no observation yet: only the waited time counts"
        );
        assert!(matches!(
            ac.verdict(Duration::from_secs(2), Duration::from_secs(1)),
            Admission::Shed { .. }
        ));
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let ac = AdmissionControl::new(1);
        ac.observe_service(Duration::from_secs(2));
        assert_eq!(ac.retry_after_s(), 2, "empty queue: one service time");
        for _ in 0..3 {
            ac.on_enqueue();
        }
        assert_eq!(ac.retry_after_s(), 8, "3 queued + self, 1 worker, 2s each");
        ac.on_dequeue();
        assert_eq!(ac.retry_after_s(), 6);
        for _ in 0..4 {
            ac.on_dequeue(); // saturates at zero, no underflow
        }
        assert_eq!(ac.depth(), 0);
    }
}
