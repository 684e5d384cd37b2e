//! Background snapshot writing: a dedicated writer thread that takes
//! encoded sections off the submitting thread's hands, so durability
//! (serialization hand-off aside, the fsync-heavy [`SnapshotStore::write`]
//! path) never blocks evaluation or request handling.
//!
//! The queue is a **coalescing slot of depth one**: each [`submit`] call
//! replaces any still-pending snapshot with the newer one. Snapshots are
//! full images (not deltas), so the newest one subsumes everything queued
//! behind it — under a burst of checkpoints the writer persists the latest
//! state and counts the superseded submissions instead of falling behind
//! on an unbounded backlog. [`flush`] waits for the slot to drain (used on
//! graceful shutdown); dropping the writer drains the pending snapshot,
//! then joins the thread.
//!
//! [`submit`]: BackgroundWriter::submit
//! [`flush`]: BackgroundWriter::flush

use crate::store::{Section, SnapshotStore};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Counters describing what a [`BackgroundWriter`] has done so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BgWriterStats {
    /// Snapshots handed to [`BackgroundWriter::submit`].
    pub submitted: u64,
    /// Snapshots durably written.
    pub written: u64,
    /// Submissions superseded by a newer snapshot before they reached the
    /// disk (latest-wins coalescing).
    pub coalesced: u64,
    /// Writes that failed (the writer keeps going; failures are counted,
    /// never fatal).
    pub failed: u64,
    /// Generation of the most recent successful write.
    pub last_generation: Option<u64>,
    /// Image size of the most recent successful write, in bytes.
    pub last_bytes: u64,
}

struct Slot {
    pending: Option<Vec<Section>>,
    /// The writer is between taking a job and finishing it.
    writing: bool,
    stop: bool,
    stats: BgWriterStats,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Signals the writer that work (or stop) arrived.
    ready: Condvar,
    /// Signals flushers that the slot drained.
    idle: Condvar,
}

impl Shared {
    /// A poisoned slot mutex only means some thread panicked mid-update;
    /// the slot state itself is always valid, so recover instead of
    /// wedging every subsequent submit/flush.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A dedicated snapshot-writing thread with a coalescing depth-one queue.
pub struct BackgroundWriter {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundWriter {
    /// Spawns the writer thread against `store`.
    pub fn spawn(store: Arc<SnapshotStore>) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                pending: None,
                writing: false,
                stop: false,
                stats: BgWriterStats::default(),
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("itdb-bg-writer".into())
            .spawn(move || writer_loop(&thread_shared, &store))?;
        Ok(BackgroundWriter {
            shared,
            handle: Some(handle),
        })
    }

    /// Queues `sections` as the next snapshot to persist. Never blocks on
    /// I/O: if a previous submission is still pending, it is replaced
    /// (counted in [`BgWriterStats::coalesced`]).
    pub fn submit(&self, sections: Vec<Section>) {
        let mut slot = self.shared.lock();
        slot.stats.submitted += 1;
        if slot.pending.replace(sections).is_some() {
            slot.stats.coalesced += 1;
        }
        drop(slot);
        self.shared.ready.notify_one();
    }

    /// Waits until every submitted snapshot has reached the disk (or
    /// failed), up to `timeout`. Returns `false` on timeout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.lock();
        while slot.pending.is_some() || slot.writing {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .shared
                .idle
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            slot = next;
        }
        true
    }

    /// A snapshot of the writer's counters.
    pub fn stats(&self) -> BgWriterStats {
        self.shared.lock().stats.clone()
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.lock();
            slot.stop = true;
        }
        self.shared.ready.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(shared: &Shared, store: &SnapshotStore) {
    loop {
        let job = {
            let mut slot = shared.lock();
            loop {
                if let Some(job) = slot.pending.take() {
                    slot.writing = true;
                    break job;
                }
                if slot.stop {
                    return;
                }
                slot = shared.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
        };
        let result = store.write(&job);
        let mut slot = shared.lock();
        slot.writing = false;
        match result {
            Ok(w) => {
                slot.stats.written += 1;
                slot.stats.last_generation = Some(w.generation);
                slot.stats.last_bytes = w.bytes;
            }
            Err(_) => slot.stats.failed += 1,
        }
        drop(slot);
        shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_store(name: &str) -> Arc<SnapshotStore> {
        let dir = std::env::temp_dir().join(format!(
            "itdb_bg_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Arc::new(SnapshotStore::open(&dir).unwrap())
    }

    fn sections(tag: u8) -> Vec<Section> {
        vec![Section::new(tag, vec![tag; 64])]
    }

    #[test]
    fn submitted_snapshots_reach_the_disk() {
        let store = temp_store("reach");
        let w = BackgroundWriter::spawn(Arc::clone(&store)).unwrap();
        w.submit(sections(1));
        assert!(w.flush(Duration::from_secs(10)));
        let stats = w.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.written, 1);
        assert_eq!(stats.failed, 0);
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().1, sections(1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_burst_coalesces_to_the_newest_snapshot() {
        let store = temp_store("coalesce");
        let w = BackgroundWriter::spawn(Arc::clone(&store)).unwrap();
        // Submit faster than the disk: latest-wins semantics mean the
        // final state always survives, and superseded ones are counted.
        for i in 0..50u8 {
            w.submit(sections(i));
        }
        assert!(w.flush(Duration::from_secs(10)));
        let stats = w.stats();
        assert_eq!(stats.submitted, 50);
        assert_eq!(stats.written + stats.coalesced, 50);
        assert!(stats.written >= 1);
        // The newest submission is always among the written ones.
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().1, sections(49));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn drop_drains_the_pending_snapshot() {
        let store = temp_store("drop");
        {
            let w = BackgroundWriter::spawn(Arc::clone(&store)).unwrap();
            w.submit(sections(7));
            // No flush: Drop must still persist the pending snapshot.
        }
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().1, sections(7));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flush_on_idle_writer_returns_immediately() {
        let store = temp_store("idle");
        let w = BackgroundWriter::spawn(store.clone()).unwrap();
        assert!(w.flush(Duration::from_millis(10)));
        let _ = fs::remove_dir_all(store.dir());
    }
}
