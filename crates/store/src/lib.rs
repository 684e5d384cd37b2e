//! # itdb-store — durable, crash-safe snapshot storage
//!
//! A zero-dependency persistence layer for checkpoint/resume: versioned,
//! section-framed binary snapshots written atomically into a directory of
//! monotonically increasing *generations*.
//!
//! ## File format
//!
//! ```text
//! magic    8 bytes   "ITDBSNAP"
//! version  u32 LE    format version (currently 1)
//! count    u32 LE    number of sections
//! then, per section:
//!   tag    u8        section identifier (assigned by the caller)
//!   len    u64 LE    payload length in bytes
//!   crc    u32 LE    CRC-32 (IEEE) of the payload
//!   payload len bytes
//! ```
//!
//! Every payload is independently checksummed, so torn writes, truncation
//! and bit flips are detected per section and reported as typed
//! [`StoreError`]s — never deserialized into garbage state.
//!
//! ## Atomicity and recovery
//!
//! [`SnapshotStore::write`] stages the image in a `.tmp` file, fsyncs it,
//! renames it to its final `snap-<generation>.itdb` name, and fsyncs the
//! directory, so a crash at any point leaves either the previous
//! generation set intact or the new generation fully visible — never a
//! half-written current generation. [`SnapshotStore::load_generation`]
//! validates one generation strictly. The recovery walk — newest first,
//! *skipping* (reporting, not panicking) any generation that fails
//! validation, so a corrupted latest generation falls back to the last
//! good one — is `itdb_core::checkpoint::load_latest_with`.
//!
//! The `fault` feature (test-only) injects torn writes, short writes, bit
//! flips, and crash-before-rename faults into [`SnapshotStore::write`],
//! mirroring the governor's fault-injection style.

#![warn(missing_docs)]

pub mod codec;
pub mod store;
pub mod wal;

pub use codec::{crc32, ByteReader, ByteWriter, CodecError};
pub use store::{Section, SnapshotStore, StoreError, Written, FORMAT_VERSION, MAGIC};
pub use wal::{FsyncPolicy, Wal, WalOptions, WalRecord, WalRecovery, WalStats};

#[cfg(feature = "fault")]
pub use store::fault;
