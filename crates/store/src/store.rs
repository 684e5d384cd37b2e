//! The generation-based snapshot store: atomic writes, checksummed reads,
//! corruption fallback, and (feature-gated) fault injection.

// Decodes on-disk bytes at serve boot: failures must flow through typed
// errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::codec::{crc32, ByteReader, ByteWriter};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"ITDBSNAP";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Upper bound on the section count a file may declare — a sanity guard
/// against interpreting garbage as an enormous section table.
const MAX_SECTIONS: u32 = 1024;

/// How many good generations to retain after a successful write: the new
/// one plus one fallback.
const KEEP_GENERATIONS: usize = 2;

/// One tagged, checksummed byte payload inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Caller-assigned section identifier.
    pub tag: u8,
    /// The section's encoded payload.
    pub payload: Vec<u8>,
}

impl Section {
    /// A section with the given tag and payload.
    pub fn new(tag: u8, payload: Vec<u8>) -> Self {
        Section { tag, payload }
    }
}

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file declares a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before its declared structure does (torn/short write).
    Truncated,
    /// A section's payload does not match its CRC-32 (bit rot, torn write).
    ChecksumMismatch {
        /// Tag of the damaged section.
        section: u8,
    },
    /// The container structure is inconsistent (bad counts, trailing bytes).
    Corrupt(String),
    /// No snapshot generation exists (or none survived validation).
    NoSnapshot,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o: {e}"),
            StoreError::BadMagic => write!(f, "bad magic (not a snapshot file)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated => write!(f, "truncated snapshot (torn or short write)"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            StoreError::NoSnapshot => write!(f, "no valid snapshot generation"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Receipt for a successful [`SnapshotStore::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    /// The generation number the snapshot was written as.
    pub generation: u64,
    /// Size of the snapshot image in bytes.
    pub bytes: u64,
}

/// The result of a fallback-scanning load: the newest valid snapshot (if
/// any) plus every newer generation that had to be skipped as damaged.
#[derive(Debug)]
pub struct Recovery {
    /// The newest generation that passed structural validation, with its
    /// decoded sections.
    pub snapshot: Option<(u64, Vec<Section>)>,
    /// Generations that were present but damaged, newest first, each with
    /// the validation error that disqualified it.
    pub skipped: Vec<(u64, StoreError)>,
}

/// A directory of snapshot generations (`snap-<generation>.itdb`).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snap-{generation:020}.itdb"))
    }

    /// All generations present on disk, ascending. Temp files and foreign
    /// names are ignored.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".itdb"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Encodes `sections` into one snapshot image.
    fn encode(sections: &[Section]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(sections.len() as u32);
        for s in sections {
            w.put_u8(s.tag);
            w.put_u64(s.payload.len() as u64);
            w.put_u32(crc32(&s.payload));
            w.put_bytes(&s.payload);
        }
        w.into_bytes()
    }

    /// Decodes and validates one snapshot image.
    fn decode(image: &[u8]) -> Result<Vec<Section>, StoreError> {
        let mut r = ByteReader::new(image);
        let magic = r
            .get_bytes(MAGIC.len())
            .map_err(|_| StoreError::Truncated)?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.get_u32().map_err(|_| StoreError::Truncated)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let count = r.get_u32().map_err(|_| StoreError::Truncated)?;
        if count > MAX_SECTIONS {
            return Err(StoreError::Corrupt(format!(
                "section count {count} exceeds the {MAX_SECTIONS} limit"
            )));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let tag = r.get_u8().map_err(|_| StoreError::Truncated)?;
            let len = r.get_u64().map_err(|_| StoreError::Truncated)?;
            let crc = r.get_u32().map_err(|_| StoreError::Truncated)?;
            let len = usize::try_from(len)
                .map_err(|_| StoreError::Corrupt(format!("section {tag} length overflow")))?;
            let payload = r.get_bytes(len).map_err(|_| StoreError::Truncated)?;
            if crc32(payload) != crc {
                return Err(StoreError::ChecksumMismatch { section: tag });
            }
            sections.push(Section::new(tag, payload.to_vec()));
        }
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        Ok(sections)
    }

    /// Writes `sections` as the next generation: stage in a temp file,
    /// fsync, rename into place, fsync the directory. Crash-safe — a
    /// failure at any point leaves prior generations untouched. After a
    /// successful write, generations older than the newest
    /// [`KEEP_GENERATIONS`] are pruned (best-effort).
    pub fn write(&self, sections: &[Section]) -> Result<Written, StoreError> {
        let generation = self.generations()?.last().map_or(1, |g| g + 1);
        #[allow(unused_mut)]
        let mut image = Self::encode(sections);
        let bytes = image.len() as u64;

        #[cfg(feature = "fault")]
        let injected = fault::apply(&mut image);
        #[cfg(not(feature = "fault"))]
        let injected: Option<()> = None;
        #[cfg(feature = "fault")]
        if matches!(injected, Some(fault::FaultKind::CrashBeforeRename)) {
            // Simulated crash between staging and rename: the temp file is
            // all that exists; readers never see this generation.
            let tmp = self.dir.join(format!(".snap-{generation:020}.tmp"));
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
            return Ok(Written { generation, bytes });
        }
        let _ = injected;

        let tmp = self.dir.join(format!(".snap-{generation:020}.tmp"));
        let final_path = self.path_of(generation);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &final_path)?;
        // Persist the rename itself: fsync the directory (POSIX requires
        // this for the new directory entry to survive a crash).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune(generation);
        Ok(Written { generation, bytes })
    }

    /// Removes generations older than the newest [`KEEP_GENERATIONS`],
    /// best-effort (a failed unlink never fails the write that triggered
    /// it).
    fn prune(&self, newest: u64) {
        let Ok(gens) = self.generations() else {
            return;
        };
        let keep_from = gens.len().saturating_sub(KEEP_GENERATIONS).min(gens.len());
        for &g in &gens[..keep_from] {
            if g < newest {
                let _ = fs::remove_file(self.path_of(g));
            }
        }
    }

    /// Loads one specific generation, strictly: any structural damage is
    /// an error (no fallback).
    pub fn load_generation(&self, generation: u64) -> Result<Vec<Section>, StoreError> {
        let path = self.path_of(generation);
        let image = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NoSnapshot)
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Self::decode(&image)
    }

    /// Loads the newest snapshot that passes validation, walking
    /// generations newest-first and collecting (not failing on) damaged
    /// ones. Only a filesystem-level failure to list the directory is an
    /// error.
    pub fn load_latest(&self) -> Result<Recovery, StoreError> {
        let mut skipped = Vec::new();
        for g in self.generations()?.into_iter().rev() {
            match self.load_generation(g) {
                Ok(sections) => {
                    return Ok(Recovery {
                        snapshot: Some((g, sections)),
                        skipped,
                    })
                }
                Err(e) => skipped.push((g, e)),
            }
        }
        Ok(Recovery {
            snapshot: None,
            skipped,
        })
    }
}

/// Deterministic write-fault injection (test-only, feature `fault`).
///
/// A [`FaultPlan`] is armed on the current thread and consumed by the next
/// [`SnapshotStore::write`], which then produces exactly the damage the
/// plan describes — the write itself reports success, modelling a crash or
/// silent corruption that the *next reader* must survive.
#[cfg(feature = "fault")]
pub mod fault {
    use std::cell::Cell;

    /// Which damage to synthesize on the next write.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Keep only the first `keep` bytes of the image (torn write: the
        /// rename happens, the content is a prefix).
        TornWrite {
            /// Bytes of the image that reach the disk.
            keep: usize,
        },
        /// Drop the last `drop` bytes of the image (short write).
        ShortWrite {
            /// Bytes missing from the end of the image.
            drop: usize,
        },
        /// Flip one bit at byte `offset` (modulo the image length).
        BitFlip {
            /// Byte offset of the flipped bit.
            offset: usize,
        },
        /// Crash after staging but before the rename: the generation never
        /// becomes visible; older generations are untouched.
        CrashBeforeRename,
    }

    thread_local! {
        static PLAN: Cell<Option<FaultKind>> = const { Cell::new(None) };
    }

    /// A one-shot fault armed on the current thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultPlan {
        /// The damage to inject into the next write.
        pub kind: FaultKind,
    }

    impl FaultPlan {
        /// Arms this plan (replacing any previous one). The next
        /// `SnapshotStore::write` on this thread consumes it.
        pub fn arm(self) {
            PLAN.with(|p| p.set(Some(self.kind)));
        }

        /// Disarms any pending plan on this thread.
        pub fn disarm() {
            PLAN.with(|p| p.set(None));
        }
    }

    /// Consumes and returns the plan armed on this thread, if any —
    /// lets test harnesses assert what a hook armed without performing a
    /// write.
    pub fn take_armed() -> Option<FaultKind> {
        PLAN.with(|p| p.take())
    }

    /// Consumes the armed plan, mutating `image` in place for the data
    /// faults; returns the kind so the writer can handle
    /// [`FaultKind::CrashBeforeRename`] specially.
    pub(crate) fn apply(image: &mut Vec<u8>) -> Option<FaultKind> {
        let kind = PLAN.with(|p| p.take())?;
        match kind {
            FaultKind::TornWrite { keep } => image.truncate(keep.min(image.len())),
            FaultKind::ShortWrite { drop } => {
                let new_len = image.len().saturating_sub(drop);
                image.truncate(new_len);
            }
            FaultKind::BitFlip { offset } => {
                if !image.is_empty() {
                    let i = offset % image.len();
                    image[i] ^= 0x01;
                }
            }
            FaultKind::CrashBeforeRename => {}
        }
        Some(kind)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!(
            "itdb_store_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(&dir).unwrap()
    }

    fn sections() -> Vec<Section> {
        vec![
            Section::new(1, b"meta".to_vec()),
            Section::new(2, vec![0u8; 100]),
        ]
    }

    #[test]
    fn write_then_load_round_trips() {
        let store = temp_store("roundtrip");
        let w = store.write(&sections()).unwrap();
        assert_eq!(w.generation, 1);
        assert!(w.bytes > 0);
        let rec = store.load_latest().unwrap();
        let (g, loaded) = rec.snapshot.unwrap();
        assert_eq!(g, 1);
        assert_eq!(loaded, sections());
        assert!(rec.skipped.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn generations_increase_and_old_ones_are_pruned() {
        let store = temp_store("prune");
        for _ in 0..5 {
            store.write(&sections()).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens, vec![4, 5], "keeps the newest two");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_store_loads_nothing() {
        let store = temp_store("empty");
        let rec = store.load_latest().unwrap();
        assert!(rec.snapshot.is_none());
        assert!(matches!(
            store.load_generation(1),
            Err(StoreError::NoSnapshot)
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_file_is_detected_and_skipped() {
        let store = temp_store("trunc");
        store.write(&sections()).unwrap();
        let w2 = store.write(&sections()).unwrap();
        // Tear the newest file in half.
        let path = store.path_of(w2.generation);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.load_generation(w2.generation),
            Err(StoreError::Truncated)
        ));
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().0, w2.generation - 1);
        assert_eq!(rec.skipped.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn flipped_payload_bit_fails_its_section_checksum() {
        let store = temp_store("bitflip");
        store.write(&sections()).unwrap();
        let w2 = store.write(&sections()).unwrap();
        let path = store.path_of(w2.generation);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1; // inside the final section's payload
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_generation(w2.generation),
            Err(StoreError::ChecksumMismatch { section: 2 })
        ));
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().0, w2.generation - 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// The recovery walk must hold up mid-write: a corrupt newest
    /// generation, a valid older one, and an in-flight `.tmp` staging file
    /// (as left by a writer that has not yet renamed) coexist; the load
    /// lands on the older good generation, reports the damage, and never
    /// mistakes the staging file for a generation.
    #[test]
    fn corrupt_newest_with_inflight_staging_falls_back_to_valid_older() {
        let store = temp_store("inflight");
        let w1 = store.write(&sections()).unwrap();
        let w2 = store.write(&sections()).unwrap();
        // Damage the newest generation (bit flip in its payload).
        let newest = store.path_of(w2.generation);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&newest, &bytes).unwrap();
        // Simulate an in-flight write: a staged-but-unrenamed temp image
        // for the next generation, plus a half-written garbage temp.
        let staged = store
            .dir()
            .join(format!(".snap-{:020}.tmp", w2.generation + 1));
        fs::write(&staged, SnapshotStore::encode(&sections())).unwrap();
        fs::write(store.dir().join(".snap-junk.tmp"), b"partial").unwrap();

        let gens = store.generations().unwrap();
        assert_eq!(
            gens,
            vec![w1.generation, w2.generation],
            "temp files are not generations"
        );
        let rec = store.load_latest().unwrap();
        let (g, loaded) = rec.snapshot.unwrap();
        assert_eq!(g, w1.generation, "fell back past the damaged newest");
        assert_eq!(loaded, sections());
        assert_eq!(rec.skipped.len(), 1);
        assert_eq!(rec.skipped[0].0, w2.generation);
        assert!(matches!(
            rec.skipped[0].1,
            StoreError::ChecksumMismatch { .. }
        ));
        // A subsequent write allocates past the damaged generation and
        // becomes the new latest.
        let w3 = store.write(&sections()).unwrap();
        assert_eq!(w3.generation, w2.generation + 1);
        let rec = store.load_latest().unwrap();
        assert_eq!(rec.snapshot.unwrap().0, w3.generation);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_file_has_bad_magic() {
        let store = temp_store("magic");
        fs::write(store.path_of(7), b"definitely not a snapshot").unwrap();
        assert!(matches!(
            store.load_generation(7),
            Err(StoreError::BadMagic)
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn future_version_is_rejected_not_misread() {
        let store = temp_store("version");
        store.write(&sections()).unwrap();
        let path = store.path_of(1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xFF; // bump the version field
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_generation(1),
            Err(StoreError::UnsupportedVersion(_))
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn no_temp_files_survive_a_write() {
        let store = temp_store("tmpclean");
        store.write(&sections()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(store.dir());
    }
}
