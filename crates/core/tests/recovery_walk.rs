//! The one recovery walk, [`load_latest_with`], over raw store sections
//! (an identity decoder). The `fault` cases need `cargo test -p itdb-core
//! --features fault --test recovery_walk`.

use itdb_core::{load_latest_with, CheckpointError, Recovered};
use itdb_store::{Section, SnapshotStore, StoreError};
use std::fs;
use std::path::PathBuf;

fn temp_store(name: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!(
        "itdb_recovery_walk_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    SnapshotStore::open(&dir).unwrap()
}

/// The walk with an identity decoder: the sections as the store read them.
fn walk(store: &SnapshotStore) -> Result<Recovered<Vec<Section>>, CheckpointError> {
    load_latest_with(store, |s| Ok(s.to_vec()))
}

fn path_of(store: &SnapshotStore, generation: u64) -> PathBuf {
    store.dir().join(format!("snap-{generation:020}.itdb"))
}

fn sections(marker: u8) -> Vec<Section> {
    vec![
        Section::new(1, vec![marker; 32]),
        Section::new(2, (0..200u8).collect()),
    ]
}

#[test]
fn write_then_load_round_trips() {
    let store = temp_store("roundtrip");
    let w = store.write(&sections(0)).unwrap();
    assert_eq!(w.generation, 1);
    assert!(w.bytes > 0);
    let rec = walk(&store).unwrap();
    assert_eq!(rec.generation, 1);
    assert_eq!(rec.checkpoint, sections(0));
    assert!(rec.skipped.is_empty());
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn empty_store_loads_nothing() {
    let store = temp_store("empty");
    assert!(matches!(walk(&store), Err(CheckpointError::NoCheckpoint)));
    assert!(matches!(
        store.load_generation(1),
        Err(StoreError::NoSnapshot)
    ));
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn truncated_file_is_detected_and_skipped() {
    let store = temp_store("trunc");
    store.write(&sections(0)).unwrap();
    let w2 = store.write(&sections(0)).unwrap();
    // Tear the newest file in half.
    let path = path_of(&store, w2.generation);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        store.load_generation(w2.generation),
        Err(StoreError::Truncated)
    ));
    let rec = walk(&store).unwrap();
    assert_eq!(rec.generation, w2.generation - 1);
    assert_eq!(rec.skipped.len(), 1);
    let _ = fs::remove_dir_all(store.dir());
}

#[test]
fn flipped_payload_bit_fails_its_section_checksum() {
    let store = temp_store("bitflip");
    store.write(&sections(0)).unwrap();
    let w2 = store.write(&sections(0)).unwrap();
    let path = path_of(&store, w2.generation);
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 1; // inside the final section's payload
    bytes[last] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        store.load_generation(w2.generation),
        Err(StoreError::ChecksumMismatch { section: 2 })
    ));
    let rec = walk(&store).unwrap();
    assert_eq!(rec.generation, w2.generation - 1);
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
    let w1 = store.write(&sections(0)).unwrap();
    let w2 = store.write(&sections(0)).unwrap();
    // Damage the newest generation (bit flip in its payload).
    let newest = path_of(&store, w2.generation);
    let mut bytes = fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    fs::write(&newest, &bytes).unwrap();
    // Simulate an in-flight write: a staged-but-unrenamed temp image
    // for the next generation, plus a half-written garbage temp.
    let staged = store
        .dir()
        .join(format!(".snap-{:020}.tmp", w2.generation + 1));
    fs::write(&staged, fs::read(path_of(&store, w1.generation)).unwrap()).unwrap();
    fs::write(store.dir().join(".snap-junk.tmp"), b"partial").unwrap();

    let gens = store.generations().unwrap();
    assert_eq!(
        gens,
        vec![w1.generation, w2.generation],
        "temp files are not generations"
    );
    let rec = walk(&store).unwrap();
    assert_eq!(
        rec.generation, w1.generation,
        "fell back past the damaged newest"
    );
    assert_eq!(rec.checkpoint, sections(0));
    assert_eq!(rec.skipped.len(), 1);
    assert_eq!(rec.skipped[0].0, w2.generation);
    assert!(rec.skipped[0].1.contains("checksum mismatch"));
    // A subsequent write allocates past the damaged generation and
    // becomes the new latest.
    let w3 = store.write(&sections(0)).unwrap();
    assert_eq!(w3.generation, w2.generation + 1);
    assert_eq!(walk(&store).unwrap().generation, w3.generation);
    let _ = fs::remove_dir_all(store.dir());
}

/// Each synthetic write fault must leave the store in a state where the
/// walk still returns the last good generation.
#[cfg(feature = "fault")]
mod fault {
    use super::*;
    use itdb_store::fault::{FaultKind, FaultPlan};

    /// Writes a good generation, injects `kind` into the next write, and
    /// asserts that recovery falls back to the good generation while the
    /// damaged one is reported (or, for crash-before-rename, absent).
    fn assert_recovers_from(name: &str, kind: FaultKind, expect_skipped: bool) {
        let store = temp_store(name);
        let good = store.write(&sections(0xAA)).unwrap();

        FaultPlan { kind }.arm();
        let bad = store.write(&sections(0xBB)).unwrap();
        assert_eq!(bad.generation, good.generation + 1);

        let rec = walk(&store).expect("last good generation must survive");
        assert_eq!(
            rec.generation, good.generation,
            "fell back to the pre-fault generation"
        );
        assert_eq!(
            rec.checkpoint,
            sections(0xAA),
            "recovered content is the good image"
        );
        if expect_skipped {
            assert_eq!(rec.skipped.len(), 1, "damaged generation is reported");
            assert_eq!(rec.skipped[0].0, bad.generation);
        } else {
            assert!(
                rec.skipped.is_empty(),
                "crash-before-rename leaves no visible damaged file"
            );
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_write_falls_back_to_last_good_generation() {
        assert_recovers_from("torn", FaultKind::TornWrite { keep: 20 }, true);
    }

    #[test]
    fn short_write_falls_back_to_last_good_generation() {
        assert_recovers_from("short", FaultKind::ShortWrite { drop: 5 }, true);
    }

    #[test]
    fn bit_flip_falls_back_to_last_good_generation() {
        // Flip a bit inside the second section's payload.
        assert_recovers_from("bitflip", FaultKind::BitFlip { offset: 120 }, true);
    }

    #[test]
    fn crash_before_rename_never_exposes_the_new_generation() {
        assert_recovers_from("crash", FaultKind::CrashBeforeRename, false);
    }

    #[test]
    fn faults_are_one_shot() {
        let store = temp_store("oneshot");
        FaultPlan {
            kind: FaultKind::TornWrite { keep: 4 },
        }
        .arm();
        store.write(&sections(1)).unwrap(); // consumes the plan
        let ok = store.write(&sections(2)).unwrap(); // clean write
        assert_eq!(walk(&store).unwrap().generation, ok.generation);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch_not_garbage() {
        let store = temp_store("typed");
        FaultPlan {
            kind: FaultKind::BitFlip { offset: 40 },
        }
        .arm();
        let w = store.write(&sections(3)).unwrap();
        match store.load_generation(w.generation) {
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Truncated) => {}
            other => panic!("expected typed corruption error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}
