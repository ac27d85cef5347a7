//! The checkpoint store behind every durable experiment runner.
//!
//! fig3, trace and fleet are long runs, so each freezes its state at
//! every boundary (segment, phase, epoch) and can resume after a kill.
//! This module is the only code that knows how those checkpoints lie on
//! disk and which one a resume picks:
//!
//! * **layout** — one record file per slot per boundary,
//!   `<slot>.seg<NNNN>.ckpt` (e.g. `fig3-ssd.seg0003.ckpt`), each written
//!   atomically and durably by [`uc_persist::write_record_file`];
//! * **prune** — after each successful save the slot's older boundaries
//!   are deleted, so a finished run leaves one file per slot;
//! * **resume** — [`RecordStore::latest`] scans a slot newest → oldest and
//!   returns the first file that decodes and that the caller accepts, so
//!   a torn, corrupt or stale (other-plan) file falls back to an older
//!   boundary, or to a fresh start, instead of failing the run;
//! * **crash hook** — [`RecordStore::with_kill_after`] exits the process
//!   with code 42 right after the n-th save, the deterministic crash the
//!   kill-and-resume CI gates use.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uc_blockdev::PersistError;
use uc_persist::{DecodeError, Decoder, Encoder};

/// A checkpoint the [`RecordStore`] can persist: its record kind tag,
/// its wire codec, and where it belongs (slot and boundary).
pub trait StoreRecord: Sized {
    /// The on-disk record kind tag. Bump the suffix when the layout
    /// changes.
    const RECORD_KIND: &'static str;

    /// The slot this checkpoint belongs to (one chain of boundaries,
    /// e.g. one device of a multi-device run).
    fn slot(&self) -> String;

    /// The boundary this checkpoint was taken at; later boundaries of a
    /// slot supersede earlier ones.
    fn boundary(&self) -> usize;

    /// Appends this checkpoint's wire form to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NotPersistent`] if an embedded device
    /// checkpoint carries no persistence codec (roster-built devices
    /// always do).
    fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError>;

    /// Parses a checkpoint back out of its wire form.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] on any malformed input.
    fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Writes this checkpoint to `path` as a self-describing record file
    /// (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on codec-less payloads or filesystem
    /// failures.
    fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        let mut w = Encoder::new();
        self.encode_into(&mut w)?;
        uc_persist::write_record_file(path, Self::RECORD_KIND, w.as_bytes())?;
        Ok(())
    }

    /// Reads a checkpoint back from a record file written by
    /// [`StoreRecord::save_to`].
    ///
    /// # Errors
    ///
    /// Every failure — unreadable file, foreign bytes, truncation,
    /// flipped bits, future format version, another record kind — is a
    /// typed [`DecodeError`], never a panic.
    fn load_from(path: &Path) -> Result<Self, DecodeError> {
        let (kind, payload) = uc_persist::read_record_file(path)?;
        if kind != Self::RECORD_KIND {
            return Err(DecodeError::UnknownKind { found: kind });
        }
        let mut r = Decoder::new(&payload);
        let record = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(record)
    }
}

/// A directory of durable checkpoints of one record type (see the
/// [module docs](self) for the layout and the resume policy).
///
/// Cheaply cloneable and `Send + Sync`: clones share the save counter,
/// so a pipelined runner's worker threads can save through it
/// concurrently.
#[derive(Debug, Clone)]
pub struct RecordStore<T> {
    dir: PathBuf,
    kill_after: Option<u64>,
    saves: Arc<AtomicU64>,
    record: PhantomData<fn() -> T>,
}

impl<T: StoreRecord> RecordStore<T> {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be
    /// created.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RecordStore {
            dir,
            kill_after: None,
            saves: Arc::new(AtomicU64::new(0)),
            record: PhantomData,
        })
    }

    /// Crash-testing hook: terminate the *process* (exit code 42)
    /// immediately after the `n`-th successful save through this store
    /// and its clones.
    ///
    /// The strongest crash short of `kill -9`: no destructors run and no
    /// further state is written. Never set in normal operation.
    pub fn with_kill_after(mut self, saves: u64) -> Self {
        self.kill_after = Some(saves);
        self
    }

    /// The directory holding the checkpoint files.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints saved through this store (and its clones) so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// `true` if the *next* successful save trips the simulated crash:
    /// the caller's last chance to write anything else (e.g. a telemetry
    /// dump).
    pub fn kill_imminent(&self) -> bool {
        self.kill_after
            .is_some_and(|limit| self.saves() + 1 >= limit)
    }

    fn file_path(&self, slot: &str, boundary: usize) -> PathBuf {
        self.dir.join(format!("{slot}.seg{boundary:04}.ckpt"))
    }

    /// Persists `record` at its slot and boundary, prunes the slot's
    /// older boundaries, and returns the new file's path.
    ///
    /// # Errors
    ///
    /// Propagates [`PersistError`] from the underlying save; nothing is
    /// pruned or counted then.
    pub fn save(&self, record: &T) -> Result<PathBuf, PersistError> {
        let slot = record.slot();
        let boundary = record.boundary();
        let path = self.file_path(&slot, boundary);
        record.save_to(&path)?;
        // Best-effort: a failed delete leaves a superseded file that the
        // next save of this slot retries.
        for old in self.boundaries(&slot) {
            if old < boundary {
                let _ = std::fs::remove_file(self.file_path(&slot, old));
            }
        }
        let saved = self.saves.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.kill_after {
            if saved >= limit {
                eprintln!(
                    "simulated crash after {saved} checkpoint save(s) \
                     (--kill-after {limit}); last saved {}",
                    path.display()
                );
                std::process::exit(42);
            }
        }
        Ok(path)
    }

    /// Boundaries of `slot` present on disk, ascending.
    pub(crate) fn boundaries(&self, slot: &str) -> Vec<usize> {
        let prefix = format!("{slot}.seg");
        let mut found: Vec<usize> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                let rest = name.strip_prefix(&prefix)?.strip_suffix(".ckpt")?;
                rest.parse::<usize>().ok()
            })
            .collect();
        found.sort_unstable();
        found
    }

    /// Loads `slot`'s newest checkpoint that decodes cleanly **and**
    /// satisfies `accept`, scanning newest → oldest.
    ///
    /// Each skipped file is reported on stderr. A stale higher boundary
    /// (e.g. left over from a run with another plan) is scanned *past*,
    /// so it never shadows an older file that does match.
    pub fn latest(&self, slot: &str, accept: impl Fn(&T) -> bool) -> Option<T> {
        for boundary in self.boundaries(slot).into_iter().rev() {
            let path = self.file_path(slot, boundary);
            match T::load_from(&path) {
                Ok(record) if accept(&record) => return Some(record),
                Ok(_) => eprintln!(
                    "ignoring checkpoint {} (taken under a different plan); \
                     trying older boundaries",
                    path.display()
                ),
                Err(e) => eprintln!("ignoring checkpoint {}: {e}", path.display()),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    /// A minimal record: a slot, a boundary and a plan tag to accept on.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        slot: String,
        boundary: usize,
        plan: u64,
    }

    impl StoreRecord for Probe {
        const RECORD_KIND: &'static str = "uc.store-probe.v1";

        fn slot(&self) -> String {
            self.slot.clone()
        }

        fn boundary(&self) -> usize {
            self.boundary
        }

        fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError> {
            self.slot.encode(w);
            self.boundary.encode(w);
            w.put_u64(self.plan);
            Ok(())
        }

        fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            Ok(Probe {
                slot: String::decode(r)?,
                boundary: usize::decode(r)?,
                plan: r.get_u64()?,
            })
        }
    }

    fn probe(slot: &str, boundary: usize, plan: u64) -> Probe {
        Probe {
            slot: slot.to_string(),
            boundary,
            plan,
        }
    }

    fn temp_store(name: &str) -> RecordStore<Probe> {
        let dir = std::env::temp_dir()
            .join("uc-record-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        // Stale files from a previous failed run would perturb resume.
        let _ = std::fs::remove_dir_all(&dir);
        RecordStore::create(dir).expect("create checkpoint dir")
    }

    #[test]
    fn stale_higher_boundary_does_not_shadow_matching_checkpoint() {
        // A leftover seg0003 from another plan must be scanned *past*,
        // not merely rejected, so the matching seg0001 still resumes. It
        // survives the seg0001 save because only older boundaries are
        // pruned.
        let store = temp_store("stale-shadow");
        store.save(&probe("fig3-ssd", 3, 8)).unwrap();
        store.save(&probe("fig3-ssd", 1, 4)).unwrap();
        assert_eq!(store.boundaries("fig3-ssd"), vec![1, 3]);
        let found = store
            .latest("fig3-ssd", |p| p.plan == 4)
            .expect("the matching older boundary must be found");
        assert_eq!(found, probe("fig3-ssd", 1, 4));
        assert!(store.latest("fig3-ssd", |p| p.plan == 5).is_none());
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older_boundary() {
        let store = temp_store("corrupt-fallback");
        store.save(&probe("trace-essd1", 1, 0)).unwrap();
        // A second boundary written beside the first, as a crash between
        // the write and the prune would leave it.
        let newest = store.file_path("trace-essd1", 2);
        probe("trace-essd1", 2, 0).save_to(&newest).unwrap();
        // Torn write: the newest boundary is half a file.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store
            .latest("trace-essd1", |_| true)
            .expect("older boundary survives");
        assert_eq!(latest.boundary, 1, "falls back past the torn file");
        // A lone corrupt file means a fresh start, not an error.
        std::fs::remove_file(store.file_path("trace-essd1", 1)).unwrap();
        assert!(store.latest("trace-essd1", |_| true).is_none());
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn prune_leaves_one_file_per_slot() {
        let store = temp_store("prune");
        for boundary in 0..4 {
            for slot in ["fig3-ssd", "fig3-essd1", "fleet"] {
                store.save(&probe(slot, boundary, 0)).unwrap();
            }
        }
        assert_eq!(store.saves(), 12);
        for slot in ["fig3-ssd", "fig3-essd1", "fleet"] {
            assert_eq!(store.boundaries(slot), vec![3], "{slot}");
        }
        // Nothing else (no temp files) is left in the directory.
        let files = std::fs::read_dir(store.path()).unwrap().count();
        assert_eq!(files, 3);
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn kill_imminent_fires_exactly_before_the_fatal_save() {
        let store = temp_store("imminent").with_kill_after(2);
        // No saves yet: the next save is #1, the crash fires after #2.
        assert!(!store.kill_imminent());
        // A clone shares the counter, as the pipelined runners' workers do.
        store.clone().save(&probe("fleet", 1, 0)).unwrap();
        assert!(store.kill_imminent(), "the next save is the killing one");
        let unarmed = RecordStore::<Probe>::create(store.path()).unwrap();
        assert!(!unarmed.kill_imminent());
        let _ = std::fs::remove_dir_all(store.path());
    }
}
