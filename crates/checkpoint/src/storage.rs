//! Stable storage: where process images live, and what writing them costs.
//!
//! "Stable storage is an abstraction for some storage devices ensuring that
//! recovery data persists through failures" (paper Section 2). Two backends
//! are provided — an in-memory store for simulations and tests, and a
//! directory-backed store — both behind the object-safe [`StableStorage`]
//! trait. A [`StorageCostModel`] holds the *virtual time* cost of writing
//! one image (`c`) and of reading it back at restart (part of `R`).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;

use redcr_sched::sync::Mutex;

use crate::error::CkptError;
use crate::Result;

/// Identifies one process image within one coordinated checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotKey {
    /// Coordinated-checkpoint sequence number (monotone per job).
    pub seq: u64,
    /// Virtual rank of the process.
    pub rank: u32,
}

impl SnapshotKey {
    /// Creates a key.
    pub fn new(seq: u64, rank: u32) -> Self {
        SnapshotKey { seq, rank }
    }

    fn file_name(&self) -> String {
        format!("ckpt-{:010}-rank-{:06}.img", self.seq, self.rank)
    }

    fn parse(name: &str) -> Option<Self> {
        let rest = name.strip_prefix("ckpt-")?.strip_suffix(".img")?;
        let (seq, rank) = rest.split_once("-rank-")?;
        Some(SnapshotKey { seq: seq.parse().ok()?, rank: rank.parse().ok()? })
    }
}

impl fmt::Display for SnapshotKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint {} rank {}", self.seq, self.rank)
    }
}

/// The virtual-time cost of moving one process image: a fixed cost per
/// image written and per image read, whatever its size — how the paper's
/// measured `c = 120 s` and `R = 500 s` enter a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageCostModel {
    /// Seconds charged for writing one image.
    pub write_seconds: f64,
    /// Seconds charged for reading one image back.
    pub read_seconds: f64,
}

impl StorageCostModel {
    /// Free storage (functional tests).
    pub fn zero() -> Self {
        Self::fixed(0.0, 0.0)
    }

    /// Every image write costs `write_seconds` and every read
    /// `read_seconds`.
    pub fn fixed(write_seconds: f64, read_seconds: f64) -> Self {
        StorageCostModel { write_seconds, read_seconds }
    }
}

/// A stable-storage backend for process images.
///
/// Implementations must be `Send + Sync`: every rank thread stores its own
/// image concurrently during a coordinated checkpoint.
pub trait StableStorage: Send + Sync + fmt::Debug {
    /// Persists `data` under `key`, overwriting any previous image.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Storage`] on backend failure.
    fn store(&self, key: SnapshotKey, data: &[u8]) -> Result<()>;

    /// Loads the image stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::NotFound`] if no image exists for `key`.
    fn load(&self, key: SnapshotKey) -> Result<Vec<u8>>;

    /// Lists all stored keys (any order).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Storage`] on backend failure.
    fn list(&self) -> Result<Vec<SnapshotKey>>;

    /// Deletes the image under `key` (no-op if absent).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Storage`] on backend failure.
    fn delete(&self, key: SnapshotKey) -> Result<()>;

    /// Deletes every image with `seq` strictly less than `keep_from_seq`
    /// (garbage collection after a newer complete checkpoint lands).
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Storage`] on backend failure.
    fn prune_before(&self, keep_from_seq: u64) -> Result<()> {
        for key in self.list()? {
            if key.seq < keep_from_seq {
                self.delete(key)?;
            }
        }
        Ok(())
    }
}

/// In-memory stable storage (a shared map).
///
/// The image map is a `BTreeMap` so `list()` (and everything downstream —
/// `prune_before`, restart quorum counting, snapshot drains) observes keys
/// in sorted order rather than hash-iteration order. `MemoryStorage` backs
/// simulations whose reports must be bit-identical across runs; a
/// `HashMap` here would leak `RandomState` ordering into them.
#[derive(Debug, Default)]
pub struct MemoryStorage {
    images: Mutex<BTreeMap<SnapshotKey, Vec<u8>>>,
}

impl MemoryStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StableStorage for MemoryStorage {
    fn store(&self, key: SnapshotKey, data: &[u8]) -> Result<()> {
        // Copy before taking the lock and free the image this one replaces
        // after releasing it: the lock is held for a map insert, however
        // large the image.
        let image = data.to_vec();
        let replaced = self.images.lock().insert(key, image);
        drop(replaced);
        Ok(())
    }

    fn load(&self, key: SnapshotKey) -> Result<Vec<u8>> {
        self.images
            .lock()
            .get(&key)
            .cloned()
            .ok_or_else(|| CkptError::NotFound { what: key.to_string() })
    }

    fn list(&self) -> Result<Vec<SnapshotKey>> {
        Ok(self.images.lock().keys().copied().collect())
    }

    fn delete(&self, key: SnapshotKey) -> Result<()> {
        // Freed after the guard is gone, as in `store`.
        let removed = self.images.lock().remove(&key);
        drop(removed);
        Ok(())
    }
}

/// Directory-backed stable storage: one file per process image.
#[derive(Debug)]
pub struct DiskStorage {
    dir: PathBuf,
}

#[expect(
    clippy::disallowed_methods,
    reason = "deliberate blocking checkpoint I/O: creating the directory is host setup, outside the modelled run"
)]
impl DiskStorage {
    /// Opens (creating if needed) a storage directory.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Storage`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStorage { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

/// Every method blocks on the host file system, on purpose: disk
/// persistence is the point of this store. The wall-clock cost is not
/// what the model sees: writes and restarts are charged as
/// `checkpoint_cost` / `restart_cost`, and retiring an old generation's
/// file is unmodelled host I/O, negligible next to the write it follows.
#[expect(
    clippy::disallowed_methods,
    reason = "deliberate blocking checkpoint and restart I/O, charged to the model as checkpoint_cost and restart_cost (see above)"
)]
impl StableStorage for DiskStorage {
    fn store(&self, key: SnapshotKey, data: &[u8]) -> Result<()> {
        // Write-then-rename so that a torn write never looks like a valid
        // image (the stable-storage property). The temp name is unique per
        // writer: replicas of the same virtual rank store the same key
        // concurrently and must not trip over each other's rename. Last
        // writer wins, so their images have to be byte-identical — which
        // is why the executor stamps them with the agreed cut
        // (`CheckpointCoordinator::checkpoint_at`), not each replica's clock.
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // Relaxed suffices for a pure uniqueness counter: the value only
        // names a temp file and orders nothing cross-thread; fetch_add is
        // atomic at every ordering.
        let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self.dir.join(format!("{}.{writer}.tmp", key.file_name()));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        Ok(())
    }

    fn load(&self, key: SnapshotKey) -> Result<Vec<u8>> {
        let path = self.dir.join(key.file_name());
        let mut f = std::fs::File::open(&path)
            .map_err(|_| CkptError::NotFound { what: key.to_string() })?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn list(&self) -> Result<Vec<SnapshotKey>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(key) = SnapshotKey::parse(name) {
                    keys.push(key);
                }
            }
        }
        Ok(keys)
    }

    fn delete(&self, key: SnapshotKey) -> Result<()> {
        let path = self.dir.join(key.file_name());
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn StableStorage) {
        let k1 = SnapshotKey::new(1, 0);
        let k2 = SnapshotKey::new(1, 1);
        let k3 = SnapshotKey::new(2, 0);
        storage.store(k1, b"alpha").unwrap();
        storage.store(k2, b"beta").unwrap();
        storage.store(k3, b"gamma").unwrap();
        assert_eq!(storage.load(k1).unwrap(), b"alpha");
        assert_eq!(storage.load(k2).unwrap(), b"beta");
        // Overwrite.
        storage.store(k1, b"alpha2").unwrap();
        assert_eq!(storage.load(k1).unwrap(), b"alpha2");
        let mut keys = storage.list().unwrap();
        keys.sort();
        assert_eq!(keys, vec![k1, k2, k3]);
        // Prune old checkpoints.
        storage.prune_before(2).unwrap();
        assert!(storage.load(k1).is_err());
        assert!(storage.load(k2).is_err());
        assert_eq!(storage.load(k3).unwrap(), b"gamma");
        // Delete is idempotent.
        storage.delete(k3).unwrap();
        storage.delete(k3).unwrap();
        assert!(matches!(storage.load(k3), Err(CkptError::NotFound { .. })));
    }

    #[test]
    fn memory_storage_contract() {
        let s = MemoryStorage::new();
        exercise(&s);
        assert!(s.list().unwrap().is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "clears the test's own scratch directory")]
    fn disk_storage_contract() {
        let dir = std::env::temp_dir().join(format!("redcr-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskStorage::open(&dir).unwrap();
        exercise(&s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_file_name_round_trip() {
        let k = SnapshotKey::new(123, 45);
        assert_eq!(SnapshotKey::parse(&k.file_name()), Some(k));
        assert_eq!(SnapshotKey::parse("garbage.img"), None);
        assert_eq!(SnapshotKey::parse("ckpt-1-rank-x.img"), None);
    }

    #[test]
    fn cost_model_fixed_matches_paper_constants() {
        let m = StorageCostModel::fixed(120.0, 500.0);
        assert_eq!((m.write_seconds, m.read_seconds), (120.0, 500.0));
        let z = StorageCostModel::zero();
        assert_eq!((z.write_seconds, z.read_seconds), (0.0, 0.0));
    }
}
