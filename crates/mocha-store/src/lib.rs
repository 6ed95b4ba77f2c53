//! # mocha-store — opt-in per-site durability for the Mocha reproduction
//!
//! The paper's failure handling assumes a crashed site's state survives
//! only in the surviving replicas, so a rebooted site comes back empty and
//! refetches every object cold. This crate gives a site a local durable
//! record of the replica versions it applied, in the spirit of
//! multicomputer object stores: an append-only write-ahead log of
//! checksummed records plus periodic compacting snapshots.
//!
//! * [`wal`] — the two record formats (full and delta, both
//!   `[len][checksum][payload]`) and the corruption-tolerant scanner.
//! * [`device`] — the storage backing: shared in-memory files for the
//!   simulator and thread runtime, real files for `mochad` processes.
//! * [`SiteStore`] — the per-site store: open (recover), journal, compact.
//!
//! A journaled version costs what it changed: when the daemon already
//! holds the edit script that produced it, and the log's newest statement
//! about that lock is exactly the script's base, the record is the script;
//! in every other case it is the full replica set.
//!
//! Recovery is *degrading, never failing*: a torn or bit-flipped WAL tail
//! is detected by checksum and truncated away; a corrupt snapshot is
//! discarded while the WAL still replays. Full records are absolute and a
//! delta record replays only over an exact base match, so any valid prefix
//! over any snapshot — including none — reconstructs, per lock, a state
//! the site really had, merely an older one. Announcing an older version
//! is always safe: the site catches up over the normal transfer path, by
//! delta when a holder still knows its base version and by full payload
//! otherwise. The one thing recovery must never do is claim a version
//! *newer* than what it can serve — the `version_regression` invariant in
//! `mocha` is the oracle for that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod device;
pub mod wal;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use mocha_wire::io::{ByteReader, ByteWriter};
use mocha_wire::message::ReplicaUpdate;
use mocha_wire::{LockId, ReplicaId, ReplicaPayload, Version};

pub use device::{Device, WalAppender};
pub use wal::{scan, EditScript, WalDelta, WalEntry, WalRecord, WalScan};

use crate::crc::crc32;

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a crash loses nothing that was
    /// acknowledged (the default).
    #[default]
    Always,
    /// Let the OS write back lazily: a crash may lose the newest records,
    /// which recovery treats exactly like a torn tail.
    Never,
}

/// Tuning for one site's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Fsync policy for WAL appends and snapshot installs.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + truncate WAL) after this many appended records;
    /// `0` disables automatic compaction.
    pub snapshot_every: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
        }
    }
}

/// Cheap-to-clone descriptor of one site's durable storage. The handle
/// survives a simulated site's crash (the runtime keeps it across
/// incarnations) and is how tests reach the corruption hooks.
#[derive(Debug, Clone)]
pub struct StoreHandle {
    device: Device,
    config: StoreConfig,
}

impl StoreHandle {
    /// A fresh in-memory store (simulator and thread runtime).
    pub fn mem(config: StoreConfig) -> StoreHandle {
        StoreHandle {
            device: Device::mem(),
            config,
        }
    }

    /// A store over a directory of real files (`mochad`).
    pub fn disk(dir: PathBuf, config: StoreConfig) -> StoreHandle {
        StoreHandle {
            device: Device::disk(dir),
            config,
        }
    }

    /// The underlying device (shared with all clones of this handle).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Opens the store, recovering whatever the device holds.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing device. Corruption is *not*
    /// an error: it degrades to a truncated WAL and is reported in the
    /// returned store's [`RecoveryReport`].
    pub fn open(&self) -> io::Result<SiteStore> {
        SiteStore::open(self)
    }
}

/// State reconstructed from snapshot + WAL at open, and kept current by
/// every append since. Payloads are shared, not copied: an append hands
/// the image the daemon's own `Arc`s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Newest durably recorded version per lock.
    pub lock_versions: BTreeMap<LockId, Version>,
    /// Full replica payloads per lock at that version.
    pub replicas: BTreeMap<LockId, BTreeMap<ReplicaId, Arc<ReplicaPayload>>>,
}

impl RecoveredState {
    /// Whether nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.lock_versions.is_empty()
    }

    /// The `(lock, version)` pairs worth announcing to the coordinator on
    /// rejoin: every lock with a post-initial recorded version.
    pub fn announcement(&self) -> Vec<(LockId, Version)> {
        self.lock_versions
            .iter()
            .filter(|(_, v)| **v > Version::INITIAL)
            .map(|(l, v)| (*l, *v))
            .collect()
    }

    /// Folds one absolute statement into the state. Statements older than
    /// what is already held are skipped (replay is idempotent and
    /// monotone).
    fn apply_full(&mut self, lock: LockId, version: Version, updates: &[ReplicaUpdate]) {
        if self
            .lock_versions
            .get(&lock)
            .is_some_and(|held| *held > version)
        {
            return;
        }
        self.lock_versions.insert(lock, version);
        let replicas = self.replicas.entry(lock).or_default();
        for u in updates {
            replicas.insert(u.replica, Arc::clone(&u.payload));
        }
    }

    /// Replays one delta record: only when the lock is held at exactly the
    /// script's base, and all scripts or none. Returns whether it applied;
    /// a refused delta leaves the lock at the state it actually had.
    fn apply_delta(&mut self, delta: &WalDelta) -> bool {
        let script = &delta.script;
        if delta.version <= script.base || self.lock_versions.get(&delta.lock) != Some(&script.base)
        {
            return false;
        }
        let held = self.replicas.entry(delta.lock).or_default();
        let mut next = Vec::with_capacity(script.scripts.len());
        for s in &script.scripts {
            match held.get(&s.replica).map(|base| s.delta.apply(base)) {
                Some(Ok(payload)) => next.push((s.replica, Arc::new(payload))),
                _ => return false,
            }
        }
        held.extend(next);
        self.lock_versions.insert(delta.lock, delta.version);
        true
    }

    /// Whether `script`, journaled as a delta record producing `version`
    /// of `lock`, would replay over this state and is the cheaper record.
    fn takes_delta(
        &self,
        lock: LockId,
        version: Version,
        updates: &[ReplicaUpdate],
        script: &EditScript,
    ) -> bool {
        script.base < version
            && self.lock_versions.get(&lock) == Some(&script.base)
            && self
                .replicas
                .get(&lock)
                .is_some_and(|held| script.scripts.iter().all(|s| held.contains_key(&s.replica)))
            && script
                .scripts
                .iter()
                .map(|s| s.delta.cost_bytes())
                .sum::<usize>()
                < updates
                    .iter()
                    .map(|u| u.payload.data_bytes())
                    .sum::<usize>()
    }

    /// Encodes the state as a snapshot image (`[magic][crc32][body]`).
    fn encode_snapshot(&self) -> Vec<u8> {
        let payload_bytes: usize = self
            .replicas
            .values()
            .flat_map(BTreeMap::values)
            .map(|p| p.data_bytes() + 16)
            .sum();
        let mut w = ByteWriter::with_capacity(SNAPSHOT_HEADER + 64 + payload_bytes);
        // Magic and checksum, patched in below once the body exists.
        w.put_raw(&[0; SNAPSHOT_HEADER]);
        w.put_u32(self.lock_versions.len() as u32);
        for (lock, version) in &self.lock_versions {
            lock.encode(&mut w);
            version.encode(&mut w);
            let empty = BTreeMap::new();
            let replicas = self.replicas.get(lock).unwrap_or(&empty);
            w.put_u32(replicas.len() as u32);
            for (replica, payload) in replicas {
                replica.encode(&mut w);
                payload.encode(&mut w);
            }
        }
        let mut image = w.into_bytes();
        if let Some((head, body)) = image.split_first_chunk_mut::<SNAPSHOT_HEADER>() {
            *head = wal::header(SNAPSHOT_MAGIC, crc32(body));
        }
        image
    }

    /// Decodes a snapshot image; `None` for anything damaged (bad magic,
    /// checksum mismatch, undecodable body). Never panics.
    fn decode_snapshot(bytes: &[u8]) -> Option<RecoveredState> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32().ok()? != SNAPSHOT_MAGIC {
            return None;
        }
        let crc = r.get_u32().ok()?;
        let body = r.get_rest();
        if crc32(body) != crc {
            return None;
        }
        let mut r = ByteReader::new(body);
        let mut state = RecoveredState::default();
        let locks = r.get_u32().ok()? as usize;
        // Each lock entry is at least 16 bytes (id + version + count).
        if locks.saturating_mul(16) > r.remaining() {
            return None;
        }
        for _ in 0..locks {
            let lock = LockId::decode(&mut r).ok()?;
            let version = Version::decode(&mut r).ok()?;
            state.lock_versions.insert(lock, version);
            let n = r.get_u32().ok()? as usize;
            if n.saturating_mul(5) > r.remaining() {
                return None;
            }
            let replicas = state.replicas.entry(lock).or_default();
            for _ in 0..n {
                let replica = ReplicaId::decode(&mut r).ok()?;
                let payload = ReplicaPayload::decode(&mut r).ok()?;
                replicas.insert(replica, Arc::new(payload));
            }
        }
        r.finish().ok()?;
        Some(state)
    }
}

const SNAPSHOT_MAGIC: u32 = 0x4D43_4853; // "MCHS"
/// Bytes of snapshot framing before the body (magic + checksum).
const SNAPSHOT_HEADER: usize = 8;

/// What recovery found and did at open.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot was present and loaded.
    pub snapshot_loaded: bool,
    /// A snapshot was present but damaged, and was discarded.
    pub snapshot_corrupt: bool,
    /// Valid WAL records scanned on top of the snapshot.
    pub wal_records: usize,
    /// Delta records among them that found no exact base to apply over
    /// (their base was lost with a damaged snapshot, or a newer snapshot
    /// already covers them) and were skipped.
    pub deltas_skipped: usize,
    /// Why the WAL tail was truncated, if it was.
    pub wal_corruption: Option<String>,
}

/// One site's open durability store.
///
/// `open` recovers, `append`/`journal` log one applied version of one
/// lock, and compaction folds the log into a snapshot every
/// [`StoreConfig::snapshot_every`] records.
#[derive(Debug)]
pub struct SiteStore {
    device: Device,
    wal: WalAppender,
    config: StoreConfig,
    state: RecoveredState,
    records_since_snapshot: usize,
    report: RecoveryReport,
    /// The framed record being appended; reused so a steady stream of
    /// records allocates nothing.
    frame: Vec<u8>,
}

impl SiteStore {
    /// Opens the store described by `handle`, recovering snapshot + WAL
    /// and repairing (truncating) any corrupt WAL tail in place.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing device only; corruption
    /// degrades and is reported, never returned as an error.
    pub fn open(handle: &StoreHandle) -> io::Result<SiteStore> {
        let device = handle.device.clone();
        let mut report = RecoveryReport::default();

        let snap_bytes = device.read_snapshot()?;
        let mut state = if snap_bytes.is_empty() {
            RecoveredState::default()
        } else if let Some(state) = RecoveredState::decode_snapshot(&snap_bytes) {
            report.snapshot_loaded = true;
            state
        } else {
            // A damaged snapshot is discarded; the WAL still replays. Full
            // records are absolute and delta records without their base
            // are skipped, so we merely recover an older (possibly empty)
            // state and catch up over the network.
            report.snapshot_corrupt = true;
            RecoveredState::default()
        };

        let wal_bytes = device.read_wal()?;
        let scanned = scan(&wal_bytes);
        for record in &scanned.records {
            match record {
                WalRecord::Full(e) => state.apply_full(e.lock, e.version, &e.updates),
                WalRecord::Delta(d) => {
                    report.deltas_skipped += usize::from(!state.apply_delta(d));
                }
            }
        }
        report.wal_records = scanned.records.len();
        report.wal_corruption = scanned.corruption;
        if report.wal_corruption.is_some() {
            device.truncate_wal(
                scanned.valid_len,
                handle.config.fsync == FsyncPolicy::Always,
            )?;
        }

        Ok(SiteStore {
            wal: device.open_wal()?,
            device,
            config: handle.config,
            state,
            records_since_snapshot: scanned.records.len(),
            report,
            frame: Vec::new(),
        })
    }

    /// The recovered (and since-appended) state.
    pub fn recovered(&self) -> &RecoveredState {
        &self.state
    }

    /// What recovery found at open.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The `(lock, version)` pairs to announce on rejoin.
    pub fn announcement(&self) -> Vec<(LockId, Version)> {
        self.state.announcement()
    }

    /// Logs one applied version as a full record: the payloads of every
    /// replica of `lock` as of `version`. Compacts when the configured
    /// record count is reached.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing device.
    pub fn append(
        &mut self,
        lock: LockId,
        version: Version,
        updates: &[ReplicaUpdate],
    ) -> io::Result<()> {
        self.journal(lock, version, updates, None)
    }

    /// Logs one applied version of `lock`, whose replica set is now
    /// `updates`. When the caller also holds the `script` that produced
    /// it, the record is that script — provided the newest journaled
    /// version of the lock is exactly the script's base, every scripted
    /// replica is in the image, and the script is smaller than the
    /// payloads; otherwise it is the full replica set. Compacts when the
    /// configured record count is reached.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing device.
    pub fn journal(
        &mut self,
        lock: LockId,
        version: Version,
        updates: &[ReplicaUpdate],
        script: Option<&EditScript>,
    ) -> io::Result<()> {
        match script.filter(|s| self.state.takes_delta(lock, version, updates, s)) {
            Some(script) => wal::frame_into(&mut self.frame, true, |w| {
                wal::encode_delta(w, lock, version, script);
            })?,
            None => wal::frame_into(&mut self.frame, false, |w| {
                wal::encode_full(w, lock, version, updates);
            })?,
        }
        self.wal
            .append(&self.frame, self.config.fsync == FsyncPolicy::Always)?;
        self.state.apply_full(lock, version, updates);
        self.records_since_snapshot += 1;
        if self.config.snapshot_every > 0
            && self.records_since_snapshot >= self.config.snapshot_every
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Folds the current state into a snapshot and empties the WAL.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing device.
    pub fn compact(&mut self) -> io::Result<()> {
        let image = self.state.encode_snapshot();
        self.device
            .install_snapshot(&image, self.config.fsync == FsyncPolicy::Always)?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(vals: &[i64]) -> Vec<ReplicaUpdate> {
        vec![ReplicaUpdate::new(
            ReplicaId(1),
            ReplicaPayload::I64s(vals.to_vec()),
        )]
    }

    fn mem_handle(snapshot_every: usize) -> StoreHandle {
        StoreHandle::mem(StoreConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every,
        })
    }

    #[test]
    fn append_and_reopen_recovers_state() {
        let handle = mem_handle(0);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[10])).unwrap();
        s.append(LockId(1), Version(2), &updates(&[20])).unwrap();
        s.append(LockId(2), Version(1), &updates(&[7])).unwrap();
        drop(s);

        let s = handle.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(2));
        assert_eq!(s.recovered().lock_versions[&LockId(2)], Version(1));
        assert_eq!(
            *s.recovered().replicas[&LockId(1)][&ReplicaId(1)],
            ReplicaPayload::I64s(vec![20])
        );
        assert_eq!(s.report().wal_records, 3);
        assert!(!s.report().snapshot_loaded);
        assert!(s.report().wal_corruption.is_none());
        assert_eq!(
            s.announcement(),
            vec![(LockId(1), Version(2)), (LockId(2), Version(1))]
        );
    }

    #[test]
    fn compaction_snapshots_and_truncates_wal() {
        let handle = mem_handle(2);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        assert!(handle.device().wal_len().unwrap() > 0);
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap();
        // Second append hit snapshot_every: WAL is empty, snapshot holds
        // the state.
        assert_eq!(handle.device().wal_len().unwrap(), 0);
        assert!(handle.device().snapshot_len().unwrap() > 8);
        drop(s);

        let s = handle.open().unwrap();
        assert!(s.report().snapshot_loaded);
        assert_eq!(s.report().wal_records, 0);
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(2));
    }

    #[test]
    fn snapshot_plus_wal_tail_recovers_both() {
        let handle = mem_handle(2);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap(); // compacts
        s.append(LockId(1), Version(3), &updates(&[3])).unwrap(); // tail
        drop(s);

        let s = handle.open().unwrap();
        assert!(s.report().snapshot_loaded);
        assert_eq!(s.report().wal_records, 1);
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(3));
        assert_eq!(
            *s.recovered().replicas[&LockId(1)][&ReplicaId(1)],
            ReplicaPayload::I64s(vec![3])
        );
    }

    #[test]
    fn torn_tail_truncates_and_recovers_older_version() {
        let handle = mem_handle(0);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        let keep = handle.device().wal_len().unwrap();
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap();
        drop(s);
        // Tear off half of the second record.
        let torn = keep + (handle.device().wal_len().unwrap() - keep) / 2;
        handle.device().truncate_wal(torn, false).unwrap();

        let s = handle.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(1));
        assert!(s.report().wal_corruption.is_some());
        // The repair is persistent: the damaged tail is gone, and a
        // second open is clean.
        assert_eq!(handle.device().wal_len().unwrap(), keep);
        let s2 = handle.open().unwrap();
        assert!(s2.report().wal_corruption.is_none());
        assert_eq!(s2.recovered(), s.recovered());
    }

    #[test]
    fn bit_flip_in_wal_degrades_to_prefix() {
        let handle = mem_handle(0);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        let first = handle.device().wal_len().unwrap();
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap();
        drop(s);
        handle.device().flip_wal_bit(first + 9, 5).unwrap();

        let s = handle.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(1));
        assert!(s.report().wal_corruption.is_some());
    }

    #[test]
    fn corrupt_snapshot_discarded_wal_still_replays() {
        let handle = mem_handle(2);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap(); // compacts
        s.append(LockId(2), Version(1), &updates(&[9])).unwrap(); // tail
        drop(s);
        handle.device().flip_snapshot_bit(10, 2).unwrap();

        let s = handle.open().unwrap();
        assert!(s.report().snapshot_corrupt);
        assert!(!s.report().snapshot_loaded);
        // Lock 1 lived only in the snapshot — gone (an *older* state,
        // which is safe); lock 2's WAL record still replays.
        assert_eq!(s.recovered().lock_versions.get(&LockId(1)), None);
        assert_eq!(s.recovered().lock_versions[&LockId(2)], Version(1));
    }

    #[test]
    fn short_read_behaves_like_torn_tail_without_repairing_device() {
        let handle = mem_handle(0);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(1), &updates(&[1])).unwrap();
        let first = handle.device().wal_len().unwrap();
        s.append(LockId(1), Version(2), &updates(&[2])).unwrap();
        drop(s);
        handle.device().set_wal_read_limit(Some(first + 3));
        let s = handle.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(1));
        assert!(s.report().wal_corruption.is_some());
        // Once the device reads fully again, everything is still there up
        // to the repair point.
        handle.device().set_wal_read_limit(None);
        let s2 = handle.open().unwrap();
        assert!(s2.recovered().lock_versions[&LockId(1)] >= Version(1));
    }

    #[test]
    fn stale_entry_does_not_regress_state() {
        let handle = mem_handle(0);
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(5), &updates(&[5])).unwrap();
        s.append(LockId(1), Version(3), &updates(&[3])).unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(5));
        drop(s);
        let s = handle.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(5));
        assert_eq!(
            *s.recovered().replicas[&LockId(1)][&ReplicaId(1)],
            ReplicaPayload::I64s(vec![5])
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mocha-store-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = StoreHandle::disk(dir.clone(), StoreConfig::default());
        let mut s = handle.open().unwrap();
        s.append(LockId(1), Version(4), &updates(&[44])).unwrap();
        drop(s);
        // A brand-new handle over the directory — the process-restart
        // story.
        let again = StoreHandle::disk(dir.clone(), StoreConfig::default());
        let s = again.open().unwrap();
        assert_eq!(s.recovered().lock_versions[&LockId(1)], Version(4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod seeded;
#[cfg(test)]
mod testutil;
