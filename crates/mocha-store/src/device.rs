//! Storage backing for one site's durability files.
//!
//! Two backings share one interface:
//!
//! * [`Device::mem`] — an in-memory device whose contents are shared via
//!   `Arc` across clones, so a simulated site's next incarnation
//!   (`restart_site`) reads what the previous one wrote;
//! * [`Device::disk`] — a directory of real files (`wal.bin`,
//!   `snapshot.bin`) for the socket runtime's `mochad` processes.
//!
//! Records are appended through a [`WalAppender`], which an open store
//! holds for its lifetime: on disk that is one `O_APPEND` file handle, so
//! an append is one `write` and not an open/write/close per record.
//! Appends are *not* assumed atomic on either backing: recovery tolerates
//! torn record tails (see [`crate::wal::scan`]). Snapshot installation is
//! atomic on disk (write-temp + rename), so a crash mid-compaction leaves
//! either the old or the new snapshot, never a spliced one.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// In-memory files shared across device clones.
#[derive(Debug, Default)]
struct MemFiles {
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    /// When set, reads of the WAL return only this many bytes — the
    /// short-read fault used by the corruption tests.
    read_limit: Option<usize>,
}

#[derive(Debug, Clone)]
enum Backing {
    Mem(Arc<Mutex<MemFiles>>),
    Disk(PathBuf),
}

/// One site's durable storage: a snapshot file and an append-only WAL.
#[derive(Debug, Clone)]
pub struct Device {
    backing: Backing,
}

const WAL_FILE: &str = "wal.bin";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Recovers a poisoned lock: the mem device holds plain bytes, which are
/// never left in a torn state by a panicking holder worse than a real
/// crash would leave a file — and recovery is built for exactly that.
fn relock(files: &Mutex<MemFiles>) -> MutexGuard<'_, MemFiles> {
    files
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Device {
    /// Creates a fresh in-memory device. Clones share contents.
    pub fn mem() -> Device {
        Device {
            backing: Backing::Mem(Arc::new(Mutex::new(MemFiles::default()))),
        }
    }

    /// Creates a device over `dir` (created on first write).
    pub fn disk(dir: PathBuf) -> Device {
        Device {
            backing: Backing::Disk(dir),
        }
    }

    /// Reads the whole snapshot file; empty if none exists yet.
    pub fn read_snapshot(&self) -> io::Result<Vec<u8>> {
        match &self.backing {
            Backing::Mem(files) => Ok(relock(files).snapshot.clone()),
            Backing::Disk(dir) => read_or_empty(&dir.join(SNAPSHOT_FILE)),
        }
    }

    /// Reads the whole WAL file; empty if none exists yet.
    pub fn read_wal(&self) -> io::Result<Vec<u8>> {
        match &self.backing {
            Backing::Mem(files) => {
                let f = relock(files);
                let mut bytes = f.wal.clone();
                if let Some(limit) = f.read_limit {
                    bytes.truncate(limit);
                }
                Ok(bytes)
            }
            Backing::Disk(dir) => read_or_empty(&dir.join(WAL_FILE)),
        }
    }

    /// Opens the WAL for appending, creating the directory and an empty
    /// log on disk if there is none yet. Appends land at the end of the
    /// file even after [`truncate_wal`](Device::truncate_wal) or
    /// [`install_snapshot`](Device::install_snapshot) shortened it.
    pub fn open_wal(&self) -> io::Result<WalAppender> {
        let sink = match &self.backing {
            Backing::Mem(files) => Sink::Mem(Arc::clone(files)),
            Backing::Disk(dir) => {
                fs::create_dir_all(dir)?;
                Sink::Disk(
                    fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(dir.join(WAL_FILE))?,
                )
            }
        };
        Ok(WalAppender { sink })
    }

    /// Truncates the WAL to its first `keep` bytes — recovery's repair
    /// step after a torn or corrupt tail — optionally forcing the new
    /// length to stable storage before returning.
    pub fn truncate_wal(&self, keep: usize, fsync: bool) -> io::Result<()> {
        match &self.backing {
            Backing::Mem(files) => {
                relock(files).wal.truncate(keep);
                Ok(())
            }
            Backing::Disk(dir) => {
                let path = dir.join(WAL_FILE);
                if path.exists() {
                    let f = fs::OpenOptions::new().write(true).open(path)?;
                    f.set_len(keep as u64)?;
                    if fsync {
                        f.sync_data()?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Atomically installs a new snapshot and empties the WAL (the two
    /// halves of a compaction). On disk the snapshot goes through a
    /// write-temp + rename so a crash leaves either the old or the new
    /// snapshot intact; the WAL is truncated only after the snapshot is
    /// durable, so a crash between the two steps merely replays entries
    /// the snapshot already covers.
    pub fn install_snapshot(&self, snapshot: &[u8], fsync: bool) -> io::Result<()> {
        match &self.backing {
            Backing::Mem(files) => {
                let mut f = relock(files);
                f.snapshot = snapshot.to_vec();
                f.wal.clear();
                Ok(())
            }
            Backing::Disk(dir) => {
                fs::create_dir_all(dir)?;
                let tmp = dir.join(SNAPSHOT_TMP);
                let mut f = fs::File::create(&tmp)?;
                // Same contract as append_wal: compaction happens inline on
                // the appending thread so the WAL is never truncated before
                // its replacement snapshot is durable.
                f.write_all(snapshot)?; // lint: allow(blocking)
                if fsync {
                    f.sync_data()?;
                }
                drop(f);
                fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
                self.truncate_wal(0, fsync)
            }
        }
    }
}

#[derive(Debug)]
enum Sink {
    Mem(Arc<Mutex<MemFiles>>),
    Disk(fs::File),
}

/// An open append handle on one device's WAL (see [`Device::open_wal`]).
#[derive(Debug)]
pub struct WalAppender {
    sink: Sink,
}

impl WalAppender {
    /// Appends `bytes` to the WAL, optionally forcing them to stable
    /// storage before returning.
    pub fn append(&mut self, bytes: &[u8], fsync: bool) -> io::Result<()> {
        match &mut self.sink {
            Sink::Mem(files) => {
                relock(files).wal.extend_from_slice(bytes);
                Ok(())
            }
            Sink::Disk(f) => {
                // Synchronous on purpose, even on a reactor shard: the
                // durability contract is that a release's version is in
                // the log before the release message leaves, so the append
                // must complete inline. FsyncPolicy::Never exists for
                // deployments that refuse the sync cost.
                f.write_all(bytes)?; // lint: allow(blocking)
                if fsync {
                    f.sync_data()?;
                }
                Ok(())
            }
        }
    }
}

/// Deterministic corruption hooks for the durable-reboot tests. Bit flips
/// work on both backings (read-modify-write on disk); the short-read limit
/// is a property of the in-memory device only — disk tests shorten the
/// file itself.
#[cfg(any(test, feature = "fault-injection"))]
impl Device {
    /// Current WAL length in bytes (ignores any read limit).
    pub fn wal_len(&self) -> io::Result<usize> {
        match &self.backing {
            Backing::Mem(files) => Ok(relock(files).wal.len()),
            Backing::Disk(dir) => Ok(read_or_empty(&dir.join(WAL_FILE))?.len()),
        }
    }

    /// Current snapshot length in bytes.
    pub fn snapshot_len(&self) -> io::Result<usize> {
        Ok(self.read_snapshot()?.len())
    }

    /// Flips one bit of the WAL in place.
    pub fn flip_wal_bit(&self, byte: usize, bit: u32) -> io::Result<()> {
        match &self.backing {
            Backing::Mem(files) => {
                flip(&mut relock(files).wal, byte, bit);
                Ok(())
            }
            Backing::Disk(dir) => {
                let path = dir.join(WAL_FILE);
                let mut bytes = read_or_empty(&path)?;
                flip(&mut bytes, byte, bit);
                fs::write(path, bytes)
            }
        }
    }

    /// Flips one bit of the snapshot in place.
    pub fn flip_snapshot_bit(&self, byte: usize, bit: u32) -> io::Result<()> {
        match &self.backing {
            Backing::Mem(files) => {
                flip(&mut relock(files).snapshot, byte, bit);
                Ok(())
            }
            Backing::Disk(dir) => {
                let path = dir.join(SNAPSHOT_FILE);
                let mut bytes = read_or_empty(&path)?;
                flip(&mut bytes, byte, bit);
                fs::write(path, bytes)
            }
        }
    }

    /// Sets (or clears) the short-read limit on the in-memory WAL; no-op
    /// on disk.
    pub fn set_wal_read_limit(&self, limit: Option<usize>) {
        if let Backing::Mem(files) = &self.backing {
            relock(files).read_limit = limit;
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
fn flip(bytes: &mut [u8], byte: usize, bit: u32) {
    if let Some(b) = bytes.get_mut(byte) {
        *b ^= 1 << (bit % 8);
    }
}

fn read_or_empty(path: &std::path::Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_clones_share_contents() {
        let a = Device::mem();
        let b = a.clone();
        a.open_wal().unwrap().append(b"abc", false).unwrap();
        assert_eq!(b.read_wal().unwrap(), b"abc");
        b.install_snapshot(b"snap", false).unwrap();
        assert_eq!(a.read_snapshot().unwrap(), b"snap");
        assert!(a.read_wal().unwrap().is_empty(), "compaction empties WAL");
    }

    #[test]
    fn mem_short_read_limit() {
        let d = Device::mem();
        d.open_wal().unwrap().append(b"0123456789", false).unwrap();
        d.set_wal_read_limit(Some(4));
        assert_eq!(d.read_wal().unwrap(), b"0123");
        d.set_wal_read_limit(None);
        assert_eq!(d.read_wal().unwrap().len(), 10);
    }

    #[test]
    fn mem_bit_flip_and_truncate() {
        let d = Device::mem();
        d.open_wal().unwrap().append(&[0x00, 0xFF], false).unwrap();
        d.flip_wal_bit(0, 3).unwrap();
        assert_eq!(d.read_wal().unwrap(), vec![0x08, 0xFF]);
        d.truncate_wal(1, false).unwrap();
        assert_eq!(d.wal_len().unwrap(), 1);
        // Out-of-range flips are ignored, not panics.
        d.flip_wal_bit(99, 0).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // touches the real filesystem
    fn disk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("mocha-store-dev-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let d = Device::disk(dir.clone());
        assert!(d.read_wal().unwrap().is_empty(), "missing files read empty");
        let mut wal = d.open_wal().unwrap();
        wal.append(b"one", true).unwrap();
        wal.append(b"two", true).unwrap();
        // A fresh device over the same directory sees the same bytes —
        // the process-restart story.
        let e = Device::disk(dir.clone());
        assert_eq!(e.read_wal().unwrap(), b"onetwo");
        e.install_snapshot(b"snap", true).unwrap();
        assert_eq!(d.read_snapshot().unwrap(), b"snap");
        assert!(d.read_wal().unwrap().is_empty());
        // The handle opened before the compaction appends at the new end.
        wal.append(b"three", false).unwrap();
        assert_eq!(e.read_wal().unwrap(), b"three");
        d.flip_snapshot_bit(0, 0).unwrap();
        assert_ne!(e.read_snapshot().unwrap(), b"snap");
        let _ = fs::remove_dir_all(&dir);
    }
}
