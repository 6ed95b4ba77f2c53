//! WAL record formats and the corruption-tolerant scanner.
//!
//! Each record is framed as
//!
//! ```text
//! [len: u32 LE, top bit = record kind] [checksum: u32 LE] [payload: len bytes]
//! ```
//!
//! and comes in two kinds:
//!
//! * a **full record** (kind bit clear, checksum `crc32(payload)`) carries a
//!   [`WalEntry`] in `mocha-wire` encoding: one applied `(lock, version,
//!   full replica payloads)` statement. This is the only kind older logs
//!   contain, and its bytes have not changed.
//! * a **delta record** (kind bit set, checksum `!crc32(payload)`) carries
//!   a [`WalDelta`]: `(lock, base → version, per-replica edit scripts)`,
//!   the statement "whoever holds `lock` at exactly `base` reaches
//!   `version` by applying these scripts". The complemented checksum means
//!   a flipped kind bit can never pass one kind's payload off as the
//!   other's: it reads as a checksum mismatch.
//!
//! Full records are absolute; a delta record is applied on replay only
//! over an exact `base` match and is otherwise skipped, leaving that lock
//! at the last state the site actually held for it. So replaying any
//! prefix of the WAL over any snapshot still yields, per lock, a state the
//! site really had — the property that lets recovery truncate a corrupt
//! tail instead of aborting.
//!
//! [`scan`] walks the log from the front and stops at the first torn,
//! checksum-mismatched, or undecodable record, reporting how many bytes
//! were valid. It never panics, whatever the input.

use std::io;

use mocha_wire::delta::PayloadDelta;
use mocha_wire::io::{ByteReader, ByteWriter, WireError};
use mocha_wire::message::{ReplicaDeltaUpdate, ReplicaUpdate};
use mocha_wire::{LockId, ReplicaId, ReplicaPayload, Version};

use crate::crc::crc32;

/// Bytes of framing before each record payload (length + checksum).
pub const RECORD_HEADER: usize = 8;

/// The record-kind bit of the length word: set on delta records.
const DELTA_BIT: u32 = 1 << 31;

/// A full record: the full replica payloads a site held for `lock` at
/// `version` when it applied or released that version.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The lock whose replica set this records.
    pub lock: LockId,
    /// The version the payloads correspond to.
    pub version: Version,
    /// Full payloads of every replica guarded by the lock.
    pub updates: Vec<ReplicaUpdate>,
}

/// The edit scripts that turn a lock's replica set at `base` into a later
/// version: what a daemon already holds after cutting a release's delta or
/// accepting a delta push.
#[derive(Debug, Clone, PartialEq)]
pub struct EditScript {
    /// The version the scripts apply against.
    pub base: Version,
    /// One edit script per changed replica.
    pub scripts: Vec<ReplicaDeltaUpdate>,
}

/// A delta record: the edit scripts that took `lock`'s replica set from
/// `script.base` to `version` at this site.
#[derive(Debug, Clone, PartialEq)]
pub struct WalDelta {
    /// The lock whose replica set this records.
    pub lock: LockId,
    /// The version the scripts produce.
    pub version: Version,
    /// The scripts and the version they apply against.
    pub script: EditScript,
}

/// One scanned WAL record of either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An absolute `(lock, version, payloads)` statement.
    Full(WalEntry),
    /// A `(lock, base → version, scripts)` statement.
    Delta(WalDelta),
}

/// Encodes a full-record payload onto `w`.
pub(crate) fn encode_full(
    w: &mut ByteWriter,
    lock: LockId,
    version: Version,
    updates: &[ReplicaUpdate],
) {
    lock.encode(w);
    version.encode(w);
    w.put_u32(updates.len() as u32);
    for u in updates {
        u.replica.encode(w);
        u.payload.encode(w);
    }
}

/// Encodes a delta-record payload onto `w`.
pub(crate) fn encode_delta(
    w: &mut ByteWriter,
    lock: LockId,
    version: Version,
    script: &EditScript,
) {
    lock.encode(w);
    script.base.encode(w);
    version.encode(w);
    w.put_u32(script.scripts.len() as u32);
    for s in &script.scripts {
        s.replica.encode(w);
        s.delta.encode(w);
    }
}

/// Reads a `u32` item count, rejecting counts the remaining input cannot
/// possibly satisfy at `min_item` bytes each.
fn checked_count(r: &mut ByteReader<'_>, min_item: usize) -> Result<usize, WireError> {
    let n = r.get_u32()? as usize;
    let declared = n.saturating_mul(min_item);
    if declared > r.remaining() {
        return Err(WireError::LengthOverrun {
            declared,
            remaining: r.remaining(),
        });
    }
    Ok(n)
}

impl WalEntry {
    /// Encodes the entry payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(32);
        encode_full(&mut w, self.lock, self.version, &self.updates);
        w.into_bytes()
    }

    /// Decodes an entry payload, requiring all input consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated input, hostile length
    /// prefixes, bad payload tags, or trailing bytes — never panics.
    pub fn decode(bytes: &[u8]) -> Result<WalEntry, WireError> {
        let mut r = ByteReader::new(bytes);
        let lock = LockId::decode(&mut r)?;
        let version = Version::decode(&mut r)?;
        // Each update is at least 5 bytes (replica id + payload tag).
        let n = checked_count(&mut r, 5)?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            let replica = ReplicaId::decode(&mut r)?;
            let payload = ReplicaPayload::decode(&mut r)?;
            updates.push(ReplicaUpdate::new(replica, payload));
        }
        r.finish()?;
        Ok(WalEntry {
            lock,
            version,
            updates,
        })
    }
}

impl WalDelta {
    /// Encodes the delta payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64);
        encode_delta(&mut w, self.lock, self.version, &self.script);
        w.into_bytes()
    }

    /// Decodes a delta payload, requiring all input consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated input, hostile length
    /// prefixes, bad tags, or trailing bytes — never panics.
    pub fn decode(bytes: &[u8]) -> Result<WalDelta, WireError> {
        let mut r = ByteReader::new(bytes);
        let lock = LockId::decode(&mut r)?;
        let base = Version::decode(&mut r)?;
        let version = Version::decode(&mut r)?;
        // Each script is at least 9 bytes (replica id + delta variant tag
        // + segment count).
        let n = checked_count(&mut r, 9)?;
        let mut scripts = Vec::with_capacity(n);
        for _ in 0..n {
            scripts.push(ReplicaDeltaUpdate {
                replica: ReplicaId::decode(&mut r)?,
                delta: PayloadDelta::decode(&mut r)?,
            });
        }
        r.finish()?;
        Ok(WalDelta {
            lock,
            version,
            script: EditScript { base, scripts },
        })
    }
}

/// Two little-endian words: the shape of a record header and of the
/// snapshot's.
pub(crate) fn header(word: u32, checksum: u32) -> [u8; RECORD_HEADER] {
    let [w0, w1, w2, w3] = word.to_le_bytes();
    let [c0, c1, c2, c3] = checksum.to_le_bytes();
    [w0, w1, w2, w3, c0, c1, c2, c3]
}

/// Frames an encoded [`WalEntry`] payload as one full record.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + RECORD_HEADER);
    out.extend_from_slice(&header(payload.len() as u32, crc32(payload)));
    out.extend_from_slice(payload);
    out
}

/// Replaces the contents of `buf` with one framed record whose payload
/// `encode` writes: the header is reserved, the payload is encoded once
/// behind it, and length and checksum are patched in — so the bytes are
/// produced where they are written from, in a buffer the caller reuses.
///
/// # Errors
///
/// `InvalidInput` when the payload does not fit the 31-bit length field.
pub(crate) fn frame_into(
    buf: &mut Vec<u8>,
    delta: bool,
    encode: impl FnOnce(&mut ByteWriter),
) -> io::Result<()> {
    buf.clear();
    let mut w = ByteWriter::appending_to(std::mem::take(buf));
    w.put_raw(&[0; RECORD_HEADER]);
    encode(&mut w);
    *buf = w.into_bytes();
    let too_large = || io::Error::new(io::ErrorKind::InvalidInput, "WAL record too large");
    let (head, payload) = buf
        .split_first_chunk_mut::<RECORD_HEADER>()
        .ok_or_else(too_large)?;
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| len & DELTA_BIT == 0)
        .ok_or_else(too_large)?;
    let sum = crc32(payload);
    *head = if delta {
        header(len | DELTA_BIT, !sum)
    } else {
        header(len, sum)
    };
    Ok(())
}

/// The result of walking a WAL image from the front.
#[derive(Debug)]
pub struct WalScan {
    /// Records recovered, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; everything after it is garbage
    /// and should be truncated away before appending again.
    pub valid_len: usize,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<String>,
}

/// Scans `bytes` as a sequence of framed records, stopping at the first
/// torn, checksum-mismatched, or undecodable record.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut rest = bytes;
    let corruption = loop {
        if rest.is_empty() {
            break None;
        }
        let pos = bytes.len() - rest.len();
        let Some((&[w0, w1, w2, w3, c0, c1, c2, c3], body)) =
            rest.split_first_chunk::<RECORD_HEADER>()
        else {
            break Some(format!(
                "torn record header ({} trailing bytes)",
                rest.len()
            ));
        };
        let word = u32::from_le_bytes([w0, w1, w2, w3]);
        let checksum = u32::from_le_bytes([c0, c1, c2, c3]);
        let delta = word & DELTA_BIT != 0;
        let len = (word & !DELTA_BIT) as usize;
        let Some((payload, tail)) = body.split_at_checked(len) else {
            break Some(format!(
                "torn record payload (declared {len}, {} present)",
                body.len()
            ));
        };
        let sum = crc32(payload);
        if checksum != if delta { !sum } else { sum } {
            break Some(format!("checksum mismatch at offset {pos}"));
        }
        let decoded = if delta {
            WalDelta::decode(payload).map(WalRecord::Delta)
        } else {
            WalEntry::decode(payload).map(WalRecord::Full)
        };
        match decoded {
            Ok(record) => records.push(record),
            // A record whose checksum matches but whose payload does not
            // decode means the *writer* was corrupt, not the medium;
            // treat it exactly like tail damage.
            Err(e) => break Some(format!("undecodable record at offset {pos}: {e}")),
        }
        rest = tail;
    };
    WalScan {
        records,
        valid_len: bytes.len() - rest.len(),
        corruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: u64) -> WalRecord {
        WalRecord::Full(full(v))
    }

    fn full(v: u64) -> WalEntry {
        WalEntry {
            lock: LockId(1),
            version: Version(v),
            updates: vec![ReplicaUpdate::new(
                ReplicaId(7),
                ReplicaPayload::I64s(vec![v as i64, -1]),
            )],
        }
    }

    fn framed(record: &WalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        match record {
            WalRecord::Full(e) => frame_into(&mut buf, false, |w| {
                encode_full(w, e.lock, e.version, &e.updates);
            }),
            WalRecord::Delta(d) => frame_into(&mut buf, true, |w| {
                encode_delta(w, d.lock, d.version, &d.script);
            }),
        }
        .unwrap();
        buf
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(framed).collect()
    }

    fn delta(v: u64) -> WalRecord {
        WalRecord::Delta(WalDelta {
            lock: LockId(1),
            version: Version(v),
            script: EditScript {
                base: Version(v - 1),
                scripts: vec![ReplicaDeltaUpdate {
                    replica: ReplicaId(7),
                    delta: PayloadDelta::diff(
                        &ReplicaPayload::I64s(vec![v as i64 - 1, -1]),
                        &ReplicaPayload::I64s(vec![v as i64, -1]),
                    )
                    .unwrap(),
                }],
            },
        })
    }

    #[test]
    fn entry_roundtrips() {
        let e = WalEntry {
            lock: LockId(3),
            version: Version(9),
            updates: vec![
                ReplicaUpdate::new(ReplicaId(1), ReplicaPayload::Bytes(vec![1, 2, 3])),
                ReplicaUpdate::new(ReplicaId(2), ReplicaPayload::Utf8("hi".into())),
            ],
        };
        assert_eq!(WalEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn in_place_framing_of_a_full_record_is_the_compat_framing() {
        assert_eq!(framed(&entry(4)), frame(&full(4).encode()));
        assert_eq!(scan(&frame(&full(4).encode())).records, vec![entry(4)]);
    }

    #[test]
    fn clean_log_scans_fully() {
        let entries = vec![entry(1), delta(2), entry(3), delta(4)];
        let bytes = log_of(&entries);
        let s = scan(&bytes);
        assert_eq!(s.records, entries);
        assert_eq!(s.valid_len, bytes.len());
        assert!(s.corruption.is_none());
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let entries = vec![entry(1), delta(2)];
        let mut bytes = log_of(&entries);
        let clean_len = bytes.len();
        let torn = framed(&entry(3));
        // Every strict prefix of the torn record must recover exactly the
        // first two entries.
        for cut in 1..torn.len() {
            bytes.truncate(clean_len);
            bytes.extend_from_slice(&torn[..cut]);
            let s = scan(&bytes);
            assert_eq!(s.records, entries, "cut={cut}");
            assert_eq!(s.valid_len, clean_len, "cut={cut}");
            assert!(s.corruption.is_some(), "cut={cut}");
        }
    }

    #[test]
    fn bit_flip_stops_scan_at_damaged_record() {
        let entries = vec![entry(1), delta(2), entry(3)];
        let clean = log_of(&entries);
        let first_len = framed(&entry(1)).len();
        // Flip one bit in every byte position of the second record.
        for byte in first_len..first_len + framed(&delta(2)).len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x04;
            let s = scan(&bytes);
            assert!(s.corruption.is_some(), "byte={byte}");
            assert!(
                s.records.len() <= 1 || s.valid_len <= first_len || s.records[0] == entries[0],
                "byte={byte}"
            );
            // The valid prefix always rescans clean.
            let again = scan(&bytes[..s.valid_len]);
            assert!(again.corruption.is_none(), "byte={byte}");
            assert_eq!(again.records.len(), s.records.len(), "byte={byte}");
        }
    }

    #[test]
    fn hostile_update_count_is_tail_damage_not_panic() {
        // A record whose payload claims 2^31 updates but checksums
        // correctly (writer bug): scan must stop gracefully.
        let mut w = ByteWriter::new();
        LockId(1).encode(&mut w);
        Version(1).encode(&mut w);
        w.put_u32(1 << 31);
        let payload = w.into_bytes();
        let bytes = frame(&payload);
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(s.corruption.unwrap().contains("undecodable"));
    }

    #[test]
    fn empty_log_is_clean() {
        let s = scan(&[]);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(s.corruption.is_none());
    }
}
