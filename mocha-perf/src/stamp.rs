//! Entry-consistency checking. Every write puts `(lock id, sequence)`
//! into the first 16 payload bytes; a read made under the lock must see
//! exactly the stamp (and bytes) of the write that preceded it.

use mocha_wire::ReplicaPayload;

/// Bytes the stamp occupies at the front of every payload.
pub const STAMP_LEN: usize = 16;

/// Which write a payload is: the `seq`-th write under `lock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Raw id of the guarding lock.
    pub lock: u64,
    /// Position in the lock's write order (0 = the registered initial
    /// value).
    pub seq: u64,
}

impl Stamp {
    /// Writes the stamp over the first [`STAMP_LEN`] bytes of `buf`.
    ///
    /// # Panics
    ///
    /// If `buf` is shorter than a stamp; workload payloads never are.
    pub fn write_into(self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.lock.to_le_bytes());
        buf[8..STAMP_LEN].copy_from_slice(&self.seq.to_le_bytes());
    }

    /// Reads the stamp at the front of `buf`, if it is long enough.
    pub fn read_from(buf: &[u8]) -> Option<Stamp> {
        let lock = u64::from_le_bytes(buf.get(..8)?.try_into().ok()?);
        let seq = u64::from_le_bytes(buf.get(8..STAMP_LEN)?.try_into().ok()?);
        Some(Stamp { lock, seq })
    }
}

/// Why a read failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The payload is not a byte array long enough to carry a stamp.
    Shape(String),
    /// The stamp is another write's: a stale (or future, or foreign) read.
    WrongStamp {
        /// The write the reader had to see.
        expected: Stamp,
        /// The write it saw.
        seen: Stamp,
    },
    /// The stamp matches but the bytes behind it do not.
    WrongBytes {
        /// Offset of the first differing byte.
        first_diff: usize,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Shape(what) => write!(f, "payload has the wrong shape: {what}"),
            ReadError::WrongStamp { expected, seen } => write!(
                f,
                "read saw write {}#{} where {}#{} was the previous cycle's",
                seen.lock, seen.seq, expected.lock, expected.seq
            ),
            ReadError::WrongBytes { first_diff } => {
                write!(f, "stamp matches but byte {first_diff} differs")
            }
        }
    }
}

/// Checks that `read` is exactly `expected`, the payload the previous
/// cycle on this lock left behind.
///
/// # Errors
///
/// The first discrepancy, stamp before bytes, so a stale read is named
/// as one.
pub fn verify_read(read: &ReplicaPayload, expected: &[u8]) -> Result<(), ReadError> {
    let ReplicaPayload::Bytes(seen) = read else {
        return Err(ReadError::Shape(read.signature().to_string()));
    };
    let want =
        Stamp::read_from(expected).ok_or_else(|| ReadError::Shape("short expectation".into()))?;
    let got =
        Stamp::read_from(seen).ok_or_else(|| ReadError::Shape(format!("{} bytes", seen.len())))?;
    if got != want {
        return Err(ReadError::WrongStamp {
            expected: want,
            seen: got,
        });
    }
    if seen.as_slice() != expected {
        let first_diff = seen
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| seen.len().min(expected.len()));
        return Err(ReadError::WrongBytes { first_diff });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(lock: u64, seq: u64, fill: u8) -> Vec<u8> {
        let mut buf = vec![fill; 64];
        Stamp { lock, seq }.write_into(&mut buf);
        buf
    }

    #[test]
    fn accepts_the_previous_write_only() {
        let current = payload(3, 7, 0xAA);
        assert_eq!(
            verify_read(&ReplicaPayload::Bytes(current.clone()), &current),
            Ok(())
        );
    }

    #[test]
    fn rejects_a_stale_read() {
        let current = payload(3, 7, 0xAA);
        let stale = payload(3, 6, 0xAA);
        assert_eq!(
            verify_read(&ReplicaPayload::Bytes(stale), &current),
            Err(ReadError::WrongStamp {
                expected: Stamp { lock: 3, seq: 7 },
                seen: Stamp { lock: 3, seq: 6 },
            })
        );
    }

    #[test]
    fn rejects_foreign_lock_damaged_bytes_and_wrong_shapes() {
        let current = payload(3, 7, 0xAA);
        assert!(matches!(
            verify_read(&ReplicaPayload::Bytes(payload(4, 7, 0xAA)), &current),
            Err(ReadError::WrongStamp { .. })
        ));
        let mut damaged = current.clone();
        damaged[40] ^= 1;
        assert_eq!(
            verify_read(&ReplicaPayload::Bytes(damaged), &current),
            Err(ReadError::WrongBytes { first_diff: 40 })
        );
        let mut truncated = current.clone();
        truncated.truncate(32);
        assert_eq!(
            verify_read(&ReplicaPayload::Bytes(truncated), &current),
            Err(ReadError::WrongBytes { first_diff: 32 })
        );
        assert!(matches!(
            verify_read(&ReplicaPayload::I32s(vec![1]), &current),
            Err(ReadError::Shape(_))
        ));
        assert!(matches!(
            verify_read(&ReplicaPayload::Bytes(vec![1, 2]), &current),
            Err(ReadError::Shape(_))
        ));
    }
}
