//! Delta encoding for replica payloads.
//!
//! Mocha's §4 availability scheme pushes the *whole* payload to every
//! update-recipient at each release, so wide-area bandwidth scales with
//! object size rather than write size. A [`PayloadDelta`] instead carries
//! a **segment edit script** against a base version the receiver already
//! holds: each segment either copies a range from the base or supplies
//! fresh elements. Applying the script is pure concatenation, so it stays
//! correct when the array grows or shrinks (an overwrite-in-place format
//! would mis-place the suffix whenever the length changes).
//!
//! Deltas are strictly an optimization: a receiver whose base version
//! does not match — or whose apply fails for any reason — NACKs back to a
//! full-payload transfer. Correctness never depends on delta
//! availability, only bandwidth does.

use crate::io::{ByteReader, ByteWriter, WireError};
use crate::payload::ReplicaPayload;

/// One edit-script segment over elements of type `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg<T> {
    /// Copy `len` elements starting at `offset` from the receiver's base
    /// payload.
    Copy {
        /// Start index into the base payload, in elements.
        offset: u32,
        /// Number of elements to copy.
        len: u32,
    },
    /// Splice in fresh elements carried on the wire.
    Fresh(Vec<T>),
}

/// An edit script turning one [`ReplicaPayload`] into another of the same
/// variant. `Object` payloads have no delta form (their bytes are an
/// opaque producer-defined encoding) and always travel in full.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadDelta {
    /// Script over `byte[]` elements.
    Bytes(Vec<Seg<u8>>),
    /// Script over `int[]` elements.
    I32s(Vec<Seg<i32>>),
    /// Script over `long[]` elements.
    I64s(Vec<Seg<i64>>),
    /// Script over `double[]` elements (compared bitwise when diffing, so
    /// NaNs and signed zeros round-trip exactly).
    F64s(Vec<Seg<f64>>),
    /// Script over the UTF-8 *bytes* of a string; the applied result is
    /// re-validated as UTF-8.
    Utf8(Vec<Seg<u8>>),
}

/// Computes the common-prefix/common-suffix edit script from `base` to
/// `new`. Runs of unchanged elements in the middle are not detected —
/// the paper's workloads write one contiguous region per release, which
/// this captures exactly at O(n) cost.
fn diff_slice<T: Clone>(base: &[T], new: &[T], eq: fn(&T, &T) -> bool) -> Vec<Seg<T>> {
    let mut p = 0;
    while p < base.len() && p < new.len() && eq(&base[p], &new[p]) {
        p += 1;
    }
    let mut s = 0;
    while s < base.len() - p
        && s < new.len() - p
        && eq(&base[base.len() - 1 - s], &new[new.len() - 1 - s])
    {
        s += 1;
    }
    edit_script(base, new, p, s)
}

/// Chunk sizes [`diff_bytes`] narrows through: whole blocks first (slice
/// equality on a block is one vectorised `memcmp`), then 16-byte words
/// inside the block that differs, then bytes inside the word.
const STEPS: [usize; 2] = [1024, 16];

/// Length of the longest common prefix. (Narrowed by re-slicing rather
/// than `skip`: a reversed zip steps through what it skips.)
fn common_prefix(mut a: &[u8], mut b: &[u8]) -> usize {
    let mut n = 0;
    for step in STEPS {
        let whole = a.chunks_exact(step).zip(b.chunks_exact(step));
        let same = whole.take_while(|(x, y)| x == y).count() * step;
        n += same;
        a = a.get(same..).unwrap_or_default();
        b = b.get(same..).unwrap_or_default();
    }
    n + a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Length of the longest common suffix; the mirror of [`common_prefix`].
fn common_suffix(mut a: &[u8], mut b: &[u8]) -> usize {
    let mut n = 0;
    for step in STEPS {
        let whole = a.rchunks_exact(step).zip(b.rchunks_exact(step));
        let same = whole.take_while(|(x, y)| x == y).count() * step;
        n += same;
        a = a.get(..a.len() - same).unwrap_or_default();
        b = b.get(..b.len() - same).unwrap_or_default();
    }
    let bytewise = a.iter().rev().zip(b.iter().rev());
    n + bytewise.take_while(|(x, y)| x == y).count()
}

/// [`diff_slice`] for bytes, which is where the large payloads are: the
/// same script from the same prefix and suffix lengths, found word-wise.
fn diff_bytes(base: &[u8], new: &[u8]) -> Vec<Seg<u8>> {
    let p = common_prefix(base, new);
    // The suffix may not reach back into the prefix.
    let base_rest = base.get(p..).unwrap_or_default();
    let new_rest = new.get(p..).unwrap_or_default();
    edit_script(base, new, p, common_suffix(base_rest, new_rest))
}

/// The script that keeps `base`'s first `p` and last `s` elements and
/// replaces what lies between with `new`'s.
fn edit_script<T: Clone>(base: &[T], new: &[T], p: usize, s: usize) -> Vec<Seg<T>> {
    let mut segs = Vec::new();
    if p > 0 {
        segs.push(Seg::Copy {
            offset: 0,
            len: p as u32,
        });
    }
    let mid = &new[p..new.len() - s];
    if !mid.is_empty() {
        segs.push(Seg::Fresh(mid.to_vec()));
    }
    if s > 0 {
        segs.push(Seg::Copy {
            offset: (base.len() - s) as u32,
            len: s as u32,
        });
    }
    segs
}

/// Applies an edit script to a base slice by concatenating segments.
fn apply_slice<T: Clone>(base: &[T], segs: &[Seg<T>]) -> Result<Vec<T>, WireError> {
    let mut out = Vec::new();
    for seg in segs {
        match seg {
            Seg::Copy { offset, len } => {
                let start = *offset as usize;
                let end = start.saturating_add(*len as usize);
                let range = base.get(start..end).ok_or(WireError::LengthOverrun {
                    declared: end,
                    remaining: base.len(),
                })?;
                out.extend_from_slice(range);
            }
            Seg::Fresh(v) => out.extend_from_slice(v),
        }
    }
    Ok(out)
}

fn encode_segs<T>(w: &mut ByteWriter, segs: &[Seg<T>], put: fn(&mut ByteWriter, &T)) {
    w.put_u32(segs.len() as u32);
    for seg in segs {
        match seg {
            Seg::Copy { offset, len } => {
                w.put_u8(0);
                w.put_u32(*offset);
                w.put_u32(*len);
            }
            Seg::Fresh(v) => {
                w.put_u8(1);
                w.put_u32(v.len() as u32);
                for x in v {
                    put(w, x);
                }
            }
        }
    }
}

/// Reads a `u32` element count and checks `count * elem_size` fits in the
/// remaining input, guarding against hostile length prefixes.
fn checked_len(r: &mut ByteReader<'_>, elem_size: usize) -> Result<usize, WireError> {
    let n = r.get_u32()? as usize;
    let need = n.saturating_mul(elem_size);
    if need > r.remaining() {
        return Err(WireError::LengthOverrun {
            declared: need,
            remaining: r.remaining(),
        });
    }
    Ok(n)
}

fn decode_segs<'b, T>(
    r: &mut ByteReader<'b>,
    elem_size: usize,
    get: fn(&mut ByteReader<'b>) -> Result<T, WireError>,
) -> Result<Vec<Seg<T>>, WireError> {
    // The smallest segment is a Fresh of zero elements: 1 tag + 4 count.
    let n = checked_len(r, 5)?;
    let mut segs = Vec::with_capacity(n);
    for _ in 0..n {
        match r.get_u8()? {
            0 => segs.push(Seg::Copy {
                offset: r.get_u32()?,
                len: r.get_u32()?,
            }),
            1 => {
                let k = checked_len(r, elem_size)?;
                let mut v = Vec::with_capacity(k);
                for _ in 0..k {
                    v.push(get(r)?);
                }
                segs.push(Seg::Fresh(v));
            }
            tag => return Err(WireError::BadTag { what: "Seg", tag }),
        }
    }
    Ok(segs)
}

fn segs_cost<T>(segs: &[Seg<T>], elem_size: usize) -> usize {
    // 1 variant tag + 4 count + per segment: 1 tag + (Copy: 8 | Fresh: 4 + data).
    5 + segs
        .iter()
        .map(|seg| match seg {
            Seg::Copy { .. } => 9,
            Seg::Fresh(v) => 5 + v.len() * elem_size,
        })
        .sum::<usize>()
}

impl PayloadDelta {
    /// Diffs `new` against `base`, producing the edit script that turns the
    /// base into the new payload. Returns `None` when the variants differ
    /// or the payload is an `Object` (no delta form) — the caller falls
    /// back to a full transfer.
    pub fn diff(base: &ReplicaPayload, new: &ReplicaPayload) -> Option<PayloadDelta> {
        match (base, new) {
            (ReplicaPayload::Bytes(b), ReplicaPayload::Bytes(n)) => {
                Some(PayloadDelta::Bytes(diff_bytes(b, n)))
            }
            (ReplicaPayload::I32s(b), ReplicaPayload::I32s(n)) => {
                Some(PayloadDelta::I32s(diff_slice(b, n, i32::eq)))
            }
            (ReplicaPayload::I64s(b), ReplicaPayload::I64s(n)) => {
                Some(PayloadDelta::I64s(diff_slice(b, n, i64::eq)))
            }
            (ReplicaPayload::F64s(b), ReplicaPayload::F64s(n)) => {
                Some(PayloadDelta::F64s(diff_slice(b, n, |a, b| {
                    a.to_bits() == b.to_bits()
                })))
            }
            (ReplicaPayload::Utf8(b), ReplicaPayload::Utf8(n)) => {
                Some(PayloadDelta::Utf8(diff_bytes(b.as_bytes(), n.as_bytes())))
            }
            _ => None,
        }
    }

    /// Applies the edit script to `base`, producing the new payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the base variant does not match the
    /// delta, a `Copy` segment reaches past the base, or a `Utf8` result is
    /// not valid UTF-8. Receivers treat any error as "delta unusable" and
    /// NACK for a full transfer.
    pub fn apply(&self, base: &ReplicaPayload) -> Result<ReplicaPayload, WireError> {
        let mismatch = WireError::BadTag {
            what: "PayloadDelta base",
            tag: 0,
        };
        match (self, base) {
            (PayloadDelta::Bytes(segs), ReplicaPayload::Bytes(b)) => {
                Ok(ReplicaPayload::Bytes(apply_slice(b, segs)?))
            }
            (PayloadDelta::I32s(segs), ReplicaPayload::I32s(b)) => {
                Ok(ReplicaPayload::I32s(apply_slice(b, segs)?))
            }
            (PayloadDelta::I64s(segs), ReplicaPayload::I64s(b)) => {
                Ok(ReplicaPayload::I64s(apply_slice(b, segs)?))
            }
            (PayloadDelta::F64s(segs), ReplicaPayload::F64s(b)) => {
                Ok(ReplicaPayload::F64s(apply_slice(b, segs)?))
            }
            (PayloadDelta::Utf8(segs), ReplicaPayload::Utf8(b)) => {
                let bytes = apply_slice(b.as_bytes(), segs)?;
                let s = String::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
                Ok(ReplicaPayload::Utf8(s))
            }
            _ => Err(mismatch),
        }
    }

    /// Approximate encoded size in bytes, used by the sender to decide
    /// whether the delta actually beats a full payload.
    pub fn cost_bytes(&self) -> usize {
        match self {
            PayloadDelta::Bytes(segs) | PayloadDelta::Utf8(segs) => segs_cost(segs, 1),
            PayloadDelta::I32s(segs) => segs_cost(segs, 4),
            PayloadDelta::I64s(segs) => segs_cost(segs, 8),
            PayloadDelta::F64s(segs) => segs_cost(segs, 8),
        }
    }

    /// Encodes the delta (variant tag + segments) onto a writer.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            PayloadDelta::Bytes(segs) => {
                w.put_u8(0);
                encode_segs(w, segs, |w, x| w.put_u8(*x));
            }
            PayloadDelta::I32s(segs) => {
                w.put_u8(1);
                encode_segs(w, segs, |w, x| w.put_i32(*x));
            }
            PayloadDelta::I64s(segs) => {
                w.put_u8(2);
                encode_segs(w, segs, |w, x| w.put_i64(*x));
            }
            PayloadDelta::F64s(segs) => {
                w.put_u8(3);
                encode_segs(w, segs, |w, x| w.put_f64(*x));
            }
            PayloadDelta::Utf8(segs) => {
                w.put_u8(4);
                encode_segs(w, segs, |w, x| w.put_u8(*x));
            }
        }
    }

    /// Decodes a delta from a reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated input, bad tags, or hostile
    /// length prefixes.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<PayloadDelta, WireError> {
        match r.get_u8()? {
            0 => Ok(PayloadDelta::Bytes(decode_segs(r, 1, ByteReader::get_u8)?)),
            1 => Ok(PayloadDelta::I32s(decode_segs(r, 4, ByteReader::get_i32)?)),
            2 => Ok(PayloadDelta::I64s(decode_segs(r, 8, ByteReader::get_i64)?)),
            3 => Ok(PayloadDelta::F64s(decode_segs(r, 8, ByteReader::get_f64)?)),
            4 => Ok(PayloadDelta::Utf8(decode_segs(r, 1, ByteReader::get_u8)?)),
            tag => Err(WireError::BadTag {
                what: "PayloadDelta",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(d: &PayloadDelta) -> PayloadDelta {
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let out = PayloadDelta::decode(&mut r).unwrap();
        r.finish().unwrap();
        out
    }

    fn wire_bytes(p: &ReplicaPayload) -> Vec<u8> {
        let mut w = ByteWriter::new();
        p.encode(&mut w);
        w.into_bytes()
    }

    fn diff_apply(base: &ReplicaPayload, new: &ReplicaPayload) {
        let d = PayloadDelta::diff(base, new).unwrap();
        let d = roundtrip(&d);
        // Compare wire encodings, not PartialEq: NaN f64 elements must
        // round-trip bit-exactly even though NaN != NaN.
        assert_eq!(wire_bytes(&d.apply(base).unwrap()), wire_bytes(new));
    }

    #[test]
    fn wordwise_byte_diff_is_the_elementwise_script() {
        // xorshift64; the elementwise walk is the oracle.
        let mut state = 0x6469_6666_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for case in 0..1000 {
            // Few distinct values, so prefixes and suffixes also end by
            // chance in the middle of a step.
            // Every tenth case is long enough to cross whole blocks.
            let len = if case % 10 == 9 { next(5000) } else { next(80) };
            let base: Vec<u8> = (0..len).map(|_| next(3) as u8).collect();
            let mut new = base.clone();
            match case % 5 {
                0 => {}
                1 => new.clear(),
                // Overwritten, grown and shrunk at a random place.
                shape => {
                    let at = next(new.len() + 1);
                    let len = next((new.len() - at).min(40) + 1);
                    let fresh = (0..next(40)).map(|_| next(3) as u8);
                    match shape {
                        2 => new
                            .iter_mut()
                            .skip(at)
                            .take(len)
                            .for_each(|b| *b = next(3) as u8),
                        3 => drop(new.splice(at..at, fresh)),
                        _ => drop(new.drain(at..at + len)),
                    }
                }
            }
            let want = diff_slice(&base, &new, u8::eq);
            assert_eq!(
                diff_bytes(&base, &new),
                want,
                "case {case}: {base:?} -> {new:?}"
            );
            assert_eq!(diff_bytes(&new, &base), diff_slice(&new, &base, u8::eq));
            assert_eq!(apply_slice(&base, &want).unwrap(), new);
        }
        assert_eq!(diff_bytes(&[], &[]), diff_slice(&[], &[], u8::eq));
    }

    #[test]
    fn diff_then_apply_reconstructs_every_variant() {
        diff_apply(
            &ReplicaPayload::Bytes(vec![1, 2, 3, 4]),
            &ReplicaPayload::Bytes(vec![1, 9, 3, 4]),
        );
        diff_apply(
            &ReplicaPayload::I32s(vec![5; 100]),
            &ReplicaPayload::I32s(vec![5; 100]),
        );
        diff_apply(
            &ReplicaPayload::I64s(vec![1, 2, 3]),
            &ReplicaPayload::I64s(vec![]),
        );
        diff_apply(
            &ReplicaPayload::F64s(vec![1.0, f64::NAN]),
            &ReplicaPayload::F64s(vec![1.0, 2.0, f64::NAN]),
        );
        diff_apply(
            &ReplicaPayload::Utf8("Good Choice".into()),
            &ReplicaPayload::Utf8("Good Voice".into()),
        );
    }

    #[test]
    fn length_change_keeps_suffix_aligned() {
        // The classic overwrite-in-place bug: insert in the middle shifts
        // the suffix. The edit script must still reproduce it exactly.
        let base = ReplicaPayload::I32s(vec![1, 2, 3, 4, 5]);
        let new = ReplicaPayload::I32s(vec![1, 2, 99, 98, 97, 3, 4, 5]);
        diff_apply(&base, &new);
        let shrunk = ReplicaPayload::I32s(vec![1, 5]);
        diff_apply(&base, &shrunk);
    }

    #[test]
    fn small_write_in_large_object_yields_small_delta() {
        let mut v = vec![0u8; 64 * 1024];
        let base = ReplicaPayload::Bytes(v.clone());
        v[1000] = 7;
        let new = ReplicaPayload::Bytes(v);
        let d = PayloadDelta::diff(&base, &new).unwrap();
        assert!(d.cost_bytes() < 64, "cost was {}", d.cost_bytes());
        assert_eq!(d.apply(&base).unwrap(), new);
    }

    #[test]
    fn objects_and_variant_mismatch_have_no_delta() {
        let obj = ReplicaPayload::Object {
            type_name: "X".into(),
            bytes: vec![1],
        };
        assert!(PayloadDelta::diff(&obj, &obj).is_none());
        assert!(PayloadDelta::diff(
            &ReplicaPayload::I32s(vec![1]),
            &ReplicaPayload::I64s(vec![1]),
        )
        .is_none());
    }

    #[test]
    fn apply_rejects_wrong_base_variant_and_bad_copy() {
        let d = PayloadDelta::diff(
            &ReplicaPayload::I32s(vec![1, 2]),
            &ReplicaPayload::I32s(vec![1, 3]),
        )
        .unwrap();
        assert!(d.apply(&ReplicaPayload::Bytes(vec![1, 2])).is_err());
        let oob = PayloadDelta::I32s(vec![Seg::Copy { offset: 1, len: 9 }]);
        assert!(matches!(
            oob.apply(&ReplicaPayload::I32s(vec![0; 4])),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn utf8_apply_revalidates() {
        // Splitting a multi-byte char between Copy and Fresh is legal on
        // the wire; an invalid recombination must be rejected.
        let bad = PayloadDelta::Utf8(vec![Seg::Fresh(vec![0xFF, 0xFE])]);
        assert!(matches!(
            bad.apply(&ReplicaPayload::Utf8(String::new())),
            Err(WireError::BadUtf8)
        ));
        // And a valid split recombines fine.
        let base = ReplicaPayload::Utf8("héllo".into());
        let new = ReplicaPayload::Utf8("héllö".into());
        diff_apply(&base, &new);
    }

    #[test]
    fn hostile_segment_count_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1); // I32s
        w.put_u32(u32::MAX); // segment count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            PayloadDelta::decode(&mut r),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn truncated_delta_is_rejected() {
        let d = PayloadDelta::diff(
            &ReplicaPayload::F64s(vec![1.0, 2.0]),
            &ReplicaPayload::F64s(vec![1.0, 3.0]),
        )
        .unwrap();
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                PayloadDelta::decode(&mut r).is_err() || r.finish().is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
