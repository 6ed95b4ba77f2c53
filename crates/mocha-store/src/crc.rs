//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven
//! slice-by-8.
//!
//! Hand-rolled so the store has no dependency beyond `mocha-wire`. The
//! framing only needs error *detection* against torn writes and media bit
//! rot on a local device, where the classic reflected CRC-32 is the
//! standard choice. The checksum runs over every journaled byte, and with
//! [`FsyncPolicy::Never`](crate::FsyncPolicy) nothing else on the append
//! path is as expensive, so it consumes eight input bytes per step from
//! eight 256-entry tables built at compile time.

const POLY: u32 = 0xEDB8_8320;

/// One reflected shift-and-xor round: the whole CRC, one bit at a time.
const fn round(crc: u32) -> u32 {
    // Branch-free: `mask` is all-ones when the low bit is set.
    let mask = (crc & 1).wrapping_neg();
    (crc >> 1) ^ (POLY & mask)
}

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, so eight lookups advance the state over eight input bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = round(crc);
            bit += 1;
        }
        t[0][i] = crc; // lint: allow(indexing) i < 256
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i]; // lint: allow(indexing) 1 <= k < 8, i < 256
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize]; // lint: allow(indexing) masked to < 256
            i += 1;
        }
        k += 1;
    }
    t
}

fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)] // lint: allow(indexing) a u8 is always < 256
}

/// Computes the CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // `chunks_exact(8)` yields only 8-byte slices; the pattern names
        // them without indexing.
        if let &[a, b, c, d, e, f, g, h] = chunk {
            let [s0, s1, s2, s3] = crc.to_le_bytes();
            crc = lookup(t7, s0 ^ a)
                ^ lookup(t6, s1 ^ b)
                ^ lookup(t5, s2 ^ c)
                ^ lookup(t4, s3 ^ d)
                ^ lookup(t3, e)
                ^ lookup(t2, f)
                ^ lookup(t1, g)
                ^ lookup(t0, h);
        }
    }
    for &b in chunks.remainder() {
        let [s0, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ lookup(t0, s0 ^ b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rng;

    /// The definition, one bit at a time: the oracle the tables answer to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = round(crc);
            }
        }
        !crc
    }

    #[test]
    fn check_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = crc32(b"mocha");
        let mut flipped = *b"mocha";
        flipped[2] ^= 0x10;
        assert_ne!(base, crc32(&flipped));
    }

    #[test]
    fn tables_agree_with_the_bitwise_definition() {
        let mut rng = Rng::new(0x6372_6333);
        // Every length class of the 8-byte stride, then random lengths up
        // to 4 KiB. Miri interprets the oracle too, so it gets fewer.
        let cases = if cfg!(miri) { 24 } else { 1000 };
        for case in 0..cases {
            let len = if case < 24 { case } else { rng.below(4097) };
            let bytes = rng.bytes(len);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
        }
    }
}
