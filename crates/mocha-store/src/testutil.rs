//! Seeded generators for the crate's tests: an xorshift PRNG and random
//! payloads, edits and journal histories built from it. Every test names
//! its seed, so a failure repeats exactly.

// Says so to tools that read this file on its own (mocha-lint counts
// panic sites in every file it does not know to be test code).
#![cfg(test)]

use mocha_wire::delta::PayloadDelta;
use mocha_wire::message::{ReplicaDeltaUpdate, ReplicaUpdate};
use mocha_wire::{LockId, ReplicaId, ReplicaPayload, Version};

use crate::{EditScript, SiteStore};

/// xorshift64*: small, fast, and good enough to shape test inputs.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Random bytes of a random length below `max`.
    pub(crate) fn blob(&mut self, max: usize) -> Vec<u8> {
        let len = self.below(max);
        self.bytes(len)
    }

    /// A payload of a random variant, up to a few dozen elements.
    pub(crate) fn payload(&mut self) -> ReplicaPayload {
        let n = self.below(40);
        match self.below(6) {
            0 => ReplicaPayload::Bytes(self.bytes(n)),
            1 => ReplicaPayload::I32s((0..n).map(|_| self.next() as i32).collect()),
            2 => ReplicaPayload::I64s((0..n).map(|_| self.next() as i64).collect()),
            // Raw bit patterns: NaNs and signed zeros included.
            3 => ReplicaPayload::F64s((0..n).map(|_| f64::from_bits(self.next())).collect()),
            4 => ReplicaPayload::Utf8(
                (0..n)
                    .map(|_| char::from_u32(0x20 + self.below(0x250) as u32).unwrap_or('?'))
                    .collect(),
            ),
            _ => ReplicaPayload::Object {
                type_name: "T".repeat(self.below(8)),
                bytes: self.bytes(n),
            },
        }
    }
}

/// The wire bytes of a payload: the identity that matters for storage
/// (NaN payloads are not `==` to themselves).
pub(crate) fn payload_bytes(p: &ReplicaPayload) -> Vec<u8> {
    let mut w = mocha_wire::io::ByteWriter::new();
    p.encode(&mut w);
    w.into_bytes()
}

/// One lock's journaled state as comparable bytes: its version and every
/// replica's encoded payload.
pub(crate) type LockImage = (Version, Vec<(ReplicaId, Vec<u8>)>);

/// The whole store image, per lock, as comparable bytes.
pub(crate) fn image_of(store: &SiteStore) -> Vec<(LockId, LockImage)> {
    let state = store.recovered();
    state
        .lock_versions
        .iter()
        .map(|(lock, version)| {
            let replicas = state.replicas.get(lock).into_iter().flatten();
            let replicas = replicas.map(|(id, p)| (*id, payload_bytes(p))).collect();
            (*lock, (*version, replicas))
        })
        .collect()
}

/// Drives a store the way a daemon does — some versions arrive whole, some
/// as an edit of the previous one — and remembers what it journaled.
pub(crate) struct History {
    rng: Rng,
    /// Current `(version, replica set)` per lock, as the daemon holds it.
    held: Vec<(Version, Vec<ReplicaUpdate>)>,
    /// `image_of` the store after each append; `[0]` is the empty store.
    pub(crate) images: Vec<Vec<(LockId, LockImage)>>,
}

impl History {
    pub(crate) fn new(seed: u64, locks: usize) -> History {
        History {
            rng: Rng::new(seed),
            held: vec![(Version::INITIAL, Vec::new()); locks],
            images: vec![Vec::new()],
        }
    }

    /// A 256-byte replica set for `lock`: big enough that a small edit is
    /// the cheaper record.
    fn fresh(&mut self, lock: usize) -> Vec<ReplicaUpdate> {
        (0..=lock % 2)
            .map(|r| {
                let payload = ReplicaPayload::Bytes(self.rng.bytes(256));
                ReplicaUpdate::new(ReplicaId(10 * lock as u32 + r as u32), payload)
            })
            .collect()
    }

    /// `prev` with a few bytes of its first replica overwritten.
    fn edited(&mut self, prev: &[ReplicaUpdate]) -> Vec<ReplicaUpdate> {
        let mut next = prev.to_vec();
        if let Some(first) = next.first_mut() {
            if let ReplicaPayload::Bytes(bytes) = &*first.payload {
                let mut bytes = bytes.clone();
                let at = self.rng.below(bytes.len() - 8);
                for b in bytes.iter_mut().skip(at).take(8) {
                    *b = self.rng.next() as u8;
                }
                *first = ReplicaUpdate::new(first.replica, ReplicaPayload::Bytes(bytes));
            }
        }
        next
    }

    /// Journals the next version of a random lock. `delta` asks for an
    /// edit of the held value journaled with its script; otherwise (and
    /// for a lock's first version) fresh values are journaled whole.
    /// Returns whether the store was handed a script.
    pub(crate) fn step(&mut self, store: &mut SiteStore, delta: bool) -> bool {
        let lock = self.rng.below(self.held.len());
        let (base, prev) = self.held.get(lock).cloned().unwrap_or_default();
        let version = Version(base.0 + 1);
        let scripted = delta && !prev.is_empty();
        let next = if scripted {
            self.edited(&prev)
        } else {
            self.fresh(lock)
        };
        let script = scripted.then(|| EditScript {
            base,
            scripts: prev
                .iter()
                .zip(&next)
                .map(|(a, b)| ReplicaDeltaUpdate {
                    replica: b.replica,
                    delta: PayloadDelta::diff(&a.payload, &b.payload).expect("same variant"),
                })
                .collect(),
        });
        store
            .journal(LockId(lock as u32 + 1), version, &next, script.as_ref())
            .expect("mem device appends");
        if let Some(slot) = self.held.get_mut(lock) {
            *slot = (version, next);
        }
        self.images.push(image_of(store));
        scripted
    }

    /// Thirty-two appends over three locks, two in three of them edits.
    pub(crate) fn mixed(seed: u64, store: &mut SiteStore) -> History {
        let mut h = History::new(seed, 3);
        for i in 0..32 {
            h.step(store, i % 3 != 0);
        }
        h
    }
}
