//! Seeded tests of the journal as a whole: both record kinds round-trip,
//! and whatever happens to the bytes on the device — truncation, bit
//! flips, a lost snapshot, leftovers of an interrupted compaction,
//! garbage — `open` never panics and recovers, per lock, a `(version,
//! bytes)` the site really journaled. Plain `#[test]`s over an in-crate
//! PRNG, so they run wherever the crate builds; every loop names its seed.

// Says so to tools that read this file on its own (mocha-lint counts
// panic sites in every file it does not know to be test code).
#![cfg(test)]

use super::*;
use crate::testutil::{image_of, payload_bytes, History, Rng};
use mocha_wire::delta::PayloadDelta;
use mocha_wire::message::ReplicaDeltaUpdate;

/// The log written by the parent commit's `WalEntry::encode` +
/// `wal::frame` for the five entries listed in
/// `parent_format_log_replays_unchanged`.
const PARENT_WAL: &[u8] = include_bytes!("../fixtures/parent-wal.bin");

fn mem(snapshot_every: usize) -> StoreHandle {
    StoreHandle::mem(StoreConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every,
    })
}

/// Appends raw bytes to the handle's WAL, as a crash or a bad medium would
/// leave them.
fn plant(handle: &StoreHandle, bytes: &[u8]) {
    let mut wal = handle.device().open_wal().unwrap();
    wal.append(bytes, false).unwrap();
}

fn cases(full: usize) -> usize {
    if cfg!(miri) {
        full.div_ceil(32)
    } else {
        full
    }
}

#[test]
fn records_of_both_kinds_roundtrip() {
    let mut rng = Rng::new(0x726f_756e);
    for _ in 0..cases(256) {
        let updates: Vec<ReplicaUpdate> = (0..rng.below(4))
            .map(|_| ReplicaUpdate::new(ReplicaId(rng.below(8) as u32), rng.payload()))
            .collect();
        let entry = WalEntry {
            lock: LockId(rng.below(8) as u32),
            version: Version(rng.below(1000) as u64),
            updates,
        };
        let decoded = WalEntry::decode(&entry.encode()).expect("clean entry decodes");
        assert_eq!(decoded.encode(), entry.encode());

        // An edit script between two payloads of one variant.
        let base = rng.payload();
        let mut next = base.clone();
        if let ReplicaPayload::Bytes(b) | ReplicaPayload::Object { bytes: b, .. } = &mut next {
            b.extend(rng.bytes(3));
        }
        let scripts = PayloadDelta::diff(&base, &next)
            .map(|delta| ReplicaDeltaUpdate {
                replica: ReplicaId(1),
                delta,
            })
            .into_iter()
            .collect();
        let delta = WalDelta {
            lock: entry.lock,
            version: Version(entry.version.0 + 1),
            script: EditScript {
                base: entry.version,
                scripts,
            },
        };
        assert_eq!(
            WalDelta::decode(&delta.encode()).expect("clean delta decodes"),
            delta
        );
    }
}

#[test]
fn mixed_chain_reopens_to_the_state_it_journaled() {
    for seed in 1..=cases(32) as u64 {
        let handle = mem(if seed % 2 == 0 { 0 } else { 7 });
        let mut store = handle.open().unwrap();
        let history = History::mixed(seed, &mut store);
        let journaled = image_of(&store);
        drop(store);
        let reopened = handle.open().unwrap();
        assert_eq!(image_of(&reopened), journaled, "seed {seed}");
        assert_eq!(reopened.report().deltas_skipped, 0, "seed {seed}");
        assert!(reopened.report().wal_corruption.is_none(), "seed {seed}");
        assert_eq!(history.images.last(), Some(&journaled));
    }
}

#[test]
fn scripted_appends_are_delta_records_and_small() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let mut history = History::new(0x736d_616c, 1);
    history.step(&mut store, false);
    let full = handle.device().wal_len().unwrap();
    assert!(full > 256, "a full record carries the 256-byte payload");
    assert!(history.step(&mut store, true));
    let delta = handle.device().wal_len().unwrap() - full;
    assert!(delta < 100, "an 8-byte edit journals {delta} bytes");
    let scanned = scan(&handle.device().read_wal().unwrap());
    assert!(matches!(
        scanned.records.as_slice(),
        [WalRecord::Full(_), WalRecord::Delta(_)]
    ));
}

#[test]
fn script_without_its_base_in_the_log_is_journaled_whole() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let base = [ReplicaUpdate::new(
        ReplicaId(1),
        ReplicaPayload::Bytes(vec![0; 128]),
    )];
    let next = [ReplicaUpdate::new(
        ReplicaId(1),
        ReplicaPayload::Bytes(vec![1; 128]),
    )];
    let script = |base_version| EditScript {
        base: Version(base_version),
        scripts: vec![ReplicaDeltaUpdate {
            replica: ReplicaId(1),
            delta: PayloadDelta::diff(&base[0].payload, &next[0].payload).unwrap(),
        }],
    };
    // Nothing journaled yet; then a base one version off; then a script
    // as large as the payload; then a replica the image does not hold.
    store
        .journal(LockId(1), Version(2), &next, Some(&script(1)))
        .unwrap();
    store
        .journal(LockId(1), Version(4), &next, Some(&script(3)))
        .unwrap();
    store
        .journal(LockId(1), Version(5), &next, Some(&script(4)))
        .unwrap();
    let mut stranger = script(5);
    stranger.scripts[0].replica = ReplicaId(9);
    store
        .journal(LockId(1), Version(6), &next, Some(&stranger))
        .unwrap();
    let scanned = scan(&handle.device().read_wal().unwrap());
    assert_eq!(scanned.records.len(), 4);
    assert!(scanned
        .records
        .iter()
        .all(|r| matches!(r, WalRecord::Full(_))));
}

#[test]
fn every_truncation_and_256_bit_flips_recover_a_journaled_prefix() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let history = History::mixed(0x7472_756e, &mut store);
    drop(store);
    let clean = handle.device().read_wal().unwrap();
    assert_eq!(scan(&clean).records.len(), 32);

    let recovers_prefix = |bytes: &[u8], what: &str| {
        let damaged = mem(0);
        plant(&damaged, bytes);
        let image = image_of(&damaged.open().expect("open degrades, never errors"));
        assert!(
            history.images.contains(&image),
            "{what}: recovered state is not a prefix of the appends"
        );
        // The repair is durable: a second open is clean and agrees.
        let again = damaged.open().unwrap();
        assert!(again.report().wal_corruption.is_none(), "{what}");
        assert_eq!(image_of(&again), image, "{what}");
    };
    let stride = if cfg!(miri) { 97 } else { 1 };
    for cut in (0..=clean.len()).step_by(stride) {
        recovers_prefix(&clean[..cut], &format!("cut at {cut}"));
    }
    let mut rng = Rng::new(0x666c_6970);
    for _ in 0..cases(256) {
        let (byte, bit) = (rng.below(clean.len()), rng.below(8));
        let mut bytes = clean.clone();
        bytes[byte] ^= 1 << bit;
        recovers_prefix(&bytes, &format!("bit {bit} of byte {byte}"));
    }
}

#[test]
fn flipped_kind_bit_is_a_checksum_mismatch() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let mut history = History::new(0x6b69_6e64, 1);
    history.step(&mut store, false);
    let first = handle.device().wal_len().unwrap();
    history.step(&mut store, true);
    drop(store);
    // Byte 3 of a header holds the top bits of the length word.
    for header in [0, first] {
        let damaged = handle.clone();
        damaged.device().flip_wal_bit(header + 3, 7).unwrap();
        let scanned = scan(&damaged.device().read_wal().unwrap());
        assert_eq!(scanned.valid_len, header);
        assert!(scanned.corruption.unwrap().contains("checksum mismatch"));
        damaged.device().flip_wal_bit(header + 3, 7).unwrap();
    }
}

#[test]
fn lost_snapshot_under_a_delta_tail_recovers_older_and_announces_nothing_it_lacks() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let mut history = History::new(0x736e_6170, 1);
    history.step(&mut store, false);
    store.compact().unwrap();
    // The tail is deltas only: their base lives in the snapshot alone.
    assert!(history.step(&mut store, true));
    assert!(history.step(&mut store, true));
    // A second lock journals whole, then by delta, after the snapshot.
    let whole = vec![ReplicaUpdate::new(
        ReplicaId(50),
        ReplicaPayload::Bytes(vec![5; 64]),
    )];
    store.append(LockId(9), Version(1), &whole).unwrap();
    drop(store);
    handle.device().flip_snapshot_bit(12, 1).unwrap();

    let store = handle.open().unwrap();
    assert!(store.report().snapshot_corrupt);
    assert_eq!(store.report().wal_records, 3);
    assert_eq!(store.report().deltas_skipped, 2);
    // Lock 1 is gone entirely (older than anything it held: safe); lock 9
    // replays from its full record. Nothing is announced without bytes.
    assert_eq!(store.announcement(), vec![(LockId(9), Version(1))]);
    for (lock, _) in store.announcement() {
        assert!(store.recovered().replicas.contains_key(&lock));
    }
    assert_eq!(store.recovered().lock_versions.get(&LockId(1)), None);
}

#[test]
fn records_left_by_an_interrupted_compaction_are_skipped() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    let history = History::mixed(0x636f_6d70, &mut store);
    let stale = handle.device().read_wal().unwrap();
    let deltas = scan(&stale)
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Delta(_)))
        .count();
    assert!(deltas > 0);
    store.compact().unwrap();
    drop(store);
    // The crash window: the new snapshot is installed, the WAL it covers
    // was not yet truncated.
    plant(&handle, &stale);

    let store = handle.open().unwrap();
    assert!(store.report().snapshot_loaded);
    assert_eq!(store.report().wal_records, 32);
    assert_eq!(store.report().deltas_skipped, deltas);
    assert_eq!(Some(&image_of(&store)), history.images.last());
}

#[test]
fn parent_format_log_replays_unchanged() {
    let scanned = scan(PARENT_WAL);
    assert!(scanned.corruption.is_none());
    assert_eq!(scanned.valid_len, PARENT_WAL.len());
    let want = [
        (1, 1, vec![(7, ReplicaPayload::Bytes((0u8..=99).collect()))]),
        (
            2,
            5,
            vec![
                (1, ReplicaPayload::I32s(vec![-1, 0, 7])),
                (2, ReplicaPayload::I64s(vec![i64::MIN, 42])),
                (3, ReplicaPayload::F64s(vec![1.5, f64::NAN, -0.0])),
            ],
        ),
        (
            1,
            2,
            vec![
                (7, ReplicaPayload::Bytes(vec![0xAB; 300])),
                (8, ReplicaPayload::Utf8("héllo, wörld".into())),
            ],
        ),
        (
            3,
            9,
            vec![(
                4,
                ReplicaPayload::Object {
                    type_name: "Whiteboard".into(),
                    bytes: vec![1, 2, 3, 4, 5],
                },
            )],
        ),
        (4, 0, vec![]),
    ];
    assert_eq!(scanned.records.len(), want.len());
    let mut rewritten = Vec::new();
    for (record, (lock, version, updates)) in scanned.records.iter().zip(&want) {
        let WalRecord::Full(entry) = record else {
            panic!("the parent wrote full records only, got {record:?}");
        };
        assert_eq!(
            (entry.lock, entry.version),
            (LockId(*lock), Version(*version))
        );
        assert_eq!(entry.updates.len(), updates.len());
        for (got, (replica, payload)) in entry.updates.iter().zip(updates) {
            assert_eq!(got.replica, ReplicaId(*replica));
            assert_eq!(payload_bytes(&got.payload), payload_bytes(payload));
        }
        rewritten.extend_from_slice(&wal::frame(&entry.encode()));
    }
    // And today's encoder still writes those bytes.
    assert_eq!(rewritten, PARENT_WAL);

    let handle = mem(0);
    plant(&handle, PARENT_WAL);
    let store = handle.open().unwrap();
    assert_eq!(
        store.announcement(),
        vec![
            (LockId(1), Version(2)),
            (LockId(2), Version(5)),
            (LockId(3), Version(9))
        ]
    );
    assert_eq!(
        *store.recovered().replicas[&LockId(1)][&ReplicaId(7)],
        ReplicaPayload::Bytes(vec![0xAB; 300])
    );
}

/// Any damaged prefix of a log scans to a consistent truncation: the
/// valid prefix rescans clean to the same records, and records in front
/// of the damage are the ones written.
#[test]
fn damaged_logs_scan_to_a_consistent_truncation() {
    let handle = mem(0);
    let mut store = handle.open().unwrap();
    History::mixed(0x7363_616e, &mut store);
    drop(store);
    let clean = handle.device().read_wal().unwrap();
    let written = scan(&clean).records;
    let mut rng = Rng::new(0x6461_6d67);
    for _ in 0..cases(256) {
        let mut bytes = clean[..rng.below(clean.len() + 1)].to_vec();
        for _ in 0..rng.below(4) {
            let at = rng.below(clean.len());
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1 << rng.below(8);
            }
        }
        let s = scan(&bytes);
        assert!(s.valid_len <= bytes.len());
        let again = scan(&bytes[..s.valid_len]);
        assert!(again.corruption.is_none());
        assert_eq!(again.records, s.records);
        if bytes[..s.valid_len] == clean[..s.valid_len] {
            assert_eq!(s.records[..], written[..s.records.len()]);
        }
    }
}

#[test]
fn open_never_panics_on_garbage() {
    let mut rng = Rng::new(0x6761_7262);
    for case in 0..cases(512) {
        let handle = mem(4);
        let mut wal_bytes = rng.blob(256);
        if case % 4 == 0 {
            // Garbage behind a plausible header, of either kind.
            let len = wal_bytes.len().saturating_sub(8) as u32;
            let kind = if case % 8 == 0 { 1 << 31 } else { 0 };
            for (b, h) in wal_bytes.iter_mut().zip((len | kind).to_le_bytes()) {
                *b = h;
            }
        }
        let snap_bytes = rng.blob(128);
        if !snap_bytes.is_empty() {
            handle
                .device()
                .install_snapshot(&snap_bytes, false)
                .unwrap();
        }
        plant(&handle, &wal_bytes);
        let mut store = handle.open().expect("open degrades, never errors");
        // And the store stays usable after damage.
        let one = [ReplicaUpdate::new(ReplicaId(1), ReplicaPayload::empty())];
        store.append(LockId(1), Version(u64::MAX), &one).unwrap();
        assert_eq!(
            store.recovered().lock_versions[&LockId(1)],
            Version(u64::MAX)
        );
    }
}
