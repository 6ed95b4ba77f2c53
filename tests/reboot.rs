//! Node reboot and rejoin: the wide-area failure the paper's introduction
//! motivates ("the autonomy of nodes can result in a remote node reboot").
//! A crashed site comes back empty, re-registers, is un-blacklisted, and
//! participates again — receiving the state it missed. With durability
//! enabled (`SimClusterBuilder::durable`) a rebooted site instead replays
//! its snapshot + write-ahead log and rejoins with the state it held,
//! degrading gracefully (truncate, catch up) when the log tail is torn or
//! corrupted.

use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig, PushConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_store::StoreConfig;
use mocha_wire::{LockId, ReplicaPayload};

const L: LockId = LockId(1);

fn failure_config() -> MochaConfig {
    MochaConfig {
        default_lease: Duration::from_millis(400),
        lease_scan_interval: Duration::from_millis(150),
        heartbeat_timeout: Duration::from_millis(300),
        recovery_poll_window: Duration::from_millis(300),
        ..MochaConfig::default()
    }
}

#[test]
fn rebooted_site_rejoins_and_reads_current_state() {
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::Utf8("v1".into()))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    // Site 2 reboots: crash, then restart with an empty stack.
    c.crash_site(2);
    c.run_for(Duration::from_secs(2));
    c.restart_site(2);
    // The fresh incarnation re-registers and reads.
    c.add_script(
        2,
        Script::new()
            .register(L, &["doc"])
            .sleep(Duration::from_millis(300))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(20));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    assert_eq!(
        c.observed_payloads(2),
        vec![ReplicaPayload::Utf8("v1".into())],
        "the rebooted site received the state it missed"
    );
}

#[test]
fn blacklisted_owner_is_forgiven_after_reboot() {
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .build();
    let idx = replica_id("x");
    // Site 1 dies holding the lock → broken + blacklisted.
    c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .lock_with_lease(L, Duration::from_millis(400))
            .sleep(Duration::from_secs(60))
            .unlock(L),
    );
    c.add_script(
        2,
        Script::new()
            .register(L, &["x"])
            .sleep(Duration::from_millis(200))
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![9]))
            .unlock_dirty(L),
    );
    c.crash_site_at(mocha_sim::SimTime::ZERO + Duration::from_millis(600), 1);
    c.run_for(Duration::from_secs(10));
    assert_eq!(c.coordinator_stats().locks_broken, 1);

    // Reboot site 1; its re-registration lifts the blacklist and it can
    // lock again, seeing site 2's write.
    c.restart_site(1);
    c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .sleep(Duration::from_millis(300))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(20));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert_eq!(c.observed_payloads(1), vec![ReplicaPayload::I32s(vec![9])]);
}

#[test]
fn reboot_loses_unshared_local_state() {
    // A value written with UR=1 at the rebooted site itself is gone after
    // the reboot; the next reader experiences weakened consistency.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .build();
    let idx = replica_id("y");
    c.add_script(
        1,
        Script::new()
            .register(L, &["y"])
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["y"]));
    c.run_for(Duration::from_secs(1));
    c.crash_site(1);
    c.run_for(Duration::from_millis(500));
    c.restart_site(1);
    c.add_script(1, Script::new().register(L, &["y"]));
    // Reader at site 2: v1 existed only at (old) site 1 → stale recovery.
    let th = c.add_script(
        2,
        Script::new()
            .sleep(Duration::from_millis(500))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    let labels: Vec<String> = c.records(2, th).iter().map(|r| r.label.clone()).collect();
    assert!(
        labels.contains(&"data_stale:lock1".to_string())
            || labels.contains(&"lock_acquired:lock1".to_string()),
        "{labels:?}"
    );
    // The write is gone (reboot = fresh store).
    assert_eq!(c.observed_payloads(2), vec![ReplicaPayload::empty()]);
}

#[test]
fn durable_reboot_preserves_unshared_local_state() {
    // The durable twin of `reboot_loses_unshared_local_state`: with a
    // write-ahead log, the value written with UR=1 at the rebooted site
    // survives the crash, so the next reader sees it — no weakened
    // consistency window.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .durable(StoreConfig::default())
        .build();
    let idx = replica_id("y");
    c.add_script(
        1,
        Script::new()
            .register(L, &["y"])
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["y"]));
    c.run_for(Duration::from_secs(1));
    c.crash_site(1);
    c.run_for(Duration::from_millis(500));
    c.restart_site(1);
    c.add_script(1, Script::new().register(L, &["y"]));
    let th = c.add_script(
        2,
        Script::new()
            .sleep(Duration::from_millis(500))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    let labels: Vec<String> = c.records(2, th).iter().map(|r| r.label.clone()).collect();
    assert!(
        labels.contains(&"lock_acquired:lock1".to_string()),
        "{labels:?}"
    );
    // The write survived the reboot: v1 existed only at site 1, and site 1
    // replayed it off its WAL and announced it, so the reader gets it.
    assert_eq!(c.observed_payloads(2), vec![ReplicaPayload::I32s(vec![1])]);
}

#[test]
fn durable_reboot_recovers_from_snapshot_only() {
    // snapshot_every = 1 compacts after every append: recovery replays the
    // snapshot with an empty WAL.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .durable(StoreConfig {
            snapshot_every: 1,
            ..StoreConfig::default()
        })
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::Utf8("a".into()))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, ReplicaPayload::Utf8("ab".into()))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    let handle = c.store_handle(1).expect("durable cluster has a store");
    assert_eq!(
        handle.device().wal_len().unwrap(),
        0,
        "snapshot_every=1 leaves no WAL tail"
    );
    c.crash_site(1);
    c.run_for(Duration::from_millis(500));
    c.restart_site(1);
    c.add_script(1, Script::new().register(L, &["doc"]));
    c.add_script(
        2,
        Script::new()
            .sleep(Duration::from_millis(500))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    assert_eq!(
        c.observed_payloads(2),
        vec![ReplicaPayload::Utf8("ab".into())]
    );
}

#[test]
fn durable_reboot_recovers_from_snapshot_plus_wal_tail() {
    // snapshot_every = 2 with three releases: two land in the compacted
    // snapshot, the third rides the WAL tail. Recovery must stitch both.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .durable(StoreConfig {
            snapshot_every: 2,
            ..StoreConfig::default()
        })
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![1, 2]))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![1, 2, 3]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    let handle = c.store_handle(1).expect("durable cluster has a store");
    assert!(
        handle.device().snapshot_len().unwrap() > 0,
        "two releases crossed the compaction threshold"
    );
    assert!(
        handle.device().wal_len().unwrap() > 0,
        "the third release rides the WAL tail"
    );
    c.crash_site(1);
    c.run_for(Duration::from_millis(500));
    c.restart_site(1);
    assert_eq!(
        c.daemon_version(1, L),
        mocha_wire::Version(3),
        "snapshot + WAL tail replayed to the last persisted version"
    );
    c.add_script(1, Script::new().register(L, &["doc"]));
    c.add_script(
        2,
        Script::new()
            .sleep(Duration::from_millis(500))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    assert_eq!(
        c.observed_payloads(2),
        vec![ReplicaPayload::I32s(vec![1, 2, 3])]
    );
}

#[test]
fn durable_reboot_with_corrupt_wal_tail_truncates_and_degrades() {
    // A bit flipped in the last WAL record must be caught by the record
    // checksum: recovery keeps the valid prefix, notes the truncation, and
    // the site rejoins one version behind — never panicking, never
    // claiming the lost version.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .durable(StoreConfig::default())
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![7]))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![7, 8]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    c.crash_site(1);
    c.run_for(Duration::from_millis(500));
    // Flip one bit in the final byte of the WAL (the last record's
    // payload), simulating media corruption while the site was down.
    let handle = c.store_handle(1).expect("durable cluster has a store");
    let len = handle.device().wal_len().unwrap();
    assert!(len > 0);
    handle.device().flip_wal_bit(len - 1, 3).unwrap();
    c.restart_site(1);
    assert_eq!(
        c.daemon_version(1, L),
        mocha_wire::Version(1),
        "recovery truncated to the valid prefix"
    );
    assert!(
        c.notes(1).iter().any(|n| n.contains("truncated WAL")),
        "{:?}",
        c.notes(1)
    );
    // The surviving prefix is still served: site 1 re-locks and reads its
    // own (stale but consistent) copy without any holder of the lost
    // version existing anywhere.
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .sleep(Duration::from_millis(300))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert_eq!(c.observed_payloads(1), vec![ReplicaPayload::I32s(vec![7])]);
}

#[test]
fn durable_reboot_with_corrupt_snapshot_falls_back_to_wal() {
    // A corrupt snapshot is discarded wholesale, but the WAL still
    // replays: the site recovers every version that never compacted.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(failure_config())
        .durable(StoreConfig::default())
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![4]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    c.crash_site(1);
    let handle = c.store_handle(1).expect("durable cluster has a store");
    // Default snapshot_every is large, so nothing compacted; force a
    // snapshot presence check to stay meaningful by corrupting only if
    // one exists (the WAL path is what this test exercises either way).
    if handle.device().snapshot_len().unwrap() > 0 {
        handle.device().flip_snapshot_bit(0, 0).unwrap();
    }
    c.restart_site(1);
    assert_eq!(c.daemon_version(1, L), mocha_wire::Version(1));
    c.add_script(1, Script::new().register(L, &["doc"]));
    c.add_script(
        2,
        Script::new()
            .sleep(Duration::from_millis(500))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    assert_eq!(c.observed_payloads(2), vec![ReplicaPayload::I32s(vec![4])]);
}

/// The `delta_durable` shape: a 64 KiB object, pushed to three peers as
/// edit scripts, every site journaling with no automatic compaction so
/// the WAL length counts what each release wrote.
fn delta_durable_cluster() -> SimCluster {
    SimCluster::builder()
        .sites(5)
        .config(MochaConfig {
            push: PushConfig {
                delta: true,
                pipeline: true,
            },
            ..failure_config()
        })
        .durable(StoreConfig {
            snapshot_every: 0,
            ..StoreConfig::default()
        })
        .build()
}

/// 64 KiB whose 64 bytes from offset 16 are `fill`.
fn edited_64k(fill: u8) -> ReplicaPayload {
    let mut bytes: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    bytes[16..80].fill(fill);
    ReplicaPayload::Bytes(bytes)
}

#[test]
fn dirty_release_journals_its_edit_and_a_clean_release_nothing() {
    let mut c = delta_durable_cluster();
    let idx = replica_id("doc");
    for site in 2..5 {
        c.add_script(site, Script::new().register(L, &["doc"]));
    }
    let wal_len = |c: &SimCluster, site: usize| {
        let handle = c.store_handle(site).expect("durable cluster has a store");
        handle.device().wal_len().unwrap()
    };
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .set_availability(L, AvailabilityConfig { ur: 4 })
            .lock(L)
            .write(idx, edited_64k(1))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(5));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let after_full: Vec<usize> = (1..5).map(|site| wal_len(&c, site)).collect();
    assert!(
        after_full.iter().all(|len| *len > 64 * 1024),
        "the first version is journaled whole at the writer and its three targets: {after_full:?}"
    );

    // A 64-byte edit: the writer journals the script it cut for the push,
    // each target the script it accepted.
    c.add_script(
        1,
        Script::new()
            .lock(L)
            .write(idx, edited_64k(2))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(5));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert_eq!(c.daemon_stats(1).delta_nacks, 0);
    let after_edit: Vec<usize> = (1..5).map(|site| wal_len(&c, site)).collect();
    for (site, (before, after)) in after_full.iter().zip(&after_edit).enumerate() {
        let grew = after - before;
        // Today 128: 8 framing + 28 lock/base/version/counts + 92 script
        // (two copies around the 64 fresh bytes).
        assert!(
            (64..=256).contains(&grew),
            "site {}: a 64 B edit of a 64 KiB object journaled {grew} B",
            site + 1
        );
    }

    // Sixteen clean releases: the version does not advance, nothing is
    // journaled anywhere.
    c.add_script(
        1,
        Script::new().repeat(16, Script::new().lock(L).read(idx).unlock(L)),
    );
    c.run_for(Duration::from_secs(10));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let after_clean: Vec<usize> = (1..5).map(|site| wal_len(&c, site)).collect();
    assert_eq!(after_clean, after_edit);
}

#[test]
fn durable_reboot_replays_a_delta_tail_byte_exact() {
    // Site 2 only ever receives pushes: one full record, then three delta
    // records. Its state is read straight after the restart, before any
    // message is delivered, so it can only have come off its WAL.
    let mut c = delta_durable_cluster();
    let idx = replica_id("doc");
    for site in 2..5 {
        c.add_script(site, Script::new().register(L, &["doc"]));
    }
    let mut writer = Script::new()
        .register(L, &["doc"])
        .set_availability(L, AvailabilityConfig { ur: 4 });
    for fill in 1..=4 {
        writer = writer.lock(L).write(idx, edited_64k(fill)).unlock_dirty(L);
    }
    c.add_script(1, writer);
    c.run_for(Duration::from_secs(10));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let handle = c.store_handle(2).expect("durable cluster has a store");
    let wal = handle.device().wal_len().unwrap();
    assert!(
        wal > 64 * 1024 && wal < 64 * 1024 + 1024,
        "one full record and three small ones, got {wal} B"
    );

    c.crash_site(2);
    c.run_for(Duration::from_millis(500));
    c.restart_site(2);
    assert_eq!(c.daemon_version(2, L), mocha_wire::Version(4));
    assert_eq!(c.replica_value(2, idx), Some(edited_64k(4)));
    assert!(c.notes(2).is_empty(), "{:?}", c.notes(2));
}

#[test]
fn reboot_with_hybrid_protocol_still_rejoins() {
    // The rebooted site's fresh TCP stack must not collide with any
    // connection state its previous incarnation left at peers.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(MochaConfig {
            net: mocha_net::NetConfig::hybrid(),
            ..failure_config()
        })
        .build();
    let idx = replica_id("doc");
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .lock(L)
            .write(idx, ReplicaPayload::Bytes(vec![5; 8 * 1024]))
            .unlock_dirty(L),
    );
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.run_for(Duration::from_secs(1));
    c.crash_site(2);
    c.run_for(Duration::from_secs(1));
    c.restart_site(2);
    c.add_script(
        2,
        Script::new()
            .register(L, &["doc"])
            .sleep(Duration::from_millis(300))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    assert_eq!(
        c.observed_payloads(2),
        vec![ReplicaPayload::Bytes(vec![5; 8 * 1024])],
        "the 8K replica crossed the rebooted site's fresh TCP stack"
    );
}
