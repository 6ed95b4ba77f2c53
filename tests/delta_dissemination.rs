//! Cluster-level delta dissemination: small writes travel as edit
//! scripts, and a receiver whose base version is stale (here: because it
//! rebooted and lost its store) NACKs the delta and is healed by the
//! full-payload fallback — correctness never depends on delta
//! availability.

use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig, PushConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_wire::{LockId, ReplicaPayload};

const L: LockId = LockId(1);

fn delta_config() -> MochaConfig {
    MochaConfig {
        push: PushConfig {
            delta: true,
            pipeline: true,
        },
        default_lease: Duration::from_millis(400),
        lease_scan_interval: Duration::from_millis(150),
        heartbeat_timeout: Duration::from_millis(300),
        recovery_poll_window: Duration::from_millis(300),
        ..MochaConfig::default()
    }
}

fn avail() -> AvailabilityConfig {
    AvailabilityConfig { ur: 3 }
}

fn big() -> Vec<i32> {
    (0..256).collect()
}

fn tweaked() -> Vec<i32> {
    let mut v = big();
    v[7] = -7;
    v
}

#[test]
fn small_second_write_travels_as_delta() {
    let mut c = SimCluster::builder()
        .sites(3)
        .config(delta_config())
        .build();
    let idx = replica_id("doc");
    c.add_script(0, Script::new().register(L, &["doc"]));
    c.add_script(2, Script::new().register(L, &["doc"]));
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .set_availability(L, avail())
            .lock(L)
            .write(idx, ReplicaPayload::I32s(big()))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, ReplicaPayload::I32s(tweaked()))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(10));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let stats = c.daemon_stats(1);
    assert!(
        stats.delta_pushes_sent >= 2,
        "both targets should have received the second write as a delta: {stats:?}"
    );
    assert!(stats.delta_bytes_saved > 0, "{stats:?}");
    assert_eq!(stats.delta_nacks, 0, "{stats:?}");
    for site in [0usize, 2] {
        assert_eq!(
            c.replica_value(site, idx),
            Some(ReplicaPayload::I32s(tweaked())),
            "site {site} converged on the delta-delivered value"
        );
    }
}

#[test]
fn stale_base_receiver_nacks_delta_and_gets_full_payload() {
    // A sender's acked-version table is local knowledge: after site 1
    // pushes v1, site 2's release of v2 advances everyone else *without*
    // site 1's table learning about it. Site 1's next small write then
    // goes out as a delta against base v1 — which every receiver (now at
    // v2) must refuse, forcing the full-payload fallback.
    let mut c = SimCluster::builder()
        .sites(3)
        .config(delta_config())
        .build();
    let idx = replica_id("doc");
    c.add_script(0, Script::new().register(L, &["doc"]));
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .set_availability(L, avail())
            .lock(L)
            .write(idx, ReplicaPayload::I32s(big()))
            .unlock_dirty(L),
    );
    let mut other = big();
    other[40] = 40_000;
    c.add_script(
        2,
        Script::new()
            .register(L, &["doc"])
            .sleep(Duration::from_millis(600))
            .lock(L)
            .write(idx, ReplicaPayload::I32s(other))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(2));

    c.add_script(
        1,
        Script::new()
            .lock(L)
            .write(idx, ReplicaPayload::I32s(tweaked()))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(20));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert!(c.all_done(2), "{:?}", c.failures(2));
    let stats = c.daemon_stats(1);
    assert!(
        stats.delta_nacks >= 1,
        "receivers at v2 must refuse site 1's base-v1 delta: {stats:?}"
    );
    for site in [0usize, 2] {
        assert_eq!(
            c.replica_value(site, idx),
            Some(ReplicaPayload::I32s(tweaked())),
            "site {site}: the full-payload fallback healed the stale-base refusal"
        );
    }
}
