//! Swarm-scale integration: hundreds of sites multiplexed onto a few
//! reactor shards over real loopback sockets. This is the event-driven
//! socket runtime's acceptance surface — a thread-per-site design would
//! need 300 OS threads for what runs on 3 here.

use std::time::Duration;

use mocha::config::{HomeConfig, MochaConfig};
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::socket::{loopback_available, Freshness, SocketRuntime};
use mocha::runtime::thread::Pending;
use mocha::{AvailabilityConfig, Directory};
use mocha_wire::{LockId, ReplicaPayload, SiteId};

/// 300 sites on 3 reactor threads: every site registers its own lock,
/// runs an overlapped acquire/release cycle, and a churn site joins and
/// leaves mid-run without disturbing anyone.
#[test]
fn three_hundred_sites_on_three_shards() {
    if !loopback_available() {
        eprintln!("skipping: no loopback sockets");
        return;
    }
    const SITES: usize = 300;
    let config = MochaConfig {
        // Grants may wait in reply channels while a whole chunk is in
        // flight; keep the lease scanner out of the picture.
        default_lease: Duration::from_secs(30),
        ..MochaConfig::default()
    };
    let mut rt = SocketRuntime::builder()
        .sites(SITES)
        .shards(3)
        .config(config)
        .build()
        .expect("swarm boots");
    assert_eq!(rt.shard_count(), 3);
    assert_eq!(rt.site_count(), SITES);

    for i in 0..SITES {
        rt.handle(i)
            .register(
                LockId(i as u32 + 1),
                vec![ReplicaSpec::new(format!("r{i}"), ReplicaPayload::empty())],
            )
            .unwrap_or_else(|e| panic!("register site {i}: {e}"));
    }

    // Overlapped acquire/release in bounded chunks: every site in a chunk
    // has its request in flight before the first reply is consumed.
    for chunk in (0..SITES).collect::<Vec<_>>().chunks(50) {
        let locks: Vec<(usize, Pending<_>)> = chunk
            .iter()
            .map(|&i| (i, rt.handle(i).lock_async(LockId(i as u32 + 1)).unwrap()))
            .collect();
        let unlocks: Vec<(usize, Pending<()>)> = locks
            .into_iter()
            .map(|(i, p)| {
                p.wait().unwrap_or_else(|e| panic!("lock site {i}: {e}"));
                (
                    i,
                    rt.handle(i).unlock_async(LockId(i as u32 + 1), false).unwrap(),
                )
            })
            .collect();
        for (i, p) in unlocks {
            p.wait().unwrap_or_else(|e| panic!("unlock site {i}: {e}"));
        }
    }

    // Join/leave churn against the live swarm.
    let joined = rt.add_site().expect("churn site joins");
    let lock = LockId(90_001);
    joined
        .register(lock, vec![ReplicaSpec::new("churn", ReplicaPayload::empty())])
        .expect("churn register");
    joined.lock(lock).expect("churn lock");
    joined.unlock(lock, false).expect("churn unlock");
    let gone = joined.site();
    rt.remove_site(gone);

    // The swarm is still healthy after the departure.
    let h = rt.handle(7);
    h.lock(LockId(8)).expect("post-churn lock");
    h.unlock(LockId(8), false).expect("post-churn unlock");

    let m = rt.metrics();
    assert!(m.datagrams_sent > 0, "real sockets carried the swarm: {m:?}");
    assert!(m.datagrams_delivered > 0, "{m:?}");
    rt.shutdown();
}

/// Directory-mode churn: a hot lock's home migrates to its dominant
/// acquirer, that site then leaves the swarm, and the survivors must
/// re-home the lock through ring fallback — without the forced re-home
/// the directory keeps pointing at the dead coordinator and every later
/// acquire exhausts its retries.
#[test]
fn migrated_home_survives_owner_departure() {
    if !loopback_available() {
        eprintln!("skipping: no loopback sockets");
        return;
    }
    let config = MochaConfig {
        default_lease: Duration::from_secs(30),
        home: HomeConfig {
            hash_directory: true,
            migration: true,
            migrate_threshold: 2,
            ..HomeConfig::default()
        },
        ..MochaConfig::default()
    };
    let virtual_shards = config.home.virtual_shards;
    let mut rt = SocketRuntime::builder()
        .sites(3)
        .shards(2)
        .config(config)
        .build()
        .expect("directory swarm boots");

    // Every site computes the same ring, so the test can pick a lock
    // whose ring home is site 0 — acquires from site 1 are then remote,
    // and migration moves the home onto the site we are about to kill.
    let members: Vec<SiteId> = (0..3).map(SiteId).collect();
    let dir = Directory::new(&members, virtual_shards);
    let lock = (1..)
        .map(LockId)
        .find(|&l| dir.home_of(l) == Some(SiteId(0)))
        .expect("ring is non-empty");

    // All three sites share one replica object under the lock. UR=2 makes
    // site 1's dirty releases push to site 0 (the lowest-id other member),
    // so after site 1 dies the current copy survives ONLY at site 0 —
    // site 2 holds a stale initial copy. The post-churn grant to site 2 is
    // then correct only if the inheriting coordinator rebuilds the true
    // version from the members' re-announcements and poll answers (and
    // orders a transfer), instead of calling site 2's stale copy current.
    let replica = replica_id("hot");
    for i in [0usize, 1, 2] {
        rt.handle(i)
            .register(lock, vec![ReplicaSpec::new("hot", ReplicaPayload::empty())])
            .unwrap_or_else(|e| panic!("register site {i}: {e}"));
    }
    rt.handle(1)
        .set_availability(lock, AvailabilityConfig { ur: 2 })
        .expect("set availability");
    let hot = rt.handle(1);
    for v in 1..=4u8 {
        hot.lock(lock).expect("hot acquire");
        hot.write(replica, ReplicaPayload::Bytes(vec![v; 4]))
            .expect("hot write");
        hot.unlock(lock, true).expect("hot release");
    }
    // The free-lock offer/accept/commit handshake completes async of the
    // releases; wait for the commit to land before pulling the plug.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rt.metrics().migrations == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no migration committed: {:?}",
            rt.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let h2 = rt.handle(2);
    rt.remove_site(SiteId(1));

    // The surviving acquirer re-routes through ring fallback. Site 2's own
    // copy is stale: only a coordinator that rebuilt the surviving version
    // (held at site 0) grants it NeedNewVersion and ships the data — a
    // broken rebuild would call site 2's empty copy current.
    let fresh = h2.lock_reporting(lock).expect("post-departure lock");
    assert_eq!(fresh, Freshness::Current, "freshest surviving copy arrived");
    assert_eq!(
        h2.read(replica).expect("post-departure read"),
        ReplicaPayload::Bytes(vec![4; 4]),
        "site 1's last write survived its departure"
    );
    h2.unlock(lock, true).expect("post-departure unlock");
    rt.shutdown();
}
