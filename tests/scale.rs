//! Larger-scale deterministic scenarios: many sites, several locks, mixed
//! exclusive/shared traffic, heterogeneous hardware, background failures.

use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_sim::{profiles, SimTime};
use mocha_wire::{LockId, ReplicaPayload, Version};

#[test]
fn twelve_sites_three_locks_mixed_modes_converge() {
    const SITES: usize = 12;
    let locks = [LockId(1), LockId(2), LockId(3)];
    let names = ["alpha", "beta", "gamma"];
    let mut c = SimCluster::builder()
        .sites(SITES)
        .link(profiles::wan_lossless())
        .cpu(profiles::ultra1())
        .build();
    for site in 0..SITES {
        let mut script = Script::new();
        for (l, n) in locks.iter().zip(names.iter()) {
            script = script.register(*l, &[n]);
        }
        // Each site writes to "its" lock (site % 3) and shared-reads the
        // others.
        let mine = site % 3;
        script = script
            .sleep(Duration::from_millis(40 * site as u64 + 10))
            .lock(locks[mine])
            .write(
                replica_id(names[mine]),
                ReplicaPayload::I32s(vec![site as i32]),
            )
            .unlock_dirty(locks[mine]);
        for other in 0..3 {
            if other != mine {
                script = script
                    .sleep(Duration::from_millis(400))
                    .lock_shared(locks[other])
                    .read(replica_id(names[other]))
                    .unlock(locks[other]);
            }
        }
        c.add_script(site, script);
    }
    c.run_until_idle();
    for site in 0..SITES {
        assert!(c.all_done(site), "site {site}: {:?}", c.failures(site));
        // Every site's two shared reads observed *some* committed i32
        // value from a writer of that lock.
        let obs = c.observed_payloads(site);
        assert_eq!(obs.len(), 2, "site {site}: {obs:?}");
        for p in obs {
            assert!(matches!(p, ReplicaPayload::I32s(ref v) if v.len() == 1));
        }
    }
    // 4 writers per lock => version 4 everywhere eventually known at the
    // coordinator.
    for l in locks {
        let grants = c.coordinator_stats().grants;
        assert!(
            grants >= 24,
            "12 exclusive + 24 shared grants, got {grants}"
        );
        let v = (0..SITES)
            .map(|s| c.daemon_version(s, l))
            .max()
            .unwrap_or(Version::INITIAL);
        assert_eq!(v, Version(4), "{l} saw 4 writes");
    }
}

#[test]
fn heterogeneous_cpus_affect_latency_not_correctness() {
    // Half the sites are slow SPARCstations; protocol outcomes match a
    // homogeneous cluster, only timing differs.
    let run = |hetero: bool| {
        let mut b = SimCluster::builder()
            .sites(6)
            .link(profiles::wan_lossless())
            .cpu(profiles::ultra1());
        if hetero {
            for s in [1usize, 3, 5] {
                b = b.cpu_for(s, profiles::sparc20());
            }
        }
        let mut c = b.build();
        let l = LockId(1);
        let idx = replica_id("v");
        for site in 0..6 {
            c.add_script(
                site,
                Script::new()
                    .register(l, &["v"])
                    .sleep(Duration::from_millis(100 * site as u64 + 50))
                    .lock(l)
                    .write(idx, ReplicaPayload::I32s(vec![site as i32]))
                    .unlock_dirty(l),
            );
        }
        let end = c.run_until_idle();
        (c.daemon_version(5, l), c.coordinator_stats().grants, end)
    };
    let (v_homo, g_homo, t_homo) = run(false);
    let (v_het, g_het, t_het) = run(true);
    assert_eq!(v_homo, v_het);
    assert_eq!(g_homo, g_het);
    assert!(
        t_het > t_homo,
        "slower CPUs take longer: {t_homo} vs {t_het}"
    );
}

#[test]
fn rolling_crashes_with_dissemination_never_lose_committed_data() {
    // Writers disseminate with UR=3 and die one by one; the final reader
    // still sees the last committed write.
    let mut c = SimCluster::builder()
        .sites(6)
        .config(MochaConfig {
            default_lease: Duration::from_millis(500),
            lease_scan_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_millis(300),
            ..MochaConfig::default()
        })
        .build();
    let l = LockId(1);
    let idx = replica_id("d");
    for site in 0..6 {
        c.add_script(site, Script::new().register(l, &["d"]));
    }
    for (i, site) in [1usize, 2, 3].iter().enumerate() {
        c.add_script(
            *site,
            Script::new()
                .set_availability(l, AvailabilityConfig { ur: 3 })
                .sleep(Duration::from_millis(300 + 500 * i as u64))
                .lock(l)
                .write(idx, ReplicaPayload::I32s(vec![*site as i32 * 10]))
                .unlock_dirty(l),
        );
        // Crash each writer well after its release completes.
        c.crash_site_at(
            SimTime::ZERO + Duration::from_millis(2_500 + 300 * i as u64),
            *site,
        );
    }
    // Reader at site 5 after all the carnage.
    c.add_script(
        5,
        Script::new()
            .sleep(Duration::from_secs(6))
            .lock(l)
            .read(idx)
            .unlock(l),
    );
    c.run_for(Duration::from_secs(60));
    assert!(c.all_done(5), "{:?}", c.failures(5));
    assert_eq!(
        c.observed_payloads(5),
        vec![ReplicaPayload::I32s(vec![30])],
        "last writer's (site 3) value survived three producer crashes"
    );
}
