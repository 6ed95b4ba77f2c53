//! Deterministic chaos testing: randomized schedules of crashes,
//! partitions, reboots and lock traffic, all driven from a seed. After the
//! chaos window closes and the network heals, the system must still
//! provide entry consistency to survivors.
//!
//! Every failure/heal decision comes from a seeded RNG, so any failing
//! seed replays exactly.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_sim::SimTime;
use mocha_wire::{LockId, ReplicaPayload};

const L: LockId = LockId(1);

fn chaos_config() -> MochaConfig {
    MochaConfig {
        default_lease: Duration::from_millis(600),
        lease_scan_interval: Duration::from_millis(200),
        heartbeat_timeout: Duration::from_millis(400),
        recovery_poll_window: Duration::from_millis(400),
        ..MochaConfig::default()
    }
}

/// One chaos run: `sites` sites (home is spared — the paper assumes it),
/// random crash/partition events over ~8 virtual seconds of lock traffic
/// with UR=2 dissemination, then heal, reboot everyone, and verify a
/// final read round observes a single consistent value everywhere.
fn chaos_run(seed: u64, sites: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = SimCluster::builder()
        .sites(sites)
        .seed(seed)
        .config(chaos_config())
        .build();
    let idx = replica_id("chaos");

    // Workload: every non-home site increments-ish (writes its site id as
    // value) a few times at random moments with dissemination.
    for site in 1..sites {
        let mut script = Script::new()
            .register(L, &["chaos"])
            .set_availability(L, AvailabilityConfig { ur: 2 });
        let mut at = 0u64;
        for _ in 0..3 {
            at += rng.gen_range(200..1500);
            script = script
                .sleep(Duration::from_millis(at))
                .lock(L)
                .write(idx, ReplicaPayload::I32s(vec![site as i32]))
                .unlock_dirty(L);
        }
        c.add_script(site, script);
    }
    c.add_script(0, Script::new().register(L, &["chaos"]));

    // Chaos: random crashes and partitions during the first 8 s.
    let mut crashed: Vec<usize> = Vec::new();
    let mut partitioned: Vec<(usize, usize)> = Vec::new();
    for _ in 0..rng.gen_range(2..6) {
        let at = SimTime::ZERO + Duration::from_millis(rng.gen_range(500..8_000));
        match rng.gen_range(0..3u8) {
            0 => {
                // Crash a random non-home site (at most half the sites).
                let victim = rng.gen_range(1..sites);
                if !crashed.contains(&victim) && crashed.len() < (sites - 1) / 2 {
                    crashed.push(victim);
                    c.crash_site_at(at, victim);
                }
            }
            1 => {
                // Partition a random non-home pair for a while.
                let a = rng.gen_range(1..sites);
                let b = rng.gen_range(1..sites);
                if a != b {
                    partitioned.push((a, b));
                }
            }
            _ => {
                // Partition a site from home briefly.
                let a = rng.gen_range(1..sites);
                partitioned.push((0, a));
            }
        }
    }
    // Apply partitions at deterministic times and heal them all at 9 s.
    c.run_for(Duration::from_millis(500));
    for (a, b) in &partitioned {
        c.partition(*a, *b);
    }
    c.run_for(Duration::from_millis(8_500));
    for (a, b) in &partitioned {
        c.heal(*a, *b);
    }

    // Reboot the crashed sites; they re-register.
    c.run_for(Duration::from_secs(15));
    for victimim in &crashed {
        c.restart_site(*victimim);
        c.add_script(*victimim, Script::new().register(L, &["chaos"]));
    }
    c.run_for(Duration::from_secs(5));

    // Convergence round: one final writer, then every live site reads.
    c.add_script(
        1,
        Script::new()
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![777]))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(10));
    let mut readers = Vec::new();
    for site in 0..sites {
        let th = c.add_script(site, Script::new().lock(L).read(idx).unlock(L).mark("done"));
        readers.push((site, th));
        // Sequential read rounds keep the schedule simple; the window
        // covers a full data-retry cycle for a stuck grantee.
        c.run_for(Duration::from_secs(30));
    }
    for (site, th) in readers {
        let labels: Vec<String> = c
            .records(site, th)
            .iter()
            .map(|r| r.label.clone())
            .collect();
        assert!(
            labels.contains(&"done".to_string()),
            "seed {seed}: site {site} never completed its final read: {labels:?}"
        );
    }
    for site in 0..sites {
        assert_eq!(
            c.replica_value(site, idx),
            Some(ReplicaPayload::I32s(vec![777])),
            "seed {seed}: site {site} did not converge to the final write"
        );
    }
}

#[test]
fn chaos_seeds_converge_small() {
    for seed in 1u64..=20 {
        chaos_run(seed, 4);
    }
}

#[test]
fn chaos_seeds_converge_medium() {
    for seed in (10u64..=100).step_by(10) {
        chaos_run(seed, 6);
    }
}

#[test]
fn chaos_seeds_converge_large() {
    for seed in [100u64, 200, 300, 400, 500] {
        chaos_run(seed, 9);
    }
}
