//! Network partition tests: short partitions heal transparently (MochaNet
//! retransmission), long partitions strand threads that then recover via
//! periodic acquire retries once the path heals.

use std::time::Duration;

use mocha::app::Script;
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_sim::SimTime;
use mocha_wire::{LockId, ReplicaPayload};

const L: LockId = LockId(1);

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(ms)
}

#[test]
fn short_partition_is_absorbed_by_retransmission() {
    // Partition lasts 300 ms, well inside MochaNet's retry budget (7
    // exponentially backed-off rounds, > 4.5 s of patience): the acquire
    // succeeds without the app noticing.
    let mut c = SimCluster::builder().sites(2).build();
    let th = c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .sleep(Duration::from_millis(500))
            .lock(L)
            .unlock(L),
    );
    c.run_for(Duration::from_millis(450));
    c.partition(0, 1);
    c.world_mut().schedule_at(at(800), |_| {});
    c.run_for(Duration::from_millis(350));
    c.heal(0, 1);
    c.run_until_idle();
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let labels: Vec<String> = c.records(1, th).iter().map(|r| r.label.clone()).collect();
    assert!(
        !labels.contains(&"home_unreachable:lock1".to_string()),
        "short partition must be invisible to the app: {labels:?}"
    );
}

#[test]
fn long_partition_strands_then_retry_recovers_after_heal() {
    let mut c = SimCluster::builder().sites(3).build();
    let idx = replica_id("x");
    c.add_script(0, Script::new().register(L, &["x"]).lock(L).unlock(L));
    let th = c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .sleep(Duration::from_millis(500))
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![3]))
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_millis(450));
    // Partition site 1 from the home for 5 s: far beyond the transport's
    // retry budget, so the acquire fails and the thread is stranded.
    c.partition(0, 1);
    c.run_for(Duration::from_secs(5));
    {
        let labels: Vec<String> = c.records(1, th).iter().map(|r| r.label.clone()).collect();
        assert!(
            labels.contains(&"home_unreachable:lock1".to_string()),
            "{labels:?}"
        );
        assert!(!c.all_done(1));
    }
    // Heal; the periodic retry re-sends the acquire and completes.
    c.heal(0, 1);
    c.run_for(Duration::from_secs(20));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    let labels: Vec<String> = c.records(1, th).iter().map(|r| r.label.clone()).collect();
    assert!(
        labels.contains(&"reacquire_retry:lock1".to_string()),
        "{labels:?}"
    );
    assert!(labels.contains(&"lock_acquired:lock1".to_string()));
    // The write committed after recovery.
    assert_eq!(c.replica_value(1, idx), Some(ReplicaPayload::I32s(vec![3])));
}

#[test]
fn partitioned_member_missed_pushes_are_replaced() {
    // Dissemination target behind a partition: the push times out and a
    // reachable member is chosen instead (§4).
    let mut c = SimCluster::builder().sites(5).build();
    let idx = replica_id("x");
    for site in [2usize, 3, 4] {
        c.add_script(site, Script::new().register(L, &["x"]));
    }
    c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .set_availability(L, mocha::config::AvailabilityConfig { ur: 2 })
            .sleep(Duration::from_millis(400))
            .lock(L)
            .write(idx, ReplicaPayload::I32s(vec![5]))
            .unlock_dirty(L),
    );
    // Site 2 (the first-choice target) is partitioned from site 1.
    c.run_for(Duration::from_millis(350));
    c.partition(1, 2);
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert_eq!(c.daemon_stats(1).push_replacements, 1);
    let got = [3usize, 4]
        .iter()
        .filter(|s| c.replica_value(**s, idx) == Some(ReplicaPayload::I32s(vec![5])))
        .count();
    assert!(got >= 1, "a reachable member received the push");
}
