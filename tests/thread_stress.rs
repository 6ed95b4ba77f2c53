//! Stress tests for the real-thread runtime: genuine OS-level concurrency
//! against the full protocol stack.

use std::time::Duration;

use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::thread::ThreadRuntime;
use mocha_wire::{LockId, ReplicaPayload};

const L: LockId = LockId(1);

fn counter_specs() -> Vec<ReplicaSpec> {
    vec![ReplicaSpec::new("ctr", ReplicaPayload::I64s(vec![0]))]
}

fn read_counter(rt: &ThreadRuntime) -> i64 {
    let h = rt.handle(0);
    h.lock(L).unwrap();
    let ReplicaPayload::I64s(v) = h.read(replica_id("ctr")).unwrap() else {
        panic!("counter type");
    };
    h.unlock(L, false).unwrap();
    v[0]
}

#[test]
fn many_threads_many_sites_increment_atomically() {
    const SITES: usize = 4;
    const THREADS_PER_SITE: usize = 3;
    const INCREMENTS: i64 = 8;
    let rt = ThreadRuntime::builder().sites(SITES).build();
    for i in 0..SITES {
        rt.handle(i).register(L, counter_specs()).unwrap();
    }
    let idx = replica_id("ctr");
    let mut workers = Vec::new();
    for site in 0..SITES {
        for _ in 0..THREADS_PER_SITE {
            let h = rt.handle(site);
            workers.push(std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    h.lock(L).unwrap();
                    let ReplicaPayload::I64s(v) = h.read(idx).unwrap() else {
                        panic!("counter type");
                    };
                    h.write(idx, ReplicaPayload::I64s(vec![v[0] + 1])).unwrap();
                    h.unlock(L, true).unwrap();
                }
            }));
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(
        read_counter(&rt),
        (SITES * THREADS_PER_SITE) as i64 * INCREMENTS
    );
    // The runtime-level counters (the real-execution mirror of the
    // simulator's Metrics) observed the protocol traffic: every remote
    // send was delivered, nothing failed, and all workers' cross-site
    // acquires generated real envelope traffic.
    let m = rt.metrics();
    assert!(m.msgs_sent > 0, "cross-site messages were counted");
    assert!(m.msgs_delivered > 0);
    assert!(
        m.msgs_delivered <= m.msgs_sent,
        "delivered more than was sent: {m}"
    );
    assert_eq!(m.datagrams_lost, 0, "no site died in this scenario: {m}");
    assert_eq!(m.sends_failed, 0, "{m}");
    assert!(m.datagrams_delivered >= m.msgs_delivered);
    rt.shutdown();
}

#[test]
fn dissemination_under_concurrency_keeps_count_exact() {
    // UR=3 with synchronous pushes interleaved with contention.
    let rt = ThreadRuntime::builder().sites(4).build();
    for i in 0..4 {
        rt.handle(i).register(L, counter_specs()).unwrap();
        rt.handle(i)
            .set_availability(L, AvailabilityConfig { ur: 3 })
            .unwrap();
    }
    let idx = replica_id("ctr");
    let mut workers = Vec::new();
    for site in 0..4 {
        let h = rt.handle(site);
        workers.push(std::thread::spawn(move || {
            for _ in 0..5 {
                h.lock(L).unwrap();
                let ReplicaPayload::I64s(v) = h.read(idx).unwrap() else {
                    panic!("counter type");
                };
                h.write(idx, ReplicaPayload::I64s(vec![v[0] + 1])).unwrap();
                h.unlock(L, true).unwrap();
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(read_counter(&rt), 20);
    rt.shutdown();
}

#[test]
fn survivors_continue_after_bystander_site_dies() {
    let mut rt = ThreadRuntime::builder()
        .sites(4)
        .config(MochaConfig {
            default_lease: Duration::from_millis(400),
            lease_scan_interval: Duration::from_millis(150),
            heartbeat_timeout: Duration::from_millis(250),
            ..MochaConfig::default()
        })
        .build();
    for i in 0..4 {
        rt.handle(i).register(L, counter_specs()).unwrap();
    }
    let idx = replica_id("ctr");
    // Do some work, then kill site 3 (not holding anything).
    for round in 0..3 {
        let h = rt.handle(round % 3);
        h.lock(L).unwrap();
        let ReplicaPayload::I64s(v) = h.read(idx).unwrap() else {
            panic!()
        };
        h.write(idx, ReplicaPayload::I64s(vec![v[0] + 1])).unwrap();
        h.unlock(L, true).unwrap();
    }
    rt.kill_site(3);
    // Remaining sites keep going.
    for round in 0..3 {
        let h = rt.handle(round % 3);
        h.lock(L).unwrap();
        let ReplicaPayload::I64s(v) = h.read(idx).unwrap() else {
            panic!()
        };
        h.write(idx, ReplicaPayload::I64s(vec![v[0] + 1])).unwrap();
        h.unlock(L, true).unwrap();
    }
    assert_eq!(read_counter(&rt), 6);
    rt.shutdown();
}

#[test]
fn multiple_locks_in_parallel_do_not_contend() {
    // Each lock guards its own replica; threads on different locks run
    // concurrently without serializing against each other.
    const LOCKS: usize = 4;
    let rt = ThreadRuntime::builder().sites(2).build();
    for l in 0..LOCKS {
        let lock = LockId(l as u32 + 1);
        let name = format!("r{l}");
        for i in 0..2 {
            rt.handle(i)
                .register(
                    lock,
                    vec![ReplicaSpec::new(&name, ReplicaPayload::I64s(vec![0]))],
                )
                .unwrap();
        }
    }
    let mut workers = Vec::new();
    for l in 0..LOCKS {
        let lock = LockId(l as u32 + 1);
        let idx = replica_id(&format!("r{l}"));
        for site in 0..2 {
            let h = rt.handle(site);
            workers.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    h.lock(lock).unwrap();
                    let ReplicaPayload::I64s(v) = h.read(idx).unwrap() else {
                        panic!()
                    };
                    h.write(idx, ReplicaPayload::I64s(vec![v[0] + 1])).unwrap();
                    h.unlock(lock, true).unwrap();
                }
            }));
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    for l in 0..LOCKS {
        let lock = LockId(l as u32 + 1);
        let idx = replica_id(&format!("r{l}"));
        let h = rt.handle(0);
        h.lock(lock).unwrap();
        assert_eq!(h.read(idx).unwrap(), ReplicaPayload::I64s(vec![20]));
        h.unlock(lock, false).unwrap();
    }
    rt.shutdown();
}

#[test]
fn shared_readers_run_while_counting_writers_wait() {
    let rt = ThreadRuntime::builder().sites(3).build();
    for i in 0..3 {
        rt.handle(i).register(L, counter_specs()).unwrap();
    }
    let idx = replica_id("ctr");
    // Writer establishes a value.
    let h = rt.handle(0);
    h.lock(L).unwrap();
    h.write(idx, ReplicaPayload::I64s(vec![99])).unwrap();
    h.unlock(L, true).unwrap();
    // Many concurrent shared reads across sites.
    let mut readers = Vec::new();
    for site in 0..3 {
        let h = rt.handle(site);
        readers.push(std::thread::spawn(move || {
            for _ in 0..10 {
                h.lock_shared(L).unwrap();
                let v = h.read(idx).unwrap();
                assert_eq!(v, ReplicaPayload::I64s(vec![99]));
                h.unlock(L, false).unwrap();
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    rt.shutdown();
}
