//! The scenario registry: small named cluster setups the explorer drives.
//!
//! A scenario builds a [`SimCluster`] from a seed and a [`FaultPlan`] and
//! nothing else, so `(scenario name, seed, faults, schedule)` fully
//! determines an execution — the basis of replayable traces.

use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, HomeConfig, PushConfig};
use mocha::runtime::sim::SimCluster;
use mocha::{Directory, FaultPlan, MochaConfig};
use mocha_sim::SimTime;
use mocha_store::StoreConfig;
use mocha_wire::{LockId, SiteId};

const L: LockId = LockId(1);

/// A named, deterministic cluster setup for the checker.
pub struct Scenario {
    /// Registry key, stable across versions (recorded in traces).
    pub name: &'static str,
    /// One-line description shown by `repro -- check --list`.
    pub summary: &'static str,
    /// `Some(kind)` if the scenario *by construction* violates an
    /// invariant (harness-level mutants, e.g. promoting a surrogate
    /// coordinator without crashing the old home). These are excluded
    /// from the clean CI wall and exercised by the mutant tests.
    pub expected: Option<&'static str>,
    builder: fn(u64, FaultPlan) -> SimCluster,
}

impl Scenario {
    /// Builds the scenario's cluster.
    pub fn build(&self, seed: u64, faults: FaultPlan) -> SimCluster {
        (self.builder)(seed, faults)
    }
}

fn config(faults: FaultPlan) -> MochaConfig {
    MochaConfig {
        faults,
        ..MochaConfig::default()
    }
}

/// Two sites; site 0 writes, site 1 acquires afterwards and needs a
/// transfer. The smallest grant-with-transfer exercise.
fn handoff(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(2)
        .seed(seed)
        .config(config(faults))
        .build();
    let idx = mocha::replica_id("idx");
    c.add_script(
        0,
        Script::new()
            .register(L, &["idx"])
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![7]))
            .unlock_dirty(L),
    );
    c.add_script(
        1,
        Script::new()
            .register(L, &["idx"])
            .sleep(Duration::from_millis(50))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c
}

/// Three sites all racing to write under the same exclusive lock — the
/// mutual-exclusion stress.
fn contended_writers(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(3)
        .seed(seed)
        .config(config(faults))
        .build();
    let idx = mocha::replica_id("idx");
    for site in 0..3usize {
        c.add_script(
            site,
            Script::new()
                .register(L, &["idx"])
                .lock(L)
                .write(idx, mocha_wire::ReplicaPayload::I32s(vec![site as i32]))
                .unlock_dirty(L),
        );
    }
    c
}

/// One exclusive writer then two shared readers — mode compatibility.
fn shared_readers(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(3)
        .seed(seed)
        .config(config(faults))
        .build();
    let idx = mocha::replica_id("idx");
    c.add_script(
        0,
        Script::new()
            .register(L, &["idx"])
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L),
    );
    for site in 1..3usize {
        c.add_script(
            site,
            Script::new()
                .register(L, &["idx"])
                .sleep(Duration::from_millis(40))
                .lock_shared(L)
                .read(idx)
                .unlock(L),
        );
    }
    c
}

/// Four sites, two successive producers pushing to the same peers with
/// `UR = 2`, so pushes carrying different versions from *different*
/// senders can cross on the wire — the version-monotonicity stress.
fn push_chain(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(4)
        .seed(seed)
        .config(config(faults))
        .build();
    let idx = mocha::replica_id("idx");
    let avail = AvailabilityConfig { ur: 2 };
    c.add_script(0, Script::new().register(L, &["idx"]));
    c.add_script(3, Script::new().register(L, &["idx"]));
    c.add_script(
        1,
        Script::new()
            .register(L, &["idx"])
            .set_availability(L, avail)
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L),
    );
    c.add_script(
        2,
        Script::new()
            .register(L, &["idx"])
            .set_availability(L, avail)
            .sleep(Duration::from_millis(20))
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![2]))
            .unlock_dirty(L),
    );
    c
}

/// Four sites with `UR = 3` and the delta + pipelined push path enabled:
/// every release has all three targets in flight at
/// once, and a second small write rides the delta path. The explorer can
/// defer any target's ack past the push timer, forcing a mid-window
/// timeout + replacement that push-set consistency must survive.
fn push_window(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(4)
        .seed(seed)
        .config(MochaConfig {
            push: PushConfig {
                delta: true,
                pipeline: true,
            },
            ..config(faults)
        })
        .build();
    let idx = mocha::replica_id("idx");
    let avail = AvailabilityConfig { ur: 3 };
    for site in [0usize, 2, 3] {
        c.add_script(site, Script::new().register(L, &["idx"]));
    }
    let mut base: Vec<i32> = (0..48).collect();
    let full = mocha_wire::ReplicaPayload::I32s(base.clone());
    base[7] = -7;
    let tweaked = mocha_wire::ReplicaPayload::I32s(base);
    c.add_script(
        1,
        Script::new()
            .register(L, &["idx"])
            .set_availability(L, avail)
            .lock(L)
            .write(idx, full)
            .unlock_dirty(L)
            .lock(L)
            .write(idx, tweaked)
            .unlock_dirty(L),
    );
    c
}

/// Three durable sites: site 1 releases twice under `UR = 2` (pushes and
/// WAL appends interleave), crashes mid-run, and restarts replaying its
/// snapshot + write-ahead log. The oracle watches every invariant across
/// the incarnation boundary — in particular `version_regression`: a
/// recovered site must never resume behind a version it durably applied
/// and announced. The `stale_recovery` fault flag turns this scenario
/// into the mutant proving that invariant fires.
fn crash_recover(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(3)
        .seed(seed)
        .config(config(faults))
        .durable(StoreConfig::default())
        .build();
    let idx = mocha::replica_id("idx");
    let avail = AvailabilityConfig { ur: 2 };
    c.add_script(0, Script::new().register(L, &["idx"]));
    c.add_script(2, Script::new().register(L, &["idx"]));
    c.add_script(
        1,
        Script::new()
            .register(L, &["idx"])
            .set_availability(L, avail)
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![1]))
            .unlock_dirty(L)
            .lock(L)
            .write(idx, mocha_wire::ReplicaPayload::I32s(vec![1, 2]))
            .unlock_dirty(L),
    );
    c.crash_site_at(SimTime::ZERO + Duration::from_millis(40), 1);
    c.restart_site_at(SimTime::ZERO + Duration::from_millis(120), 1);
    c
}

/// Config for the directory scenarios: consistent-hash placement with
/// dynamic migration on and a low threshold so a short script trips it.
fn directory_config(faults: FaultPlan) -> MochaConfig {
    MochaConfig {
        home: HomeConfig {
            hash_directory: true,
            migration: true,
            migrate_threshold: 2,
            ..HomeConfig::default()
        },
        ..config(faults)
    }
}

/// Three sites in hash-directory mode. A site that is *not* the lock's
/// ring home acquires it repeatedly; its decayed acquire heat clears the
/// migration threshold, the home migrates to it mid-run, and the later
/// acquires exercise the `StaleHome` redirect path. Clean by design; the
/// `commit_unfenced` mutant reuses this cluster with the fence disabled.
fn hot_migration(seed: u64, faults: FaultPlan) -> SimCluster {
    let cfg = directory_config(faults);
    // Every site computes the same ring, so the builder can ask a scratch
    // directory where L lives and aim the hot traffic elsewhere.
    let members: Vec<SiteId> = (0..3).map(SiteId).collect();
    let ring_home = Directory::new(&members, cfg.home.virtual_shards)
        .home_of(L)
        .unwrap_or(SiteId(0));
    let hot = SiteId((ring_home.0 + 1) % 3);
    let mut c = SimCluster::builder().sites(3).seed(seed).config(cfg).build();
    for site in 0..3u32 {
        let mut script = Script::new().register(L, &["idx"]);
        if SiteId(site) == hot {
            for _ in 0..4 {
                script = script.lock(L).unlock(L);
            }
        }
        c.add_script(site as usize, script);
    }
    c
}

/// Harness-level mutant: `hot_migration` with the `commit_unfenced` fault
/// forced on — the old home sends `MigrateCommit` but skips the fence and
/// keeps serving the lock, so two coordinators own it. Exists to prove the
/// per-lock `split_home` invariant fires in directory mode.
fn commit_unfenced(seed: u64, faults: FaultPlan) -> SimCluster {
    hot_migration(
        seed,
        FaultPlan {
            commit_unfenced: true,
            ..faults
        },
    )
}

/// Harness-level mutant: promotes site 1 to surrogate coordinator while
/// site 0 — the real home — is still alive. Violates the single-home
/// invariant by construction; exists to prove `split_home` fires.
fn split_home(seed: u64, faults: FaultPlan) -> SimCluster {
    let mut c = SimCluster::builder()
        .sites(3)
        .seed(seed)
        .config(config(faults))
        .build();
    for site in 0..3usize {
        c.add_script(site, Script::new().register(L, &["idx"]));
    }
    c.promote_coordinator(0, 1);
    c
}

static ALL: &[Scenario] = &[
    Scenario {
        name: "handoff",
        summary: "two sites, write then acquire-with-transfer",
        expected: None,
        builder: handoff,
    },
    Scenario {
        name: "contended_writers",
        summary: "three sites racing for one exclusive lock",
        expected: None,
        builder: contended_writers,
    },
    Scenario {
        name: "shared_readers",
        summary: "one writer, two shared readers",
        expected: None,
        builder: shared_readers,
    },
    Scenario {
        name: "push_chain",
        summary: "two successive producers, UR=2 pushes to the same peers",
        expected: None,
        builder: push_chain,
    },
    Scenario {
        name: "push_window",
        summary: "UR=3 pipelined delta pushes, timeout + replacement",
        expected: None,
        builder: push_window,
    },
    Scenario {
        name: "crash_recover",
        summary: "durable site crashes mid-release, restarts off snapshot + WAL",
        expected: None,
        builder: crash_recover,
    },
    Scenario {
        name: "hot_migration",
        summary: "hash-directory mode, hot remote site pulls a lock's home to itself",
        expected: None,
        builder: hot_migration,
    },
    Scenario {
        name: "split_home",
        summary: "surrogate promotion without crashing the old home (mutant)",
        expected: Some("split_home"),
        builder: split_home,
    },
    Scenario {
        name: "commit_unfenced",
        summary: "home migration committed without fencing the old home (mutant)",
        expected: Some("split_home"),
        builder: commit_unfenced,
    },
];

/// Every registered scenario.
pub fn all_scenarios() -> &'static [Scenario] {
    ALL
}

/// Looks up a scenario by its registry key.
pub fn scenario_by_name(name: &str) -> Option<&'static Scenario> {
    ALL.iter().find(|s| s.name == name)
}
