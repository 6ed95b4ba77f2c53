//! Crash-recovery bench: time and bytes to bring a rebooted site back to
//! the current version, durable (snapshot + WAL replay, then a delta
//! catch-up) against the cold baseline (empty store, full transfer).
//!
//! The workload is the wide-area reboot the paper's introduction
//! motivates: a large object is distributed at `UR = 3`, one site
//! crashes, exactly one small-write release happens without it, and the
//! site comes back. With durability the rebooted site replays its device,
//! announces the recovered version, and the holder ships the
//! `(recovered → current)` edit script; cold, the holder's stale ack
//! table still offers a delta, which the empty site NACKs back to a full
//! transfer — the PR 4 fallback path, now doing recovery duty.
//!
//! `repro -- recovery` prints the sweep and writes `BENCH_recovery.json`;
//! `repro -- recovery-smoke` checks the acceptance claims in CI.

use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig, PushConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_net::NetConfig;
use mocha_sim::profiles;
use mocha_store::StoreConfig;
use mocha_wire::codec::CodecKind;
use mocha_wire::{LockId, ReplicaPayload, Version};

use crate::Testbed;

const L: LockId = LockId(1);

/// One point of the recovery sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryBenchPoint {
    /// `"durable_delta"` (snapshot + WAL replay, delta catch-up) or
    /// `"cold_full"` (empty store, NACK-driven full transfer).
    pub mode: &'static str,
    /// Shared object size in bytes.
    pub payload_bytes: usize,
    /// Rebooted-site lock request → grant (state current) latency.
    pub recovery_ms: f64,
    /// Replica payload bytes the holder put on the wire to bring the
    /// rebooted site current.
    pub catchup_replica_bytes: u64,
    /// Delta sends the rebooted site refused (0 when durable; the cold
    /// baseline pays one NACK round trip before the full transfer).
    pub delta_nacks: u64,
}

fn payload(size: usize, round: u8) -> ReplicaPayload {
    let mut v = vec![0xCD; size];
    // Small write: only the first 64 bytes change between rounds, so the
    // catch-up edit script is tiny next to the full payload.
    for b in v.iter_mut().take(64) {
        *b = round;
    }
    ReplicaPayload::Bytes(v)
}

/// Runs one point: three wide-area sites, one full distribution, a crash
/// at site 2, one missed small-write release, then reboot + catch-up.
pub fn run_point(payload_bytes: usize, durable: bool) -> RecoveryBenchPoint {
    let config = MochaConfig {
        net: NetConfig::basic(),
        codec: CodecKind::Bulk,
        push: PushConfig {
            delta: true,
            pipeline: true,
        },
        // The warm-up holds the lock across an ack-waited 256 KiB
        // dissemination over WAN links (> 5 s); the lease must cover it or
        // the coordinator breaks the hold mid-release.
        default_lease: Duration::from_secs(60),
        ..MochaConfig::default()
    };
    let mut builder = SimCluster::builder()
        .sites(3)
        .link(Testbed::Wan.link())
        .cpu(profiles::ultra1())
        .config(config);
    if durable {
        builder = builder.durable(StoreConfig::default());
    }
    let mut c = builder.build();
    let doc = replica_id("doc");
    c.add_script(0, Script::new().register(L, &["doc"]));
    c.add_script(2, Script::new().register(L, &["doc"]));
    // Warm-up: distribute v1 everywhere (UR = 3, ack-waited), priming the
    // writer's ack table and — when durable — site 2's WAL.
    c.add_script(
        1,
        Script::new()
            .register(L, &["doc"])
            .set_availability(L, AvailabilityConfig { ur: 3 })
            .sleep(Duration::from_millis(500))
            .lock(L)
            .write(doc, payload(payload_bytes, 0))
            .unlock_dirty(L),
    );
    c.run_until_idle();
    assert!(c.all_done(1), "warm-up failed: {:?}", c.failures(1));

    // Site 2 goes down; one small-write release happens without it.
    c.crash_site(2);
    c.add_script(
        1,
        Script::new()
            .set_availability(L, AvailabilityConfig { ur: 2 })
            .lock(L)
            .write(doc, payload(payload_bytes, 1))
            .unlock_dirty(L),
    );
    c.run_until_idle();
    assert!(c.all_done(1), "missed round failed: {:?}", c.failures(1));
    let before = c.daemon_stats(1);

    // Reboot and catch up. Durable: site 2 announces its recovered v1 and
    // the holder ships the v1→v2 edit script. Cold: the holder's stale ack
    // table still offers a delta; the empty site NACKs it back to a full
    // transfer.
    c.restart_site(2);
    let th = c.add_script(
        2,
        Script::new()
            .register(L, &["doc"])
            .sleep(Duration::from_millis(100))
            .lock(L)
            .read(doc)
            .unlock(L),
    );
    c.run_until_idle();
    assert!(c.all_done(2), "catch-up failed: {:?}", c.failures(2));
    let after = c.daemon_stats(1);
    let recovery = c.latency_between(2, th, "lock_request:lock1", "lock_acquired:lock1");
    assert_eq!(
        c.daemon_version(2, L),
        Version(2),
        "the rebooted site must end current"
    );
    assert_eq!(
        c.observed_payloads(2),
        vec![payload(payload_bytes, 1)],
        "the rebooted site must read the post-crash value"
    );

    RecoveryBenchPoint {
        mode: if durable { "durable_delta" } else { "cold_full" },
        payload_bytes,
        recovery_ms: recovery.as_secs_f64() * 1e3,
        catchup_replica_bytes: after.replica_bytes_sent - before.replica_bytes_sent,
        delta_nacks: after.delta_nacks - before.delta_nacks,
    }
}

/// The full grid: payload size × mode.
pub fn recovery_sweep() -> Vec<RecoveryBenchPoint> {
    let mut out = Vec::new();
    for &payload_bytes in &[16 * 1024usize, 64 * 1024, 256 * 1024] {
        for durable in [false, true] {
            out.push(run_point(payload_bytes, durable));
        }
    }
    out
}

/// Renders the sweep as a JSON array (hand-rolled — no serde in tree).
pub fn to_json(points: &[RecoveryBenchPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "  {{\"mode\": \"{}\", \"payload_bytes\": {}, ",
                "\"recovery_ms\": {:.3}, \"catchup_replica_bytes\": {}, ",
                "\"delta_nacks\": {}}}{}\n"
            ),
            p.mode,
            p.payload_bytes,
            p.recovery_ms,
            p.catchup_replica_bytes,
            p.delta_nacks,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    s.push_str("]\n");
    s
}

/// Writes the sweep to `path` as JSON.
pub fn write_json(path: &Path, points: &[RecoveryBenchPoint]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(points).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion in miniature: a durability-enabled reboot
    /// catches up with measurably fewer holder bytes than the cold full
    /// transfer, and without the NACK round trip.
    #[test]
    fn durable_recovery_moves_fewer_bytes_than_cold() {
        let cold = run_point(16 * 1024, false);
        let durable = run_point(16 * 1024, true);
        assert_eq!(durable.delta_nacks, 0, "{durable:?}");
        assert!(cold.delta_nacks >= 1, "{cold:?}");
        assert!(
            cold.catchup_replica_bytes > 2 * durable.catchup_replica_bytes,
            "cold {cold:?} vs durable {durable:?}"
        );
        assert!(durable.recovery_ms > 0.0);
        assert!(cold.recovery_ms > 0.0);
    }
}
