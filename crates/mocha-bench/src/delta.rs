//! Delta-dissemination sweep: replica bytes moved and release-to-all-acks
//! latency for a small-write/large-object workload, with the paper's
//! sequential full-payload pushes against the delta + pipelined push path.
//!
//! The workload is the replica hot path this reproduction's ROADMAP calls
//! out: an object of `payload_bytes` is shared at `UR = targets + 1`, and
//! every release rewrites only the first `write_bytes` of it. Under the
//! sequential baseline each release ships the whole payload to each
//! target in turn; with `PushConfig { delta, pipeline }` it ships one
//! edit script to all targets at once.
//!
//! `repro -- delta` prints the sweep and writes `BENCH_delta.json`;
//! `repro -- delta-smoke` checks the acceptance claims in CI.

use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig, PushConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_net::NetConfig;
use mocha_sim::profiles;
use mocha_wire::codec::CodecKind;
use mocha_wire::{LockId, ReplicaPayload};

use crate::Testbed;

const L: LockId = LockId(1);

/// Small-write releases measured per point (after one warm-up release
/// that distributes the full payload and primes the ack tables).
pub const DELTA_ROUNDS: usize = 4;

/// One point of the delta sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaBenchPoint {
    /// `"sequential_full"` (paper baseline) or `"delta_pipeline"`.
    pub mode: &'static str,
    /// Shared object size in bytes.
    pub payload_bytes: usize,
    /// Bytes rewritten per release.
    pub write_bytes: usize,
    /// Push targets per release (`UR = targets + 1`).
    pub targets: usize,
    /// Measured small-write releases.
    pub rounds: usize,
    /// Replica payload bytes the writer's daemon put on the wire during
    /// the measured rounds (full payloads or delta scripts).
    pub replica_bytes_sent: u64,
    /// Pushes that went out as edit scripts.
    pub delta_pushes: u64,
    /// Delta sends the receivers refused (must be 0 on this workload).
    pub delta_nacks: u64,
    /// Mean release-to-last-push-ack latency over the measured rounds.
    pub mean_release_to_acks_ms: f64,
}

fn payload(size: usize, round: u8, write_bytes: usize) -> ReplicaPayload {
    let mut v = vec![0xAB; size];
    for b in v.iter_mut().take(write_bytes.min(size)) {
        *b = round;
    }
    ReplicaPayload::Bytes(v)
}

/// Runs one point: `targets + 1` wide-area sites, one warm-up release of
/// the full payload, then [`DELTA_ROUNDS`] small-write releases.
pub fn run_point(
    payload_bytes: usize,
    write_bytes: usize,
    targets: usize,
    delta: bool,
) -> DeltaBenchPoint {
    assert!(targets >= 1);
    let config = MochaConfig {
        net: NetConfig::basic(),
        codec: CodecKind::Bulk,
        push: if delta {
            PushConfig {
                delta: true,
                pipeline: true,
            }
        } else {
            PushConfig::default()
        },
        ..MochaConfig::default()
    };
    let mut c = SimCluster::builder()
        .sites(targets + 1)
        .link(Testbed::Wan.link())
        .cpu(profiles::ultra1())
        .config(config)
        .build();
    let doc = replica_id("doc");
    for site in 1..=targets {
        c.add_script(site, Script::new().register(L, &["doc"]));
    }
    c.add_script(
        0,
        Script::new()
            .register(L, &["doc"])
            .set_availability(L, AvailabilityConfig { ur: targets + 1 })
            .sleep(Duration::from_millis(500))
            .lock(L)
            .write(doc, payload(payload_bytes, 0, write_bytes))
            .unlock_dirty(L),
    );
    c.run_until_idle();
    assert!(c.all_done(0), "warm-up failed: {:?}", c.failures(0));
    let warm = c.daemon_stats(0);

    let mut script = Script::new();
    for round in 1..=DELTA_ROUNDS {
        script = script
            .lock(L)
            .write(doc, payload(payload_bytes, round as u8, write_bytes))
            .unlock_dirty(L);
    }
    let th = c.add_script(0, script);
    c.run_until_idle();
    assert!(c.all_done(0), "rounds failed: {:?}", c.failures(0));
    let stats = c.daemon_stats(0);

    // Pair each release with its last push acknowledgement.
    let records = c.records(0, th);
    let mut total = Duration::ZERO;
    let mut count = 0u32;
    let mut released_at = None;
    for r in &records {
        if r.label == "unlock:lock1" {
            released_at = Some(r.at);
        } else if r.label == "pushes_done:lock1" {
            if let Some(rel) = released_at.take() {
                total += r.at - rel;
                count += 1;
            }
        }
    }
    assert_eq!(count as usize, DELTA_ROUNDS, "records: {records:?}");

    DeltaBenchPoint {
        mode: if delta {
            "delta_pipeline"
        } else {
            "sequential_full"
        },
        payload_bytes,
        write_bytes,
        targets,
        rounds: DELTA_ROUNDS,
        replica_bytes_sent: stats.replica_bytes_sent - warm.replica_bytes_sent,
        delta_pushes: stats.delta_pushes_sent - warm.delta_pushes_sent,
        delta_nacks: stats.delta_nacks - warm.delta_nacks,
        mean_release_to_acks_ms: (total / count).as_secs_f64() * 1e3,
    }
}

/// The full grid: payload size × write size × targets × mode.
pub fn delta_sweep() -> Vec<DeltaBenchPoint> {
    let mut out = Vec::new();
    for &payload_bytes in &[16 * 1024usize, 64 * 1024] {
        for &write_bytes in &[64usize, 1024] {
            for targets in 1..=3usize {
                for delta in [false, true] {
                    out.push(run_point(payload_bytes, write_bytes, targets, delta));
                }
            }
        }
    }
    out
}

/// Renders the sweep as a JSON array (hand-rolled — no serde in tree).
pub fn to_json(points: &[DeltaBenchPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "  {{\"mode\": \"{}\", \"payload_bytes\": {}, \"write_bytes\": {}, ",
                "\"targets\": {}, \"rounds\": {}, \"replica_bytes_sent\": {}, ",
                "\"delta_pushes\": {}, \"delta_nacks\": {}, ",
                "\"mean_release_to_acks_ms\": {:.3}}}{}\n"
            ),
            p.mode,
            p.payload_bytes,
            p.write_bytes,
            p.targets,
            p.rounds,
            p.replica_bytes_sent,
            p.delta_pushes,
            p.delta_nacks,
            p.mean_release_to_acks_ms,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    s.push_str("]\n");
    s
}

/// Writes the sweep to `path` as JSON.
pub fn write_json(path: &Path, points: &[DeltaBenchPoint]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(points).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion in miniature: on a small-write workload
    /// the delta path moves ≥5× fewer replica bytes than the sequential
    /// full-payload baseline, with zero NACKs.
    #[test]
    fn delta_moves_far_fewer_bytes_than_full_pushes() {
        let full = run_point(16 * 1024, 64, 2, false);
        let delta = run_point(16 * 1024, 64, 2, true);
        assert_eq!(delta.delta_nacks, 0, "{delta:?}");
        assert!(
            delta.delta_pushes >= (DELTA_ROUNDS * 2) as u64,
            "every measured push should be a delta: {delta:?}"
        );
        assert!(
            full.replica_bytes_sent >= 5 * delta.replica_bytes_sent,
            "full {full:?} vs delta {delta:?}"
        );
    }

    /// With the pipelined window, fanning out to 3 targets costs about
    /// the same release-to-acks latency as 1 target.
    #[test]
    fn pipelined_fanout_latency_is_flat_in_targets() {
        let one = run_point(16 * 1024, 64, 1, true);
        let three = run_point(16 * 1024, 64, 3, true);
        let ratio = three.mean_release_to_acks_ms / one.mean_release_to_acks_ms;
        assert!(
            ratio <= 1.5,
            "pipelined UR scaling {ratio:.2} (1 target {:.2} ms, 3 targets {:.2} ms)",
            one.mean_release_to_acks_ms,
            three.mean_release_to_acks_ms
        );
    }
}
