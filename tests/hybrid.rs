//! The hybrid protocol (paper §5 prototype 2) must be semantically
//! identical to the basic prototype — only the wire path of bulk replica
//! data differs.

use std::time::Duration;

use mocha::app::Script;
use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::replica::replica_id;
use mocha::runtime::sim::SimCluster;
use mocha_sim::profiles;
use mocha_wire::{LockId, ReplicaPayload, Version};

const L: LockId = LockId(1);

fn run_workload(config: MochaConfig) -> (Option<ReplicaPayload>, Version, u64) {
    let mut c = SimCluster::builder()
        .sites(4)
        .link(profiles::wan_lossless())
        .cpu(profiles::ultra1())
        .config(config)
        .build();
    let idx = replica_id("doc");
    for site in 0..4 {
        c.add_script(
            site,
            Script::new()
                .register(L, &["doc"])
                .set_availability(L, AvailabilityConfig { ur: 2 })
                .sleep(Duration::from_millis(150 * (site as u64 + 1)))
                .lock(L)
                .write_bytes(idx, 8 * 1024)
                .unlock_dirty(L),
        );
    }
    c.add_script(
        0,
        Script::new()
            .sleep(Duration::from_secs(5))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_until_idle();
    for site in 0..4 {
        assert!(c.all_done(site), "site {site}: {:?}", c.failures(site));
    }
    let value = c.observed_payloads(0).first().cloned();
    (value, c.daemon_version(0, L), c.coordinator_stats().grants)
}

#[test]
fn hybrid_and_basic_reach_identical_state() {
    let basic = run_workload(MochaConfig::basic());
    let hybrid = run_workload(MochaConfig::hybrid());
    assert_eq!(basic.0, hybrid.0, "same final value");
    assert_eq!(basic.1, hybrid.1, "same final version");
    assert_eq!(basic.2, hybrid.2, "same grant count");
    assert!(basic.0.is_some());
}

#[test]
fn hybrid_large_transfer_is_faster_in_virtual_time() {
    // End-to-end: a 256K transfer completes sooner under the hybrid
    // protocol — the paper's headline result, observed through the full
    // DSM stack rather than the dissemination microbenchmark.
    let run = |config: MochaConfig| {
        let mut c = SimCluster::builder()
            .sites(2)
            .link(profiles::wan_lossless())
            .cpu(profiles::ultra1())
            .config(config)
            .build();
        let idx = replica_id("blob");
        c.add_script(
            0,
            Script::new()
                .register(L, &["blob"])
                .lock(L)
                .write_bytes(idx, 256 * 1024)
                .unlock_dirty(L),
        );
        let th = c.add_script(
            1,
            Script::new()
                .register(L, &["blob"])
                .sleep(Duration::from_millis(500))
                .lock(L)
                .read(idx)
                .unlock(L),
        );
        c.run_until_idle();
        assert!(c.all_done(1), "{:?}", c.failures(1));
        c.latency_between(1, th, "lock_granted:lock1", "data_ready:lock1")
    };
    let basic = run(MochaConfig::basic());
    let hybrid = run(MochaConfig::hybrid());
    assert!(
        hybrid < basic / 2,
        "hybrid {hybrid:?} must be well under basic {basic:?} for 256K"
    );
}

#[test]
fn hybrid_uses_tcp_for_bulk_and_mochanet_for_control() {
    // Count protocol discriminators on the wire via the trace.
    let mut c = SimCluster::builder()
        .sites(2)
        .config(MochaConfig::hybrid())
        .build();
    c.world_mut().trace_mut().set_enabled(true);
    let idx = replica_id("x");
    c.add_script(
        0,
        Script::new()
            .register(L, &["x"])
            .lock(L)
            .write_bytes(idx, 64 * 1024)
            .unlock_dirty(L),
    );
    c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .sleep(Duration::from_millis(300))
            .lock(L)
            .read(idx)
            .unlock(L),
    );
    c.run_until_idle();
    assert!(c.all_done(1), "{:?}", c.failures(1));
    // The 64K transfer needs ~47 TCP segments; far more TCP than control
    // traffic would show if the transfer had gone over MochaNet.
    let metrics = c.world().metrics();
    assert!(
        metrics.datagrams_sent > 60,
        "expected many datagrams, got {metrics:?}"
    );
}

/// An oversized bulk message must fail that one transfer with a
/// `SendFailed` event — the hybrid mux used to panic in the TCP framing
/// path instead, taking the whole site down.
#[test]
fn oversized_bulk_send_fails_gracefully() {
    use mocha_net::{Action, MsgClass, NetConfig, TransportEvent, TransportMux};
    use mocha_wire::SiteId;

    let mut cfg = NetConfig::hybrid();
    cfg.tcp.max_msg_bytes = 1024;
    let mut mux = TransportMux::new(SiteId(0), cfg).unwrap();
    let handle = mux.send(SiteId(1), 7, &vec![0u8; 4096], MsgClass::Bulk);
    let failed = mux.drain_actions().into_iter().any(|a| {
        matches!(
            a,
            Action::Event(TransportEvent::SendFailed { to, handle: h })
                if to == SiteId(1) && h == handle
        )
    });
    assert!(failed, "oversized bulk send must surface SendFailed");
    // The mux stays usable: a normal-sized bulk send on the same mux
    // still starts its rendezvous instead of being poisoned.
    let next = mux.send(SiteId(1), 7, &[0u8; 16], MsgClass::Bulk);
    assert_ne!(next, handle);
}

/// Sending on a connection that died (SYN retries exhausted) is a typed
/// error, not a panic: the transfer fails, the endpoint survives.
#[test]
fn stale_connection_send_is_a_typed_error() {
    use mocha_net::tcp::{TcpEndpoint, TcpEvent};
    use mocha_net::{Action, TcpConfig, TcpSendError};
    use mocha_wire::SiteId;

    let mut ep = TcpEndpoint::new(SiteId(0), TcpConfig::default()).unwrap();
    let conn = ep.connect(SiteId(9));
    // The peer never answers; fire every retransmission timer the
    // endpoint sets until the active open gives up.
    let mut conn_failed = false;
    for _ in 0..64 {
        let timers: Vec<u64> = ep
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::SetTimer { token, .. } => Some(token),
                _ => None,
            })
            .collect();
        for token in timers {
            ep.on_timer(token);
        }
        if ep
            .drain_events()
            .into_iter()
            .any(|e| matches!(e, TcpEvent::ConnectFailed(c, _) if c == conn))
        {
            conn_failed = true;
            break;
        }
    }
    assert!(conn_failed, "SYN retries should exhaust with a silent peer");
    assert_eq!(
        ep.send_msg(conn, b"late write"),
        Err(TcpSendError::UnknownConn(conn))
    );
    // Oversized sends are refused up front with the same error type.
    let mut small = TcpConfig::default();
    small.max_msg_bytes = 8;
    let mut ep = TcpEndpoint::new(SiteId(0), small).unwrap();
    let conn = ep.connect(SiteId(1));
    assert_eq!(
        ep.send_msg(conn, &[0u8; 64]),
        Err(TcpSendError::TooLarge { len: 64, max: 8 })
    );
}

#[test]
fn hybrid_dissemination_with_failures_still_replaces_targets() {
    let mut config = MochaConfig::hybrid();
    config.default_lease = Duration::from_millis(400);
    let mut c = SimCluster::builder().sites(5).config(config).build();
    let idx = replica_id("x");
    for site in [2usize, 3, 4] {
        c.add_script(site, Script::new().register(L, &["x"]));
    }
    c.crash_site_at(mocha_sim::SimTime::ZERO + Duration::from_millis(300), 2);
    c.add_script(
        1,
        Script::new()
            .register(L, &["x"])
            .set_availability(L, AvailabilityConfig { ur: 2 })
            .sleep(Duration::from_millis(500))
            .lock(L)
            .write_bytes(idx, 4 * 1024)
            .unlock_dirty(L),
    );
    c.run_for(Duration::from_secs(30));
    assert!(c.all_done(1), "{:?}", c.failures(1));
    assert_eq!(c.daemon_stats(1).push_replacements, 1);
}
