//! Layer probes: each layer's public functions called directly on one
//! thread, timed in batches, with exact allocation counts. No sockets
//! unless the probe's name says so. The unit costs they return price the
//! per-cycle cost budget.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mocha::cmd::{Cmd, CmdSink};
use mocha::daemon::SiteDaemon;
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::socket::SocketRuntime;
use mocha::sync::SyncCoordinator;
use mocha::Directory;
use mocha_net::mochanet::MochaNetEndpoint;
use mocha_net::{
    ports, Action, AddressBook, MochaNetConfig, SendHandle, TimerWheel, TransportEvent, UdpDriver,
};
use mocha_sim::SimTime;
use mocha_store::{wal, FsyncPolicy, SiteStore, StoreConfig, StoreHandle, WalEntry};
use mocha_wire::codec::CodecKind;
use mocha_wire::message::{LockMode, ReplicaUpdate, VersionFlag};
use mocha_wire::{
    LockId, Msg, PayloadDelta, ReplicaId, ReplicaPayload, RequestId, SiteId, ThreadId, Version,
};

use crate::result::{Better, LayerMetric};
use crate::rng::Rng;
use crate::span::Tracer;
use crate::workload::{bench_config, site_id, EDIT_REACH};

/// Hooks into the binary's counting allocator (the library itself forbids
/// unsafe code, so it cannot install one).
#[derive(Debug, Clone, Copy)]
pub struct AllocCounter {
    /// Allocations made so far by the calling thread.
    pub thread_total: fn() -> u64,
    /// Allocations made so far by every thread while process-wide
    /// counting was switched on.
    pub process_total: fn() -> u64,
    /// Switches process-wide counting (a shared atomic, so it is on only
    /// during the traced load phase).
    pub set_process_counting: fn(bool),
}

impl AllocCounter {
    /// Counters that always read zero, for builds without the allocator.
    pub fn disabled() -> AllocCounter {
        AllocCounter {
            thread_total: || 0,
            process_total: || 0,
            set_process_counting: |_| {},
        }
    }
}

/// What one unit of each layer's work costs, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[allow(missing_docs)]
pub struct UnitCosts {
    pub encode_ctl_ns: f64,
    pub decode_ctl_ns: f64,
    pub encode_data_64k_ns: f64,
    pub decode_data_64k_ns: f64,
    pub delta_diff_hit_ns: f64,
    pub delta_diff_miss_ns: f64,
    pub delta_apply_ns: f64,
    pub net_small_msg_ns: f64,
    pub net_bulk_64k_ns: f64,
    pub udp_datagram_ns: f64,
    pub udp_wake_ns: f64,
    pub sync_handoff_ns: f64,
    pub daemon_disseminate_64k_ns: f64,
    pub daemon_apply_push_64k_ns: f64,
    pub daemon_disseminate_delta_ns: f64,
    pub daemon_apply_delta_ns: f64,
    pub store_append_64k_ns: f64,
    pub store_compact_ns: f64,
}

/// How much work each probe does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches per probe: each `*_ns` is the median of this many.
    pub batches: usize,
    /// How long a batch aims to run; iterations are sized to it.
    pub batch_target: Duration,
}

impl Effort {
    /// What a traced run uses: medians of 31 batches of about 2 ms.
    pub const FULL: Effort = Effort {
        batches: 31,
        batch_target: Duration::from_millis(2),
    };
    /// Enough to show every probe works (smoke runs, unit tests).
    pub const QUICK: Effort = Effort {
        batches: 3,
        batch_target: Duration::from_micros(200),
    };
}

const KIB64: usize = 64 * 1024;

/// Times closures and files the readings.
struct Bench<'a> {
    allocs: &'a AllocCounter,
    tracer: &'a mut Tracer,
    out: &'a mut Vec<LayerMetric>,
    effort: Effort,
    batch_serial: u64,
}

impl Bench<'_> {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(LayerMetric {
            name,
            unit,
            better: Better::Lower,
            value,
        });
    }

    /// Iterations that fill one batch, from a short pilot.
    fn size_batch(&self, mut op: impl FnMut()) -> usize {
        op();
        let pilot = self.effort.batch_target / 8;
        let start = Instant::now();
        let mut n = 0usize;
        while n == 0 || start.elapsed() < pilot {
            op();
            n += 1;
        }
        let per_op = start.elapsed().as_secs_f64() / n as f64;
        ((self.effort.batch_target.as_secs_f64() / per_op) as usize).clamp(1, 200_000)
    }

    /// Median nanoseconds per call of `op` over the effort's batches, each
    /// inside a span named after the metric.
    fn time(&mut self, name: &'static str, mut op: impl FnMut()) -> f64 {
        let iters = self.size_batch(&mut op);
        let mut per_op = Vec::with_capacity(self.effort.batches);
        for _ in 0..self.effort.batches {
            let from = self.tracer.now_ns();
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            let elapsed = start.elapsed();
            let to = self.tracer.now_ns();
            self.batch_serial += 1;
            self.tracer.record(name, from, to, None, self.batch_serial);
            per_op.push(elapsed.as_secs_f64() * 1e9 / iters as f64);
        }
        let ns = crate::stats::median(&per_op).expect("at least one batch");
        self.push(name, "ns", ns);
        ns
    }

    /// Exact allocations per call of `op` (mean over 60 calls, which is
    /// the count itself when every call allocates alike, and the mean of
    /// a probe that rotates through 2, 3, 4 or 5 inputs).
    fn allocs(&mut self, name: &'static str, mut op: impl FnMut()) {
        const CALLS: u64 = 60;
        op();
        let before = (self.allocs.thread_total)();
        for _ in 0..CALLS {
            op();
        }
        let made = (self.allocs.thread_total)() - before;
        self.push(name, "count", made as f64 / CALLS as f64);
    }

    /// Like [`allocs`](Self::allocs) for a step that counts its parts
    /// itself: `step` returns each part's allocations.
    fn alloc_parts<const N: usize>(
        &mut self,
        names: [&'static str; N],
        mut step: impl FnMut() -> [u64; N],
    ) {
        const CALLS: u64 = 60;
        step();
        let mut sums = [0u64; N];
        for _ in 0..CALLS {
            for (sum, part) in sums.iter_mut().zip(step()) {
                *sum += part;
            }
        }
        for (name, sum) in names.into_iter().zip(sums) {
            self.push(name, "count", sum as f64 / CALLS as f64);
        }
    }

    /// Like [`time`](Self::time) for a step with several separately timed
    /// parts: `step` returns each part's duration, and each part's median
    /// is filed under its name.
    fn time_parts<const N: usize>(
        &mut self,
        names: [&'static str; N],
        mut step: impl FnMut() -> [Duration; N],
    ) -> [f64; N] {
        let iters = self.size_batch(|| {
            step();
        });
        let mut per_op: Vec<Vec<f64>> = vec![Vec::with_capacity(self.effort.batches); N];
        for _ in 0..self.effort.batches {
            let from = self.tracer.now_ns();
            let mut sums = [Duration::ZERO; N];
            for _ in 0..iters {
                for (sum, part) in sums.iter_mut().zip(step()) {
                    *sum += part;
                }
            }
            let to = self.tracer.now_ns();
            self.batch_serial += 1;
            self.tracer
                .record(names[0], from, to, None, self.batch_serial);
            for (samples, sum) in per_op.iter_mut().zip(sums) {
                samples.push(sum.as_secs_f64() * 1e9 / iters as f64);
            }
        }
        let mut medians = [0.0; N];
        for i in 0..N {
            medians[i] = crate::stats::median(&per_op[i]).expect("at least one batch");
            self.push(names[i], "ns", medians[i]);
        }
        medians
    }
}

/// Runs every probe, appends the readings to `out`, records a span per
/// batch in `tracer`, and returns the unit costs.
///
/// # Errors
///
/// A probe's layer misbehaved (a message was never acknowledged, a store
/// directory could not be written): the benchmark must not report numbers
/// for work that did not happen.
pub fn run_all(
    allocs: &AllocCounter,
    effort: Effort,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<LayerMetric>,
) -> Result<UnitCosts, String> {
    let mut bench = Bench {
        allocs,
        tracer,
        out,
        effort,
        batch_serial: 0,
    };
    let mut costs = UnitCosts::default();
    wire(&mut bench, &mut costs);
    net(&mut bench, &mut costs)?;
    udp(&mut bench, &mut costs)?;
    sync(&mut bench, &mut costs)?;
    daemon(&mut bench, &mut costs)?;
    directory(&mut bench);
    store(&mut bench, &mut costs, scratch)?;
    reactor(&mut bench)?;
    Ok(costs)
}

fn bytes_payload(rng: &mut Rng, len: usize) -> ReplicaPayload {
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf);
    ReplicaPayload::Bytes(buf)
}

/// `base` with the first 16 bytes and 64 more near the front replaced:
/// what a `delta_durable` writer does.
fn edited(rng: &mut Rng, base: &ReplicaPayload) -> ReplicaPayload {
    let ReplicaPayload::Bytes(b) = base else {
        unreachable!("probe payloads are byte arrays");
    };
    let mut next = b.clone();
    rng.fill(&mut next[..16]);
    let at = 16 + rng.below(EDIT_REACH + 1);
    rng.fill(&mut next[at..at + 64]);
    ReplicaPayload::Bytes(next)
}

fn control_samples() -> Vec<Msg> {
    vec![
        Msg::AcquireLock {
            lock: LockId(7),
            site: SiteId(3),
            thread: ThreadId(1),
            lease_hint_ms: 0,
            mode: LockMode::Exclusive,
        },
        Msg::Grant {
            lock: LockId(7),
            version: Version(41),
            flag: VersionFlag::NeedNewVersion,
        },
        Msg::ReleaseLock {
            lock: LockId(7),
            site: SiteId(3),
            new_version: Version(42),
            disseminated_to: vec![SiteId(4)],
        },
        Msg::TransferReplica {
            lock: LockId(7),
            dest: SiteId(3),
            version: Version(41),
            req: RequestId(9),
        },
        Msg::PushAck {
            lock: LockId(7),
            version: Version(42),
            site: SiteId(4),
            req: RequestId(9),
        },
    ]
}

fn wire(b: &mut Bench<'_>, costs: &mut UnitCosts) {
    let mut rng = Rng::new(0x7769_7265);
    // Each call handles one of the five control messages in rotation, so
    // the reading is their mean.
    let ctl = control_samples();
    let encoded: Vec<Vec<u8>> = ctl.iter().map(Msg::encode).collect();
    let mut turn = 0usize;
    let mut encode_next = || {
        turn = (turn + 1) % ctl.len();
        black_box(ctl[turn].encode());
    };
    costs.encode_ctl_ns = b.time("wire.encode_ctl_ns", &mut encode_next);
    b.allocs("wire.encode_ctl_allocs", &mut encode_next);
    let mut turn = 0usize;
    let mut decode_next = || {
        turn = (turn + 1) % encoded.len();
        black_box(Msg::decode(&encoded[turn]).expect("own encoding decodes"));
    };
    costs.decode_ctl_ns = b.time("wire.decode_ctl_ns", &mut decode_next);
    b.allocs("wire.decode_ctl_allocs", &mut decode_next);

    let updates = vec![ReplicaUpdate::new(
        ReplicaId(1),
        bytes_payload(&mut rng, KIB64),
    )];
    let data = Msg::ReplicaData {
        lock: LockId(7),
        version: Version(42),
        updates: updates.clone(),
        req: RequestId(9),
    };
    let data_bytes = data.encode();
    costs.encode_data_64k_ns = b.time("wire.encode_data_64k_ns", || {
        black_box(data.encode());
    });
    costs.decode_data_64k_ns = b.time("wire.decode_data_64k_ns", || {
        black_box(Msg::decode(&data_bytes).expect("own encoding decodes"));
    });
    b.allocs("wire.encode_data_64k_allocs", || {
        black_box(data.encode());
    });
    b.allocs("wire.decode_data_64k_allocs", || {
        black_box(Msg::decode(&data_bytes).expect("own encoding decodes"));
    });

    let codec = CodecKind::Bulk.marshaller();
    let (marshaled, _) = codec.marshal(&updates);
    b.time("wire.marshal_bulk_64k_ns", || {
        black_box(codec.marshal(&updates));
    });
    b.time("wire.unmarshal_bulk_64k_ns", || {
        black_box(
            codec
                .unmarshal(&marshaled)
                .expect("own marshaling unmarshals"),
        );
    });

    let base = bytes_payload(&mut rng, KIB64);
    let near = edited(&mut rng, &base);
    let far = bytes_payload(&mut rng, KIB64);
    let script = PayloadDelta::diff(&base, &near).expect("byte arrays diff");
    costs.delta_diff_hit_ns = b.time("wire.delta_diff_hit_ns", || {
        black_box(PayloadDelta::diff(&base, &near));
    });
    costs.delta_apply_ns = b.time("wire.delta_apply_ns", || {
        black_box(script.apply(&base).expect("script applies to its base"));
    });
    b.push(
        "wire.delta_script_bytes",
        "bytes",
        script.cost_bytes() as f64,
    );
    costs.delta_diff_miss_ns = b.time("wire.delta_diff_miss_ns", || {
        black_box(PayloadDelta::diff(&base, &far));
    });
}

/// Two MochaNet endpoints joined by an in-memory queue.
struct Pair {
    a: MochaNetEndpoint,
    b: MochaNetEndpoint,
    clock: Duration,
    next_handle: u64,
    /// Datagrams and datagram bytes exchanged by the last `send_one`.
    datagrams: u64,
    bytes: u64,
}

const SITE_A: SiteId = SiteId(1);
const SITE_B: SiteId = SiteId(2);

impl Pair {
    fn new() -> Pair {
        let cfg: MochaNetConfig = bench_config().net.mochanet;
        Pair {
            a: MochaNetEndpoint::new(cfg),
            b: MochaNetEndpoint::new(cfg),
            clock: Duration::ZERO,
            next_handle: 1,
            datagrams: 0,
            bytes: 0,
        }
    }

    /// A sends `payload` to B; datagrams shuttle both ways until A's
    /// `MsgAcked` for it arrives. Returns whether it did.
    fn send_one(&mut self, payload: &[u8]) -> bool {
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        (self.datagrams, self.bytes) = (0, 0);
        self.a.send(SITE_B, ports::ECHO, payload, handle);
        let (mut delivered, mut acked) = (false, false);
        // 47 fragments under slow start need a handful of rounds; 1 000
        // means something is wrong.
        for _ in 0..1000 {
            self.clock += Duration::from_micros(50);
            self.a.set_now(self.clock);
            self.b.set_now(self.clock);
            let from_a = self.a.drain_actions();
            let mut moved = !from_a.is_empty();
            for action in from_a {
                match action {
                    Action::Transmit { datagram, .. } => {
                        self.datagrams += 1;
                        self.bytes += datagram.len() as u64;
                        self.b.on_datagram(SITE_A, &datagram);
                    }
                    Action::Event(TransportEvent::MsgAcked { handle: h, .. }) if h == handle => {
                        acked = true;
                    }
                    _ => {}
                }
            }
            let from_b = self.b.drain_actions();
            moved |= !from_b.is_empty();
            for action in from_b {
                match action {
                    Action::Transmit { datagram, .. } => {
                        self.datagrams += 1;
                        self.bytes += datagram.len() as u64;
                        self.a.on_datagram(SITE_B, &datagram);
                    }
                    Action::Event(TransportEvent::Delivered { bytes, .. }) => {
                        delivered = bytes.len() == payload.len();
                    }
                    _ => {}
                }
            }
            if acked && delivered {
                return true;
            }
            if !moved {
                return false;
            }
        }
        false
    }
}

fn net(b: &mut Bench<'_>, costs: &mut UnitCosts) -> Result<(), String> {
    let mut rng = Rng::new(0x6e65_7400);
    let mut small = vec![0u8; 64];
    rng.fill(&mut small);
    let mut bulk = vec![0u8; KIB64];
    rng.fill(&mut bulk);

    let mut pair = Pair::new();
    if !pair.send_one(&small) {
        return Err("net probe: a 64 B message was never delivered and acknowledged".into());
    }
    costs.net_small_msg_ns = b.time("net.small_msg_ns", || {
        black_box(pair.send_one(&small));
    });
    b.allocs("net.small_msg_allocs", || {
        black_box(pair.send_one(&small));
    });
    b.push("net.small_msg_datagrams", "count", pair.datagrams as f64);

    let mut pair = Pair::new();
    if !pair.send_one(&bulk) {
        return Err("net probe: a 64 KiB message was never delivered and acknowledged".into());
    }
    costs.net_bulk_64k_ns = b.time("net.bulk_64k_ns", || {
        black_box(pair.send_one(&bulk));
    });
    b.allocs("net.bulk_64k_allocs", || {
        black_box(pair.send_one(&bulk));
    });
    b.push("net.bulk_64k_datagrams", "count", pair.datagrams as f64);
    b.push(
        "net.bulk_64k_overhead_bytes",
        "bytes",
        pair.bytes as f64 - KIB64 as f64,
    );
    Ok(())
}

fn udp(b: &mut Bench<'_>, costs: &mut UnitCosts) -> Result<(), String> {
    let io = |e: std::io::Error| format!("udp probe: {e}");
    let loopback = "127.0.0.1:0".parse().expect("loopback addr");
    let sender = UdpDriver::bind(SITE_A, loopback).map_err(io)?;
    let mut receiver = UdpDriver::bind(SITE_B, loopback).map_err(io)?;
    let mut book = AddressBook::new();
    book.insert(SITE_B, receiver.local_addr().map_err(io)?);
    let payload = [0x5au8; 64];
    let mut lost = 0u64;
    // One datagram sent and received on one thread: the two syscalls (and
    // envelope copy) every Mocha datagram pays, without any waiting.
    costs.udp_datagram_ns = b.time("udp.loopback_rtt_ns", || {
        let sent = sender.send(&book, SITE_B, &payload).unwrap_or(false);
        let got = receiver.recv(Duration::from_millis(200));
        if !sent || !matches!(got, Ok(mocha_net::udp::Recv::Datagram(_))) {
            lost += 1;
        }
    });
    if lost > 0 {
        return Err(format!(
            "udp probe: {lost} loopback datagrams did not arrive"
        ));
    }

    let mut wheel = TimerWheel::new();
    let now = Instant::now();
    let mut token = 0u64;
    b.time("udp.timer_set_cancel_ns", || {
        token += 1;
        wheel.set(token, Duration::from_millis(150), now);
        wheel.cancel(token);
    });

    let waker = receiver.waker().map_err(io)?;
    let mut missed = 0u64;
    // A wake is a datagram to oneself; the probe drains it so the socket
    // buffer never fills, so this is wake + the receive it interrupts.
    costs.udp_wake_ns = b.time("udp.waker_wake_ns", || {
        waker.wake();
        if !matches!(
            receiver.recv(Duration::from_millis(200)),
            Ok(mocha_net::udp::Recv::Woken)
        ) {
            missed += 1;
        }
    });
    if missed > 0 {
        return Err(format!("udp probe: {missed} wakes did not arrive"));
    }
    Ok(())
}

const T0: ThreadId = ThreadId(0);

fn acquire(lock: LockId, site: SiteId) -> Msg {
    Msg::AcquireLock {
        lock,
        site,
        thread: T0,
        lease_hint_ms: 0,
        mode: LockMode::Exclusive,
    }
}

fn release(lock: LockId, site: SiteId, version: Version) -> Msg {
    Msg::ReleaseLock {
        lock,
        site,
        new_version: version,
        disseminated_to: Vec::new(),
    }
}

/// A coordinator in hash-directory mode that is home for `lock`, with
/// `members` registered and the directory-mode rebuild poll answered, so
/// the next acquire is granted at once.
fn coordinator(lock: LockId, members: &[SiteId]) -> Result<(SyncCoordinator, SiteId), String> {
    let config = bench_config();
    let sites: Vec<SiteId> = (0..32).map(site_id).collect();
    let home = Directory::new(&sites, config.home.virtual_shards)
        .home_of(lock)
        .ok_or("sync probe: the directory has no home for the lock")?;
    let mut c = SyncCoordinator::with_directory(home, config, &sites);
    let mut sink = CmdSink::new();
    let now = SimTime::ZERO;
    for &m in members {
        c.on_msg(
            now,
            m,
            Msg::RegisterReplica {
                lock,
                replica: ReplicaId(1),
                site: m,
                name: "probe".into(),
            },
            &mut sink,
        );
    }
    sink.drain();
    // First contact polls the members before trusting version 0.
    c.on_msg(now, members[0], acquire(lock, members[0]), &mut sink);
    for cmd in sink.drain() {
        if let Cmd::Send {
            to,
            msg: Msg::PollVersion { lock, req },
            ..
        } = cmd
        {
            let reply = Msg::PollResponse {
                lock,
                version: Version::INITIAL,
                site: to,
                req,
            };
            c.on_msg(now, to, reply, &mut sink);
        }
    }
    sink.drain();
    if c.lock_owner(lock) != Some(members[0]) {
        return Err("sync probe: the first acquire was not granted after the rebuild poll".into());
    }
    c.on_msg(
        now,
        members[0],
        release(lock, members[0], Version::INITIAL),
        &mut sink,
    );
    sink.drain();
    Ok((c, home))
}

fn count_sends(sink: &mut CmdSink) -> (u64, bool, bool) {
    let (mut sends, mut granted, mut transfer) = (0, false, false);
    for cmd in sink.drain() {
        if let Cmd::Send { msg, .. } = cmd {
            sends += 1;
            granted |= matches!(msg, Msg::Grant { .. });
            transfer |= matches!(msg, Msg::TransferReplica { .. });
        }
    }
    (sends, granted, transfer)
}

fn sync(b: &mut Bench<'_>, costs: &mut UnitCosts) -> Result<(), String> {
    let lock = LockId(1);
    let now = SimTime::ZERO;
    let members: Vec<SiteId> = (100..109).map(SiteId).collect();
    let mut sink = CmdSink::new();

    // Uncontended, same site, clean releases: no transfer, version fixed.
    let (mut c, _) = coordinator(lock, &members[..2])?;
    let me = members[0];
    let mut sends_per_pair = 0u64;
    let mut ungranted = 0u64;
    let mut pair = |c: &mut SyncCoordinator, sink: &mut CmdSink| {
        c.on_msg(now, me, acquire(lock, me), sink);
        let (s1, granted, _) = count_sends(sink);
        c.on_msg(now, me, release(lock, me, Version::INITIAL), sink);
        let (s2, _, _) = count_sends(sink);
        sends_per_pair = s1 + s2;
        ungranted += u64::from(!granted);
    };
    b.time("sync.acquire_release_ns", || pair(&mut c, &mut sink));
    b.allocs("sync.acquire_release_allocs", || pair(&mut c, &mut sink));
    if ungranted > 0 {
        return Err(format!(
            "sync probe: {ungranted} uncontended acquires were not granted"
        ));
    }
    b.push("sync.msgs_out_per_pair", "count", sends_per_pair as f64);

    // Two sites alternating dirty releases: every grant needs a transfer.
    let (mut c, _) = coordinator(lock, &members[..2])?;
    let mut version = Version::INITIAL;
    let mut turn = 0usize;
    let mut no_transfer = 0u64;
    // Prime: members[1] must have released dirty before members[0] asks.
    c.on_msg(now, members[1], acquire(lock, members[1]), &mut sink);
    version = version.next();
    c.on_msg(
        now,
        members[1],
        release(lock, members[1], version),
        &mut sink,
    );
    sink.drain();
    costs.sync_handoff_ns = b.time("sync.handoff_ns", || {
        let site = members[turn % 2];
        turn += 1;
        c.on_msg(now, site, acquire(lock, site), &mut sink);
        let (_, granted, transfer) = count_sends(&mut sink);
        version = version.next();
        c.on_msg(now, site, release(lock, site, version), &mut sink);
        sink.drain();
        no_transfer += u64::from(!(granted && transfer));
    });
    if no_transfer > 0 {
        return Err(format!(
            "sync probe: {no_transfer} handoffs were granted without a transfer directive"
        ));
    }

    // Eight waiters queued behind the holder: each step releases, which
    // grants the head of the queue, and the old holder queues again.
    let (mut c, _) = coordinator(lock, &members)?;
    let mut version = Version::INITIAL;
    for &m in &members {
        c.on_msg(now, m, acquire(lock, m), &mut sink);
    }
    sink.drain();
    let mut holder = 0usize;
    let mut stalled = 0u64;
    b.time("sync.contended_grant_ns", || {
        let site = members[holder % members.len()];
        holder += 1;
        version = version.next();
        c.on_msg(now, site, release(lock, site, version), &mut sink);
        let (_, granted, _) = count_sends(&mut sink);
        c.on_msg(now, site, acquire(lock, site), &mut sink);
        sink.drain();
        stalled += u64::from(!granted);
    });
    if stalled > 0 {
        return Err(format!(
            "sync probe: {stalled} contended releases granted nobody"
        ));
    }
    Ok(())
}

/// Two daemons that know each other as members of one lock guarding one
/// 64 KiB replica, wired back to back.
struct DaemonPair {
    a: SiteDaemon,
    b: SiteDaemon,
    sink: CmdSink,
    lock: LockId,
    replica: ReplicaId,
    version: Version,
    thread_allocs: fn() -> u64,
}

impl DaemonPair {
    fn new(initial: &ReplicaPayload, thread_allocs: fn() -> u64) -> DaemonPair {
        let config = bench_config();
        let home = SiteId(0);
        let lock = LockId(1);
        let mut a = SiteDaemon::new(SITE_A, home, config.codec);
        let mut b = SiteDaemon::new(SITE_B, home, config.codec);
        let mut sink = CmdSink::new();
        let spec = [ReplicaSpec::new("probe", initial.clone())];
        let replica = replica_id("probe");
        for (d, other) in [(&mut a, SITE_B), (&mut b, SITE_A)] {
            d.set_push_options(config.push);
            d.register_local(lock, &spec, &mut sink);
            d.on_msg(
                SimTime::ZERO,
                home,
                Msg::RegisterReplica {
                    lock,
                    replica,
                    site: other,
                    name: "probe".into(),
                },
                &mut sink,
            );
        }
        sink.drain();
        DaemonPair {
            a,
            b,
            sink,
            lock,
            replica,
            version: Version::INITIAL,
            thread_allocs,
        }
    }

    /// A writes `payload` and disseminates it with UR = 2; B applies the
    /// push; A takes the ack.
    fn push(&mut self, payload: ReplicaPayload) -> Result<PushCost, String> {
        self.a
            .write(self.replica, payload)
            .map_err(|e| format!("daemon probe: write: {e}"))?;
        self.version = self.version.next();
        let allocs_before = (self.thread_allocs)();
        let start = Instant::now();
        self.a
            .disseminate(self.lock, self.version, 2, &mut self.sink);
        let cmds = self.sink.drain();
        let disseminate = start.elapsed();
        let disseminate_allocs = (self.thread_allocs)() - allocs_before;
        let push = cmds.into_iter().find_map(|c| match c {
            Cmd::Send { to, msg, .. } if to == SITE_B => Some(msg),
            _ => None,
        });
        let Some(push) = push else {
            return Err("daemon probe: dissemination sent nothing to the peer".into());
        };
        let was_delta = matches!(push, Msg::PushDelta { .. });
        let allocs_before = (self.thread_allocs)();
        let start = Instant::now();
        self.b.on_msg(SimTime::ZERO, SITE_A, push, &mut self.sink);
        let cmds = self.sink.drain();
        let apply = start.elapsed();
        let apply_allocs = (self.thread_allocs)() - allocs_before;
        let ack = cmds.into_iter().find_map(|c| match c {
            Cmd::Send {
                msg: msg @ Msg::PushAck { .. },
                ..
            } => Some(msg),
            _ => None,
        });
        let Some(ack) = ack else {
            return Err("daemon probe: the peer did not acknowledge the push".into());
        };
        self.a.on_msg(SimTime::ZERO, SITE_B, ack, &mut self.sink);
        self.sink.drain();
        if self.b.version_of(self.lock) != self.version {
            return Err("daemon probe: the peer did not reach the pushed version".into());
        }
        Ok(PushCost {
            times: [disseminate, apply],
            allocs: [disseminate_allocs, apply_allocs],
            was_delta,
        })
    }
}

/// What one [`DaemonPair::push`] cost, releaser's part first, then the
/// target's.
struct PushCost {
    times: [Duration; 2],
    allocs: [u64; 2],
    was_delta: bool,
}

fn daemon(b: &mut Bench<'_>, costs: &mut UnitCosts) -> Result<(), String> {
    let mut rng = Rng::new(0x6461_656d);
    let initial = bytes_payload(&mut rng, KIB64);

    // Full pushes: a pool of unrelated payloads, so every diff misses.
    let pool: Vec<ReplicaPayload> = (0..8).map(|_| bytes_payload(&mut rng, KIB64)).collect();
    let thread_allocs = b.allocs.thread_total;
    let mut pair = DaemonPair::new(&initial, thread_allocs);
    let mut next = 0usize;
    let mut error = None;
    let mut wrong_kind = 0u64;
    let mut full_step = |pair: &mut DaemonPair| {
        next += 1;
        match pair.push(pool[next % pool.len()].clone()) {
            Ok(cost) => {
                wrong_kind += u64::from(cost.was_delta);
                (cost.times, cost.allocs)
            }
            Err(e) => {
                error = Some(e);
                ([Duration::ZERO; 2], [0; 2])
            }
        }
    };
    let [d, a] = b.time_parts(
        ["daemon.disseminate_64k_ns", "daemon.apply_push_64k_ns"],
        || full_step(&mut pair).0,
    );
    costs.daemon_disseminate_64k_ns = d;
    costs.daemon_apply_push_64k_ns = a;
    b.alloc_parts(
        [
            "daemon.disseminate_64k_allocs",
            "daemon.apply_push_64k_allocs",
        ],
        || full_step(&mut pair).1,
    );
    if let Some(e) = error {
        return Err(e);
    }
    if wrong_kind > 0 {
        return Err(format!(
            "daemon probe: {wrong_kind} full pushes went as edit scripts"
        ));
    }

    // Delta pushes: each payload is a small edit of the last.
    let mut pair = DaemonPair::new(&initial, thread_allocs);
    let mut current = initial;
    let mut error = None;
    let mut fulls = 0u64;
    let mut first = true;
    let mut delta_step = |pair: &mut DaemonPair| {
        current = edited(&mut rng, &current);
        match pair.push(current.clone()) {
            Ok(cost) => {
                // The first release has no shadow to diff against.
                fulls += u64::from(!cost.was_delta && !first);
                first = false;
                (cost.times, cost.allocs)
            }
            Err(e) => {
                error = Some(e);
                ([Duration::ZERO; 2], [0; 2])
            }
        }
    };
    delta_step(&mut pair);
    let [d, a] = b.time_parts(
        ["daemon.disseminate_delta_ns", "daemon.apply_delta_ns"],
        || delta_step(&mut pair).0,
    );
    costs.daemon_disseminate_delta_ns = d;
    costs.daemon_apply_delta_ns = a;
    b.alloc_parts(
        [
            "daemon.disseminate_delta_allocs",
            "daemon.apply_delta_allocs",
        ],
        || delta_step(&mut pair).1,
    );
    if let Some(e) = error {
        return Err(e);
    }
    if fulls > 0 {
        return Err(format!(
            "daemon probe: {fulls} small edits went as full pushes"
        ));
    }
    Ok(())
}

fn directory(b: &mut Bench<'_>) {
    let sites: Vec<SiteId> = (0..32).map(site_id).collect();
    let mut dir = Directory::new(&sites, bench_config().home.virtual_shards);
    let mut lock = 0u32;
    b.time("directory.home_of_ns", || {
        lock = lock.wrapping_add(1);
        black_box(dir.home_of(LockId(lock)));
    });
    // Sixty-four pinned locks whose epochs keep rising, as gossip about
    // migrated locks would.
    let mut epoch = 0u64;
    b.time("directory.record_ns", || {
        epoch += 1;
        let lock = LockId((epoch % 64) as u32 + 1);
        black_box(dir.record(lock, sites[(epoch % 32) as usize], epoch));
    });
}

fn open_store(dir: &Path, fsync: FsyncPolicy) -> Result<(StoreHandle, SiteStore), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("store probe: create {}: {e}", dir.display()))?;
    let handle = StoreHandle::disk(
        dir.to_path_buf(),
        StoreConfig {
            fsync,
            // Compaction is triggered by hand, outside the timed region.
            snapshot_every: 0,
        },
    );
    let store = handle
        .open()
        .map_err(|e| format!("store probe: open {}: {e}", dir.display()))?;
    Ok((handle, store))
}

fn store(b: &mut Bench<'_>, costs: &mut UnitCosts, scratch: &Path) -> Result<(), String> {
    let mut rng = Rng::new(0x7374_6f72);
    let root = scratch.join(format!("probe-store-{}", std::process::id()));
    let big = vec![ReplicaUpdate::new(
        ReplicaId(1),
        bytes_payload(&mut rng, KIB64),
    )];
    let small = vec![ReplicaUpdate::new(
        ReplicaId(1),
        bytes_payload(&mut rng, 64),
    )];
    let mut failed = None;

    // Appends, with the WAL emptied between batches so the file does not
    // grow with the batch count.
    let mut append_probe = |b: &mut Bench<'_>,
                            name: &'static str,
                            fsync: FsyncPolicy,
                            updates: &[ReplicaUpdate]|
     -> Result<f64, String> {
        let (_handle, mut store) = open_store(&root.join(name), fsync)?;
        let mut version = 0u64;
        let mut since_compact = 0u32;
        let ns = b.time(name, || {
            version += 1;
            if let Err(e) = store.append(LockId(1), Version(version), updates) {
                failed = Some(format!("store probe: append: {e}"));
            }
            since_compact += 1;
            if since_compact == 256 {
                since_compact = 0;
                if let Err(e) = store.compact() {
                    failed = Some(format!("store probe: compact: {e}"));
                }
            }
        });
        Ok(ns)
    };
    costs.store_append_64k_ns =
        append_probe(b, "store.append_64k_nofsync_ns", FsyncPolicy::Never, &big)?;
    // The sandbox's virtual block device: a number about this box, not
    // about disks.
    append_probe(b, "store.append_64k_fsync_ns", FsyncPolicy::Always, &big)?;
    append_probe(b, "store.append_64b_nofsync_ns", FsyncPolicy::Never, &small)?;

    // Compaction of eight 64 KiB locks.
    let (_handle, mut store) = open_store(&root.join("compact"), FsyncPolicy::Never)?;
    for lock in 1..=8 {
        let updates = vec![ReplicaUpdate::new(
            ReplicaId(lock),
            bytes_payload(&mut rng, KIB64),
        )];
        store
            .append(LockId(lock), Version(1), &updates)
            .map_err(|e| format!("store probe: append: {e}"))?;
    }
    costs.store_compact_ns = b.time("store.compact_ns", || {
        if let Err(e) = store.compact() {
            failed = Some(format!("store probe: compact: {e}"));
        }
    });

    // Recovery from that snapshot plus a 32-record WAL.
    for version in 2..=33 {
        store
            .append(LockId(1), Version(version), &big)
            .map_err(|e| format!("store probe: append: {e}"))?;
    }
    drop(store);
    let handle = StoreHandle::disk(
        root.join("compact"),
        StoreConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        },
    );
    let mut recovered_wrong = 0u64;
    b.time("store.recover_ns", || match handle.open() {
        Ok(s) => recovered_wrong += u64::from(s.recovered().announcement().len() != 8),
        Err(e) => failed = Some(format!("store probe: recover: {e}")),
    });
    let _ = std::fs::remove_dir_all(&root);
    if let Some(e) = failed {
        return Err(e);
    }
    if recovered_wrong > 0 {
        return Err(format!(
            "store probe: {recovered_wrong} recoveries lost a lock"
        ));
    }

    // WAL bytes written per user byte changed, for a delta_durable write:
    // the writer and its three push targets each journal the full 64 KiB
    // record for a 64 B edit.
    let entry = WalEntry {
        lock: LockId(1),
        version: Version(1),
        updates: big,
    };
    let frame_len = wal::frame(&entry.encode()).len();
    b.push(
        "store.wal_bytes_per_user_byte",
        "ratio",
        frame_len as f64 * 4.0 / 64.0,
    );
    Ok(())
}

fn reactor(b: &mut Bench<'_>) -> Result<(), String> {
    // A read of a held local replica: request channel, waker datagram,
    // one shard turn, reply channel. No protocol message leaves the site.
    let rt = SocketRuntime::builder()
        .sites(2)
        .shards(1)
        .config(bench_config())
        .build()
        .map_err(|e| format!("reactor probe: build: {e}"))?;
    let handle = rt.handle(0);
    let lock = LockId(1);
    let replica = replica_id("probe");
    let err = |e: mocha::MochaError| format!("reactor probe: {e}");
    handle
        .register(
            lock,
            vec![ReplicaSpec::new(
                "probe",
                ReplicaPayload::Bytes(vec![7; 64]),
            )],
        )
        .map_err(err)?;
    handle.lock(lock).map_err(err)?;
    let mut failed = 0u64;
    b.time("reactor.handle_roundtrip_ns", || {
        failed += u64::from(handle.read(replica).is_err());
    });
    handle.unlock(lock, false).map_err(err)?;
    rt.shutdown();
    if failed > 0 {
        return Err(format!(
            "reactor probe: {failed} reads of a held replica failed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_runs_and_names_are_unique() {
        // Next to the test binary, so inside the build directory.
        let scratch = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("probe-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut tracer = Tracer::with_capacity(4096);
        let mut out = Vec::new();
        let costs = run_all(
            &AllocCounter::disabled(),
            Effort::QUICK,
            &scratch,
            &mut tracer,
            &mut out,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
        let mut names: Vec<&str> = out.iter().map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate probe names");
        assert!(
            out.iter().all(|m| m.value.is_finite() && m.value >= 0.0),
            "{out:?}"
        );
        assert!(costs.encode_data_64k_ns > costs.encode_ctl_ns);
        assert!(costs.net_bulk_64k_ns > costs.net_small_msg_ns);
        assert!(costs.delta_diff_hit_ns > 0.0 && costs.store_append_64k_ns > 0.0);
        assert!(!tracer.spans().is_empty());
    }
}
