//! The real-network runtime: Mocha over OS sockets, event-driven.
//!
//! This driver animates the **same, unmodified** protocol state machines
//! as the simulator and the thread runtime, but the physical layer is
//! real: MochaNet datagrams travel over [`std::net::UdpSocket`]s (the
//! paper's prototype 1, "all communication is performed using Mocha's
//! network object library"), and in hybrid mode bulk replica data rides a
//! real [`std::net::TcpStream`] (prototype 2).
//!
//! ## Anatomy of the runtime
//!
//! Sites are multiplexed over a small fixed pool of **shard** threads
//! instead of one blocking thread per site, so a single process can host
//! a thousand-site loopback swarm on a handful of OS threads:
//!
//! ```text
//!  app threads ──(site, AppRequest)──▶ ┌──────────────────────────────┐
//!  TCP receivers ──(site, Envelope)──▶ │ shard loop                   │
//!  bulk senders ──(site, BulkDone)──▶  │  one UDP socket, N SiteCores │──▶ send_as(from,…)
//!   + Waker (UDP self-wake)            │  deadline index over the     │◀── recv (demux on
//!  runtime ctl ──Boot/Halt──▶          │  sites' TimerWheels          │     envelope `to`)
//!                                      └──────────────────────────────┘
//! ```
//!
//! Each shard owns **one** UDP socket serving every site assigned to it
//! (`site % shard_count`); the wire envelope carries both the source and
//! destination site, and the shard demultiplexes inbound datagrams on the
//! destination. A per-shard deadline index (a [`BTreeSet`] over the
//! sites' [`TimerWheel`](mocha_net::TimerWheel)s) replaces per-site
//! `set_read_timeout` polling: the shard blocks in one
//! [`UdpDriver::recv`] until the earliest deadline across all its sites,
//! and a [`Waker`](mocha_net::Waker) datagram interrupts it when
//! application threads or TCP helper threads enqueue work. Sites can be
//! added and removed at runtime ([`SocketRuntime::add_site`] /
//! [`SocketRuntime::remove_site`]) without touching the thread pool —
//! join/leave churn is a control message, not a thread spawn.
//!
//! Transient OS receive errors are absorbed with a bounded exponential
//! backoff (counted in
//! [`RuntimeMetrics::socket_errors`](crate::runtime::metrics::RuntimeMetrics::socket_errors)),
//! never a fixed sleep.
//!
//! Failure detection is exactly the paper's: persistent datagram loss
//! exhausts MochaNet's retries, surfacing as `SendFailed` /
//! `PeerUnreachable` transport events that the core routes to the owning
//! component — the same code path the thread runtime reaches through its
//! synchronous router and the simulator through simulated loss.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use mocha_net::mochanet::{MochaNetEndpoint, TransportStats};
use mocha_net::{
    Action, AddressBook, Backoff, MsgClass, Port, ProtocolMode, SendHandle, TransportEvent,
    UdpDriver, Waker,
};
use mocha_store::{StoreConfig, StoreHandle};
use mocha_wire::{Msg, SiteId};

use crate::cmd::SendTag;
use crate::config::MochaConfig;
use crate::hostfile::HostFile;
use crate::runtime::core::{AppRequest, CoreSeed, Envelope, Link, LoopInput, SiteCore};
use crate::runtime::metrics::{RuntimeCounters, RuntimeMetrics};
use crate::spawn::TaskRegistry;

pub use crate::runtime::core::{Freshness, MochaHandle, Pending, ResultHandle};

/// How long a bulk TCP sender waits to connect / for the receiver's ack
/// before reporting the transfer failed.
const TCP_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// An address book shared across shards and updated on site churn.
type SharedBook = Arc<RwLock<AddressBook>>;

/// Builds an [`AddressBook`] from a [`HostFile`] whose entries carry
/// `name=ip:port` addresses.
///
/// # Errors
///
/// `InvalidInput` if any listed site lacks an address; resolution errors
/// from the OS otherwise.
pub fn address_book(hosts: &HostFile) -> io::Result<AddressBook> {
    let mut book = AddressBook::new();
    for site in hosts.sites() {
        let Some(addr) = hosts.address_of(*site) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("hostfile entry for {site} has no address (need name=ip:port)"),
            ));
        };
        book.insert_resolved(*site, addr)?;
    }
    Ok(book)
}

/// The bulk-transfer TCP leg of the hybrid prototype, owned by a site's
/// [`SocketLink`].
struct TcpLeg {
    /// Where each site's bulk listener lives (its shard's listener).
    book: SharedBook,
    /// Channel back into the *own* shard loop (for `BulkDone`).
    self_tx: Sender<(SiteId, LoopInput)>,
    waker: Waker,
    counters: Arc<RuntimeCounters>,
}

/// Frame format on the bulk TCP connection:
/// `[len: u32 BE][from: u32 BE][to: u32 BE][port: u16 BE][msg bytes]`,
/// answered by a single `1` byte once the receiver has queued the message
/// for its site's loop. The destination travels in the frame because one
/// listener serves every site of a shard.
fn encode_bulk_frame(from: SiteId, to: SiteId, port: Port, msg: &Msg) -> Vec<u8> {
    let body = msg.encode();
    let len = u32::try_from(body.len() + 10).unwrap_or(u32::MAX);
    let mut frame = Vec::with_capacity(4 + 10 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&from.0.to_be_bytes());
    frame.extend_from_slice(&to.0.to_be_bytes());
    frame.extend_from_slice(&port.to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Reads one bulk frame off `stream`; `None` on any I/O or decode error
/// (the sender will see the missing ack and report failure). Returns the
/// destination site alongside the envelope so the shard can route it.
fn read_bulk_frame(stream: &mut TcpStream) -> Option<(SiteId, Envelope)> {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).ok()?;
    let len = u32::from_be_bytes(head) as usize;
    if !(10..=64 * 1024 * 1024).contains(&len) {
        return None;
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    let from = SiteId(u32::from_be_bytes([body[0], body[1], body[2], body[3]]));
    let to = SiteId(u32::from_be_bytes([body[4], body[5], body[6], body[7]]));
    let port = Port::from_be_bytes([body[8], body[9]]);
    let msg = Msg::decode(&body[10..]).ok()?;
    Some((to, Envelope { from, port, msg }))
}

/// The socket runtime's [`Link`]: control messages enter the site's
/// MochaNet endpoint (drained onto UDP by the shard loop); in hybrid mode
/// bulk messages get a dedicated sender thread and a real TCP connection.
struct SocketLink {
    site: SiteId,
    endpoint: MochaNetEndpoint,
    /// Correlates in-flight MochaNet sends with their protocol tags so
    /// `SendFailed` events can be routed to the owning component.
    tags: HashMap<SendHandle, SendTag>,
    next_handle: u64,
    mode: ProtocolMode,
    tcp: Option<TcpLeg>,
    /// Endpoint stats at the last mirror into the shared runtime counters
    /// (the counters are cluster-wide, so only deltas may be added).
    last_stats: TransportStats,
}

impl Link for SocketLink {
    fn deliver(
        &mut self,
        to: SiteId,
        port: Port,
        msg: Msg,
        class: MsgClass,
        tag: &SendTag,
    ) -> bool {
        if self.mode == ProtocolMode::Hybrid && class == MsgClass::Bulk {
            if let Some(leg) = &self.tcp {
                let Some(addr) = leg.book.read().addr_of(to) else {
                    // No bulk address: an immediate, synchronous failure.
                    return false;
                };
                let frame = encode_bulk_frame(self.site, to, port, &msg);
                leg.counters.inc_datagrams_sent(frame.len() as u64);
                let tx = leg.self_tx.clone();
                // A failed duplication only costs wake latency: the shard
                // loop also wakes on its next timer deadline.
                let waker = leg.waker.try_clone().ok();
                let tag = tag.clone();
                let site = self.site;
                std::thread::spawn(move || {
                    let ok = tcp_send_frame(addr, &frame).is_ok();
                    let _ = tx.send((site, LoopInput::BulkDone { tag, ok }));
                    if let Some(w) = waker {
                        w.wake();
                    }
                });
                return true;
            }
        }
        self.next_handle += 1;
        let handle = SendHandle(self.next_handle);
        if *tag != SendTag::None {
            self.tags.insert(handle, tag.clone());
        }
        self.endpoint.send(to, port, &msg.encode(), handle);
        // MochaNet reports failures asynchronously (retry exhaustion).
        true
    }
}

/// Connects, ships one frame, and waits for the receiver's ack byte.
fn tcp_send_frame(addr: SocketAddr, frame: &[u8]) -> io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, TCP_IO_TIMEOUT)?;
    stream.set_nodelay(true).ok();
    stream.write_all(frame)?;
    stream.set_read_timeout(Some(TCP_IO_TIMEOUT))?;
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack)?;
    Ok(())
}

/// Accept loop for a shard's bulk listener: one short-lived thread per
/// incoming transfer reads the frame, queues it for the destination
/// site's shard, wakes the shard, and acks.
fn tcp_accept_loop(
    listener: TcpListener,
    tx: Sender<(SiteId, LoopInput)>,
    waker: Waker,
    stop: Arc<AtomicBool>,
    counters: Arc<RuntimeCounters>,
) {
    for conn in listener.incoming() {
        if stop.load(Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let tx = tx.clone();
        // A failed duplication only costs wake latency (the shard polls on
        // timer deadlines); the frame still gets queued and acked.
        let waker = waker.try_clone().ok();
        let counters = counters.clone();
        std::thread::spawn(move || {
            if let Some((to, env)) = read_bulk_frame(&mut stream) {
                counters.inc_datagrams_delivered();
                if tx.send((to, LoopInput::Env(env))).is_ok() {
                    if let Some(w) = waker {
                        w.wake();
                    }
                    let _ = stream.write_all(&[1]);
                }
            }
        });
    }
}

/// Drains protocol commands and transport actions until the site is
/// quiescent: commands feed the endpoint, the endpoint's actions feed the
/// wire / timers / core, delivered messages feed more commands.
fn pump(core: &mut SiteCore<SocketLink>, driver: &UdpDriver, book: &AddressBook) {
    loop {
        core.process_cmds();
        let actions = core.link.endpoint.drain_actions();
        if actions.is_empty() {
            mirror_transport_stats(core);
            return;
        }
        for action in actions {
            match action {
                Action::Transmit { to, datagram } => {
                    core.counters.inc_datagrams_sent(datagram.len() as u64);
                    match driver.send_as(core.site, book, to, &datagram) {
                        Ok(true) => {}
                        // Dropped on the floor: MochaNet's retransmission
                        // turns persistent drops into SendFailed.
                        Ok(false) | Err(_) => core.counters.inc_datagrams_lost(),
                    }
                }
                Action::SetTimer { token, after } => {
                    core.timers.set(token, after, Instant::now());
                }
                Action::CancelTimer { token } => core.timers.cancel(token),
                Action::Charge(_) => {} // real CPU time passes on its own
                Action::Event(event) => handle_transport_event(core, event),
            }
        }
    }
}

/// Adds the endpoint's stat growth since the last mirror to the shared
/// runtime counters. The counters are one cluster-wide snapshot shared by
/// every site, so each site may only contribute deltas.
fn mirror_transport_stats(core: &mut SiteCore<SocketLink>) {
    let stats = core.link.endpoint.stats();
    let last = core.link.last_stats;
    if stats == last {
        return;
    }
    core.counters
        .add_retransmits(stats.retransmits - last.retransmits);
    core.counters
        .add_fast_retransmits(stats.fast_retransmits - last.fast_retransmits);
    core.counters
        .add_rto_backoffs(stats.rto_backoffs - last.rto_backoffs);
    core.counters.set_cwnd(stats.last_cwnd);
    core.link.last_stats = stats;
}

fn handle_transport_event(core: &mut SiteCore<SocketLink>, event: TransportEvent) {
    match event {
        TransportEvent::Delivered { from, port, bytes } => {
            if let Ok(msg) = Msg::decode(&bytes) {
                core.route_msg(from, port, msg);
            }
        }
        TransportEvent::MsgAcked { handle, .. } => {
            core.link.tags.remove(&handle);
        }
        TransportEvent::SendFailed { handle, .. } => {
            if let Some(tag) = core.link.tags.remove(&handle) {
                core.counters.inc_sends_failed();
                core.on_send_failed(&tag);
            }
        }
        TransportEvent::PeerUnreachable { .. } => {
            // Per-send SendFailed events carry the actionable signal; the
            // endpoint fails future sends fast until the peer talks again.
        }
    }
}

/// Control messages from the runtime to a shard loop.
enum ShardCtl {
    /// Adopt a freshly built site core (runtime churn).
    Boot(Box<SiteCore<SocketLink>>),
    /// Drop every core and exit the loop.
    Halt,
}

/// One reactor thread's state: a UDP socket multiplexing its sites, their
/// cores, and a deadline index over their timer wheels.
struct Shard {
    driver: UdpDriver,
    book: SharedBook,
    counters: Arc<RuntimeCounters>,
    input_rx: Receiver<(SiteId, LoopInput)>,
    ctl_rx: Receiver<ShardCtl>,
    cores: HashMap<SiteId, SiteCore<SocketLink>>,
    /// `(deadline, site)` pairs, ordered: the head is the next site whose
    /// timer wheel needs service.
    deadlines: BTreeSet<(Instant, SiteId)>,
    /// Current index entry per site, for O(log n) reinsertion.
    deadline_of: HashMap<SiteId, Instant>,
    /// Recovery pacing for transient OS receive errors.
    backoff: Backoff,
}

impl Shard {
    /// Pumps one site to quiescence and refreshes its deadline entry.
    fn pump_site(&mut self, site: SiteId) {
        if let Some(core) = self.cores.get_mut(&site) {
            core.link.endpoint.set_now(core.epoch.elapsed());
            let book = self.book.read();
            // Non-blocking UDP sends under a read guard; the book is only
            // written on add/remove_site, never on the send path.
            // lint: allow(send-under-lock)
            pump(core, &self.driver, &book);
        }
        self.update_deadline(site);
    }

    fn update_deadline(&mut self, site: SiteId) {
        if let Some(old) = self.deadline_of.remove(&site) {
            self.deadlines.remove(&(old, site));
        }
        if let Some(next) = self.cores.get(&site).and_then(SiteCore::next_deadline) {
            self.deadlines.insert((next, site));
            self.deadline_of.insert(site, next);
        }
    }

    /// How long the shard may block in `recv`: until the earliest pending
    /// deadline across all its sites.
    fn next_timeout(&self) -> Duration {
        self.deadlines
            .iter()
            .next()
            .map_or(Duration::from_millis(200), |(d, _)| {
                d.saturating_duration_since(Instant::now())
            })
            .max(Duration::from_millis(1))
    }

    /// Services every site whose deadline has passed.
    fn fire_due(&mut self) {
        loop {
            let now = Instant::now();
            let Some(&(deadline, site)) = self.deadlines.iter().next() else {
                return;
            };
            if deadline > now {
                return;
            }
            if let Some(core) = self.cores.get_mut(&site) {
                core.link.endpoint.set_now(core.epoch.elapsed());
                for token in core.fire_due_timers() {
                    // Transport-namespace timers belong to the MochaNet
                    // endpoint (the simulated-TCP namespace is never armed
                    // here).
                    core.link.endpoint.on_timer(token);
                }
                self.pump_site(site);
            } else {
                // Stale entry for a reaped site.
                self.deadlines.remove(&(deadline, site));
                self.deadline_of.remove(&site);
            }
        }
    }

    /// Removes cores whose loops have been stopped (site removal or
    /// shutdown), dropping their reply channels.
    fn reap_stopped(&mut self) {
        let stopped: Vec<SiteId> = self
            .cores
            .iter()
            .filter(|(_, c)| c.stop)
            .map(|(s, _)| *s)
            .collect();
        for site in stopped {
            self.cores.remove(&site);
            if let Some(old) = self.deadline_of.remove(&site) {
                self.deadlines.remove(&(old, site));
            }
        }
    }
}

/// Adopts queued site cores; `true` means the shard was told to halt.
fn drain_ctl(shard: &mut Shard) -> bool {
    while let Ok(ctl) = shard.ctl_rx.try_recv() {
        match ctl {
            ShardCtl::Boot(core) => {
                let site = core.site;
                shard.cores.insert(site, *core);
                shard.pump_site(site);
            }
            ShardCtl::Halt => return true,
        }
    }
    false
}

/// The shard event loop: readiness over one socket, N sites.
fn run_shard(mut shard: Shard) {
    // Prime deadlines and flush boot-time commands for pre-loaded cores.
    let sites: Vec<SiteId> = shard.cores.keys().copied().collect();
    for site in sites {
        shard.pump_site(site);
    }
    let mut touched: HashSet<SiteId> = HashSet::new();
    loop {
        if drain_ctl(&mut shard) {
            return;
        }
        touched.clear();
        while let Ok((site, input)) = shard.input_rx.try_recv() {
            if !shard.cores.contains_key(&site) {
                // The site's Boot may still be queued on the control
                // channel (add_site races the first request); adopt
                // pending cores before concluding the site is gone.
                if drain_ctl(&mut shard) {
                    return;
                }
            }
            if let Some(core) = shard.cores.get_mut(&site) {
                core.handle_input(input);
                touched.insert(site);
            }
        }
        for site in touched.drain() {
            shard.pump_site(site);
        }
        shard.reap_stopped();
        match shard.driver.recv(shard.next_timeout()) {
            Ok(mocha_net::udp::Recv::Datagram(inc)) => {
                shard.backoff.reset();
                let site = inc.to;
                if let Some(core) = shard.cores.get_mut(&site) {
                    core.counters.inc_datagrams_delivered();
                    core.link.endpoint.set_now(core.epoch.elapsed());
                    core.link.endpoint.on_datagram(inc.from, &inc.datagram);
                    shard.pump_site(site);
                }
                // A datagram for an unknown site (removed, or never here)
                // is dropped; the sender's retries exhaust into SendFailed
                // exactly as for a dead peer.
            }
            Ok(mocha_net::udp::Recv::Woken | mocha_net::udp::Recv::TimedOut) => {
                shard.backoff.reset();
            }
            Err(_) => {
                // Transient OS error: pause this shard briefly, doubling
                // up to the cap while the condition persists.
                shard.counters.inc_socket_errors();
                // The one sanctioned reactor sleep: exponential backoff
                // (1ms..100ms) after an OS-level socket error, when there
                // is nothing useful the shard could do anyway.
                // lint: allow(blocking)
                std::thread::sleep(shard.backoff.next_delay());
            }
        }
        shard.fire_due();
        shard.reap_stopped();
    }
}

/// Runtime-side handles for one shard thread.
struct ShardHarness {
    input_tx: Sender<(SiteId, LoopInput)>,
    ctl_tx: Sender<ShardCtl>,
    waker: Arc<Waker>,
    udp_addr: SocketAddr,
    tcp: Option<TcpHarness>,
    join: Option<JoinHandle<()>>,
}

struct TcpHarness {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    join: Option<JoinHandle<()>>,
}

/// Parameters shared by every site of a runtime, kept for churn-time core
/// construction.
struct ClusterShared {
    config: MochaConfig,
    registry: Arc<TaskRegistry>,
    epoch: Instant,
    counters: Arc<RuntimeCounters>,
    home: SiteId,
    book: SharedBook,
    tcp_book: SharedBook,
    /// Per-site durable storage root (`<dir>/site-<id>/`), when enabled.
    durable: Option<(PathBuf, StoreConfig)>,
}

/// Builds one site's core wired to its shard's channels and sockets.
fn make_core(
    shared: &ClusterShared,
    site: SiteId,
    shard: &ShardHarness,
) -> io::Result<SiteCore<SocketLink>> {
    let leg = if shared.config.net.mode == ProtocolMode::Hybrid {
        Some(TcpLeg {
            book: shared.tcp_book.clone(),
            self_tx: shard.input_tx.clone(),
            waker: shard.waker.try_clone()?,
            counters: shared.counters.clone(),
        })
    } else {
        None
    };
    // The default endpoint epoch is a per-process counter, so a restarted
    // OS process would repeat its predecessor's epochs and peers would
    // mistake its fresh streams for duplicates of the old ones. Fold in
    // boot-time entropy so every process incarnation is distinct on the
    // wire (zero means "unset", so it is avoided).
    let mut endpoint = MochaNetEndpoint::new(shared.config.net.mochanet);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    endpoint.set_epoch((nanos ^ std::process::id() ^ (site.0 << 20)).max(1));
    let link = SocketLink {
        site,
        endpoint,
        tags: HashMap::new(),
        next_handle: 0,
        mode: shared.config.net.mode,
        tcp: leg,
        last_stats: TransportStats::default(),
    };
    let store = shared
        .durable
        .as_ref()
        .map(|(dir, cfg)| StoreHandle::disk(dir.join(format!("site-{}", site.0)), *cfg));
    // Membership for the consistent-hash directory ring: the current
    // address book, sorted so every site builds the identical ring.
    let mut sites: Vec<SiteId> = shared.book.read().iter().map(|(s, _)| s).collect();
    sites.sort_unstable();
    Ok(SiteCore::new(
        CoreSeed {
            site,
            home: shared.home,
            sites,
            config: shared.config,
            registry: shared.registry.clone(),
            epoch: shared.epoch,
            counters: shared.counters.clone(),
            store,
        },
        link,
    ))
}

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Default shard count: enough threads to use the machine, never more
/// than 8 or the site count.
fn default_shards(sites: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    cpus.min(8).min(sites).max(1)
}

/// Builder for [`SocketRuntime`] (in-process loopback cluster) and
/// [`SocketSite`] (one site of a multi-process deployment).
pub struct SocketRuntimeBuilder {
    sites: usize,
    config: MochaConfig,
    registry: TaskRegistry,
    shards: Option<usize>,
    inject: Option<(u64, u32)>,
    durable: Option<(PathBuf, StoreConfig)>,
}

impl SocketRuntimeBuilder {
    /// Number of sites for [`build`](Self::build) (site 0 is the home
    /// site). Ignored by [`build_site`](Self::build_site).
    #[must_use]
    pub fn sites(mut self, n: usize) -> Self {
        self.sites = n;
        self
    }

    /// Mocha configuration. `config.net.mode` selects the paper's basic
    /// (MochaNet-only) or hybrid (TCP bulk leg) prototype.
    #[must_use]
    pub fn config(mut self, config: MochaConfig) -> Self {
        self.config = config;
        self
    }

    /// Task registry for spawn support.
    #[must_use]
    pub fn registry(mut self, registry: TaskRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Overrides the shard (reactor thread) count for
    /// [`build`](Self::build). Defaults to
    /// `min(available_parallelism, 8, sites)`; clamped to at least 1 and
    /// at most the site count.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Test hook: makes roughly one in `one_in` UDP receives fail with a
    /// deterministic, seeded transient error, exercising the shard loops'
    /// backoff recovery. `one_in == 0` disables injection.
    #[must_use]
    pub fn inject_socket_errors(mut self, seed: u64, one_in: u32) -> Self {
        self.inject = Some((seed, one_in));
        self
    }

    /// Enables per-site durability: each site journals applied replica
    /// versions under `dir/site-<id>/` (append-only WAL plus compacting
    /// snapshots), and a restarted site — in-process or a whole restarted
    /// `mochad` — replays them and announces its recovered versions
    /// before rejoining. The `mochad --store-dir` flag maps here.
    #[must_use]
    pub fn store_dir(mut self, dir: impl Into<PathBuf>, config: StoreConfig) -> Self {
        self.durable = Some((dir.into(), config));
        self
    }

    /// Boots an in-process cluster: a fixed pool of shard threads, each
    /// owning one UDP socket on an ephemeral loopback port (plus one TCP
    /// bulk listener in hybrid mode), multiplexing the sites assigned to
    /// it — real sockets, one process, a few threads regardless of site
    /// count. The shape tests, examples, and the swarm bench use.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `sites == 0` or the configuration is invalid;
    /// socket bind/configuration failures otherwise.
    pub fn build(self) -> io::Result<SocketRuntime> {
        if self.sites == 0 {
            return Err(invalid_input("at least one site is required".into()));
        }
        self.config
            .validate()
            .map_err(|e| invalid_input(format!("invalid MochaConfig: {e}")))?;
        let hybrid = self.config.net.mode == ProtocolMode::Hybrid;
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback addr");
        let nshards = self
            .shards
            .unwrap_or_else(|| default_shards(self.sites))
            .clamp(1, self.sites);

        // Bind every shard socket first so the shared address books are
        // complete before any loop starts.
        struct ShardSeed {
            driver: UdpDriver,
            udp_addr: SocketAddr,
            listener: Option<TcpListener>,
            tcp_addr: Option<SocketAddr>,
            input_rx: Receiver<(SiteId, LoopInput)>,
            ctl_rx: Receiver<ShardCtl>,
        }
        let mut seeds = Vec::new();
        let mut harnesses = Vec::new();
        for s in 0..nshards {
            let shard_id = SiteId(u32::try_from(s).unwrap_or(u32::MAX));
            let mut driver = UdpDriver::bind(shard_id, loopback)?;
            if let Some((seed, one_in)) = self.inject {
                driver.inject_recv_errors(seed.wrapping_add(s as u64), one_in);
            }
            let udp_addr = driver.local_addr()?;
            let waker = Arc::new(driver.waker()?);
            let listener = if hybrid {
                Some(TcpListener::bind(loopback)?)
            } else {
                None
            };
            let tcp_addr = match &listener {
                Some(l) => Some(l.local_addr()?),
                None => None,
            };
            let (input_tx, input_rx) = unbounded();
            let (ctl_tx, ctl_rx) = unbounded();
            seeds.push(ShardSeed {
                driver,
                udp_addr,
                listener,
                tcp_addr,
                input_rx,
                ctl_rx,
            });
            harnesses.push(ShardHarness {
                input_tx,
                ctl_tx,
                waker,
                udp_addr,
                tcp: None,
                join: None,
            });
        }

        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
        let tcp_book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
        for i in 0..self.sites {
            let site = SiteId(u32::try_from(i).map_err(|_| {
                invalid_input(format!("site count {i} does not fit in a u32"))
            })?);
            let seed = &seeds[i % nshards];
            book.write().insert(site, seed.udp_addr);
            if let Some(addr) = seed.tcp_addr {
                tcp_book.write().insert(site, addr);
            }
        }

        let shared = ClusterShared {
            config: self.config,
            registry: Arc::new(self.registry),
            epoch: Instant::now(),
            counters: Arc::new(RuntimeCounters::default()),
            home: SiteId(0),
            book: book.clone(),
            tcp_book,
            durable: self.durable,
        };

        // Build every core, grouped by shard, then start the loops.
        let mut cores_by_shard: Vec<HashMap<SiteId, SiteCore<SocketLink>>> =
            (0..nshards).map(|_| HashMap::new()).collect();
        let mut handles = Vec::new();
        for i in 0..self.sites {
            let site = SiteId(u32::try_from(i).unwrap_or(u32::MAX));
            let shard_idx = i % nshards;
            let core = make_core(&shared, site, &harnesses[shard_idx])?;
            cores_by_shard[shard_idx].insert(site, core);
            handles.push(MochaHandle::new(
                site,
                harnesses[shard_idx].input_tx.clone(),
                Some(harnesses[shard_idx].waker.clone()),
            ));
        }
        for (s, (seed, cores)) in seeds.into_iter().zip(cores_by_shard).enumerate() {
            let harness = &mut harnesses[s];
            if let Some(listener) = seed.listener {
                let stop = Arc::new(AtomicBool::new(false));
                let addr = listener.local_addr()?;
                let accept_waker = harness.waker.try_clone()?;
                let join = std::thread::Builder::new()
                    .name(format!("mocha-bulk-{s}"))
                    .spawn({
                        let tx = harness.input_tx.clone();
                        let stop = stop.clone();
                        let counters = shared.counters.clone();
                        move || tcp_accept_loop(listener, tx, accept_waker, stop, counters)
                    })?;
                harness.tcp = Some(TcpHarness {
                    stop,
                    addr,
                    join: Some(join),
                });
            }
            let shard = Shard {
                driver: seed.driver,
                book: book.clone(),
                counters: shared.counters.clone(),
                input_rx: seed.input_rx,
                ctl_rx: seed.ctl_rx,
                cores,
                deadlines: BTreeSet::new(),
                deadline_of: HashMap::new(),
                backoff: Backoff::default(),
            };
            harness.join = Some(
                std::thread::Builder::new()
                    .name(format!("mocha-shard-{s}"))
                    .spawn(move || run_shard(shard))?,
            );
        }
        let next_site = u32::try_from(self.sites).unwrap_or(u32::MAX);
        Ok(SocketRuntime {
            shards: harnesses,
            handles,
            shared,
            next_site,
        })
    }

    /// Boots exactly one site of a distributed deployment — the `mochad`
    /// entry point, a single-shard runtime. `book` must map **every**
    /// site (including this one) to its UDP address; this site binds its
    /// own entry. In hybrid mode a TCP listener is bound on the same port
    /// (TCP and UDP port spaces are disjoint), so one hostfile address
    /// serves both legs.
    ///
    /// The home site (coordinator) is `book`'s site 0 by convention; pass
    /// it explicitly as `home`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the configuration is invalid or `site` is
    /// missing from `book`; bind failures otherwise.
    pub fn build_site(
        self,
        site: SiteId,
        home: SiteId,
        book: AddressBook,
    ) -> io::Result<SocketSite> {
        self.config
            .validate()
            .map_err(|e| invalid_input(format!("invalid MochaConfig: {e}")))?;
        let Some(bind) = book.addr_of(site) else {
            return Err(invalid_input(format!("{site} has no address in the book")));
        };
        let mut driver = UdpDriver::bind(site, bind)?;
        if let Some((seed, one_in)) = self.inject {
            driver.inject_recv_errors(seed, one_in);
        }
        let hybrid = self.config.net.mode == ProtocolMode::Hybrid;
        let listener = if hybrid {
            Some(TcpListener::bind(bind)?)
        } else {
            None
        };
        let waker = Arc::new(driver.waker()?);
        let (input_tx, input_rx) = unbounded();
        let (ctl_tx, ctl_rx) = unbounded();
        let shared_book: SharedBook = Arc::new(RwLock::new(book.clone()));
        let shared = ClusterShared {
            config: self.config,
            registry: Arc::new(self.registry),
            epoch: Instant::now(),
            counters: Arc::new(RuntimeCounters::default()),
            home,
            book: shared_book.clone(),
            tcp_book: Arc::new(RwLock::new(book)),
            durable: self.durable,
        };
        let mut harness = ShardHarness {
            input_tx,
            ctl_tx,
            waker,
            udp_addr: driver.local_addr()?,
            tcp: None,
            join: None,
        };
        let core = make_core(&shared, site, &harness)?;
        if let Some(listener) = listener {
            let stop = Arc::new(AtomicBool::new(false));
            let addr = listener.local_addr()?;
            let accept_waker = harness.waker.try_clone()?;
            let join = std::thread::Builder::new()
                .name(format!("mocha-bulk-{}", site.0))
                .spawn({
                    let tx = harness.input_tx.clone();
                    let stop = stop.clone();
                    let counters = shared.counters.clone();
                    move || tcp_accept_loop(listener, tx, accept_waker, stop, counters)
                })?;
            harness.tcp = Some(TcpHarness {
                stop,
                addr,
                join: Some(join),
            });
        }
        let recovered_locks = core.recovered_locks;
        let mut cores = HashMap::new();
        cores.insert(site, core);
        let shard = Shard {
            driver,
            book: shared_book,
            counters: shared.counters.clone(),
            input_rx,
            ctl_rx,
            cores,
            deadlines: BTreeSet::new(),
            deadline_of: HashMap::new(),
            backoff: Backoff::default(),
        };
        harness.join = Some(
            std::thread::Builder::new()
                .name(format!("mocha-sock-{}", site.0))
                .spawn(move || run_shard(shard))?,
        );
        let handle = MochaHandle::new(site, harness.input_tx.clone(), Some(harness.waker.clone()));
        Ok(SocketSite {
            harness,
            handle,
            counters: shared.counters,
            recovered_locks,
        })
    }
}

fn teardown_shard(shard: &mut ShardHarness) {
    let _ = shard.ctl_tx.send(ShardCtl::Halt);
    shard.waker.wake();
    if let Some(tcp) = &mut shard.tcp {
        tcp.stop.store(true, Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&tcp.addr, Duration::from_millis(500));
        if let Some(join) = tcp.join.take() {
            let _ = join.join();
        }
    }
    if let Some(join) = shard.join.take() {
        let _ = join.join();
    }
}

/// An in-process cluster of sites multiplexed over a small pool of shard
/// threads, talking over real loopback sockets.
pub struct SocketRuntime {
    shards: Vec<ShardHarness>,
    handles: Vec<MochaHandle>,
    shared: ClusterShared,
    next_site: u32,
}

impl std::fmt::Debug for SocketRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketRuntime")
            .field("sites", &self.handles.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl SocketRuntime {
    /// Starts building a runtime. Defaults: 2 sites, default config
    /// (basic prototype), automatic shard count.
    pub fn builder() -> SocketRuntimeBuilder {
        SocketRuntimeBuilder {
            sites: 2,
            config: MochaConfig::default(),
            registry: TaskRegistry::new(),
            shards: None,
            inject: None,
            durable: None,
        }
    }

    /// The handle at position `i` (creation order; removal reorders the
    /// tail).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn handle(&self, i: usize) -> MochaHandle {
        self.handles[i].clone()
    }

    /// Number of live sites.
    pub fn site_count(&self) -> usize {
        self.handles.len()
    }

    /// Number of shard (reactor) threads serving those sites.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A snapshot of the cluster-wide transport/timer counters.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.shared.counters.snapshot()
    }

    /// Adds a new site to the cluster at runtime (join churn): the site
    /// gets a fresh id, is assigned to an existing shard, and starts
    /// empty — it must register its replicas to participate. No thread is
    /// spawned.
    ///
    /// # Errors
    ///
    /// Socket/OS resource failures; `Other` if the runtime is shutting
    /// down.
    pub fn add_site(&mut self) -> io::Result<MochaHandle> {
        let site = SiteId(self.next_site);
        self.next_site = self.next_site.wrapping_add(1);
        let idx = site.0 as usize % self.shards.len();
        let shard = &self.shards[idx];
        self.shared.book.write().insert(site, shard.udp_addr);
        if let Some(tcp) = &shard.tcp {
            self.shared.tcp_book.write().insert(site, tcp.addr);
        }
        let core = make_core(&self.shared, site, shard)?;
        shard
            .ctl_tx
            .send(ShardCtl::Boot(Box::new(core)))
            .map_err(|_| io::Error::other("shard loop has stopped"))?;
        shard.waker.wake();
        let handle = MochaHandle::new(site, shard.input_tx.clone(), Some(shard.waker.clone()));
        // Existing sites learn the newcomer's ring shards (directory mode;
        // a no-op for single-home cores). The new core itself was built
        // from the already-updated address book.
        for peer in &self.handles {
            let _ = peer.push(LoopInput::App(AppRequest::RingChange { site, joined: true }));
        }
        self.handles.push(handle.clone());
        Ok(handle)
    }

    /// Removes a site (leave churn): its core is dropped by its shard and
    /// subsequent sends to it fail through retry exhaustion, exactly like
    /// a dead peer. No-op if the site is not present.
    pub fn remove_site(&mut self, site: SiteId) {
        if let Some(pos) = self.handles.iter().position(|h| h.site() == site) {
            let handle = self.handles.swap_remove(pos);
            let _ = handle.push(LoopInput::App(AppRequest::Stop));
            // Survivors drop the departed site's ring shards, forcing any
            // lock whose (migrated) home just died back to ring placement
            // on a live site — without this the directory would keep
            // routing those locks at a dead coordinator forever.
            for peer in &self.handles {
                let _ = peer.push(LoopInput::App(AppRequest::RingChange {
                    site,
                    joined: false,
                }));
            }
        }
    }

    /// Stops every shard loop and joins all helper threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        for shard in &mut self.shards {
            teardown_shard(shard);
        }
    }
}

impl Drop for SocketRuntime {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// One booted site of a multi-process deployment (see the `mochad`
/// binary). Applications talk to it through [`handle`](SocketSite::handle)
/// exactly as with the other runtimes.
pub struct SocketSite {
    harness: ShardHarness,
    handle: MochaHandle,
    counters: Arc<RuntimeCounters>,
    recovered_locks: usize,
}

impl std::fmt::Debug for SocketSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SocketSite({})", self.handle.site())
    }
}

impl SocketSite {
    /// The handle for this site.
    pub fn handle(&self) -> MochaHandle {
        self.handle.clone()
    }

    /// A snapshot of this process's transport/timer counters.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.counters.snapshot()
    }

    /// How many locks the durable store recovered a post-initial version
    /// for when this site booted — 0 when durability is off or the store
    /// was fresh. A restarted `mochad` uses this to report that it came
    /// back from its journal rather than from a peer's full transfer.
    pub fn recovered_locks(&self) -> usize {
        self.recovered_locks
    }

    /// Stops the site loop and joins all helper threads.
    pub fn shutdown(mut self) {
        teardown_shard(&mut self.harness);
    }
}

impl Drop for SocketSite {
    fn drop(&mut self) {
        teardown_shard(&mut self.harness);
    }
}

/// Convenience: did this process manage to bind a loopback UDP socket?
/// Tests call this to skip gracefully in network-less sandboxes.
pub fn loopback_available() -> bool {
    std::net::UdpSocket::bind("127.0.0.1:0").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AvailabilityConfig;
    use crate::replica::{replica_id, ReplicaSpec};
    use mocha_wire::{LockId, ReplicaPayload};

    const L: LockId = LockId(1);

    fn specs(name: &str) -> Vec<ReplicaSpec> {
        vec![ReplicaSpec::new(name, ReplicaPayload::empty())]
    }

    #[test]
    fn bulk_frame_roundtrips_over_loopback_tcp() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let msg = Msg::SyncMoved {
            new_home: SiteId(3),
        };
        let frame = encode_bulk_frame(SiteId(7), SiteId(9), 2, &msg);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let out = read_bulk_frame(&mut stream).unwrap();
            stream.write_all(&[1]).unwrap();
            out
        });
        tcp_send_frame(addr, &frame).unwrap();
        let (to, env) = server.join().unwrap();
        assert_eq!(to, SiteId(9));
        assert_eq!(env.from, SiteId(7));
        assert_eq!(env.port, 2);
        assert_eq!(
            env.msg,
            Msg::SyncMoved {
                new_home: SiteId(3)
            }
        );
    }

    #[test]
    fn builder_rejects_invalid_config_without_panicking() {
        let bad = MochaConfig {
            default_lease: Duration::ZERO,
            ..MochaConfig::default()
        };
        let err = SocketRuntime::builder()
            .sites(2)
            .config(bad)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("invalid MochaConfig"));

        let err = SocketRuntime::builder()
            .config(bad)
            .build_site(SiteId(0), SiteId(0), AddressBook::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn builder_rejects_zero_sites_without_panicking() {
        let err = SocketRuntime::builder().sites(0).build().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn build_site_rejects_missing_book_entry() {
        let err = SocketRuntime::builder()
            .build_site(SiteId(5), SiteId(0), AddressBook::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn loopback_cluster_lock_write_read() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let rt = SocketRuntime::builder().sites(2).build().unwrap();
        let a = rt.handle(0);
        let b = rt.handle(1);
        let idx = replica_id("v");
        a.register(L, specs("v")).unwrap();
        b.register(L, specs("v")).unwrap();

        a.lock(L).unwrap();
        a.write(idx, ReplicaPayload::I64s(vec![100])).unwrap();
        a.unlock(L, true).unwrap();

        // Real UDP carried the grant + daemon-to-daemon transfer here.
        b.lock(L).unwrap();
        assert_eq!(b.read(idx).unwrap(), ReplicaPayload::I64s(vec![100]));
        b.write(idx, ReplicaPayload::I64s(vec![101])).unwrap();
        b.unlock(L, true).unwrap();

        a.lock(L).unwrap();
        assert_eq!(a.read(idx).unwrap(), ReplicaPayload::I64s(vec![101]));
        a.unlock(L, false).unwrap();

        let m = rt.metrics();
        assert!(m.datagrams_sent > 0, "UDP datagrams actually flowed");
        assert!(m.datagrams_delivered > 0);
        assert!(m.msgs_sent > 0);
        assert!(m.bytes_sent > 0);
        rt.shutdown();
    }

    #[test]
    fn many_sites_share_one_shard() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        // 6 sites on exactly one reactor thread: multiplexing, not
        // thread-per-site.
        let rt = SocketRuntime::builder().sites(6).shards(1).build().unwrap();
        assert_eq!(rt.shard_count(), 1);
        let idx = replica_id("m");
        for i in 0..6 {
            rt.handle(i).register(L, specs("m")).unwrap();
        }
        for i in 0..6 {
            let h = rt.handle(i);
            h.lock(L).unwrap();
            let prev = match h.read(idx).unwrap() {
                ReplicaPayload::I32s(v) => v.first().copied().unwrap_or(0),
                _ => 0,
            };
            h.write(idx, ReplicaPayload::I32s(vec![prev + 1])).unwrap();
            h.unlock(L, true).unwrap();
        }
        let h = rt.handle(0);
        h.lock(L).unwrap();
        assert_eq!(h.read(idx).unwrap(), ReplicaPayload::I32s(vec![6]));
        h.unlock(L, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn churn_add_and_remove_sites_at_runtime() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let mut rt = SocketRuntime::builder().sites(2).build().unwrap();
        let idx = replica_id("c");
        rt.handle(0).register(L, specs("c")).unwrap();
        rt.handle(0).lock(L).unwrap();
        rt.handle(0)
            .write(idx, ReplicaPayload::I32s(vec![7]))
            .unwrap();
        rt.handle(0).unlock(L, true).unwrap();

        // A latecomer joins, registers, and reads the current state.
        let joined = rt.add_site().unwrap();
        joined.register(L, specs("c")).unwrap();
        joined.lock(L).unwrap();
        assert_eq!(joined.read(idx).unwrap(), ReplicaPayload::I32s(vec![7]));
        joined.unlock(L, false).unwrap();

        // And leaves again; the cluster keeps working.
        let gone = joined.site();
        rt.remove_site(gone);
        rt.handle(0).lock(L).unwrap();
        rt.handle(0).unlock(L, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn hybrid_mode_moves_bulk_data_over_tcp() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let rt = SocketRuntime::builder()
            .sites(2)
            .config(MochaConfig::hybrid())
            .build()
            .unwrap();
        let a = rt.handle(0);
        let b = rt.handle(1);
        let idx = replica_id("blob");
        a.register(L, specs("blob")).unwrap();
        b.register(L, specs("blob")).unwrap();

        // A payload large enough to be unambiguous bulk data.
        let blob: Vec<i64> = (0..20_000).collect();
        a.lock(L).unwrap();
        a.write(idx, ReplicaPayload::I64s(blob.clone())).unwrap();
        a.unlock(L, true).unwrap();

        b.lock(L).unwrap();
        assert_eq!(b.read(idx).unwrap(), ReplicaPayload::I64s(blob));
        b.unlock(L, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn ur_dissemination_fans_out_over_real_sockets() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let rt = SocketRuntime::builder().sites(3).build().unwrap();
        let idx = replica_id("shared");
        for i in 0..3 {
            rt.handle(i).register(L, specs("shared")).unwrap();
        }
        let writer = rt.handle(1);
        writer
            .set_availability(L, AvailabilityConfig { ur: 3 })
            .unwrap();
        writer.lock(L).unwrap();
        writer
            .write(idx, ReplicaPayload::Utf8("disseminated".into()))
            .unwrap();
        // With UR=3 the release pushes the update to the other replica
        // holders before completing.
        writer.unlock(L, true).unwrap();

        // Readers see the value after a local (shared-mode) acquisition —
        // their daemons already hold the pushed version.
        for i in [0usize, 2] {
            let h = rt.handle(i);
            h.lock(L).unwrap();
            assert_eq!(
                h.read(idx).unwrap(),
                ReplicaPayload::Utf8("disseminated".into())
            );
            h.unlock(L, false).unwrap();
        }
        rt.shutdown();
    }

    #[test]
    fn injected_socket_errors_are_absorbed_by_backoff() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        // Roughly one receive in three fails with a seeded transient
        // error; the workload must still complete and the metric must
        // record the recoveries.
        let rt = SocketRuntime::builder()
            .sites(2)
            .inject_socket_errors(0xC0FF_EE00, 3)
            .build()
            .unwrap();
        let a = rt.handle(0);
        let b = rt.handle(1);
        let idx = replica_id("e");
        a.register(L, specs("e")).unwrap();
        b.register(L, specs("e")).unwrap();
        for round in 0..3i32 {
            a.lock(L).unwrap();
            a.write(idx, ReplicaPayload::I32s(vec![round])).unwrap();
            a.unlock(L, true).unwrap();
            b.lock(L).unwrap();
            assert_eq!(b.read(idx).unwrap(), ReplicaPayload::I32s(vec![round]));
            b.unlock(L, false).unwrap();
        }
        let m = rt.metrics();
        assert!(
            m.socket_errors > 0,
            "injected errors should be counted: {m}"
        );
        rt.shutdown();
    }

    #[test]
    fn async_api_overlaps_requests_from_one_driver_thread() {
        if !loopback_available() {
            eprintln!("skipping: no loopback sockets");
            return;
        }
        let rt = SocketRuntime::builder().sites(3).build().unwrap();
        // Each site guards its own lock so the acquires are independent.
        for i in 0..3 {
            let lock = LockId(u32::try_from(i).unwrap() + 1);
            rt.handle(i)
                .register(lock, vec![ReplicaSpec::new("a", ReplicaPayload::empty())])
                .unwrap();
        }
        // One driver thread keeps all three acquires in flight at once.
        let pendings: Vec<_> = (0..3)
            .map(|i| {
                let lock = LockId(u32::try_from(i).unwrap() + 1);
                (i, lock, rt.handle(i).lock_async(lock).unwrap())
            })
            .collect();
        for (i, lock, p) in pendings {
            p.wait().unwrap();
            rt.handle(i).unlock_async(lock, false).unwrap().wait().unwrap();
        }
        rt.shutdown();
    }

    #[test]
    fn address_book_from_hostfile_requires_addresses() {
        let with: HostFile = "site0=127.0.0.1:7100\nsite1=127.0.0.1:7101\n"
            .parse()
            .unwrap();
        let book = address_book(&with).unwrap();
        assert_eq!(book.len(), 2);
        assert_eq!(
            book.addr_of(SiteId(1)),
            Some("127.0.0.1:7101".parse().unwrap())
        );

        let without: HostFile = "site0\n".parse().unwrap();
        assert!(address_book(&without).is_err());
    }
}
