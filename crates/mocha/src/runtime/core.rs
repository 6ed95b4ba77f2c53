//! Transport-agnostic site event-loop core shared by the real-concurrency
//! runtimes ([`thread`](crate::runtime::thread) and
//! [`socket`](crate::runtime::socket)).
//!
//! A [`SiteCore`] hosts the same protocol state machines as the simulator
//! (daemon, lock client, coordinator at the home site, site manager) plus
//! the blocking application API's channel adaptor (which caller waits on
//! which ticket, pending spawns). It is generic over a [`Link`] — the one
//! operation the runtimes implement differently: shipping a protocol
//! message toward a remote site. The in-process thread runtime delivers
//! through a channel router and learns of dead peers synchronously; the
//! socket runtime hands messages to MochaNet over real UDP and learns of
//! dead peers asynchronously through retry exhaustion. Everything else — command
//! processing, timers (a wall-clock [`TimerWheel`]), signals, the
//! application request surface — is identical and lives here.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use mocha_net::{ports, MsgClass, Port, TimerWheel};
use mocha_sim::SimTime;
use mocha_store::{SiteStore, StoreHandle};
use mocha_wire::message::LockMode;
use mocha_wire::{LockId, Msg, ReplicaId, ReplicaPayload, RequestId, SiteId, ThreadId};

pub use crate::client::Freshness;
use crate::client::{ClientEventKind, LockClient};
use crate::cmd::{timer_ns, Cmd, CmdSink, SendTag, Signal};
use crate::config::{AvailabilityConfig, MochaConfig};
use crate::daemon::{DaemonStats, SiteDaemon};
use crate::directory::Directory;
use crate::error::MochaError;
use crate::replica::ReplicaSpec;
use crate::runtime::metrics::RuntimeCounters;
use crate::spawn::{SiteManager, TaskRegistry};
use crate::sync::{CoordinatorStats, SyncCoordinator};
use crate::travelbag::{Parameter, TravelBag};

/// How long blocking calls wait before concluding the home site is gone.
pub(crate) const BLOCKING_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking reply-wait gave up after [`BLOCKING_TIMEOUT`]: whoever was
/// supposed to answer (the home site, or the site's own loop) is gone.
/// Surfaces to applications as [`MochaError::HomeUnreachable`] via `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplyTimeout;

impl From<ReplyTimeout> for MochaError {
    fn from(_: ReplyTimeout) -> MochaError {
        MochaError::HomeUnreachable
    }
}

/// The single sanctioned blocking reply wait: every synchronous API call
/// that parks an application thread on a reply channel funnels through
/// here, so the timeout discipline (and the reactor-blocking lint's
/// allowlist) has exactly one site.
pub(crate) fn await_reply<T>(rx: &Receiver<T>) -> Result<T, ReplyTimeout> {
    // Application-thread side only: reactor shards never call this.
    // lint: allow(blocking)
    rx.recv_timeout(BLOCKING_TIMEOUT).map_err(|_| ReplyTimeout)
}

/// How a runtime ships one protocol message toward a remote site.
///
/// Returns `false` when the send is known to have failed *immediately*
/// (the thread runtime's "peer removed from the router"), in which case
/// the core runs the tag's failure handling on the spot. Transports with
/// asynchronous failure detection (MochaNet retry exhaustion) return
/// `true` and report failures later through the runtime's event loop,
/// which calls [`SiteCore::on_send_failed`] itself.
pub(crate) trait Link {
    /// Ships `msg` to `to`; see the trait docs for the return contract.
    fn deliver(&mut self, to: SiteId, port: Port, msg: Msg, class: MsgClass, tag: &SendTag)
        -> bool;
}

/// A pending spawn result — the paper's `ResultHandle` (Figure 1:
/// `rh = mocha.spawn("Myhello", p)`). Obtain one from
/// [`MochaHandle::spawn_async`]; collect with [`wait`](ResultHandle::wait).
#[derive(Debug)]
pub struct ResultHandle {
    rx: Receiver<Result<TravelBag, MochaError>>,
}

impl ResultHandle {
    /// Blocks until the remote task finishes and returns its `Result`
    /// travel bag.
    ///
    /// # Errors
    ///
    /// [`MochaError::SpawnFailed`] if the task errored remotely or its
    /// site is unreachable; [`MochaError::HomeUnreachable`] on timeout.
    pub fn wait(self) -> Result<TravelBag, MochaError> {
        await_reply(&self.rx)?
    }

    /// Returns the result if it is already available, or the handle back
    /// if the task is still running.
    ///
    /// # Errors
    ///
    /// Remote failures surface exactly as for [`wait`](Self::wait).
    pub fn try_wait(self) -> Result<Result<TravelBag, MochaError>, ResultHandle> {
        match self.rx.try_recv() {
            Ok(result) => Ok(result),
            Err(_) => Err(self),
        }
    }
}

/// A protocol message with its routing metadata, as delivered to a site
/// event loop.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) from: SiteId,
    pub(crate) port: Port,
    pub(crate) msg: Msg,
}

/// Requests from application threads to their site's event loop.
pub(crate) enum AppRequest {
    Register {
        lock: LockId,
        specs: Vec<ReplicaSpec>,
        reply: Sender<()>,
    },
    SetAvailability {
        lock: LockId,
        avail: AvailabilityConfig,
        reply: Sender<()>,
    },
    Lock {
        lock: LockId,
        lease_ms: u32,
        mode: LockMode,
        reply: Sender<Result<Freshness, MochaError>>,
    },
    Unlock {
        lock: LockId,
        dirty: bool,
        reply: Sender<Result<(), MochaError>>,
    },
    Read {
        replica: ReplicaId,
        reply: Sender<Result<ReplicaPayload, MochaError>>,
    },
    Write {
        replica: ReplicaId,
        payload: ReplicaPayload,
        reply: Sender<Result<(), MochaError>>,
    },
    Publish {
        replica: ReplicaId,
        reply: Sender<Result<(), MochaError>>,
    },
    Spawn {
        dest: SiteId,
        task_class: String,
        params: Parameter,
        reply: Sender<Result<TravelBag, MochaError>>,
    },
    TakePrints {
        reply: Sender<Vec<String>>,
    },
    /// Become the surrogate coordinator by replaying the given state log.
    Promote {
        log: Vec<(SiteId, Msg)>,
        reply: Sender<()>,
    },
    /// Membership churn notification for the consistent-hash directory
    /// ring (no-op in single-home mode). `joined` distinguishes a new site
    /// from a departed one.
    RingChange { site: SiteId, joined: bool },
    Stop,
}

/// Everything a site event loop can receive.
pub(crate) enum LoopInput {
    /// A protocol message (from the router, or a bulk TCP receiver).
    Env(Envelope),
    /// A blocking-API request from an application thread.
    App(AppRequest),
    /// A bulk out-of-band transfer finished (socket runtime's TCP leg).
    BulkDone {
        /// The send's correlation tag.
        tag: SendTag,
        /// Whether the transfer reached the peer.
        ok: bool,
    },
}

/// Construction-time parameters shared by every site of a runtime.
pub(crate) struct CoreSeed {
    pub(crate) site: SiteId,
    pub(crate) home: SiteId,
    /// Cluster membership, for the consistent-hash directory ring. Only
    /// consulted when `config.home.hash_directory` is set.
    pub(crate) sites: Vec<SiteId>,
    pub(crate) config: MochaConfig,
    pub(crate) registry: Arc<TaskRegistry>,
    pub(crate) epoch: Instant,
    pub(crate) counters: Arc<RuntimeCounters>,
    /// Durable store to open and recover from, if this site opted in.
    pub(crate) store: Option<StoreHandle>,
}

/// The per-site event loop state, generic over the outbound transport.
pub(crate) struct SiteCore<L: Link> {
    pub(crate) site: SiteId,
    pub(crate) config: MochaConfig,
    pub(crate) daemon: SiteDaemon,
    client: LockClient,
    pub(crate) coordinator: Option<SyncCoordinator>,
    pub(crate) manager: SiteManager,
    pub(crate) sink: CmdSink,
    pub(crate) link: L,
    pub(crate) epoch: Instant,
    pub(crate) counters: Arc<RuntimeCounters>,
    // --- application bookkeeping ---
    /// Callers blocked in `lock()`, by the ticket their request carries.
    lock_replies: HashMap<ThreadId, Sender<Result<Freshness, MochaError>>>,
    /// Callers blocked in `unlock()`, by the released hold's ticket.
    unlock_replies: HashMap<ThreadId, Sender<Result<(), MochaError>>>,
    /// Spawns awaiting results.
    pending_spawns: HashMap<RequestId, Sender<Result<TravelBag, MochaError>>>,
    /// Collected `mochaPrintln` output.
    prints: Vec<String>,
    /// Wall-clock timers for every component (and, in the socket
    /// runtime, the transport) — one wheel per site, like the
    /// simulator's single event queue.
    pub(crate) timers: TimerWheel,
    /// Durable site store, if this site opted in: applied and released
    /// versions are appended to its write-ahead log via [`Cmd::Persist`].
    store: Option<SiteStore>,
    /// How many locks the store recovered a post-initial version for at
    /// open — 0 for a fresh store, no store, or an unusable one. Captured
    /// at open so runtime surfaces (`mochad`'s `RECOVERED` line) can
    /// report it without racing the event loop.
    pub(crate) recovered_locks: usize,
    /// Daemon stats at the last mirror point, so only the increments are
    /// fed into the shared runtime counters.
    last_daemon_stats: DaemonStats,
    /// Coordinator stats at the last mirror point (zero when this site
    /// hosts no coordinator).
    last_coord_stats: CoordinatorStats,
    next_ticket: u32,
    /// `MOCHA_TRACE` was set when the site started: print protocol
    /// traffic (the paper's "event logging ... insight into execution at
    /// remote locations").
    trace: bool,
    pub(crate) stop: bool,
}

impl<L: Link> SiteCore<L> {
    pub(crate) fn new(seed: CoreSeed, link: L) -> SiteCore<L> {
        let CoreSeed {
            site,
            home,
            sites,
            config,
            registry,
            epoch,
            counters,
            store,
        } = seed;
        let mut daemon = SiteDaemon::new(site, home, config.codec);
        daemon.set_push_options(config.push);
        daemon.set_faults(config.faults);
        if config.home.hash_directory {
            daemon.install_directory(Directory::new(&sites, config.home.virtual_shards));
        }
        let mut sink = CmdSink::new();
        // Open the durable store (if any) and replay snapshot + WAL into
        // the daemon before the event loop starts; the recovery
        // announcement it queues goes out with the first command drain.
        let store = store.and_then(|handle| match handle.open() {
            Ok(opened) => {
                if opened.recovered().is_empty() {
                    daemon.mark_durable();
                } else {
                    daemon.restore(opened.recovered(), &mut sink);
                }
                Some(opened)
            }
            Err(e) => {
                // A site whose stable storage cannot even open runs
                // non-durable rather than not at all; full transfers keep
                // it correct.
                eprintln!("site {site}: durable store unavailable ({e}); running non-durable");
                None
            }
        });
        let recovered_locks = store
            .as_ref()
            .map_or(0, |s| s.recovered().announcement().len());
        SiteCore {
            site,
            config,
            daemon,
            client: LockClient::new(site),
            recovered_locks,
            // Hash-directory mode: every site hosts a coordinator owning
            // its ring share. Legacy mode: only the fixed home does.
            coordinator: if config.home.hash_directory {
                Some(SyncCoordinator::with_directory(site, config, &sites))
            } else {
                (site == home).then(|| SyncCoordinator::new(home, config))
            },
            manager: SiteManager::new(site, registry, site == home),
            sink,
            link,
            epoch,
            counters,
            store,
            last_daemon_stats: DaemonStats::default(),
            last_coord_stats: CoordinatorStats::default(),
            lock_replies: HashMap::new(),
            unlock_replies: HashMap::new(),
            pending_spawns: HashMap::new(),
            prints: Vec::new(),
            timers: TimerWheel::new(),
            next_ticket: 0,
            trace: std::env::var_os("MOCHA_TRACE").is_some(),
            stop: false,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Earliest pending timer deadline.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.timers.next_deadline()
    }

    /// Fires every due component timer. Tokens in the transport
    /// namespaces (`0x01`/`0x02`) are *returned* instead of dispatched —
    /// the socket runtime routes them into its transport endpoints; the
    /// thread runtime never arms any.
    pub(crate) fn fire_due_timers(&mut self) -> Vec<u64> {
        let mut transport = Vec::new();
        for token in self.timers.pop_due(Instant::now()) {
            self.counters.inc_timers_fired();
            let ns = timer_ns::of(token);
            if ns < timer_ns::COORD {
                transport.push(token);
                continue;
            }
            let now = self.now();
            if self
                .client
                .on_timer(now, token, &self.daemon, &mut self.sink)
            {
                continue;
            }
            if let Some(c) = self.coordinator.as_mut() {
                c.on_timer(now, token, &mut self.sink);
            }
        }
        transport
    }

    pub(crate) fn handle_input(&mut self, input: LoopInput) {
        match input {
            LoopInput::Env(env) => self.route_msg(env.from, env.port, env.msg),
            LoopInput::App(req) => self.handle_app(req),
            LoopInput::BulkDone { tag, ok } => {
                if !ok {
                    self.counters.inc_sends_failed();
                    self.on_send_failed(&tag);
                }
            }
        }
    }

    pub(crate) fn route_msg(&mut self, from: SiteId, port: Port, msg: Msg) {
        let now = self.now();
        if from != self.site {
            self.counters.inc_msgs_delivered();
        }
        if self.trace && (port == ports::SYNC || port == ports::APP) {
            eprintln!("[{:?}] {} <- {}: {:?}", now, self.site, from, msg);
        }
        match port {
            ports::SYNC => {
                if let Some(c) = self.coordinator.as_mut() {
                    c.on_msg(now, from, msg, &mut self.sink);
                }
            }
            ports::DAEMON => self.daemon.on_msg(now, from, msg, &mut self.sink),
            ports::APP => self
                .client
                .on_msg(now, from, msg, &self.daemon, &mut self.sink),
            ports::SITE_MANAGER => self.manager.on_msg(now, from, msg, &mut self.sink),
            _ => {}
        }
    }

    fn handle_app(&mut self, req: AppRequest) {
        match req {
            AppRequest::Register { lock, specs, reply } => {
                self.daemon.register_local(lock, &specs, &mut self.sink);
                let _ = reply.send(());
            }
            AppRequest::SetAvailability { lock, avail, reply } => {
                self.client.set_availability(lock, avail);
                let _ = reply.send(());
            }
            AppRequest::Lock {
                lock,
                lease_ms,
                mode,
                reply,
            } => {
                // Unique per request, so the coordinator can tell requests
                // from different application threads at this site apart.
                let ticket = ThreadId(self.next_ticket);
                self.next_ticket = self.next_ticket.wrapping_add(1);
                self.lock_replies.insert(ticket, reply);
                let now = self.now();
                self.client.acquire(
                    now,
                    ticket,
                    lock,
                    lease_ms,
                    mode,
                    &self.daemon,
                    &mut self.sink,
                );
            }
            AppRequest::Unlock { lock, dirty, reply } => {
                let now = self.now();
                let released =
                    self.client
                        .release(now, lock, dirty, None, &mut self.daemon, &mut self.sink);
                match released {
                    Ok(ticket) => {
                        self.unlock_replies.insert(ticket, reply);
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
            }
            AppRequest::Read { replica, reply } => {
                let result = self
                    .guard_check(replica, false)
                    .and_then(|()| self.daemon.read(replica).cloned());
                let _ = reply.send(result);
            }
            AppRequest::Write {
                replica,
                payload,
                reply,
            } => {
                let result = self
                    .guard_check(replica, true)
                    .and_then(|()| self.daemon.write(replica, payload));
                let _ = reply.send(result);
            }
            AppRequest::Publish { replica, reply } => {
                let result = self.daemon.publish(replica, &mut self.sink);
                let _ = reply.send(result);
            }
            AppRequest::Spawn {
                dest,
                task_class,
                params,
                reply,
            } => {
                let req = self
                    .manager
                    .spawn(dest, &task_class, &params, &mut self.sink);
                self.pending_spawns.insert(req, reply);
            }
            AppRequest::TakePrints { reply } => {
                let _ = reply.send(std::mem::take(&mut self.prints));
            }
            AppRequest::Promote { log, reply } => {
                let me = self.site;
                let mut coordinator = SyncCoordinator::replay(me, self.config, &log, self.now());
                let members = coordinator.all_members();
                coordinator.resume(&mut self.sink);
                self.coordinator = Some(coordinator);
                // The replayed coordinator's stats restart from zero; the
                // mirror baseline must restart with them.
                self.last_coord_stats = CoordinatorStats::default();
                for member in members {
                    if member != me {
                        self.sink.send(
                            member,
                            ports::DAEMON,
                            Msg::SyncMoved { new_home: me },
                            MsgClass::Control,
                        );
                    }
                }
                // Redirect local components too.
                self.daemon.on_msg(
                    self.now(),
                    me,
                    Msg::SyncMoved { new_home: me },
                    &mut self.sink,
                );
                let _ = reply.send(());
            }
            AppRequest::RingChange { site, joined } => {
                let now = self.now();
                if joined {
                    // The daemon pins known locks at their pre-join homes;
                    // the coordinator pins (and gossips) the locks it has
                    // installed state for — the ring re-map only applies to
                    // locks with no live state anywhere.
                    self.daemon.add_ring_site(site);
                    if let Some(c) = self.coordinator.as_mut() {
                        c.add_ring_site(site, &mut self.sink);
                    }
                } else {
                    // A departed site may have been the migrated home of
                    // some locks: dropping it from the ring forces those
                    // locks back to ring placement on a survivor, whose
                    // coordinator rebuilds state from the members' version
                    // re-announcements and a deferred-grant rebuild poll.
                    self.daemon.remove_ring_site(site, &mut self.sink);
                    if let Some(c) = self.coordinator.as_mut() {
                        let orphaned = c.remove_ring_site(site, now, &mut self.sink);
                        if !orphaned.is_empty() {
                            self.sink.note(format!(
                                "{me}: re-homing {n} lock(s) orphaned by {site} leaving",
                                me = self.site,
                                n = orphaned.len()
                            ));
                        }
                    }
                }
            }
            AppRequest::Stop => {
                self.stop = true;
            }
        }
    }

    /// Entry consistency check for the blocking API (handles carry no
    /// thread identity: the site's hold is what counts).
    fn guard_check(&self, replica: ReplicaId, write: bool) -> Result<(), MochaError> {
        self.client
            .check_guard(&self.daemon, replica, write, None)
            .map_err(|lock| MochaError::NotLocked { lock })
    }

    /// Answers the callers whose `lock()` or `unlock()` the lock client
    /// reports complete.
    fn answer_callers(&mut self) {
        while let Some(ev) = self.client.next_event() {
            match ev.kind {
                ClientEventKind::Acquired(freshness) => {
                    if let Some(reply) = self.lock_replies.remove(&ev.ticket) {
                        let _ = reply.send(Ok(freshness));
                    }
                }
                ClientEventKind::Released { revoked } => {
                    if let Some(reply) = self.unlock_replies.remove(&ev.ticket) {
                        let _ = reply.send(if revoked {
                            Err(MochaError::LockBroken { lock: ev.lock })
                        } else {
                            Ok(())
                        });
                    }
                }
                _ => {}
            }
        }
    }

    fn handle_signal(&mut self, signal: Signal) {
        match signal {
            Signal::SpawnDone { req, result, ok } => {
                if let Some(reply) = self.pending_spawns.remove(&req) {
                    let _ = if ok {
                        reply.send(Ok(result))
                    } else {
                        reply.send(Err(MochaError::SpawnFailed {
                            task_class: String::new(),
                            reason: result
                                .get_str("error")
                                .unwrap_or("remote failure")
                                .to_string(),
                        }))
                    };
                }
            }
            signal => {
                let now = self.now();
                self.client
                    .on_signal(now, signal, &self.daemon, &mut self.sink);
            }
        }
    }

    /// Routes a send failure to the owning component — the runtime
    /// equivalent of the paper's "the message times out" detections.
    pub(crate) fn on_send_failed(&mut self, tag: &SendTag) {
        let now = self.now();
        match tag {
            SendTag::TransferDirective { .. }
            | SendTag::Heartbeat { .. }
            | SendTag::Migrate { .. } => {
                if let Some(c) = self.coordinator.as_mut() {
                    c.on_send_failed(now, tag, &mut self.sink);
                }
            }
            SendTag::Push { .. } => {
                self.daemon.on_send_failed(tag, &mut self.sink);
            }
            SendTag::Acquire { .. } => self.client.on_send_failed(now, tag, &mut self.sink),
            SendTag::Spawn { .. } => {
                self.manager.on_send_failed(tag, &mut self.sink);
            }
            SendTag::None => {}
        }
    }

    /// Drains command queues; loops because handling commands can queue
    /// more (loopback messages, signal fan-out).
    pub(crate) fn process_cmds(&mut self) {
        let mut local: VecDeque<(Port, Msg)> = VecDeque::new();
        loop {
            self.answer_callers();
            let cmds = self.sink.drain();
            if cmds.is_empty() && local.is_empty() {
                break;
            }
            for cmd in cmds {
                match cmd {
                    Cmd::Send {
                        to,
                        port,
                        msg,
                        class,
                        tag,
                    } => {
                        if to == self.site {
                            local.push_back((port, msg));
                        } else {
                            self.counters.inc_msgs_sent();
                            let accepted = self.link.deliver(to, port, msg, class, &tag);
                            if !accepted && tag != SendTag::None {
                                // The peer is gone: deliver the failure to
                                // the owning component, as the transport
                                // timeout would in the wide area.
                                self.counters.inc_sends_failed();
                                self.on_send_failed(&tag);
                            }
                        }
                    }
                    Cmd::Persist {
                        lock,
                        version,
                        updates,
                        script,
                    } => {
                        if let Some(store) = self.store.as_mut() {
                            if let Err(e) = store.journal(lock, version, &updates, script.as_ref())
                            {
                                // Durability degrades, the protocol does
                                // not: the site keeps running and recovers
                                // whatever did reach the log.
                                eprintln!(
                                    "site {site}: WAL append failed ({e})",
                                    site = self.site
                                );
                            }
                        }
                    }
                    // Real time passes on its own in these runtimes, and
                    // simulator-only notes have no wall-clock meaning.
                    Cmd::Charge(_) | Cmd::ChargeTime(_) | Cmd::Note(_) => {}
                    Cmd::SetTimer { token, after } => {
                        self.timers.set(token, after, Instant::now());
                    }
                    Cmd::CancelTimer { token } => {
                        self.timers.cancel(token);
                    }
                    Cmd::Signal(signal) => self.handle_signal(signal),
                    Cmd::Print(text) => self.prints.push(text),
                }
            }
            if let Some((port, msg)) = local.pop_front() {
                let site = self.site;
                self.route_msg(site, port, msg);
            }
        }
        self.mirror_daemon_stats();
    }

    /// Feeds the daemon's delta-dissemination counters (as increments
    /// since the last mirror point) and the push-window gauge into the
    /// runtime metrics.
    fn mirror_daemon_stats(&mut self) {
        let s = self.daemon.stats();
        let prev = self.last_daemon_stats;
        self.counters
            .add_delta_pushes(s.delta_pushes_sent - prev.delta_pushes_sent);
        self.counters
            .add_delta_bytes_saved(s.delta_bytes_saved - prev.delta_bytes_saved);
        self.counters
            .add_delta_nacks(s.delta_nacks - prev.delta_nacks);
        self.last_daemon_stats = s;
        self.counters.set_push_window_inflight(
            u64::try_from(self.daemon.inflight_pushes()).unwrap_or(u64::MAX),
        );
        if let Some(c) = self.coordinator.as_ref() {
            let s = c.stats();
            let prev = self.last_coord_stats;
            self.counters.add_migrations(s.migrations - prev.migrations);
            self.counters
                .add_stale_home_redirects(s.stale_home_redirects - prev.stale_home_redirects);
            self.last_coord_stats = s;
        }
    }
}

/// An asynchronous reply in flight — the event-driven analogue of the
/// blocking calls on [`MochaHandle`]. Obtain one from the `*_async`
/// methods; consume it with [`poll`](Pending::poll) (non-blocking, for
/// driver loops multiplexing many sites) or [`wait`](Pending::wait)
/// (blocking, identical to the synchronous API).
#[derive(Debug)]
pub struct Pending<T> {
    rx: Receiver<Result<T, MochaError>>,
}

impl<T> Pending<T> {
    /// Returns the result if the site has replied, `None` while the
    /// request is still in flight. Never blocks; a disconnected site
    /// surfaces as `Some(Err(MochaError::Shutdown))`.
    pub fn poll(&self) -> Option<Result<T, MochaError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(crossbeam::channel::TryRecvError::Empty) => None,
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Some(Err(MochaError::Shutdown))
            }
        }
    }

    /// Blocks for the result, with the same timeout discipline as the
    /// blocking API.
    ///
    /// # Errors
    ///
    /// [`MochaError::HomeUnreachable`] if no reply arrives within the
    /// blocking timeout; otherwise whatever the operation returned.
    pub fn wait(self) -> Result<T, MochaError> {
        await_reply(&self.rx)?
    }
}

/// A handle application threads use to talk to their site. Cloneable and
/// shareable across threads; works identically against the thread and
/// socket runtimes.
#[derive(Clone)]
pub struct MochaHandle {
    site: SiteId,
    /// Inputs are tagged with the site so many sites can share one
    /// receiving loop (the socket runtime's shards); single-site loops
    /// simply ignore the tag.
    tx: Sender<(SiteId, LoopInput)>,
    /// Present in the socket runtime: interrupts the site loop blocked in
    /// a UDP receive after a request is queued. Shared through an `Arc`
    /// because duplicating a waker duplicates an OS socket handle, which
    /// can fail — cloning a handle must not.
    waker: Option<std::sync::Arc<mocha_net::Waker>>,
}

impl std::fmt::Debug for MochaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MochaHandle({})", self.site)
    }
}

impl MochaHandle {
    pub(crate) fn new(
        site: SiteId,
        tx: Sender<(SiteId, LoopInput)>,
        waker: Option<std::sync::Arc<mocha_net::Waker>>,
    ) -> MochaHandle {
        MochaHandle { site, tx, waker }
    }

    /// This handle's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    pub(crate) fn push(&self, input: LoopInput) -> Result<(), MochaError> {
        self.tx
            .send((self.site, input))
            .map_err(|_| MochaError::Shutdown)?;
        if let Some(w) = &self.waker {
            w.wake();
        }
        Ok(())
    }

    fn call<T>(&self, build: impl FnOnce(Sender<T>) -> AppRequest) -> Result<T, MochaError> {
        let (tx, rx) = unbounded();
        self.push(LoopInput::App(build(tx)))?;
        Ok(await_reply(&rx)?)
    }

    fn call_async<T>(
        &self,
        build: impl FnOnce(Sender<Result<T, MochaError>>) -> AppRequest,
    ) -> Result<Pending<T>, MochaError> {
        let (tx, rx) = unbounded();
        self.push(LoopInput::App(build(tx)))?;
        Ok(Pending { rx })
    }

    /// Registers shared replicas guarded by `lock` at this site.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn register(&self, lock: LockId, specs: Vec<ReplicaSpec>) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::Register { lock, specs, reply })
    }

    /// Sets the availability configuration (UR) for `lock`.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn set_availability(
        &self,
        lock: LockId,
        avail: AvailabilityConfig,
    ) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::SetAvailability { lock, avail, reply })
    }

    /// Acquires `lock`, blocking until granted and locally consistent —
    /// the paper's `rlock1.lock()`.
    ///
    /// # Errors
    ///
    /// [`MochaError::HomeUnreachable`] if the coordinator cannot be
    /// reached (or the request starves past the blocking timeout).
    pub fn lock(&self, lock: LockId) -> Result<(), MochaError> {
        self.lock_reporting(lock).map(|_| ())
    }

    /// Acquires `lock` exclusively, reporting whether the replica state is
    /// [`Freshness::Current`] or the freshest *surviving* version after a
    /// failure ([`Freshness::Stale`] — the paper's weakened consistency).
    ///
    /// # Errors
    ///
    /// See [`lock`](Self::lock).
    pub fn lock_reporting(&self, lock: LockId) -> Result<Freshness, MochaError> {
        self.call(|reply| AppRequest::Lock {
            lock,
            lease_ms: 0,
            mode: LockMode::Exclusive,
            reply,
        })?
    }

    /// Acquires `lock` in shared (read-only) mode: concurrent shared
    /// holders at different sites may read the replicas simultaneously.
    ///
    /// # Errors
    ///
    /// See [`lock`](Self::lock).
    pub fn lock_shared(&self, lock: LockId) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::Lock {
            lock,
            lease_ms: 0,
            mode: LockMode::Shared,
            reply,
        })?
        .map(|_| ())
    }

    /// Acquires `lock` declaring an expected hold time (the §4 lease
    /// hint).
    ///
    /// # Errors
    ///
    /// See [`lock`](Self::lock).
    pub fn lock_with_lease(&self, lock: LockId, lease: Duration) -> Result<(), MochaError> {
        let lease_ms = u32::try_from(lease.as_millis()).unwrap_or(u32::MAX);
        self.call(|reply| AppRequest::Lock {
            lock,
            lease_ms,
            mode: LockMode::Exclusive,
            reply,
        })?
        .map(|_| ())
    }

    /// Releases `lock` — the paper's `rlock1.unlock()`. Set `dirty` when
    /// replicas were modified so the version advances and dissemination
    /// runs.
    ///
    /// # Errors
    ///
    /// [`MochaError::NotLocked`] if not held here;
    /// [`MochaError::LockBroken`] if the coordinator revoked it while
    /// held.
    pub fn unlock(&self, lock: LockId, dirty: bool) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::Unlock { lock, dirty, reply })?
    }

    /// Starts acquiring `lock` exclusively without blocking, returning a
    /// [`Pending`] to poll or wait on. A driver thread can keep hundreds
    /// of sites' requests in flight at once this way — the swarm bench's
    /// hot path.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn lock_async(&self, lock: LockId) -> Result<Pending<Freshness>, MochaError> {
        self.call_async(|reply| AppRequest::Lock {
            lock,
            lease_ms: 0,
            mode: LockMode::Exclusive,
            reply,
        })
    }

    /// Starts releasing `lock` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped; release
    /// failures surface through the [`Pending`].
    pub fn unlock_async(&self, lock: LockId, dirty: bool) -> Result<Pending<()>, MochaError> {
        self.call_async(|reply| AppRequest::Unlock { lock, dirty, reply })
    }

    /// Starts a replica read without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn read_async(&self, replica: ReplicaId) -> Result<Pending<ReplicaPayload>, MochaError> {
        self.call_async(|reply| AppRequest::Read { replica, reply })
    }

    /// Starts a replica write without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn write_async(
        &self,
        replica: ReplicaId,
        payload: ReplicaPayload,
    ) -> Result<Pending<()>, MochaError> {
        self.call_async(|reply| AppRequest::Write {
            replica,
            payload,
            reply,
        })
    }

    /// Reads a replica's current local value (requires holding its lock
    /// if guarded).
    ///
    /// # Errors
    ///
    /// [`MochaError::NotLocked`] / [`MochaError::UnknownReplica`].
    pub fn read(&self, replica: ReplicaId) -> Result<ReplicaPayload, MochaError> {
        self.call(|reply| AppRequest::Read { replica, reply })?
    }

    /// Writes a replica's local value (requires holding its lock if
    /// guarded).
    ///
    /// # Errors
    ///
    /// [`MochaError::NotLocked`] / [`MochaError::UnknownReplica`].
    pub fn write(&self, replica: ReplicaId, payload: ReplicaPayload) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::Write {
            replica,
            payload,
            reply,
        })?
    }

    /// Publishes an unsynchronized cached replica's local value to all
    /// members — the paper's §7 non-synchronization-based consistency
    /// exploration. No lock is involved; concurrent publications converge
    /// last-writer-wins.
    ///
    /// # Errors
    ///
    /// [`MochaError::UnknownReplica`] if not registered here.
    pub fn publish(&self, replica: ReplicaId) -> Result<(), MochaError> {
        self.call(|reply| AppRequest::Publish { replica, reply })?
    }

    /// Spawns a task at `dest` and blocks for its result travel bag — the
    /// paper's `mocha.spawn("Myhello", p)` followed by collecting the
    /// `ResultHandle`.
    ///
    /// # Errors
    ///
    /// [`MochaError::SpawnFailed`] if the task errored remotely;
    /// [`MochaError::HomeUnreachable`] on timeout.
    pub fn spawn(
        &self,
        dest: SiteId,
        task_class: &str,
        params: &Parameter,
    ) -> Result<TravelBag, MochaError> {
        self.spawn_async(dest, task_class, params)?.wait()
    }

    /// Spawns a task without blocking, returning the paper's
    /// `ResultHandle` to collect later.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn spawn_async(
        &self,
        dest: SiteId,
        task_class: &str,
        params: &Parameter,
    ) -> Result<ResultHandle, MochaError> {
        let (tx, rx) = unbounded();
        self.push(LoopInput::App(AppRequest::Spawn {
            dest,
            task_class: task_class.to_string(),
            params: params.clone(),
            reply: tx,
        }))?;
        Ok(ResultHandle { rx })
    }

    /// Takes the `mochaPrintln` output collected at this site.
    ///
    /// # Errors
    ///
    /// Returns [`MochaError::Shutdown`] if the site has stopped.
    pub fn take_prints(&self) -> Result<Vec<String>, MochaError> {
        self.call(|reply| AppRequest::TakePrints { reply })
    }
}
