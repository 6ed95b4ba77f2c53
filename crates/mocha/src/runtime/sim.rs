//! The deterministic virtual-time runtime.
//!
//! Each participating site becomes one simulator [`Host`]: a [`SiteHost`]
//! owning the site's transport stack, daemon, application runner and site
//! manager — plus, at the home site, the synchronization coordinator. The
//! host's job is purely mechanical: route arriving datagrams and timers
//! into the right state machine, and execute the [`Cmd`]s they emit
//! (sends, charges, timers, local signals).
//!
//! [`SimCluster`] is the harness the tests and benchmarks use: build a
//! cluster, attach scripts, run, inspect records and replica state.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use mocha_net::{Action, Port, SendHandle, TransportEvent, TransportMux};
use mocha_sim::{profiles, CpuProfile, Host, HostCtx, LinkProfile, NodeId, SimTime, World};
use mocha_store::{SiteStore, StoreConfig, StoreHandle};
use mocha_wire::io::{ByteReader, ByteWriter};
use mocha_wire::{LockId, Msg, ReplicaId, ReplicaPayload, SiteId, ThreadId, Version};

use crate::app::{AppRunner, Record, Script};
use crate::cmd::{Cmd, CmdSink, SendTag};
use crate::config::MochaConfig;
use crate::daemon::{DaemonStats, SiteDaemon};
use crate::directory::Directory;
use crate::spawn::{SiteManager, SpawnOutcome, TaskRegistry};
use crate::sync::{CoordinatorStats, SyncCoordinator};
use crate::travelbag::Parameter;

/// Harness-injected datagrams start with this byte (distinct from the
/// transport protocol discriminators).
const HARNESS_PROTO: u8 = 0xFE;
const HARNESS_KICK: u8 = 0;
const HARNESS_SPAWN: u8 = 1;
const HARNESS_PROMOTE: u8 = 2;

/// One site of a simulated Mocha deployment.
pub struct SiteHost {
    site: SiteId,
    config: MochaConfig,
    mux: TransportMux,
    daemon: SiteDaemon,
    coordinator: Option<SyncCoordinator>,
    runner: AppRunner,
    manager: SiteManager,
    sink: CmdSink,
    store: Option<SiteStore>,
    tags: HashMap<SendHandle, SendTag>,
    local_queue: VecDeque<(Port, Msg)>,
    prints: Vec<String>,
    notes: Vec<String>,
}

impl SiteHost {
    /// Creates a site host. The coordinator runs only at `home`.
    pub fn new(
        site: SiteId,
        home: SiteId,
        config: MochaConfig,
        registry: Arc<TaskRegistry>,
    ) -> SiteHost {
        let coordinator = (site == home).then(|| SyncCoordinator::new(home, config));
        let mut daemon = SiteDaemon::new(site, home, config.codec);
        daemon.set_faults(config.faults);
        daemon.set_push_options(config.push);
        let mut mux =
            TransportMux::new(site, config.net).expect("MochaConfig validated before host build");
        // Deterministic first-incarnation epoch: simulated wire bytes
        // become a pure function of (site, config, schedule), which the
        // schedule explorer's state fingerprints and trace replays rely
        // on. Reboots get fresh epochs via [`SiteHost::set_transport_epoch`].
        mux.set_epoch(site.as_raw() + 1);
        SiteHost {
            site,
            config,
            mux,
            daemon,
            coordinator,
            runner: AppRunner::new(site),
            manager: SiteManager::new(site, registry, site == home),
            sink: CmdSink::new(),
            store: None,
            tags: HashMap::new(),
            local_queue: VecDeque::new(),
            prints: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Switches this host into consistent-hash directory mode over
    /// `sites`: the daemon routes per lock, and a coordinator runs here
    /// owning this site's ring share (replacing the fixed-home-only
    /// coordinator, if any).
    pub fn install_directory(&mut self, sites: &[SiteId]) {
        self.daemon
            .install_directory(Directory::new(sites, self.config.home.virtual_shards));
        self.coordinator = Some(SyncCoordinator::with_directory(
            self.site,
            self.config,
            sites,
        ));
    }

    /// The application runner (scripts, records, observations).
    pub fn runner(&self) -> &AppRunner {
        &self.runner
    }

    /// Mutable runner access (adding threads).
    pub fn runner_mut(&mut self) -> &mut AppRunner {
        &mut self.runner
    }

    /// The site daemon (replica store).
    pub fn daemon(&self) -> &SiteDaemon {
        &self.daemon
    }

    /// The coordinator, present only at the home site.
    pub fn coordinator(&self) -> Option<&SyncCoordinator> {
        self.coordinator.as_ref()
    }

    /// The site manager (spawn outcomes, prints).
    pub fn manager(&self) -> &SiteManager {
        &self.manager
    }

    /// Mutable site-manager access (e.g. installing a security policy).
    pub fn manager_mut(&mut self) -> &mut SiteManager {
        &mut self.manager
    }

    /// Overrides the transport incarnation epoch. The simulator calls
    /// this on reboot so each incarnation stamps distinct (but still
    /// deterministic) epochs on the wire.
    pub fn set_transport_epoch(&mut self, epoch: u32) {
        self.mux.set_epoch(epoch);
    }

    /// Attaches a durable store, replaying any recovered state into the
    /// daemon before the site rejoins. Recovery output (the
    /// [`Msg::SiteRecovered`] announcement to the coordinator) queues in
    /// the command sink and flushes on the next pump. A store that fails
    /// to open degrades to a note and a non-durable site — never a panic.
    pub fn attach_store(&mut self, handle: &StoreHandle) {
        match handle.open() {
            Ok(opened) => {
                if let Some(c) = &opened.report().wal_corruption {
                    self.notes
                        .push(format!("store recovery truncated WAL: {c}"));
                }
                if opened.recovered().is_empty() {
                    self.daemon.mark_durable();
                } else {
                    self.daemon.restore(opened.recovered(), &mut self.sink);
                }
                self.store = Some(opened);
            }
            Err(e) => self
                .notes
                .push(format!("durable store unavailable ({e}); running non-durable")),
        }
    }

    /// `mochaPrintln` output that reached this site.
    pub fn prints(&self) -> &[String] {
        &self.prints
    }

    /// Diagnostic notes emitted by components at this site.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Routes a delivered protocol message to the owning component.
    fn route_msg(&mut self, now: SimTime, from: SiteId, port: Port, msg: Msg) {
        match port {
            mocha_net::ports::SYNC => match self.coordinator.as_mut() {
                Some(c) => c.on_msg(now, from, msg, &mut self.sink),
                None => self
                    .notes
                    .push(format!("SYNC message at non-home {}", self.site)),
            },
            mocha_net::ports::DAEMON => self.daemon.on_msg(now, from, msg, &mut self.sink),
            mocha_net::ports::APP => {
                self.runner
                    .on_msg(now, from, msg, &mut self.daemon, &mut self.sink);
            }
            mocha_net::ports::SITE_MANAGER => self.manager.on_msg(now, from, msg, &mut self.sink),
            other => self.notes.push(format!("message on unknown port {other}")),
        }
    }

    fn route_transport_event(&mut self, now: SimTime, event: TransportEvent) {
        match event {
            TransportEvent::Delivered { from, port, bytes } => match Msg::decode(&bytes) {
                Ok(msg) => self.route_msg(now, from, port, msg),
                Err(e) => self
                    .notes
                    .push(format!("undecodable message from {from}: {e}")),
            },
            TransportEvent::MsgAcked { handle, .. } => {
                self.tags.remove(&handle);
            }
            TransportEvent::SendFailed { handle, .. } => {
                if let Some(tag) = self.tags.remove(&handle) {
                    match &tag {
                        SendTag::TransferDirective { .. }
                        | SendTag::Heartbeat { .. }
                        | SendTag::Migrate { .. } => {
                            if let Some(c) = self.coordinator.as_mut() {
                                c.on_send_failed(now, &tag, &mut self.sink);
                            }
                        }
                        SendTag::Push { .. } => {
                            self.daemon.on_send_failed(&tag, &mut self.sink);
                        }
                        SendTag::Acquire { .. } => {
                            self.runner.on_send_failed(now, &tag, &mut self.sink);
                        }
                        SendTag::Spawn { .. } => {
                            self.manager.on_send_failed(&tag, &mut self.sink);
                        }
                        SendTag::None => {}
                    }
                }
            }
            TransportEvent::PeerUnreachable { to } => {
                self.notes.push(format!("peer {to} unreachable"));
            }
        }
    }

    /// Executes everything pending: transport actions, component
    /// commands, loopback deliveries — until quiescent.
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        loop {
            let mut progressed = false;

            for action in self.mux.drain_actions() {
                progressed = true;
                match action {
                    Action::Transmit { to, datagram } => {
                        ctx.send_datagram(NodeId::from_raw(to.as_raw()), datagram);
                    }
                    Action::SetTimer { token, after } => ctx.set_timer(after, token),
                    Action::CancelTimer { token } => {
                        ctx.cancel_timer(token);
                    }
                    Action::Charge(work) => ctx.charge(work),
                    Action::Event(ev) => self.route_transport_event(ctx.now(), ev),
                }
            }

            for cmd in self.sink.drain() {
                progressed = true;
                match cmd {
                    Cmd::Send {
                        to,
                        port,
                        msg,
                        class,
                        tag,
                    } => {
                        if to == self.site {
                            // Loopback: in-process queue, no transport.
                            self.local_queue.push_back((port, msg));
                        } else {
                            let handle = self.mux.send(to, port, &msg.encode(), class);
                            if tag != SendTag::None {
                                self.tags.insert(handle, tag);
                            }
                        }
                    }
                    Cmd::Charge(work) => ctx.charge(work),
                    Cmd::ChargeTime(d) => ctx.charge_time(d),
                    Cmd::SetTimer { token, after } => ctx.set_timer(after, token),
                    Cmd::CancelTimer { token } => {
                        ctx.cancel_timer(token);
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
                                self.notes.push(format!("WAL append failed: {e}"));
                            }
                        }
                    }
                    // All for the lock client (spawn outcomes are already
                    // recorded by the manager).
                    Cmd::Signal(signal) => {
                        self.runner
                            .on_signal(ctx.now(), signal, &mut self.daemon, &mut self.sink);
                    }
                    Cmd::Note(text) => {
                        ctx.note(text.clone());
                        self.notes.push(text);
                    }
                    Cmd::Print(text) => self.prints.push(text),
                }
            }

            while let Some((port, msg)) = self.local_queue.pop_front() {
                progressed = true;
                let site = self.site;
                self.route_msg(ctx.now(), site, port, msg);
            }

            if !progressed {
                break;
            }
        }
    }

    fn handle_harness(&mut self, ctx: &HostCtx<'_>, bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        if r.get_u8().is_err() {
            self.notes.push("truncated harness datagram".into());
            return;
        }
        match r.get_u8() {
            Ok(HARNESS_KICK) => {
                let now = ctx.now();
                self.runner.run(now, &mut self.daemon, &mut self.sink);
            }
            Ok(HARNESS_PROMOTE) => {
                // Become the surrogate coordinator: rebuild state from the
                // predecessor's log, announce to every member daemon, and
                // redirect local components.
                let Ok(n) = r.get_u32() else {
                    self.notes.push("malformed harness promote".into());
                    return;
                };
                let mut log = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let entry = SiteId::decode(&mut r).and_then(|from| {
                        let bytes = r.get_bytes()?;
                        Ok((from, Msg::decode(bytes)?))
                    });
                    let Ok((from, msg)) = entry else {
                        self.notes.push("malformed harness promote log".into());
                        return;
                    };
                    log.push((from, msg));
                }
                let me = self.site;
                let mut coordinator = SyncCoordinator::replay(me, self.config, &log, ctx.now());
                let members = coordinator.all_members();
                coordinator.resume(&mut self.sink);
                self.coordinator = Some(coordinator);
                for member in members {
                    self.sink.send(
                        member,
                        mocha_net::ports::DAEMON,
                        Msg::SyncMoved { new_home: me },
                        mocha_net::MsgClass::Control,
                    );
                }
                // Local components redirect immediately.
                self.daemon.on_msg(
                    ctx.now(),
                    me,
                    Msg::SyncMoved { new_home: me },
                    &mut self.sink,
                );
            }
            Ok(HARNESS_SPAWN) => {
                let decoded = SiteId::decode(&mut r).and_then(|dest| {
                    let class = r.get_string()?;
                    let params = Parameter::decode(r.get_bytes()?)?;
                    Ok((dest, class, params))
                });
                let Ok((dest, class, params)) = decoded else {
                    self.notes.push("malformed harness spawn".into());
                    return;
                };
                self.manager.spawn(dest, &class, &params, &mut self.sink);
            }
            _ => {}
        }
    }
}

impl Host for SiteHost {
    fn on_datagram(&mut self, ctx: &mut HostCtx<'_>, from: NodeId, bytes: Vec<u8>) {
        // Virtual time drives the transport's RTT estimation, keeping the
        // adaptive RTO fully deterministic under the simulator.
        self.mux.set_now(ctx.now().since_start());
        if bytes.first() == Some(&HARNESS_PROTO) {
            self.handle_harness(ctx, &bytes);
        } else {
            self.mux
                .on_datagram(SiteId::from_raw(from.as_raw()), &bytes);
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let now = ctx.now();
        self.mux.set_now(now.since_start());
        let handled = self.mux.on_timer(token)
            || self
                .coordinator
                .as_mut()
                .is_some_and(|c| c.on_timer(now, token, &mut self.sink))
            || self
                .runner
                .on_timer(now, token, &mut self.daemon, &mut self.sink);
        if !handled {
            self.notes.push(format!("unhandled timer {token:#x}"));
        }
        self.pump(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        // Protocol-state digest for the schedule explorer. Deliberately
        // excludes the transport mux (RTO estimators, retransmit queues):
        // pending retransmissions surface as pending events in the world's
        // fingerprint, and folding estimator state in here would make
        // almost every interleaving look distinct, defeating dedup. The
        // resulting fingerprint is a sound-enough heuristic for a bounded
        // checker, not a full bisimulation key.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.site.hash(&mut h);
        match &self.coordinator {
            Some(c) => {
                1u8.hash(&mut h);
                c.hash_state(&mut h);
            }
            None => 0u8.hash(&mut h),
        }
        self.daemon.hash_state(&mut h);
        self.runner.hash_state(&mut h);
        Some(h.finish())
    }
}

impl std::fmt::Debug for SiteHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteHost")
            .field("site", &self.site)
            .field("is_home", &self.coordinator.is_some())
            .finish()
    }
}

/// Builder for [`SimCluster`].
pub struct SimClusterBuilder {
    sites: usize,
    seed: u64,
    link: LinkProfile,
    cpu: CpuProfile,
    per_site_cpu: HashMap<usize, CpuProfile>,
    config: MochaConfig,
    registry: TaskRegistry,
    durable: Option<StoreConfig>,
}

impl SimClusterBuilder {
    /// Number of sites (≥ 1). Site 0 is the home site.
    #[must_use]
    pub fn sites(mut self, n: usize) -> Self {
        self.sites = n;
        self
    }

    /// RNG seed (defaults to 42).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Link profile between every pair of sites.
    #[must_use]
    pub fn link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// CPU profile for every site.
    #[must_use]
    pub fn cpu(mut self, cpu: CpuProfile) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides one site's CPU profile.
    #[must_use]
    pub fn cpu_for(mut self, site: usize, cpu: CpuProfile) -> Self {
        self.per_site_cpu.insert(site, cpu);
        self
    }

    /// Mocha configuration (protocol mode, codec, failure handling).
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

    /// Enables per-site durability: each site journals applied replica
    /// versions to an in-memory durable device (WAL + snapshots) that
    /// survives [`SimCluster::restart_site`], so a rebooted site recovers
    /// its state and announces it instead of starting empty.
    #[must_use]
    pub fn durable(mut self, config: StoreConfig) -> Self {
        self.durable = Some(config);
        self
    }

    /// Builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0` or the configuration is invalid.
    pub fn build(self) -> SimCluster {
        assert!(self.sites >= 1, "a cluster needs at least one site");
        self.config.validate().expect("invalid MochaConfig");
        let mut world = World::new(self.seed);
        world.set_default_link(self.link);
        world.set_default_cpu(self.cpu);
        let registry = Arc::new(self.registry);
        let home = SiteId(0);
        let store_handles: Vec<Option<StoreHandle>> = (0..self.sites)
            .map(|_| self.durable.map(StoreHandle::mem))
            .collect();
        let mut nodes = Vec::with_capacity(self.sites);
        let membership: Vec<SiteId> = (0..self.sites as u32).map(SiteId).collect();
        for i in 0..self.sites {
            let mut host = SiteHost::new(SiteId(i as u32), home, self.config, registry.clone());
            if self.config.home.hash_directory {
                host.install_directory(&membership);
            }
            if let Some(handle) = &store_handles[i] {
                host.attach_store(handle);
            }
            let node = world.add_host(Box::new(host));
            if let Some(cpu) = self.per_site_cpu.get(&i) {
                world.set_cpu_profile(node, *cpu);
            }
            nodes.push(node);
        }
        let incarnations = vec![0; self.sites];
        let mut cluster = SimCluster {
            world,
            nodes,
            home,
            restart_config: self.config,
            registry,
            incarnations,
            store_handles,
        };
        // Let on_start events fire so hosts are initialised.
        cluster.world.run_until(SimTime::ZERO);
        cluster
    }
}

/// A complete simulated Mocha deployment: the harness for tests and
/// benchmarks. See the crate-level example.
pub struct SimCluster {
    world: World,
    nodes: Vec<NodeId>,
    home: SiteId,
    /// Configuration used for rebooted sites (same as the original build).
    restart_config: MochaConfig,
    registry: Arc<TaskRegistry>,
    /// Reboot count per site, for deterministic per-incarnation transport
    /// epochs.
    incarnations: Vec<u32>,
    /// Per-site durable devices (when built with
    /// [`SimClusterBuilder::durable`]); these outlive crashes, so a
    /// restarted site reopens the same device and recovers.
    store_handles: Vec<Option<StoreHandle>>,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("sites", &self.nodes.len())
            .field("now", &self.world.now())
            .finish()
    }
}

impl SimCluster {
    /// Starts building a cluster. Defaults: 2 sites, deterministic LAN,
    /// instant CPUs, basic protocol, seed 42.
    pub fn builder() -> SimClusterBuilder {
        SimClusterBuilder {
            sites: 2,
            seed: 42,
            link: profiles::lan_deterministic(),
            cpu: CpuProfile::instant(),
            per_site_cpu: HashMap::new(),
            config: MochaConfig::default(),
            registry: TaskRegistry::new(),
            durable: None,
        }
    }

    /// The home site id.
    pub fn home(&self) -> SiteId {
        self.home
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to the simulation world (links, crashes, metrics).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Read access to the simulation world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    fn host_mut(&mut self, site: usize) -> &mut SiteHost {
        let node = self.nodes[site];
        self.world.host_mut::<SiteHost>(node)
    }

    /// Adds an application thread running `script` at `site`.
    pub fn add_script(&mut self, site: usize, script: Script) -> ThreadId {
        let id = self.host_mut(site).runner_mut().add_thread(script);
        // Kick the host so the new thread starts executing.
        let node = self.nodes[site];
        self.world
            .inject_datagram(node, node, vec![HARNESS_PROTO, HARNESS_KICK]);
        id
    }

    /// Promotes `new_home` to surrogate coordinator, replaying the state
    /// log extracted from the (possibly crashed) current home site — the
    /// paper's §4 synchronization-thread recovery, with the harness
    /// standing in for stable storage.
    pub fn promote_coordinator(&mut self, old_home: usize, new_home: usize) {
        let log: Vec<(SiteId, Msg)> = {
            let host = self.host_mut(old_home);
            let coordinator = host.coordinator().expect("old home had the coordinator");
            coordinator.log().to_vec()
        };
        let mut w = ByteWriter::new();
        w.put_u8(HARNESS_PROTO);
        w.put_u8(HARNESS_PROMOTE);
        w.put_u32(log.len() as u32);
        for (from, msg) in &log {
            from.encode(&mut w);
            w.put_bytes(&msg.encode());
        }
        let node = self.nodes[new_home];
        self.world.inject_datagram(node, node, w.into_bytes());
    }

    /// Spawns `task_class` at `dest` from `origin`'s site manager.
    pub fn spawn(&mut self, origin: usize, dest: usize, task_class: &str, params: &Parameter) {
        let mut w = ByteWriter::new();
        w.put_u8(HARNESS_PROTO);
        w.put_u8(HARNESS_SPAWN);
        SiteId(dest as u32).encode(&mut w);
        w.put_str(task_class);
        w.put_bytes(&params.encode());
        let node = self.nodes[origin];
        self.world.inject_datagram(node, node, w.into_bytes());
    }

    /// Runs until no events remain. Returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.world.run_until_idle()
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.world.run_for(d);
    }

    /// Partitions two sites symmetrically (both directions down).
    pub fn partition(&mut self, a: usize, b: usize) {
        let (na, nb) = (self.nodes[a], self.nodes[b]);
        self.world.network_mut().set_link_up_between(na, nb, false);
    }

    /// Heals a partition between two sites.
    pub fn heal(&mut self, a: usize, b: usize) {
        let (na, nb) = (self.nodes[a], self.nodes[b]);
        self.world.network_mut().set_link_up_between(na, nb, true);
    }

    /// Crashes a site immediately.
    pub fn crash_site(&mut self, site: usize) {
        let node = self.nodes[site];
        self.world.crash(node);
    }

    /// Reboots a crashed site with a fresh Mocha stack (daemon, runner,
    /// manager). Without durability the site comes back empty and must
    /// re-register its replicas to rejoin; with
    /// [`SimClusterBuilder::durable`] it reopens its surviving device,
    /// replays snapshot + WAL, and announces the recovered versions to
    /// the coordinator. Either way, rejoining lifts any coordinator
    /// blacklist entry from its previous incarnation.
    pub fn restart_site(&mut self, site: usize) {
        let node = self.nodes[site];
        let mut host = SiteHost::new(
            SiteId(site as u32),
            self.home,
            self.restart_config,
            self.registry.clone(),
        );
        if self.restart_config.home.hash_directory {
            let membership: Vec<SiteId> = (0..self.nodes.len() as u32).map(SiteId).collect();
            host.install_directory(&membership);
        }
        // A fresh incarnation must stamp a distinct epoch so peers detect
        // the reboot — but a deterministic one, so explorer replays stay
        // byte-identical.
        self.incarnations[site] += 1;
        host.set_transport_epoch((self.incarnations[site] << 16) | (site as u32 + 1));
        let durable = self.store_handles[site].is_some();
        if let Some(handle) = &self.store_handles[site] {
            host.attach_store(handle);
        }
        self.world.restart(node, Box::new(host));
        if durable {
            // Flush the queued recovery announcement (and any restored
            // daemon state) through the host's first pump.
            self.world
                .inject_datagram(node, node, vec![HARNESS_PROTO, HARNESS_KICK]);
        }
    }

    /// Schedules a reboot of `site` at an absolute time, for harnesses
    /// (like the schedule explorer) that cannot intervene mid-run. The
    /// incarnation epoch is computed eagerly so wire bytes stay a pure
    /// function of the schedule; if the site is not actually crashed when
    /// the closure fires (e.g. the crash was reordered away), the restart
    /// is a no-op.
    pub fn restart_site_at(&mut self, at: SimTime, site: usize) {
        let node = self.nodes[site];
        let home = self.home;
        let config = self.restart_config;
        let registry = self.registry.clone();
        self.incarnations[site] += 1;
        let epoch = (self.incarnations[site] << 16) | (site as u32 + 1);
        let handle = self.store_handles[site].clone();
        let site_count = self.nodes.len() as u32;
        self.world.schedule_at(at, move |world| {
            if !world.is_crashed(node) {
                return;
            }
            let mut host = SiteHost::new(SiteId(site as u32), home, config, registry);
            if config.home.hash_directory {
                let membership: Vec<SiteId> = (0..site_count).map(SiteId).collect();
                host.install_directory(&membership);
            }
            host.set_transport_epoch(epoch);
            let durable = handle.is_some();
            if let Some(handle) = &handle {
                host.attach_store(handle);
            }
            world.restart(node, Box::new(host));
            if durable {
                world.inject_datagram(node, node, vec![HARNESS_PROTO, HARNESS_KICK]);
            }
        });
    }

    /// The durable store handle for a site, when the cluster was built
    /// with [`SimClusterBuilder::durable`]. Tests use this to inject
    /// corruption into the backing device between crash and restart.
    pub fn store_handle(&self, site: usize) -> Option<StoreHandle> {
        self.store_handles.get(site).cloned().flatten()
    }

    /// Schedules a site crash at an absolute time.
    pub fn crash_site_at(&mut self, at: SimTime, site: usize) {
        let node = self.nodes[site];
        self.world.schedule_crash(at, node);
    }

    /// Records of one thread at one site.
    pub fn records(&mut self, site: usize, thread: ThreadId) -> Vec<Record> {
        self.host_mut(site).runner().records(thread).to_vec()
    }

    /// All records at a site.
    pub fn all_records(&mut self, site: usize) -> Vec<(ThreadId, Record)> {
        self.host_mut(site).runner().all_records()
    }

    /// Payloads observed by `Read` ops at a site.
    pub fn observed_payloads(&mut self, site: usize) -> Vec<ReplicaPayload> {
        self.host_mut(site).runner().observed()
    }

    /// Whether all threads at `site` finished.
    pub fn all_done(&mut self, site: usize) -> bool {
        self.host_mut(site).runner().all_done()
    }

    /// Failures reported by threads at `site`.
    pub fn failures(&mut self, site: usize) -> Vec<(ThreadId, String)> {
        self.host_mut(site).runner().failures()
    }

    /// A replica's current value at a site.
    pub fn replica_value(&mut self, site: usize, replica: ReplicaId) -> Option<ReplicaPayload> {
        self.host_mut(site).daemon().read(replica).ok().cloned()
    }

    /// The newest version a site's daemon holds for `lock`.
    pub fn daemon_version(&mut self, site: usize, lock: LockId) -> Version {
        self.host_mut(site).daemon().version_of(lock)
    }

    /// Daemon statistics for a site.
    pub fn daemon_stats(&mut self, site: usize) -> DaemonStats {
        self.host_mut(site).daemon().stats()
    }

    /// Coordinator statistics (home site).
    pub fn coordinator_stats(&mut self) -> CoordinatorStats {
        self.coordinator_stats_at(0)
    }

    /// Coordinator statistics at an arbitrary site (e.g. a promoted
    /// surrogate).
    pub fn coordinator_stats_at(&mut self, site: usize) -> CoordinatorStats {
        self.host_mut(site)
            .coordinator()
            .expect("site hosts a coordinator")
            .stats()
    }

    /// Coordinator statistics at a site, or `None` when it hosts no
    /// coordinator (every non-home site outside hash-directory mode).
    pub fn try_coordinator_stats_at(&mut self, site: usize) -> Option<CoordinatorStats> {
        self.host_mut(site).coordinator().map(SyncCoordinator::stats)
    }

    /// Spawn outcomes observed at a site.
    pub fn spawn_outcomes(&mut self, site: usize) -> Vec<SpawnOutcome> {
        self.host_mut(site).manager().outcomes().to_vec()
    }

    /// Installs a remote-evaluation security policy at a site.
    pub fn set_security_policy(&mut self, site: usize, policy: crate::spawn::SecurityPolicy) {
        self.host_mut(site).manager_mut().set_policy(policy);
    }

    /// Remote prints that reached a site.
    pub fn prints(&mut self, site: usize) -> Vec<String> {
        self.host_mut(site).prints().to_vec()
    }

    /// Diagnostic notes at a site.
    pub fn notes(&mut self, site: usize) -> Vec<String> {
        self.host_mut(site).notes().to_vec()
    }

    /// Snapshots the protocol state of every live site for the invariant
    /// oracle ([`crate::invariants::InvariantOracle`]). Crashed sites are
    /// omitted — their state is unobservable and their invariants moot
    /// until restart.
    pub fn cluster_view(&mut self) -> crate::invariants::ClusterView {
        let mut view = crate::invariants::ClusterView::default();
        // Directory mode hosts a coordinator everywhere by design; the
        // oracle then checks single-home *per lock* instead.
        view.multi_home_ok = self.restart_config.home.hash_directory;
        for i in 0..self.nodes.len() {
            let node = self.nodes[i];
            if self.world.is_crashed(node) {
                continue;
            }
            let host = self.world.host_mut::<SiteHost>(node);
            let site = host.site;
            view.sites.push(crate::invariants::SiteView {
                site,
                versions: host.daemon().versions(),
                holds: host.runner().client().active_holds(),
                hosts_coordinator: host.coordinator().is_some(),
            });
            if let Some(c) = host.coordinator() {
                view.coordinators.push(crate::invariants::CoordinatorView {
                    site,
                    locks: c.lock_views(),
                    locks_broken: c.stats().locks_broken,
                });
            }
        }
        view
    }

    /// Finds the duration between two record labels for a thread,
    /// panicking with context if either is missing. Convenience for
    /// benchmarks.
    pub fn latency_between(
        &mut self,
        site: usize,
        thread: ThreadId,
        from_label: &str,
        to_label: &str,
    ) -> Duration {
        let records = self.records(site, thread);
        let from = records
            .iter()
            .find(|r| r.label == from_label)
            .unwrap_or_else(|| panic!("record {from_label:?} missing: {records:?}"));
        let to = records
            .iter()
            .find(|r| r.label == to_label)
            .unwrap_or_else(|| panic!("record {to_label:?} missing: {records:?}"));
        to.at - from.at
    }
}

// Re-export commonly used protocol message kinds for harness code.
pub use mocha_net::ports;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Script;
    use crate::replica::replica_id;

    const L: LockId = LockId(1);

    #[test]
    fn two_site_write_then_read_transfers_state() {
        let mut cluster = SimCluster::builder().sites(2).build();
        let idx = replica_id("idx");
        cluster.add_script(
            0,
            Script::new()
                .register(L, &["idx"])
                .lock(L)
                .write(idx, ReplicaPayload::I32s(vec![7]))
                .unlock_dirty(L),
        );
        cluster.add_script(
            1,
            Script::new()
                .register(L, &["idx"])
                .sleep(Duration::from_millis(100))
                .lock(L)
                .read(idx)
                .unlock(L),
        );
        cluster.run_until_idle();
        assert!(cluster.all_done(0), "site0: {:?}", cluster.failures(0));
        assert!(cluster.all_done(1), "site1: {:?}", cluster.failures(1));
        assert_eq!(
            cluster.observed_payloads(1),
            vec![ReplicaPayload::I32s(vec![7])]
        );
        assert_eq!(cluster.coordinator_stats().grants, 2);
        assert_eq!(cluster.coordinator_stats().grants_with_transfer, 1);
    }

    #[test]
    fn home_site_loopback_locking_works() {
        let mut cluster = SimCluster::builder().sites(1).build();
        let idx = replica_id("idx");
        cluster.add_script(
            0,
            Script::new()
                .register(L, &["idx"])
                .lock(L)
                .write(idx, ReplicaPayload::I32s(vec![1]))
                .unlock_dirty(L)
                .lock(L)
                .read(idx)
                .unlock(L),
        );
        cluster.run_until_idle();
        assert!(cluster.all_done(0), "{:?}", cluster.failures(0));
        assert_eq!(
            cluster.observed_payloads(0),
            vec![ReplicaPayload::I32s(vec![1])]
        );
    }

    #[test]
    fn alternating_ownership_ping_pongs_data() {
        let mut cluster = SimCluster::builder().sites(2).build();
        let idx = replica_id("counter");
        // Site 0 writes 1; site 1 reads and writes 2; site 0 reads.
        cluster.add_script(
            0,
            Script::new()
                .register(L, &["counter"])
                .lock(L)
                .write(idx, ReplicaPayload::I32s(vec![1]))
                .unlock_dirty(L)
                .sleep(Duration::from_millis(200))
                .lock(L)
                .read(idx)
                .unlock(L),
        );
        cluster.add_script(
            1,
            Script::new()
                .register(L, &["counter"])
                .sleep(Duration::from_millis(100))
                .lock(L)
                .read(idx)
                .write(idx, ReplicaPayload::I32s(vec![2]))
                .unlock_dirty(L),
        );
        cluster.run_until_idle();
        assert!(cluster.all_done(0) && cluster.all_done(1));
        assert_eq!(
            cluster.observed_payloads(1),
            vec![ReplicaPayload::I32s(vec![1])],
            "site 1 sees site 0's write"
        );
        assert_eq!(
            cluster.observed_payloads(0),
            vec![ReplicaPayload::I32s(vec![2])],
            "site 0 sees site 1's write"
        );
    }

    #[test]
    fn lock_latency_is_measurable() {
        let mut cluster = SimCluster::builder()
            .sites(2)
            .cpu(profiles::ultra1())
            .build();
        cluster.add_script(0, Script::new().register(L, &["x"]));
        let th = cluster.add_script(
            1,
            Script::new()
                .register(L, &["x"])
                .sleep(Duration::from_millis(50))
                .lock(L)
                .unlock(L),
        );
        cluster.run_until_idle();
        let latency = cluster.latency_between(1, th, "lock_request:lock1", "lock_acquired:lock1");
        assert!(latency > Duration::ZERO);
        assert!(latency < Duration::from_millis(100), "latency {latency:?}");
    }
}
