//! The real-thread runtime: Mocha on OS threads with a blocking API.
//!
//! Each site runs an event-loop thread hosting the same protocol state
//! machines as the simulator (daemon, coordinator at the home site, site
//! manager). Application code calls blocking methods on a
//! [`MochaHandle`] — `lock`, `unlock`, `read`, `write`, `spawn` — exactly
//! the programming model of the paper's Figures 1–3.
//!
//! Transport is an in-process reliable message router (crossbeam
//! channels); timing fidelity and lossy-network behaviour live in the
//! simulator runtime, and real UDP/TCP deployment in the
//! [`socket`](crate::runtime::socket) runtime — all three animate the
//! identical protocol core ([`super::core`]). Failure injection is still
//! supported: [`ThreadRuntime::kill_site`] stops a site's event loop, and
//! sends to it then fail exactly like the paper's timeout detections —
//! triggering lock breaking, recovery polling and push replacement.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use mocha_net::{MsgClass, Port};
use mocha_store::{StoreConfig, StoreHandle};
use mocha_wire::{Msg, SiteId};

use crate::cmd::SendTag;
use crate::config::MochaConfig;
use crate::runtime::core::{
    await_reply, AppRequest, CoreSeed, Envelope, Link, LoopInput, SiteCore,
};
use crate::runtime::metrics::{RuntimeCounters, RuntimeMetrics};
use crate::spawn::TaskRegistry;

pub use crate::runtime::core::{Freshness, MochaHandle, Pending, ResultHandle};

/// Routes envelopes between site event loops. A killed site's entry is
/// removed; sends to it fail, which is the runtime's failure signal.
#[derive(Default)]
struct Router {
    senders: RwLock<HashMap<SiteId, Sender<(SiteId, LoopInput)>>>,
}

impl Router {
    fn send(&self, to: SiteId, env: Envelope) -> Result<(), ()> {
        let senders = self.senders.read();
        match senders.get(&to) {
            // Unbounded crossbeam send: never blocks, and the read guard
            // is only ever held against other readers here.
            // lint: allow(send-under-lock)
            Some(tx) => tx.send((to, LoopInput::Env(env))).map_err(|_| ()),
            None => Err(()),
        }
    }

    fn remove(&self, site: SiteId) {
        self.senders.write().remove(&site);
    }
}

/// The thread runtime's [`Link`]: synchronous channel delivery with
/// immediate failure when the peer is gone.
struct ThreadLink {
    site: SiteId,
    router: Arc<Router>,
    counters: Arc<RuntimeCounters>,
}

impl Link for ThreadLink {
    fn deliver(
        &mut self,
        to: SiteId,
        port: Port,
        msg: Msg,
        _class: MsgClass,
        _tag: &SendTag,
    ) -> bool {
        let env = Envelope {
            from: self.site,
            port,
            msg,
        };
        self.counters.inc_datagrams_sent(0);
        if self.router.send(to, env).is_ok() {
            true
        } else {
            self.counters.inc_datagrams_lost();
            false
        }
    }
}

/// The coordinator's state log (§4: "logging its state") as a site's
/// event loop hands it back when it stops: what a surrogate replays.
type StateLog = Vec<(SiteId, Msg)>;

/// Site event loop: blocks on the input channel up to the next timer
/// deadline. Returns the state log of the coordinator it hosted (empty if
/// none).
fn run_site(mut core: SiteCore<ThreadLink>, rx: Receiver<(SiteId, LoopInput)>) -> StateLog {
    while !core.stop {
        core.process_cmds();
        let timeout = core
            .next_deadline()
            .map_or(Duration::from_millis(200), |d| {
                d.saturating_duration_since(Instant::now())
            });
        // The thread runtime's designed wait: one site per thread, parked
        // until the next input or timer deadline. Not a reactor shard.
        // lint: allow(blocking)
        match rx.recv_timeout(timeout) {
            Ok((_, input)) => {
                note_delivery(&core, &input);
                core.handle_input(input);
                // Drain any further queued inputs without blocking.
                while let Ok((_, more)) = rx.try_recv() {
                    core.process_cmds();
                    note_delivery(&core, &more);
                    core.handle_input(more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Transport-namespace tokens never occur here.
                let _ = core.fire_due_timers();
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    core.coordinator
        .map(|c| c.log().to_vec())
        .unwrap_or_default()
}

fn note_delivery(core: &SiteCore<ThreadLink>, input: &LoopInput) {
    if matches!(input, LoopInput::Env(_)) {
        core.counters.inc_datagrams_delivered();
    }
}

/// Builder for [`ThreadRuntime`].
pub struct ThreadRuntimeBuilder {
    sites: usize,
    config: MochaConfig,
    registry: TaskRegistry,
    durable: Option<StoreConfig>,
}

impl ThreadRuntimeBuilder {
    /// Number of sites (site 0 is the home site).
    #[must_use]
    pub fn sites(mut self, n: usize) -> Self {
        self.sites = n;
        self
    }

    /// Mocha configuration.
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

    /// Gives every site a durable store (in-memory backing, shared across
    /// restarts): applied and released versions are logged, and
    /// [`ThreadRuntime::restart_site`] recovers from snapshot + WAL
    /// instead of rebooting empty.
    #[must_use]
    pub fn durable(mut self, config: StoreConfig) -> Self {
        self.durable = Some(config);
        self
    }

    /// Starts all site event loops.
    ///
    /// # Panics
    ///
    /// Panics if `sites == 0` or the configuration is invalid.
    pub fn build(self) -> ThreadRuntime {
        assert!(self.sites >= 1);
        self.config.validate().expect("invalid MochaConfig");
        let router = Arc::new(Router::default());
        let registry = Arc::new(self.registry);
        let counters = Arc::new(RuntimeCounters::default());
        let epoch = Instant::now();
        let home = SiteId(0);
        let stores: Vec<Option<StoreHandle>> = (0..self.sites)
            .map(|_| self.durable.map(StoreHandle::mem))
            .collect();
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for i in 0..self.sites {
            let site = SiteId(i as u32);
            let (tx, rx) = unbounded();
            router.senders.write().insert(site, tx.clone());
            let core = SiteCore::new(
                CoreSeed {
                    site,
                    home,
                    sites: (0..self.sites as u32).map(SiteId).collect(),
                    config: self.config,
                    registry: registry.clone(),
                    epoch,
                    counters: counters.clone(),
                    store: stores[i].clone(),
                },
                ThreadLink {
                    site,
                    router: router.clone(),
                    counters: counters.clone(),
                },
            );
            let join = std::thread::Builder::new()
                .name(format!("mocha-site-{i}"))
                .spawn(move || run_site(core, rx))
                .expect("spawn site thread");
            handles.push(MochaHandle::new(site, tx, None));
            joins.push(Some(join));
        }
        ThreadRuntime {
            router,
            handles,
            joins,
            killed: Vec::new(),
            config: self.config,
            registry,
            epoch,
            dead_home_log: Vec::new(),
            counters,
            stores,
        }
    }
}

/// A running multi-threaded Mocha deployment.
pub struct ThreadRuntime {
    router: Arc<Router>,
    handles: Vec<MochaHandle>,
    joins: Vec<Option<JoinHandle<StateLog>>>,
    killed: Vec<SiteId>,
    config: MochaConfig,
    registry: Arc<TaskRegistry>,
    epoch: Instant,
    /// The state log the last killed coordinator site left behind — the
    /// harness standing in for the home's stable storage.
    dead_home_log: StateLog,
    counters: Arc<RuntimeCounters>,
    /// Per-site durable stores (all `None` unless the builder opted in).
    /// The backing outlives a site's incarnation — that is the point.
    stores: Vec<Option<StoreHandle>>,
}

impl std::fmt::Debug for ThreadRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRuntime")
            .field("sites", &self.handles.len())
            .field("killed", &self.killed)
            .finish()
    }
}

impl ThreadRuntime {
    /// Starts building a runtime. Defaults: 2 sites, default config.
    pub fn builder() -> ThreadRuntimeBuilder {
        ThreadRuntimeBuilder {
            sites: 2,
            config: MochaConfig::default(),
            registry: TaskRegistry::new(),
            durable: None,
        }
    }

    /// The handle for site `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn handle(&self, i: usize) -> MochaHandle {
        self.handles[i].clone()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.handles.len()
    }

    /// A snapshot of the runtime's transport/timer counters (the
    /// real-execution mirror of [`mocha_sim::Metrics`]).
    pub fn metrics(&self) -> RuntimeMetrics {
        self.counters.snapshot()
    }

    /// Kills a site: its event loop stops and all subsequent sends to it
    /// fail — the wide-area "remote node reboot" failure.
    pub fn kill_site(&mut self, i: usize) {
        let site = self.handles[i].site();
        self.router.remove(site);
        let _ = self.handles[i].push(LoopInput::App(AppRequest::Stop));
        if let Some(join) = self.joins[i].take() {
            match join.join() {
                Ok(log) if !log.is_empty() => self.dead_home_log = log,
                _ => {}
            }
        }
        self.killed.push(site);
    }

    /// Reboots a killed site with a fresh, empty Mocha stack. The new
    /// incarnation must re-register its replicas to rejoin (which also
    /// lifts any coordinator blacklist entry). The returned handle (and
    /// all future `handle(i)` calls) talk to the new incarnation.
    ///
    /// # Panics
    ///
    /// Panics if the site was never killed.
    pub fn restart_site(&mut self, i: usize) -> MochaHandle {
        let site = self.handles[i].site();
        assert!(
            self.killed.contains(&site),
            "restart_site requires a killed site"
        );
        self.killed.retain(|s| *s != site);
        let (tx, rx) = unbounded();
        self.router.senders.write().insert(site, tx.clone());
        let core = SiteCore::new(
            CoreSeed {
                site,
                home: SiteId(0),
                sites: (0..self.handles.len() as u32).map(SiteId).collect(),
                config: self.config,
                registry: self.registry.clone(),
                epoch: self.epoch,
                counters: self.counters.clone(),
                store: self.stores.get(i).cloned().flatten(),
            },
            ThreadLink {
                site,
                router: self.router.clone(),
                counters: self.counters.clone(),
            },
        );
        let join = std::thread::Builder::new()
            .name(format!("mocha-site-{i}-reborn"))
            .spawn(move || run_site(core, rx))
            .expect("spawn site thread");
        self.joins[i] = Some(join);
        self.handles[i] = MochaHandle::new(site, tx, None);
        self.handles[i].clone()
    }

    /// Site `i`'s durable store handle, if the builder opted in — the
    /// hostile-recovery tests use it to corrupt the stable image between
    /// [`kill_site`](Self::kill_site) and
    /// [`restart_site`](Self::restart_site).
    pub fn store_handle(&self, i: usize) -> Option<StoreHandle> {
        self.stores.get(i).cloned().flatten()
    }

    /// Promotes site `i` to surrogate coordinator, replaying the state
    /// log the killed home left behind — the §4 synchronization-thread
    /// recovery for the real-thread runtime. Call after
    /// [`kill_site`](Self::kill_site)(0).
    pub fn promote_coordinator(&mut self, i: usize) {
        let log = self.dead_home_log.clone();
        let (tx, rx) = unbounded();
        let _ = self.handles[i].push(LoopInput::App(AppRequest::Promote { log, reply: tx }));
        let _ = await_reply(&rx);
    }

    /// Stops every site and joins their threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        for i in 0..self.handles.len() {
            let site = self.handles[i].site();
            self.router.remove(site);
            let _ = self.handles[i].push(LoopInput::App(AppRequest::Stop));
        }
        for join in &mut self.joins {
            if let Some(j) = join.take() {
                let _ = j.join();
            }
        }
    }
}

impl Drop for ThreadRuntime {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MochaError;
    use crate::replica::{replica_id, ReplicaSpec};
    use crate::spawn::TaskSpec;
    use crate::travelbag::{Parameter, TravelBag};
    use mocha_wire::{LockId, ReplicaPayload};

    const L: LockId = LockId(1);

    fn specs(name: &str) -> Vec<ReplicaSpec> {
        vec![ReplicaSpec::new(name, ReplicaPayload::empty())]
    }

    #[test]
    fn blocking_lock_write_read_across_sites() {
        let rt = ThreadRuntime::builder().sites(2).build();
        let a = rt.handle(0);
        let b = rt.handle(1);
        let idx = replica_id("idx");
        a.register(L, specs("idx")).unwrap();
        b.register(L, specs("idx")).unwrap();

        a.lock(L).unwrap();
        a.write(idx, ReplicaPayload::I32s(vec![41])).unwrap();
        a.unlock(L, true).unwrap();

        b.lock(L).unwrap();
        assert_eq!(b.read(idx).unwrap(), ReplicaPayload::I32s(vec![41]));
        b.write(idx, ReplicaPayload::I32s(vec![42])).unwrap();
        b.unlock(L, true).unwrap();

        a.lock(L).unwrap();
        assert_eq!(a.read(idx).unwrap(), ReplicaPayload::I32s(vec![42]));
        a.unlock(L, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn guarded_access_requires_lock() {
        let rt = ThreadRuntime::builder().sites(1).build();
        let a = rt.handle(0);
        let idx = replica_id("g");
        a.register(L, specs("g")).unwrap();
        assert!(matches!(
            a.write(idx, ReplicaPayload::empty()),
            Err(MochaError::NotLocked { .. })
        ));
        a.lock(L).unwrap();
        a.write(idx, ReplicaPayload::empty()).unwrap();
        a.unlock(L, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn unlock_without_lock_errors() {
        let rt = ThreadRuntime::builder().sites(1).build();
        let a = rt.handle(0);
        assert!(matches!(
            a.unlock(L, false),
            Err(MochaError::NotLocked { .. })
        ));
        rt.shutdown();
    }

    #[test]
    fn contended_lock_serialises_writers() {
        let rt = ThreadRuntime::builder().sites(3).build();
        let idx = replica_id("ctr");
        for i in 0..3 {
            rt.handle(i).register(L, specs("ctr")).unwrap();
        }
        rt.handle(0).lock(L).unwrap();
        rt.handle(0)
            .write(idx, ReplicaPayload::I32s(vec![0]))
            .unwrap();
        rt.handle(0).unlock(L, true).unwrap();

        let mut workers = Vec::new();
        for i in 0..3 {
            let h = rt.handle(i);
            workers.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    h.lock(L).unwrap();
                    let ReplicaPayload::I32s(v) = h.read(idx).unwrap() else {
                        panic!("wrong type");
                    };
                    h.write(idx, ReplicaPayload::I32s(vec![v[0] + 1])).unwrap();
                    h.unlock(L, true).unwrap();
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        rt.handle(0).lock(L).unwrap();
        assert_eq!(
            rt.handle(0).read(idx).unwrap(),
            ReplicaPayload::I32s(vec![30]),
            "30 increments under mutual exclusion"
        );
        rt.handle(0).unlock(L, false).unwrap();

        // The runtime-level counters observed the traffic: inter-site
        // messages flowed, timers fired or not, nothing was lost.
        let m = rt.metrics();
        assert!(m.msgs_sent > 0, "cross-site protocol traffic counted");
        assert!(m.datagrams_delivered > 0);
        assert_eq!(m.datagrams_lost, 0, "no site died in this scenario");
        assert_eq!(m.sends_failed, 0);
        rt.shutdown();
    }

    #[test]
    fn spawn_round_trip() {
        let mut reg = TaskRegistry::new();
        reg.register_task(
            "AddOne",
            TaskSpec {
                requires: vec![],
                compute: Duration::ZERO,
                body: Arc::new(|p, _| {
                    let x = p.get_i32("x").map_err(|e| e.to_string())?;
                    let mut out = TravelBag::new();
                    out.add("y", x + 1);
                    Ok(out)
                }),
            },
        );
        let rt = ThreadRuntime::builder().sites(2).registry(reg).build();
        let mut params = Parameter::new();
        params.add("x", 4);
        let out = rt.handle(0).spawn(SiteId(1), "AddOne", &params).unwrap();
        assert_eq!(out.get_i32("y").unwrap(), 5);
        rt.shutdown();
    }
}

#[cfg(test)]
mod handle_tests {
    use super::*;
    use crate::hostfile::HostFile;
    use crate::spawn::TaskSpec;
    use crate::travelbag::{Parameter, TravelBag};

    #[test]
    fn async_spawns_overlap_and_collect_via_result_handles() {
        let mut reg = TaskRegistry::new();
        reg.register_task(
            "Slow",
            TaskSpec {
                requires: vec![],
                compute: Duration::ZERO,
                body: Arc::new(|p, _| {
                    std::thread::sleep(Duration::from_millis(30));
                    let x = p.get_i32("x").map_err(|e| e.to_string())?;
                    let mut out = TravelBag::new();
                    out.add("sq", x * x);
                    Ok(out)
                }),
            },
        );
        let rt = ThreadRuntime::builder().sites(4).registry(reg).build();
        let home = rt.handle(0);
        let mut hosts = HostFile::all_remote(4);
        // Fan out via the hostfile's round-robin placement (Figure 1's
        // spawn-without-naming-a-host).
        let handles: Vec<(i32, ResultHandle)> = (1..=6)
            .map(|x| {
                let mut p = Parameter::new();
                p.add("x", x);
                let dest = hosts.next_site();
                (x, home.spawn_async(dest, "Slow", &p).unwrap())
            })
            .collect();
        for (x, rh) in handles {
            let out = rh.wait().unwrap();
            assert_eq!(out.get_i32("sq").unwrap(), x * x);
        }
        rt.shutdown();
    }

    #[test]
    fn try_wait_returns_handle_while_running() {
        let mut reg = TaskRegistry::new();
        reg.register_task(
            "Sleepy",
            TaskSpec {
                requires: vec![],
                compute: Duration::ZERO,
                body: Arc::new(|_, _| {
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(TravelBag::new())
                }),
            },
        );
        let rt = ThreadRuntime::builder().sites(2).registry(reg).build();
        let rh = rt
            .handle(0)
            .spawn_async(SiteId(1), "Sleepy", &Parameter::new())
            .unwrap();
        // Immediately: still running.
        let rh = match rh.try_wait() {
            Err(rh) => rh,
            Ok(_) => panic!("finished suspiciously fast"),
        };
        assert!(rh.wait().is_ok());
        rt.shutdown();
    }
}

#[cfg(test)]
mod reboot_tests {
    use super::*;
    use crate::replica::{replica_id, ReplicaSpec};
    use mocha_wire::{LockId, ReplicaPayload};

    #[test]
    fn killed_site_reboots_and_rejoins() {
        let mut rt = ThreadRuntime::builder().sites(3).build();
        let lock = LockId(1);
        let idx = replica_id("v");
        for i in 0..3 {
            rt.handle(i)
                .register(lock, vec![ReplicaSpec::new("v", ReplicaPayload::empty())])
                .unwrap();
        }
        let h1 = rt.handle(1);
        h1.lock(lock).unwrap();
        h1.write(idx, ReplicaPayload::I32s(vec![6])).unwrap();
        h1.unlock(lock, true).unwrap();

        rt.kill_site(2);
        let h2 = rt.restart_site(2);
        // The fresh incarnation re-registers and reads current state.
        h2.register(lock, vec![ReplicaSpec::new("v", ReplicaPayload::empty())])
            .unwrap();
        h2.lock(lock).unwrap();
        assert_eq!(h2.read(idx).unwrap(), ReplicaPayload::I32s(vec![6]));
        h2.unlock(lock, false).unwrap();
        rt.shutdown();
    }
}

#[cfg(test)]
mod surrogate_tests {
    use super::*;
    use crate::replica::{replica_id, ReplicaSpec};
    use mocha_wire::{LockId, ReplicaPayload};

    #[test]
    fn surrogate_promotion_in_real_threads() {
        // Short lease/scan so a phantom hold (release lost with the dead
        // home) self-heals quickly via the heartbeat hold-check.
        let mut rt = ThreadRuntime::builder()
            .sites(3)
            .config(MochaConfig {
                default_lease: Duration::from_millis(400),
                lease_scan_interval: Duration::from_millis(150),
                heartbeat_timeout: Duration::from_millis(300),
                ..MochaConfig::default()
            })
            .build();
        let lock = LockId(1);
        let idx = replica_id("s");
        for i in 0..3 {
            rt.handle(i)
                .register(lock, vec![ReplicaSpec::new("s", ReplicaPayload::empty())])
                .unwrap();
        }
        // Normal traffic establishes coordinator state.
        let h1 = rt.handle(1);
        h1.lock(lock).unwrap();
        h1.write(idx, ReplicaPayload::Utf8("pre-crash".into()))
            .unwrap();
        h1.unlock(lock, true).unwrap();
        // The unlock reply races the ReleaseLock message still in flight
        // to the home's loop; let it reach the stable log before the home
        // dies, or the surrogate replays a log without the release (a
        // near-certain loss on single-CPU schedulers).
        std::thread::sleep(Duration::from_millis(50));

        // The home dies; site 2 becomes the surrogate.
        rt.kill_site(0);
        rt.promote_coordinator(2);
        // Give the SyncMoved broadcast a moment to land everywhere.
        std::thread::sleep(Duration::from_millis(200));

        // Locking still works, served by the surrogate, with state intact.
        let h2 = rt.handle(2);
        h2.lock(lock).unwrap();
        assert_eq!(
            h2.read(idx).unwrap(),
            ReplicaPayload::Utf8("pre-crash".into())
        );
        h2.write(idx, ReplicaPayload::Utf8("post-takeover".into()))
            .unwrap();
        h2.unlock(lock, true).unwrap();

        h1.lock(lock).unwrap();
        assert_eq!(
            h1.read(idx).unwrap(),
            ReplicaPayload::Utf8("post-takeover".into())
        );
        h1.unlock(lock, false).unwrap();
        rt.shutdown();
    }

    #[test]
    fn lock_issued_while_the_home_is_down_completes_after_promotion() {
        let mut rt = ThreadRuntime::builder().sites(3).build();
        let lock = LockId(1);
        let idx = replica_id("s");
        for i in 0..3 {
            rt.handle(i)
                .register(lock, vec![ReplicaSpec::new("s", ReplicaPayload::empty())])
                .unwrap();
        }
        let h1 = rt.handle(1);
        h1.lock(lock).unwrap();
        h1.write(idx, ReplicaPayload::Utf8("pre-crash".into()))
            .unwrap();
        h1.unlock(lock, true).unwrap();
        // Let the release reach the home's log (see above).
        std::thread::sleep(Duration::from_millis(50));

        rt.kill_site(0);
        let pending = h1.lock_async(lock).unwrap();
        // The site loop takes requests in order: once this one is
        // answered, the acquire has been tried against the dead home.
        h1.take_prints().unwrap();
        assert!(
            pending.poll().is_none(),
            "the request waits; it does not fail"
        );
        rt.promote_coordinator(2);

        pending.wait().unwrap();
        assert_eq!(
            h1.read(idx).unwrap(),
            ReplicaPayload::Utf8("pre-crash".into())
        );
        h1.unlock(lock, false).unwrap();
        rt.shutdown();
    }
}

#[cfg(test)]
mod heartbeat_tests {
    use super::*;
    use crate::replica::ReplicaSpec;
    use mocha_wire::{LockId, ReplicaPayload};

    #[test]
    fn slow_owner_is_not_broken_in_real_threads() {
        let rt = ThreadRuntime::builder()
            .sites(3)
            .config(MochaConfig {
                default_lease: Duration::from_millis(200),
                lease_scan_interval: Duration::from_millis(100),
                heartbeat_timeout: Duration::from_millis(200),
                ..MochaConfig::default()
            })
            .build();
        let lock = LockId(1);
        for i in 0..3 {
            rt.handle(i)
                .register(lock, vec![ReplicaSpec::new("h", ReplicaPayload::empty())])
                .unwrap();
        }
        let h1 = rt.handle(1);
        h1.lock(lock).unwrap();
        let h2 = rt.handle(2);
        let (granted_tx, granted_rx) = unbounded();
        let waiter = std::thread::spawn(move || {
            h2.lock(lock).unwrap();
            granted_tx.send(()).unwrap();
            h2.unlock(lock, false).unwrap();
        });
        // A critical section several leases long: the coordinator suspects
        // the owner, and the owner's heartbeat answers keep the lock.
        std::thread::sleep(Duration::from_millis(1500));
        assert!(
            granted_rx.try_recv().is_err(),
            "site 2 was granted a lock its live owner still holds"
        );
        // A broken lock would surface here as LockBroken ...
        assert_eq!(h1.unlock(lock, true), Ok(()));
        granted_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("site 2 is granted once site 1 releases");
        waiter.join().unwrap();
        // ... and a blacklisted site's acquire would never be answered.
        h1.lock(lock).unwrap();
        h1.unlock(lock, false).unwrap();
        rt.shutdown();
    }
}
