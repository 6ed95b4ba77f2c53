//! # mocha — robust state sharing for wide area distributed applications
//!
//! A from-scratch Rust reproduction of the **Mocha** system (Topol, Ahamad,
//! Stasko — *Robust State Sharing for Wide Area Distributed Applications*,
//! ICDCS 1998): a wide-area computing infrastructure providing replicated
//! shared objects with entry-consistency maintenance, configurable
//! availability through push-based update dissemination, and timeout-based
//! failure detection and handling.
//!
//! ## Architecture (paper §3)
//!
//! An application is a set of threads running at *sites*. Shared state is
//! held in [`Replica`](replica::ReplicaSpec) objects, each guarded by a
//! `ReplicaLock`. Consistency is *entry consistency*: replicas are
//! guaranteed current only between `lock()` and `unlock()`.
//!
//! Three kinds of protocol actors cooperate:
//!
//! * the **synchronization thread** at the home site
//!   ([`sync::SyncCoordinator`]) grants and queues locks, tracks versions,
//!   and directs replica transfers;
//! * a **daemon thread** per site ([`daemon::SiteDaemon`]) stores replica
//!   values, serves transfer directives, applies pushed updates, and
//!   answers failure-handling polls and heartbeats;
//! * **application threads** acquire and release locks through the
//!   site's [`client::LockClient`] and read/write replicas while holding
//!   them — scripted ([`app::AppRunner`]) in the simulator, through the
//!   blocking [`runtime::thread::MochaHandle`] API in real time.
//!
//! Replica data always travels daemon-to-daemon, never through the
//! coordinator — the paper's locality optimisation.
//!
//! ## Fault tolerance (paper §4)
//!
//! * A `ReplicaLock` can be configured to keep `UR` of its `R` registered
//!   copies up to date: on release the daemon pushes the new value to
//!   `UR − 1` peers, and the release message tells the coordinator which
//!   sites are current ([`daemon`], [`sync`]).
//! * Failures of non-owners are detected when transfers or pushes time
//!   out; the coordinator then polls surviving daemons and forwards the
//!   freshest available version (possibly stale — surfaced to the
//!   application as weakened consistency).
//! * Failures of lock owners are detected by lease expiry confirmed with a
//!   heartbeat; the coordinator breaks the lock, blacklists the failed
//!   site, and grants to the next waiter.
//!
//! ## Runtimes
//!
//! All actors are event-driven state machines emitting [`cmd::Cmd`]s, so
//! the same protocol code runs under:
//!
//! * [`runtime::sim`] — the deterministic virtual-time simulator (used by
//!   every benchmark and by deterministic failure-injection tests);
//! * [`runtime::thread`] — real OS threads with a blocking API
//!   ([`runtime::thread::ThreadRuntime`]), used by the examples;
//! * [`runtime::socket`] — the same blocking API over real UDP/TCP
//!   sockets (the `mochad` deployment).
//!
//! ## Quick start (simulated cluster)
//!
//! ```
//! use mocha::runtime::sim::SimCluster;
//! use mocha::app::{Op, Script};
//! use mocha_wire::{LockId, ReplicaPayload};
//! use std::time::Duration;
//!
//! let mut cluster = SimCluster::builder()
//!     .sites(2)
//!     .build();
//! let lock = LockId(1);
//! let idx = mocha::replica::replica_id("flatwareIndex");
//!
//! // Site 0 creates the shared object and writes 7 into it.
//! cluster.add_script(0, Script::new()
//!     .register(lock, &["flatwareIndex"])
//!     .lock(lock)
//!     .write(idx, ReplicaPayload::I32s(vec![7]))
//!     .unlock_dirty(lock));
//! // Site 1 acquires the same lock and reads.
//! cluster.add_script(1, Script::new()
//!     .register(lock, &["flatwareIndex"])
//!     .sleep(Duration::from_millis(100))
//!     .lock(lock)
//!     .read(idx)
//!     .unlock(lock));
//!
//! cluster.run_until_idle();
//! let observed = cluster.observed_payloads(1);
//! assert_eq!(observed, vec![ReplicaPayload::I32s(vec![7])]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod client;
pub mod cmd;
pub mod config;
pub mod daemon;
pub mod directory;
pub mod error;
pub mod hostfile;
pub mod invariants;
pub mod replica;
pub mod runtime;
pub mod spawn;
pub mod sync;
pub mod travelbag;

#[doc(hidden)]
pub use replica::__private;

pub use config::{AvailabilityConfig, FaultPlan, HomeConfig, MochaConfig};
pub use directory::Directory;
pub use error::MochaError;
pub use replica::{replica_id, ObjectReplica, SharedState};
pub use travelbag::{Parameter, TravelBag, Value};
