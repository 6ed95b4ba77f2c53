//! Runtime configuration.

use std::time::Duration;

use mocha_net::NetConfig;
use mocha_wire::codec::CodecKind;

/// Availability configuration for a `ReplicaLock` (paper §4).
///
/// `R` (how many sites hold copies) is implicit in registration; this
/// struct configures `UR`, "the number of up-to-date copies of the shared
/// object". With `ur == 1` only the producing site holds the current value;
/// with `ur == k` the releasing daemon pushes the new value to `k − 1`
/// other registered sites at every release, purely for availability.
///
/// Dissemination is always acknowledged before the release message is
/// sent (and before `unlock()` returns): the coordinator's up-to-date set
/// must never be optimistic, or a grantee could see `VERSIONOK` while the
/// push to it is still in flight (a lost-update hazard found by the
/// stress tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AvailabilityConfig {
    /// Number of up-to-date copies to maintain (≥ 1).
    pub ur: usize,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        AvailabilityConfig { ur: 1 }
    }
}

/// Dissemination hot-path tuning: delta transfer and the concurrent push
/// window.
///
/// Both default **off**, which preserves the paper-faithful behaviour the
/// calibration benchmarks (Figure 12's `UR` scaling) assert against:
/// sequential full-payload pushes. Turning them on makes replica movement
/// proportional to *what changed* (delta) and release latency proportional
/// to one RTT instead of `UR` (pipeline). Neither switch affects
/// correctness — a receiver that cannot use a delta NACKs back to a full
/// transfer, and the pipelined window keeps the same per-target
/// timeout/replacement semantics as the sequential path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushConfig {
    /// Send edit scripts against the receiver's last-acked version instead
    /// of full payloads when the sender's shadow copy permits it.
    pub delta: bool,
    /// Keep every remaining push target in flight at once instead of
    /// send-one-await-ack.
    pub pipeline: bool,
}

/// Object-directory and home-migration tuning.
///
/// Both switches default **off**, which preserves the paper's
/// creator-is-home-forever placement: every lock is coordinated at the
/// cluster's fixed home site and no new wire messages are ever sent, so
/// the Figure 12 calibration and all existing benches are byte-identical
/// to before. With `hash_directory` on, every site hosts a coordinator
/// and locks hash onto sites through a virtual-shard consistent-hash
/// ring; with `migration` also on, a coordinator that sees a remote site
/// dominate a lock's acquire traffic hands the coordinator role to it
/// via a version-fenced offer/accept/commit handshake. Neither switch
/// affects correctness: a site holding a stale directory entry is
/// redirected by a `StaleHome` NACK on first contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeConfig {
    /// Place each lock's coordinator by consistent hash instead of at the
    /// fixed cluster home.
    pub hash_directory: bool,
    /// Dynamically migrate a lock's coordinator to the site dominating
    /// its acquire traffic (requires `hash_directory`).
    pub migration: bool,
    /// Decayed acquire-count lead a remote site needs over the current
    /// home before a migration is offered.
    pub migrate_threshold: u32,
    /// Virtual shards per site on the consistent-hash ring.
    pub virtual_shards: u32,
}

impl Default for HomeConfig {
    fn default() -> Self {
        HomeConfig {
            hash_directory: false,
            migration: false,
            migrate_threshold: 4,
            virtual_shards: 16,
        }
    }
}

/// Deliberate protocol faults for invariant-oracle testing.
///
/// Each flag re-introduces a specific protocol bug so the mutant harness
/// in `mocha-check` can prove the corresponding invariant actually fires.
/// The flags are inert unless the crate is compiled with the
/// `fault-injection` cargo feature: [`FaultPlan::active`] collapses to the
/// all-off default otherwise, so workspace feature unification can never
/// change production behaviour — only code that *sets* a flag at runtime
/// AND builds with the feature sees a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Grant an exclusive lock even while another holder exists
    /// (violates the single-writer invariant).
    pub grant_second_writer: bool,
    /// Mark a grantee up-to-date at grant time, before its transfer
    /// completes (violates up-to-date-set freshness).
    pub optimistic_up_to_date: bool,
    /// Skip the daemon's staleness guard and apply any incoming version
    /// (violates per-site version monotonicity under reordering).
    pub accept_any_version: bool,
    /// Replay a stale write-ahead log at recovery: the restored daemon
    /// resumes one release behind what it durably held (violates version
    /// monotonicity across an incarnation boundary).
    pub stale_recovery: bool,
    /// Commit a home migration without fencing: the old coordinator sends
    /// `MigrateCommit` but keeps serving the lock, so both sites act as
    /// home (violates the single-home invariant, `split_home`).
    pub commit_unfenced: bool,
}

impl FaultPlan {
    /// The effective plan: identical to `self` when built with the
    /// `fault-injection` feature, all-off otherwise.
    #[must_use]
    pub fn active(self) -> FaultPlan {
        if cfg!(feature = "fault-injection") {
            self
        } else {
            FaultPlan::default()
        }
    }

    /// Whether any fault flag is set (before feature gating).
    #[must_use]
    pub fn any(self) -> bool {
        self.grant_second_writer
            || self.optimistic_up_to_date
            || self.accept_any_version
            || self.stale_recovery
            || self.commit_unfenced
    }

    /// Names of the enabled flags, for trace files.
    #[must_use]
    pub fn enabled_names(self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.grant_second_writer {
            names.push("grant_second_writer");
        }
        if self.optimistic_up_to_date {
            names.push("optimistic_up_to_date");
        }
        if self.accept_any_version {
            names.push("accept_any_version");
        }
        if self.stale_recovery {
            names.push("stale_recovery");
        }
        if self.commit_unfenced {
            names.push("commit_unfenced");
        }
        names
    }

    /// Parses a plan from flag names (the trace-file representation).
    ///
    /// # Errors
    ///
    /// Returns the first unknown name.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for name in names {
            match name.as_ref() {
                "grant_second_writer" => plan.grant_second_writer = true,
                "optimistic_up_to_date" => plan.optimistic_up_to_date = true,
                "accept_any_version" => plan.accept_any_version = true,
                "stale_recovery" => plan.stale_recovery = true,
                "commit_unfenced" => plan.commit_unfenced = true,
                other => return Err(format!("unknown fault flag {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Complete configuration for a Mocha deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MochaConfig {
    /// Transport configuration (protocol mode, MochaNet/TCP tuning).
    pub net: NetConfig,
    /// Marshaling codec (JDK 1.1-style or the optimized bulk library).
    pub codec: CodecKind,
    /// Default lock lease: how long a thread may hold a lock before the
    /// coordinator suspects it has failed (threads can extend via the
    /// per-acquire hint).
    pub default_lease: Duration,
    /// How often the coordinator scans held locks for expired leases.
    pub lease_scan_interval: Duration,
    /// How long the coordinator waits for a heartbeat ack before declaring
    /// a suspected owner dead and breaking its lock.
    pub heartbeat_timeout: Duration,
    /// How long the coordinator collects `PollResponse`s during failure
    /// recovery before forwarding the freshest version found.
    pub recovery_poll_window: Duration,
    /// Whether lease-based lock breaking is enabled at all (the ablation
    /// benchmark turns it off).
    pub break_locks: bool,
    /// Ablation switch: route replica transfers through the home site
    /// (store and forward) instead of daemon-to-daemon. The paper's design
    /// sends data directly to "exploit locality"; enabling this quantifies
    /// what that optimisation buys.
    pub relay_transfers: bool,
    /// Deliberate protocol faults for oracle testing; inert unless the
    /// `fault-injection` feature is compiled in.
    pub faults: FaultPlan,
    /// Dissemination hot-path tuning (delta transfer, concurrent push
    /// window). Defaults to the paper-faithful sequential/full-payload
    /// behaviour.
    pub push: PushConfig,
    /// Object-directory placement and dynamic home migration. Defaults to
    /// the paper-faithful fixed-home behaviour.
    pub home: HomeConfig,
}

impl Default for MochaConfig {
    fn default() -> Self {
        MochaConfig {
            net: NetConfig::default(),
            codec: CodecKind::default(),
            default_lease: Duration::from_secs(5),
            lease_scan_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_millis(800),
            recovery_poll_window: Duration::from_millis(400),
            break_locks: true,
            relay_transfers: false,
            faults: FaultPlan::default(),
            push: PushConfig::default(),
            home: HomeConfig::default(),
        }
    }
}

impl MochaConfig {
    /// Configuration matching the paper's first prototype (all traffic
    /// over MochaNet, JDK 1.1 marshaling).
    pub fn basic() -> MochaConfig {
        MochaConfig {
            net: NetConfig::basic(),
            ..MochaConfig::default()
        }
    }

    /// Configuration matching the paper's second prototype (hybrid
    /// protocol, JDK 1.1 marshaling).
    pub fn hybrid() -> MochaConfig {
        MochaConfig {
            net: NetConfig::hybrid(),
            ..MochaConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.net.validate()?;
        if self.default_lease.is_zero() {
            return Err("default_lease must be positive".into());
        }
        if self.lease_scan_interval.is_zero() {
            return Err("lease_scan_interval must be positive".into());
        }
        if self.heartbeat_timeout.is_zero() {
            return Err("heartbeat_timeout must be positive".into());
        }
        if self.recovery_poll_window.is_zero() {
            return Err("recovery_poll_window must be positive".into());
        }
        if self.home.migration && !self.home.hash_directory {
            return Err("home.migration requires home.hash_directory".into());
        }
        if self.home.hash_directory && self.home.virtual_shards == 0 {
            return Err("home.virtual_shards must be positive".into());
        }
        if self.home.migration && self.home.migrate_threshold == 0 {
            return Err("home.migrate_threshold must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use mocha_net::ProtocolMode;

    #[test]
    fn defaults_validate() {
        MochaConfig::default().validate().unwrap();
        MochaConfig::basic().validate().unwrap();
        MochaConfig::hybrid().validate().unwrap();
    }

    #[test]
    fn prototypes_select_modes() {
        assert_eq!(MochaConfig::basic().net.mode, ProtocolMode::Basic);
        assert_eq!(MochaConfig::hybrid().net.mode, ProtocolMode::Hybrid);
    }

    #[test]
    fn zero_durations_rejected() {
        let mut c = MochaConfig::default();
        c.default_lease = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = MochaConfig::default();
        c.heartbeat_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = MochaConfig::default();
        c.lease_scan_interval = Duration::ZERO;
        assert!(c.validate().is_err());
        let mut c = MochaConfig::default();
        c.recovery_poll_window = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn availability_default_is_no_dissemination() {
        let a = AvailabilityConfig::default();
        assert_eq!(a.ur, 1);
    }

    #[test]
    fn push_config_defaults_to_paper_behaviour() {
        let p = PushConfig::default();
        assert!(!p.delta);
        assert!(!p.pipeline);
        assert_eq!(MochaConfig::default().push, PushConfig::default());
    }

    #[test]
    fn home_config_defaults_to_paper_behaviour() {
        let h = HomeConfig::default();
        assert!(!h.hash_directory);
        assert!(!h.migration);
        assert_eq!(MochaConfig::default().home, HomeConfig::default());

        let mut c = MochaConfig::default();
        c.home.migration = true;
        assert!(c.validate().is_err(), "migration without directory");
        c.home.hash_directory = true;
        c.validate().unwrap();
        c.home.migrate_threshold = 0;
        assert!(c.validate().is_err(), "zero threshold");
        let mut c = MochaConfig::default();
        c.home.hash_directory = true;
        c.home.virtual_shards = 0;
        assert!(c.validate().is_err(), "zero shards");
    }

    #[test]
    fn fault_plan_names_roundtrip() {
        let plan = FaultPlan {
            grant_second_writer: true,
            accept_any_version: true,
            stale_recovery: true,
            commit_unfenced: true,
            ..FaultPlan::default()
        };
        let names = plan.enabled_names();
        assert_eq!(
            names,
            vec![
                "grant_second_writer",
                "accept_any_version",
                "stale_recovery",
                "commit_unfenced"
            ]
        );
        assert_eq!(FaultPlan::from_names(&names).unwrap(), plan);
        assert!(FaultPlan::from_names(&["bogus"]).is_err());
        assert!(plan.any());
        assert!(!FaultPlan::default().any());
    }

    #[test]
    fn fault_plan_inert_without_feature() {
        let plan = FaultPlan {
            grant_second_writer: true,
            optimistic_up_to_date: true,
            accept_any_version: true,
            stale_recovery: true,
            commit_unfenced: true,
        };
        if cfg!(feature = "fault-injection") {
            assert_eq!(plan.active(), plan);
        } else {
            assert_eq!(plan.active(), FaultPlan::default());
        }
    }
}
