//! The virtual-clock workload: a `SimCluster` over the simulator's WAN
//! profile (7 ms one way, jitter, 0.2 % loss, all seeded). Every site
//! scripts its cycles over Zipf-chosen locks, so sites contend; latencies
//! are read from the scripts' `Record` labels in virtual time, and the
//! whole run repeats exactly for a seed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mocha::app::{Record, Script};
use mocha::config::AvailabilityConfig;
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::sim::SimCluster;
use mocha_sim::profiles;
use mocha_wire::ReplicaPayload;

use crate::procfs::ProcSnapshot;
use crate::rng::{Rng, Zipf};
use crate::stamp::{verify_read, Stamp};
use crate::workload::{bench_config, Plan, WorkloadSpec};

/// Label of the `Mark` each scripted cycle ends with.
const RELEASED: &str = "released";

/// One scripted cycle: which lock, and the payload it writes.
#[derive(Debug, Clone)]
struct ScriptedCycle {
    chain: usize,
    payload: Vec<u8>,
}

/// The seeded inputs of a run: every site's cycle list.
#[derive(Debug, Clone)]
pub struct WanPlan {
    plan: Plan,
    cycles: Vec<Vec<ScriptedCycle>>,
    seed: u64,
}

impl WanPlan {
    /// Builds every site's script inputs from `seed`; `cycles_per_site`
    /// overrides the spec (smoke runs use fewer).
    pub fn new(spec: WorkloadSpec, seed: u64, cycles_per_site: usize) -> WanPlan {
        let plan = Plan::new(spec, seed);
        let zipf = Zipf::new(spec.locks, 1.0);
        let root = Rng::new(seed).fork(0x0077_616e); // "wan"
        let cycles = (0..spec.sites)
            .map(|site| {
                let mut rng = root.fork(site as u64 + 1);
                (0..cycles_per_site)
                    .map(|k| {
                        let chain = zipf.sample(&mut rng);
                        let mut payload = vec![0u8; spec.payload_len];
                        rng.fill(&mut payload);
                        Stamp {
                            lock: u64::from(plan.chains[chain].lock.as_raw()),
                            // Sites write in an order only the run decides,
                            // so the sequence names (site, cycle) instead.
                            seq: ((site as u64 + 1) << 32) | k as u64,
                        }
                        .write_into(&mut payload);
                        ScriptedCycle { chain, payload }
                    })
                    .collect()
            })
            .collect();
        WanPlan { plan, cycles, seed }
    }

    /// Builds the cluster and installs every site's script: everything up
    /// to the point the first cycle can start.
    pub fn set_up(&self) -> SimCluster {
        let spec = self.plan.spec;
        let mut cluster = SimCluster::builder()
            .sites(spec.sites)
            .seed(self.seed)
            .link(profiles::wan())
            .config(bench_config())
            .build();
        for (site, cycles) in self.cycles.iter().enumerate() {
            let mut script = Script::new();
            for chain in &self.plan.chains {
                script = script
                    .register_specs(
                        chain.lock,
                        vec![ReplicaSpec::new(
                            chain.replica.clone(),
                            ReplicaPayload::Bytes(chain.initial.clone()),
                        )],
                    )
                    .set_availability(
                        chain.lock,
                        AvailabilityConfig {
                            ur: spec.ur,
                            ..AvailabilityConfig::default()
                        },
                    );
            }
            for cycle in cycles {
                let chain = &self.plan.chains[cycle.chain];
                script = script
                    .lock(chain.lock)
                    .read(replica_id(&chain.replica))
                    .write(
                        replica_id(&chain.replica),
                        ReplicaPayload::Bytes(cycle.payload.clone()),
                    )
                    .unlock_dirty(chain.lock)
                    .mark(RELEASED);
            }
            cluster.add_script(site, script);
        }
        cluster
    }
}

/// What one simulated run measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WanRun {
    /// Cycles completed.
    pub cycles: u64,
    /// Operations scripted (lock, read, write, unlock per cycle).
    pub attempted: u64,
    /// Operations that did not complete, or reads that saw the wrong
    /// write, plus up-to-date replicas holding the wrong bytes.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
    /// Virtual time from start to the last release.
    pub virtual_elapsed: Duration,
    /// `lock_request` → `lock_acquired`, virtual ns, per cycle.
    pub acquire_ns: Vec<u64>,
    /// `unlock` → released mark, virtual ns, per cycle.
    pub release_ns: Vec<u64>,
    /// `lock_request` → released mark, virtual ns, per cycle.
    pub cycle_ns: Vec<u64>,
    /// Simulated datagrams sent.
    pub datagrams: u64,
    /// Simulated bytes sent.
    pub wire_bytes: u64,
    /// Simulated timers fired.
    pub timers_fired: u64,
    /// Delta pushes, bytes saved and NACKs summed over daemons.
    pub delta: (u64, u64, u64),
    /// `StaleHome` redirects summed over coordinators.
    pub stale_home_redirects: u64,
    /// Real CPU the simulation took.
    pub cpu: Duration,
    /// Real time the simulation took.
    pub wall: Duration,
}

/// The timestamps of one cycle, pulled out of a thread's records.
#[derive(Debug, Clone, Copy)]
struct CycleTimes {
    request: u64,
    acquired: u64,
    unlock: u64,
    released: u64,
}

/// Splits a thread's records into its cycles. Cycles cut short (a label
/// missing before the next `lock_request`) are dropped, and counted as
/// failed by the caller because fewer come back than were scripted.
fn cycle_times(records: &[Record]) -> Vec<CycleTimes> {
    let mut out = Vec::new();
    let (mut request, mut acquired, mut unlock) = (None, None, None);
    for r in records {
        let at = r.at.as_nanos();
        if r.label.starts_with("lock_request:") {
            (request, acquired, unlock) = (Some(at), None, None);
        } else if r.label.starts_with("lock_acquired:") {
            acquired = Some(at);
        } else if r.label.starts_with("unlock:") {
            unlock = Some(at);
        } else if r.label == RELEASED {
            if let (Some(request), Some(acquired), Some(unlock)) = (request, acquired, unlock) {
                out.push(CycleTimes {
                    request,
                    acquired,
                    unlock,
                    released: at,
                });
            }
            (request, acquired, unlock) = (None, None, None);
        }
    }
    out
}

impl WanPlan {
    /// Runs the installed scripts to completion and checks every read.
    pub fn run(&self, mut cluster: SimCluster) -> WanRun {
        let spec = self.plan.spec;
        let proc_before = ProcSnapshot::take();
        let wall_start = Instant::now();
        // Lease scans reschedule themselves while locks are held, so the
        // world is stepped in slices until every script is done, with a
        // cap far beyond any honest run (2 000 contended cycles per site
        // take a few hundred virtual seconds).
        let mut slices = 0;
        while !(0..spec.sites).all(|s| cluster.all_done(s)) && slices < 20_000 {
            cluster.run_for(Duration::from_secs(1));
            slices += 1;
        }
        let wall = wall_start.elapsed();
        let cpu = ProcSnapshot::take().cpu.saturating_sub(proc_before.cpu);

        let mut run = WanRun {
            cpu,
            wall,
            ..WanRun::default()
        };
        let fail = |run: &mut WanRun, why: String| {
            run.failed += 1;
            if run.failures.len() < 8 {
                run.failures.push(format!("{}: {why}", spec.name));
            }
        };

        // Per lock: (acquire time, site, cycle index) of every completed
        // cycle. Exclusive holds cannot overlap, so acquire time orders
        // them the way the lock did.
        let mut order: BTreeMap<usize, Vec<(u64, usize, usize)>> = BTreeMap::new();
        let mut reads: Vec<Vec<ReplicaPayload>> = Vec::new();
        let mut last_release = 0u64;
        for site in 0..spec.sites {
            let scripted = &self.cycles[site];
            run.attempted += 4 * scripted.len() as u64;
            for (_, why) in cluster.failures(site) {
                fail(&mut run, format!("site {site} thread failed: {why}"));
            }
            let records: Vec<Record> = cluster
                .all_records(site)
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let times = cycle_times(&records);
            let observed = cluster.observed_payloads(site);
            if times.len() != scripted.len() || observed.len() != scripted.len() {
                fail(
                    &mut run,
                    format!(
                        "site {site} completed {} cycles and {} reads of {} scripted",
                        times.len(),
                        observed.len(),
                        scripted.len()
                    ),
                );
            }
            for (k, t) in times.iter().enumerate().take(scripted.len()) {
                run.acquire_ns.push(t.acquired - t.request);
                run.release_ns.push(t.released - t.unlock);
                run.cycle_ns.push(t.released - t.request);
                last_release = last_release.max(t.released);
                order
                    .entry(scripted[k].chain)
                    .or_default()
                    .push((t.acquired, site, k));
            }
            run.cycles += times.len().min(scripted.len()) as u64;
            reads.push(observed);
        }
        run.virtual_elapsed = Duration::from_nanos(last_release);

        // Entry consistency: the j-th holder of a lock reads what the
        // (j-1)-th wrote.
        let mut last_written: BTreeMap<usize, &[u8]> = BTreeMap::new();
        for (chain, holders) in &mut order {
            holders.sort_unstable();
            let mut current: &[u8] = &self.plan.chains[*chain].initial;
            for &(_, site, k) in holders.iter() {
                match reads[site].get(k) {
                    Some(read) => {
                        if let Err(e) = verify_read(read, current) {
                            fail(&mut run, format!("site {site} cycle {k}: {e}"));
                        }
                    }
                    None => fail(&mut run, format!("site {site} cycle {k}: read missing")),
                }
                current = &self.cycles[site][k].payload;
            }
            last_written.insert(*chain, current);
        }

        // Afterwards every site a coordinator lists as up to date must
        // hold the last written payload.
        let view = cluster.cluster_view();
        for (index, chain) in self.plan.chains.iter().enumerate() {
            let Some(expected) = last_written.get(&index) else {
                continue;
            };
            let up_to_date = view
                .coordinators
                .iter()
                .flat_map(|c| &c.locks)
                .find(|l| l.lock == chain.lock)
                .map(|l| l.up_to_date.clone())
                .unwrap_or_default();
            if up_to_date.is_empty() {
                fail(&mut run, format!("{}: no site is up to date", chain.lock));
            }
            for site in up_to_date {
                let held =
                    cluster.replica_value(site.as_raw() as usize, replica_id(&chain.replica));
                run.attempted += 1;
                match held {
                    Some(p) => {
                        if let Err(e) = verify_read(&p, expected) {
                            fail(
                                &mut run,
                                format!("up-to-date {site} holds the wrong {}: {e}", chain.lock),
                            );
                        }
                    }
                    None => fail(&mut run, format!("up-to-date {site} has no {}", chain.lock)),
                }
            }
        }

        let m = cluster.world().metrics();
        run.datagrams = m.datagrams_sent;
        run.wire_bytes = m.bytes_sent;
        run.timers_fired = m.timers_fired;
        for site in 0..spec.sites {
            let d = cluster.daemon_stats(site);
            run.delta.0 += d.delta_pushes_sent;
            run.delta.1 += d.delta_bytes_saved;
            run.delta.2 += d.delta_nacks;
            if let Some(c) = cluster.try_coordinator_stats_at(site) {
                run.stale_home_redirects += c.stale_home_redirects;
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WAN_SIM;
    use mocha_sim::SimTime;

    fn rec(label: &str, at: u64) -> Record {
        Record {
            label: label.to_string(),
            at: SimTime::from_nanos(at),
        }
    }

    #[test]
    fn records_split_into_cycles_and_truncated_cycles_are_dropped() {
        let records = vec![
            rec("lock_request:lock1", 10),
            rec("lock_granted:lock1", 20),
            rec("lock_acquired:lock1", 30),
            rec("unlock:lock1", 40),
            rec("pushes_done:lock1", 50),
            rec(RELEASED, 60),
            rec("lock_request:lock2", 70),
            rec("lock_request:lock2", 80),
            rec("lock_acquired:lock2", 90),
            rec("unlock:lock2", 95),
            rec(RELEASED, 99),
            rec("lock_request:lock1", 100),
            rec(RELEASED, 110),
        ];
        let cycles = cycle_times(&records);
        assert_eq!(cycles.len(), 2);
        assert_eq!(
            (
                cycles[0].request,
                cycles[0].acquired,
                cycles[0].unlock,
                cycles[0].released
            ),
            (10, 30, 40, 60)
        );
        assert_eq!(cycles[1].request, 80);
    }

    #[test]
    fn a_short_run_is_correct_and_repeats_exactly() {
        let plan = WanPlan::new(WAN_SIM, 5, 40);
        let a = plan.run(plan.set_up());
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.cycles, 160);
        assert!(a.virtual_elapsed > Duration::from_millis(500));
        // A remote acquire cannot beat one WAN round trip.
        let mut acquire = a.acquire_ns.clone();
        acquire.sort_unstable();
        assert!(
            acquire[acquire.len() / 2] >= 14_000_000,
            "{}",
            acquire[acquire.len() / 2]
        );
        let b = plan.run(plan.set_up());
        assert_eq!(
            (a.cycle_ns, a.datagrams, a.wire_bytes),
            (b.cycle_ns, b.datagrams, b.wire_bytes)
        );
        let other = WanPlan::new(WAN_SIM, 6, 40);
        let c = other.run(other.set_up());
        assert_ne!(a.virtual_elapsed, c.virtual_elapsed);
    }
}
