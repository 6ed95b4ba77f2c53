//! Runs one workload from set-up to result: repeated set-up, warm-up,
//! repetitions of (solo phase, load phase), the final replica check, and
//! for a traced run one extra repetition with spans on plus the layer
//! probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::probes::{self, AllocCounter, Effort, UnitCosts};
use crate::procfs::ProcSnapshot;
use crate::result::{Better, LayerMetric, WorkloadResult, DIAGNOSTIC, END_TO_END};
use crate::span::Tracer;
use crate::stats::{percentile_sorted, Summary};
use crate::wall::{Cluster, Driver, PhaseResult};
use crate::wan::{WanPlan, WanRun};
use crate::workload::{Clock, Plan, WorkloadSpec, WritePolicy};

/// How a run was asked for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload: a tenth warms up, then each of three
    /// repetitions spends a tenth solo and two tenths under load.
    pub seconds: f64,
    /// Record spans, run the layer probes, report per-layer metrics.
    pub trace: bool,
    /// Quick pass: one short repetition, one set-up, same checks.
    pub smoke: bool,
    /// Directory (inside the checkout) for store files and traces.
    pub scratch: PathBuf,
    /// Allocation counters of the binary's global allocator.
    pub allocs: AllocCounter,
}

impl RunOptions {
    fn effort(&self) -> Effort {
        if self.smoke {
            Effort::QUICK
        } else {
            Effort::FULL
        }
    }
}

/// Repetitions of (solo, load) in an untraced run.
const REPS: usize = 3;
/// Runs of the simulated workload in an untraced run. They agree on every
/// virtual number; seven of them steady the one real figure, the CPU a
/// fifth-of-a-second simulation takes.
const SIM_REPS: usize = 7;
/// Times a wall-clock cluster is set up; the median is `setup_s`.
const WALL_SETUPS: usize = 15;
/// Times the simulated cluster is set up (it takes milliseconds, so it
/// needs more samples for a steady median).
const SIM_SETUPS: usize = 15;
/// Spans written verbatim to the trace file.
const TRACE_FILE_SPANS: usize = 50_000;

/// What a run hands back besides the result.
pub struct RunOutput {
    /// The result.
    pub result: WorkloadResult,
    /// Where the trace was written, for traced runs.
    pub trace_file: Option<PathBuf>,
    /// The cost-budget table, for traced runs.
    pub budget: Option<String>,
}

/// Runs `spec` as `opts` asks.
///
/// # Errors
///
/// Set-up failures (no loopback sockets, scratch directory not writable).
/// Failed operations are not errors: they are counted in the result.
pub fn run_workload(spec: WorkloadSpec, opts: &RunOptions) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;
    // Restart the kernel's peak-RSS watermark, so `peak_rss_mb` is this
    // workload's and not the largest of those run before it in the same
    // process. Best effort: without it the figure is an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    match spec.clock {
        Clock::Wall => run_wall(spec, opts),
        Clock::Virtual => run_virtual(spec, opts),
    }
}

/// One repetition's values; `setup_s` and `peak_rss_mb` are per run.
struct RepValues {
    cycles_per_s: f64,
    cycle_ms: (f64, f64),
    acquire_us: (f64, f64),
    release_us: (f64, f64),
    cpu_us_per_cycle: f64,
    datagrams_per_cycle: f64,
    wire_bytes_per_cycle: f64,
    cycles: u64,
    latency_samples: u64,
}

fn p50_p99(samples_ns: &[u64], per: f64) -> (f64, f64) {
    let mut v: Vec<f64> = samples_ns.iter().map(|x| *x as f64 / per).collect();
    v.sort_by(f64::total_cmp);
    (
        percentile_sorted(&v, 0.50).unwrap_or(f64::NAN),
        percentile_sorted(&v, 0.99).unwrap_or(f64::NAN),
    )
}

fn wall_rep(solo: &PhaseResult, load: &PhaseResult) -> RepValues {
    let c = load.cycles.max(1) as f64;
    RepValues {
        cycles_per_s: load.cycles as f64 / load.elapsed.as_secs_f64(),
        cycle_ms: p50_p99(&load.cycle_ns, 1e6),
        acquire_us: p50_p99(&solo.acquire_ns, 1e3),
        release_us: p50_p99(&solo.release_ns, 1e3),
        cpu_us_per_cycle: load.cpu.as_secs_f64() * 1e6 / c,
        datagrams_per_cycle: load.rt.datagrams_sent as f64 / c,
        wire_bytes_per_cycle: load.rt.bytes_sent as f64 / c,
        cycles: load.cycles + solo.cycles,
        latency_samples: (load.cycle_ns.len() + solo.acquire_ns.len()) as u64,
    }
}

/// Folds repetitions into the end-to-end summaries and the diagnostic
/// p99s, each in its table's order.
#[allow(clippy::type_complexity)]
fn summarise(
    reps: &[RepValues],
    setups: &[f64],
    peak_rss_mb: f64,
) -> (Vec<(&'static str, Summary)>, Vec<(&'static str, Summary)>) {
    let col = |f: &dyn Fn(&RepValues) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let cycles: u64 = reps.iter().map(|r| r.cycles).sum();
    let samples: u64 = reps.iter().map(|r| r.latency_samples).sum();
    let summary = |(v, n): (Vec<f64>, u64)| {
        Summary::of(&v, n).expect("every metric has at least one repetition")
    };
    let values: Vec<(Vec<f64>, u64)> = vec![
        (setups.to_vec(), setups.len() as u64),
        (col(&|r| r.cycles_per_s), cycles),
        (col(&|r| r.cycle_ms.0), samples),
        (col(&|r| r.cycle_ms.1), samples),
        (col(&|r| r.acquire_us.0), samples),
        (col(&|r| r.release_us.0), samples),
        (col(&|r| r.cpu_us_per_cycle), cycles),
        (col(&|r| r.datagrams_per_cycle), cycles),
        (col(&|r| r.wire_bytes_per_cycle), cycles),
        (vec![peak_rss_mb], 1),
    ];
    let tails = vec![
        (col(&|r| r.acquire_us.1), samples),
        (col(&|r| r.release_us.1), samples),
    ];
    (
        END_TO_END
            .iter()
            .map(|d| d.name)
            .zip(values.into_iter().map(summary))
            .collect(),
        DIAGNOSTIC
            .iter()
            .map(|d| d.0)
            .zip(tails.into_iter().map(summary))
            .collect(),
    )
}

fn layer(name: &'static str, unit: &'static str, better: Better, value: f64) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        value,
    }
}

/// The counters of a traced load phase (or simulated run).
#[derive(Debug, Default)]
struct Counted {
    cycles: u64,
    msgs: u64,
    retransmits: u64,
    fast_retransmits: u64,
    rto_backoffs: u64,
    sends_failed: u64,
    timers_fired: u64,
    socket_errors: u64,
    delta_pushes: u64,
    delta_bytes_saved: u64,
    delta_nacks: u64,
    stale_home_redirects: u64,
    ctx_switches: u64,
    rss_growth_kb: i64,
    allocs: u64,
    busy_pct: f64,
    overhead_pct: f64,
    failed_ratio: f64,
}

impl Counted {
    fn of_phase(load: &PhaseResult) -> Counted {
        Counted {
            cycles: load.cycles,
            msgs: load.rt.msgs_sent,
            retransmits: load.rt.retransmits,
            fast_retransmits: load.rt.fast_retransmits,
            rto_backoffs: load.rt.rto_backoffs,
            sends_failed: load.rt.sends_failed,
            timers_fired: load.rt.timers_fired,
            socket_errors: load.rt.socket_errors,
            delta_pushes: load.rt.delta_pushes,
            delta_bytes_saved: load.rt.delta_bytes_saved,
            delta_nacks: load.rt.delta_nacks,
            stale_home_redirects: load.rt.stale_home_redirects,
            ctx_switches: load.ctx_switches,
            rss_growth_kb: load.rss_growth_kb,
            busy_pct: load.busy_pct,
            ..Counted::default()
        }
    }

    /// The counts as per-cycle (or per thousand cycles) layer metrics.
    fn layers(&self) -> Vec<LayerMetric> {
        let c = self.cycles.max(1) as f64;
        let per_cycle = |n: u64| n as f64 / c;
        let per_kcycle = |n: u64| n as f64 * 1e3 / c;
        let low = Better::Lower;
        vec![
            layer("net.msgs_per_cycle", "count", low, per_cycle(self.msgs)),
            layer(
                "net.retransmits_per_kcycle",
                "count",
                low,
                per_kcycle(self.retransmits),
            ),
            layer(
                "net.fast_retransmits_per_kcycle",
                "count",
                low,
                per_kcycle(self.fast_retransmits),
            ),
            layer(
                "net.rto_backoffs_per_kcycle",
                "count",
                low,
                per_kcycle(self.rto_backoffs),
            ),
            layer("net.sends_failed", "count", low, self.sends_failed as f64),
            layer(
                "reactor.timers_fired_per_cycle",
                "count",
                low,
                per_cycle(self.timers_fired),
            ),
            layer(
                "reactor.socket_errors",
                "count",
                low,
                self.socket_errors as f64,
            ),
            layer(
                "daemon.delta_pushes_per_cycle",
                "count",
                Better::Higher,
                per_cycle(self.delta_pushes),
            ),
            layer(
                "daemon.delta_bytes_saved_per_cycle",
                "bytes",
                Better::Higher,
                per_cycle(self.delta_bytes_saved),
            ),
            layer(
                "daemon.delta_nacks_per_kcycle",
                "count",
                low,
                per_kcycle(self.delta_nacks),
            ),
            layer(
                "sync.stale_home_redirects_per_kcycle",
                "count",
                low,
                per_kcycle(self.stale_home_redirects),
            ),
            layer(
                "proc.ctx_switches_per_cycle",
                "count",
                low,
                per_cycle(self.ctx_switches),
            ),
            layer(
                "proc.rss_growth_kb_per_kcycle",
                "KiB",
                low,
                self.rss_growth_kb as f64 * 1e3 / c,
            ),
            layer(
                "proc.allocs_per_cycle",
                "count",
                low,
                per_cycle(self.allocs),
            ),
            layer("driver.busy_pct", "%", low, self.busy_pct),
            layer("trace.overhead_pct", "%", low, self.overhead_pct),
            layer("failed_ops_ratio", "ratio", low, self.failed_ratio),
        ]
    }
}

/// What the layer probes produced. They run before the cluster exists,
/// in a fresh process, so their readings do not depend on the workload.
struct Probed {
    tracer: Tracer,
    layers: Vec<LayerMetric>,
    costs: UnitCosts,
}

fn probe_layers(opts: &RunOptions) -> Result<Probed, String> {
    let mut tracer = Tracer::with_capacity(4096);
    let mut layers = Vec::new();
    let costs = probes::run_all(
        &opts.allocs,
        opts.effort(),
        &opts.scratch,
        &mut tracer,
        &mut layers,
    )?;
    Ok(Probed {
        tracer,
        layers,
        costs,
    })
}

fn run_wall(spec: WorkloadSpec, opts: &RunOptions) -> Result<RunOutput, String> {
    let unit = Duration::from_secs_f64(opts.seconds / 10.0);
    let probed = if opts.trace {
        Some(probe_layers(opts)?)
    } else {
        None
    };
    let plan = Plan::new(spec, opts.seed);

    let setups_wanted = if opts.smoke { 1 } else { WALL_SETUPS };
    let mut setups = Vec::with_capacity(setups_wanted);
    let mut cluster = None;
    for _ in 0..setups_wanted {
        if let Some(previous) = cluster.take() {
            Cluster::tear_down(previous);
        }
        let start = Instant::now();
        cluster = Some(Cluster::set_up(&plan, &opts.scratch)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let shards = cluster.shard_count();
    let mut driver = Driver::new(plan, cluster);

    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let mut absorb = |p: &mut PhaseResult| {
        attempted += p.attempted;
        failed += p.failed;
        failures.append(&mut p.failures);
    };

    let mut warm = driver.run_phase(spec.window, unit, None);
    absorb(&mut warm);

    let reps_wanted = if opts.smoke || opts.trace { 1 } else { REPS };
    let mut reps = Vec::with_capacity(reps_wanted);
    let mut busiest: f64 = 0.0;
    for _ in 0..reps_wanted {
        let mut solo = driver.run_phase(1, unit, None);
        let mut load = driver.run_phase(spec.window, unit * 2, None);
        busiest = busiest.max(load.busy_pct);
        reps.push(wall_rep(&solo, &load));
        absorb(&mut solo);
        absorb(&mut load);
    }

    let mut per_layer = Vec::new();
    let mut trace_file = None;
    let mut budget = None;
    if let Some(Probed {
        mut tracer,
        layers,
        costs,
    }) = probed
    {
        // Room for five spans per cycle at twice the untraced rate, so
        // recording does not reallocate inside a phase.
        let expected = reps[0].cycles_per_s * unit.as_secs_f64() * 3.0;
        tracer.reserve((expected * 10.0) as usize + 1024);
        let mut solo = driver.run_phase(1, unit, Some(&mut tracer));
        (opts.allocs.set_process_counting)(true);
        let allocs_before = (opts.allocs.process_total)();
        let mut load = driver.run_phase(spec.window, unit * 2, Some(&mut tracer));
        // Counting runs to the end of the phase's drain, a window's worth
        // of cycles past the deadline.
        let allocs = (opts.allocs.process_total)() - allocs_before;
        (opts.allocs.set_process_counting)(false);
        busiest = busiest.max(load.busy_pct);
        let traced = wall_rep(&solo, &load);
        absorb(&mut solo);
        absorb(&mut load);
        let counted = Counted {
            allocs,
            overhead_pct: 100.0 * (reps[0].cycles_per_s - traced.cycles_per_s)
                / reps[0].cycles_per_s,
            failed_ratio: failed as f64 / attempted.max(1) as f64,
            ..Counted::of_phase(&load)
        };
        per_layer = counted.layers();
        per_layer.extend(layers);
        let (residual, table) = CycleModel::of(spec, &load).budget(
            spec.name,
            &costs,
            traced.cpu_us_per_cycle,
            allocs as f64 / load.cycles.max(1) as f64,
        );
        per_layer.push(layer(
            "reactor.residual_us_per_cycle",
            "us",
            Better::Lower,
            residual,
        ));
        per_layer.push(layer("sim.wall_us_per_cycle", "us", Better::Lower, 0.0));
        budget = Some(table);
        trace_file = Some(write_trace(spec.name, &tracer, opts)?);
    }

    let mut check = driver.final_check();
    attempted += check.attempted;
    failed += check.failed;
    failures.append(&mut check.failures);
    let correct = failed == 0;
    driver.into_cluster().tear_down();

    let peak_rss_mb = ProcSnapshot::take().peak_rss_kb as f64 / 1024.0;
    let (end_to_end, diagnostic) = summarise(&reps, &setups, peak_rss_mb);
    if opts.trace {
        per_layer.extend(
            diagnostic
                .iter()
                .map(|(name, s)| layer(name, "us", Better::Lower, s.median)),
        );
    }
    Ok(RunOutput {
        result: WorkloadResult {
            workload: spec.name,
            clock: spec.clock.name(),
            link: "loopback, no injected delay",
            sites: spec.sites,
            window: spec.window,
            window_note: spec.window_note,
            shards,
            driver_threads: 1,
            attempted,
            failed,
            correct,
            cycles_measured: reps.iter().map(|r| r.cycles).sum(),
            driver_busy_pct: busiest,
            end_to_end,
            diagnostic,
            per_layer,
            failures,
        },
        trace_file,
        budget,
    })
}

fn write_trace(workload: &str, tracer: &Tracer, opts: &RunOptions) -> Result<PathBuf, String> {
    let path = opts.scratch.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(TRACE_FILE_SPANS).render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn virtual_rep(run: &WanRun) -> RepValues {
    let c = run.cycles.max(1) as f64;
    RepValues {
        cycles_per_s: run.cycles as f64 / run.virtual_elapsed.as_secs_f64(),
        cycle_ms: p50_p99(&run.cycle_ns, 1e6),
        acquire_us: p50_p99(&run.acquire_ns, 1e3),
        release_us: p50_p99(&run.release_ns, 1e3),
        cpu_us_per_cycle: run.cpu.as_secs_f64() * 1e6 / c,
        datagrams_per_cycle: run.datagrams as f64 / c,
        wire_bytes_per_cycle: run.wire_bytes as f64 / c,
        cycles: run.cycles,
        latency_samples: run.cycle_ns.len() as u64,
    }
}

fn run_virtual(spec: WorkloadSpec, opts: &RunOptions) -> Result<RunOutput, String> {
    let cycles_per_site = if opts.smoke {
        spec.scripted_cycles / 10
    } else {
        spec.scripted_cycles
    };
    let probed = if opts.trace {
        Some(probe_layers(opts)?)
    } else {
        None
    };
    let plan = WanPlan::new(spec, opts.seed, cycles_per_site);

    let setups_wanted = if opts.smoke { 1 } else { SIM_SETUPS };
    let mut setups = Vec::with_capacity(setups_wanted);
    for _ in 0..setups_wanted {
        let start = Instant::now();
        drop(plan.set_up());
        setups.push(start.elapsed().as_secs_f64());
    }

    let reps_wanted = if opts.smoke || opts.trace {
        1
    } else {
        SIM_REPS
    };
    let mut runs: Vec<WanRun> = Vec::with_capacity(reps_wanted);
    for _ in 0..reps_wanted {
        runs.push(plan.run(plan.set_up()));
    }
    let first = &runs[0];
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let mut failures = first.failures.clone();
    // The simulation is a function of the seed: repetitions exist to
    // steady the real-CPU figures, and must agree on everything virtual.
    for other in &runs[1..] {
        if (&other.cycle_ns, other.datagrams, other.wire_bytes)
            != (&first.cycle_ns, first.datagrams, first.wire_bytes)
        {
            attempted += 1;
            failed += 1;
            failures.push(format!(
                "{}: two runs of seed {} differ",
                spec.name, opts.seed
            ));
        }
    }

    let mut per_layer = Vec::new();
    let mut trace_file = None;
    let mut budget = None;
    if let Some(Probed {
        mut tracer, layers, ..
    }) = probed
    {
        // Virtual-time spans: one per cycle, laid end to end, from the
        // scripts' records.
        tracer.reserve(first.cycle_ns.len());
        let mut at = 0u64;
        for (i, ns) in first.cycle_ns.iter().enumerate() {
            tracer.record("cycle", at, at + ns, None, i as u64);
            at += ns;
        }
        let c = first.cycles.max(1) as f64;
        let counted = Counted {
            cycles: first.cycles,
            timers_fired: first.timers_fired,
            delta_pushes: first.delta.0,
            delta_bytes_saved: first.delta.1,
            delta_nacks: first.delta.2,
            stale_home_redirects: first.stale_home_redirects,
            failed_ratio: failed as f64 / attempted.max(1) as f64,
            ..Counted::default()
        };
        per_layer = counted.layers();
        per_layer.extend(layers);
        per_layer.push(layer(
            "reactor.residual_us_per_cycle",
            "us",
            Better::Lower,
            0.0,
        ));
        per_layer.push(layer(
            "sim.wall_us_per_cycle",
            "us",
            Better::Lower,
            first.wall.as_secs_f64() * 1e6 / c,
        ));
        budget = Some(format!(
            "one {} cycle = {:.2} datagrams, {:.0} wire bytes, {:.1} us real CPU in the simulator \
             (virtual clock: no kernel, no reactor; the per-layer split applies to wall workloads)\n",
            spec.name,
            first.datagrams as f64 / c,
            first.wire_bytes as f64 / c,
            first.cpu.as_secs_f64() * 1e6 / c,
        ));
        trace_file = Some(write_trace(spec.name, &tracer, opts)?);
    }

    let reps: Vec<RepValues> = runs.iter().map(virtual_rep).collect();
    let peak_rss_mb = ProcSnapshot::take().peak_rss_kb as f64 / 1024.0;
    let (end_to_end, diagnostic) = summarise(&reps, &setups, peak_rss_mb);
    if opts.trace {
        per_layer.extend(
            diagnostic
                .iter()
                .map(|(name, s)| layer(name, "us", Better::Lower, s.median)),
        );
    }
    Ok(RunOutput {
        result: WorkloadResult {
            workload: spec.name,
            clock: spec.clock.name(),
            link: "sim wan (7 ms, jitter, 0.2 % loss, seeded)",
            sites: spec.sites,
            window: spec.sites,
            window_note: spec.window_note,
            shards: 0,
            driver_threads: 1,
            attempted,
            failed,
            correct: failed == 0,
            cycles_measured: first.cycles,
            driver_busy_pct: 0.0,
            end_to_end,
            diagnostic,
            per_layer,
            failures,
        },
        trace_file,
        budget,
    })
}

/// How many of each unit of work one cycle of a workload does, taken from
/// the traced load phase's counters where the runtime counts them and
/// from the workload's shape where it does not.
struct CycleModel {
    /// MochaNet messages (each is encoded once and decoded once).
    msgs: f64,
    /// Of those, messages carrying a full 64 KiB payload.
    bulk_msgs: f64,
    /// UDP datagrams.
    datagrams: f64,
    /// Requests through a `MochaHandle` (acquire, read, write, release),
    /// each of which wakes its shard with a datagram to itself.
    requests: f64,
    /// Full 64 KiB disseminations started (writer side).
    full_pushes: f64,
    /// Delta disseminations started.
    delta_pushes: f64,
    /// Full 64 KiB WAL appends.
    wal_appends: f64,
    /// Snapshot compactions.
    compactions: f64,
    /// Payload diffs computed that found nothing to share.
    diff_misses: f64,
    /// Payload diffs that produced a small script.
    diff_hits: f64,
}

impl CycleModel {
    fn of(spec: WorkloadSpec, load: &PhaseResult) -> CycleModel {
        let c = load.cycles.max(1) as f64;
        let big = spec.payload_len >= 32 * 1024;
        let write_share = match spec.write {
            WritePolicy::Rewrite => 1.0,
            WritePolicy::Edit { one_in, .. } => 1.0 / one_in as f64,
        };
        let delta_pushes = load.rt.delta_pushes as f64 / c;
        let pushes = write_share * (spec.ur - 1) as f64;
        let full_pushes = (pushes - delta_pushes).max(0.0) + load.rt.delta_nacks as f64 / c;
        // A transfer on acquire moves the payload once more whenever the
        // next member was not among the push targets.
        let transfers = if spec.ur < spec.members {
            write_share
        } else {
            0.0
        };
        let bulk_msgs = if big { full_pushes + transfers } else { 0.0 };
        let appends = if spec.durable {
            // Every release journals at the releaser; every applied push
            // journals at its target.
            1.0 + pushes
        } else {
            0.0
        };
        CycleModel {
            msgs: load.rt.msgs_sent as f64 / c,
            bulk_msgs,
            datagrams: load.rt.datagrams_sent as f64 / c,
            requests: 3.0 + write_share,
            full_pushes: if big { full_pushes } else { 0.0 },
            delta_pushes,
            wal_appends: appends,
            compactions: appends / 64.0,
            diff_misses: if matches!(spec.write, WritePolicy::Rewrite) && spec.ur > 1 {
                write_share
            } else {
                0.0
            },
            diff_hits: if matches!(spec.write, WritePolicy::Edit { .. }) {
                write_share
            } else {
                0.0
            },
        }
    }

    /// Prices the model with the probes' unit costs. Returns the CPU the
    /// model does not explain, and the printed table.
    fn budget(&self, workload: &str, u: &UnitCosts, cpu_us: f64, allocs: f64) -> (f64, String) {
        let ns = |x: f64| x / 1e3;
        let ctl_msgs = (self.msgs - self.bulk_msgs).max(0.0);
        let wire = ctl_msgs * ns(u.encode_ctl_ns + u.decode_ctl_ns)
            + self.bulk_msgs * ns(u.encode_data_64k_ns + u.decode_data_64k_ns)
            + self.diff_misses * ns(u.delta_diff_miss_ns)
            + self.diff_hits * ns(u.delta_diff_hit_ns)
            + self.delta_pushes * ns(u.delta_apply_ns);
        let net = ctl_msgs * ns(u.net_small_msg_ns) + self.bulk_msgs * ns(u.net_bulk_64k_ns);
        let udp = self.datagrams * ns(u.udp_datagram_ns) + self.requests * ns(u.udp_wake_ns);
        let sync = ns(u.sync_handoff_ns);
        let daemon = self.full_pushes
            * ns(u.daemon_disseminate_64k_ns + u.daemon_apply_push_64k_ns)
            + self.delta_pushes * ns(u.daemon_disseminate_delta_ns + u.daemon_apply_delta_ns);
        let store = self.wal_appends * ns(u.store_append_64k_ns)
            + self.compactions * ns(u.store_compact_ns);
        let explained = wire + net + udp + sync + daemon + store;
        let residual = cpu_us - explained;
        let table = format!(
            "one {workload} cycle = {:.2} datagrams, {:.1} allocations, {:.1} us CPU, split\n\
             \x20 wire {:>9.1} us   ({:.2} control + {:.2} bulk messages encoded and decoded, diffs)\n\
             \x20 net  {:>9.1} us   (MochaNet send -> deliver -> ack, both endpoints)\n\
             \x20 udp  {:>9.1} us   ({:.2} datagrams x send+recv syscalls, {:.2} shard wakes)\n\
             \x20 sync {:>9.1} us   (one acquire + release at the coordinator)\n\
             \x20 daemon {:>7.1} us   ({:.2} full + {:.2} delta pushes, both ends)\n\
             \x20 store  {:>7.1} us   ({:.2} WAL appends, {:.3} compactions)\n\
             \x20 residual {:>5.1} us   (reactor turns, channels, wakes, scheduling, generator: \
             what no probe explains)\n",
            self.datagrams,
            allocs,
            cpu_us,
            wire,
            ctl_msgs,
            self.bulk_msgs,
            net,
            udp,
            self.datagrams,
            self.requests,
            sync,
            daemon,
            self.full_pushes,
            self.delta_pushes,
            store,
            self.wal_appends,
            self.compactions,
            residual,
        );
        (residual, table)
    }
}
