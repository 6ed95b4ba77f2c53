//! `mochad` — one Mocha site as one OS process.
//!
//! Boots a single site of the socket runtime from a hostfile whose
//! entries carry addresses (`siteN=ip:port`), registers a demo counter
//! replica, and runs a small workload. This is the deployment shape of
//! the paper's prototypes: independent daemons on separate hosts talking
//! MochaNet over UDP (and TCP for bulk data in `--hybrid` mode).
//!
//! ```text
//! mochad --hostfile hosts.txt --site 0 --workload serve
//! mochad --hostfile hosts.txt --site 1 --workload incr:25
//! ```
//!
//! Workloads:
//!
//! * `serve` — print `READY`, participate in the protocol until stdin
//!   closes, then exit. Used for the home/coordinator process. Each
//!   stdin line reading `read` acquires the lock once and prints
//!   `VALUE <value>` — the control channel multi-process tests use to
//!   assert entry consistency.
//! * `incr:N` — acquire the demo lock N times, incrementing the shared
//!   counter under it each time; print `FINAL <value>` when done.
//! * `read` — acquire once, print `VALUE <value>`, release clean.
//!
//! Every run prints a `RECOVERED <n>` line at boot (how many locks were
//! replayed from the `--store-dir` journal; 0 without one) and a
//! `METRICS <counters>` line at exit — the runtime's mirror of the
//! simulator's per-run metrics.

use std::process::ExitCode;
use std::time::Duration;

use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::hostfile::HostFile;
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::socket::{address_book, MochaHandle, SocketRuntime};
use mocha_store::StoreConfig;
use mocha_wire::{LockId, ReplicaPayload, SiteId};

/// The demo lock every workload contends on.
const LOCK: LockId = LockId(1);

struct Args {
    hostfile: String,
    site: u32,
    home: u32,
    hybrid: bool,
    ur: usize,
    store_dir: Option<String>,
    workload: Workload,
}

enum Workload {
    Serve,
    Incr(u32),
    Read,
}

fn usage() -> ! {
    eprintln!(
        "usage: mochad --hostfile PATH --site N [--home N] [--hybrid] [--ur K] \
         [--store-dir PATH] --workload serve|incr:N|read"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        hostfile: String::new(),
        site: u32::MAX,
        home: 0,
        hybrid: false,
        ur: 1,
        store_dir: None,
        workload: Workload::Serve,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--hostfile" => args.hostfile = value(),
            "--site" => args.site = value().parse().unwrap_or_else(|_| usage()),
            "--home" => args.home = value().parse().unwrap_or_else(|_| usage()),
            "--ur" => args.ur = value().parse().unwrap_or_else(|_| usage()),
            "--store-dir" => args.store_dir = Some(value()),
            "--hybrid" => args.hybrid = true,
            "--workload" => {
                let w = value();
                args.workload = match w.as_str() {
                    "serve" => Workload::Serve,
                    "read" => Workload::Read,
                    _ => match w.strip_prefix("incr:").and_then(|n| n.parse().ok()) {
                        Some(n) => Workload::Incr(n),
                        None => usage(),
                    },
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if args.hostfile.is_empty() || args.site == u32::MAX {
        usage();
    }
    args
}

fn counter_value(payload: &ReplicaPayload) -> i64 {
    match payload {
        ReplicaPayload::I64s(v) => v.first().copied().unwrap_or(0),
        _ => 0,
    }
}

fn run_workload(handle: &MochaHandle, workload: &Workload) -> Result<(), String> {
    let counter = replica_id("counter");
    match workload {
        Workload::Serve => {
            println!("READY");
            // Participate until the parent closes our stdin; serve `read`
            // requests in the meantime.
            for line in std::io::stdin().lines() {
                let Ok(line) = line else { break };
                if line.trim() == "read" {
                    handle.lock(LOCK).map_err(|e| e.to_string())?;
                    let v = counter_value(&handle.read(counter).map_err(|e| e.to_string())?);
                    handle.unlock(LOCK, false).map_err(|e| e.to_string())?;
                    println!("VALUE {v}");
                }
            }
        }
        Workload::Incr(n) => {
            for _ in 0..*n {
                handle.lock(LOCK).map_err(|e| e.to_string())?;
                let v = counter_value(&handle.read(counter).map_err(|e| e.to_string())?);
                handle
                    .write(counter, ReplicaPayload::I64s(vec![v + 1]))
                    .map_err(|e| e.to_string())?;
                handle.unlock(LOCK, true).map_err(|e| e.to_string())?;
            }
            handle.lock(LOCK).map_err(|e| e.to_string())?;
            let v = counter_value(&handle.read(counter).map_err(|e| e.to_string())?);
            handle.unlock(LOCK, false).map_err(|e| e.to_string())?;
            println!("FINAL {v}");
        }
        Workload::Read => {
            handle.lock(LOCK).map_err(|e| e.to_string())?;
            let v = counter_value(&handle.read(counter).map_err(|e| e.to_string())?);
            handle.unlock(LOCK, false).map_err(|e| e.to_string())?;
            println!("VALUE {v}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match std::fs::read_to_string(&args.hostfile) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mochad: cannot read {}: {e}", args.hostfile);
            return ExitCode::from(2);
        }
    };
    let hosts: HostFile = match text.parse() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mochad: {}: {e}", args.hostfile);
            return ExitCode::from(2);
        }
    };
    let book = match address_book(&hosts) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mochad: {}: {e}", args.hostfile);
            return ExitCode::from(2);
        }
    };
    let config = if args.hybrid {
        MochaConfig::hybrid()
    } else {
        MochaConfig::basic()
    };
    let mut builder = SocketRuntime::builder().config(config);
    if let Some(dir) = &args.store_dir {
        // Durable mode: journal applied versions under dir/site-<N>/ so a
        // restarted process replays them and rejoins with its state.
        builder = builder.store_dir(dir, StoreConfig::default());
    }
    let site = match builder.build_site(SiteId(args.site), SiteId(args.home), book) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mochad: cannot boot site {}: {e}", args.site);
            return ExitCode::FAILURE;
        }
    };
    // Observable recovery: how many locks came back from this site's own
    // journal (0 without --store-dir or on a first boot). The
    // kill-and-restart test keys on this to prove the state survived the
    // process, not merely the cluster.
    println!("RECOVERED {}", site.recovered_locks());
    let handle = site.handle();
    if let Err(e) = handle.register(
        LOCK,
        vec![ReplicaSpec::new("counter", ReplicaPayload::I64s(vec![0]))],
    ) {
        eprintln!("mochad: register failed: {e}");
        return ExitCode::FAILURE;
    }
    if args.ur > 1 {
        let avail = AvailabilityConfig { ur: args.ur };
        if let Err(e) = handle.set_availability(LOCK, avail) {
            eprintln!("mochad: set_availability failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Let peers bind before the workload starts hammering the coordinator
    // (MochaNet would retry through the skew anyway; this trims noise).
    std::thread::sleep(Duration::from_millis(50));

    let result = run_workload(&handle, &args.workload);
    println!("METRICS {}", site.metrics());
    site.shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mochad: workload failed: {e}");
            ExitCode::FAILURE
        }
    }
}
