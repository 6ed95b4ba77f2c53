//! Command line: `run` and `compare`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::compare::Comparison;
use crate::json::Json;
use crate::probes::AllocCounter;
use crate::procfs::HostInfo;
use crate::result::{document, end_to_end, WorkloadResult};
use crate::run::{run_workload, RunOptions, RunOutput};
use crate::workload::{self, WorkloadSpec};

const USAGE: &str = "\
usage: mocha-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
       mocha-perf compare <a.json> <b.json>

run      drives the named workload (default: all four) and prints every metric by name
         and unit; the last line of output is one JSON object. --seconds is the measured
         time per workload (default 30: 3 s warm-up, then 3 x (3 s solo + 6 s load)).
         --trace reruns one repetition with spans on, runs the layer probes, prints the
         per-layer metrics and the cost budget, and writes trace-<workload>.json under
         $CARGO_TARGET_DIR/mocha-perf (default target/mocha-perf).
         --smoke runs all four workloads in about ten seconds, checks only.
         --out writes the result file `compare` reads.
compare  holds each end-to-end metric of b against a with the bound stored in a; exits 1
         on any `worse` row or any rise in failed operations.
workloads: lock_small, handoff_64k, delta_durable (wall clock), wan_sim (virtual clock)
";

/// What `run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number from 1 to 600".to_string())?;
            }
            "--trace" => {
                // Bare `--trace` means on; the acceptance driver passes 0 or 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workload::by_name(name).is_none() {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(parsed)
}

/// Where store files and traces go: inside the build directory, which is
/// inside the checkout.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mocha-perf")
}

fn report(spec: WorkloadSpec, out: &RunOutput, smoke: bool) -> String {
    let r = &out.result;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} ({} clock; link: {}; {} sites, W={}, {} shard(s), {} driver thread(s))",
        r.workload, r.clock, r.link, r.sites, r.window, r.shards, r.driver_threads
    );
    let _ = writeln!(
        s,
        "   why: {}",
        spec.why.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    let _ = writeln!(
        s,
        "   attempted {} ops, failed {} (failed_ops_ratio {}), {} cycles measured, replica check {}, driver busy {:.1} %{}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.cycles_measured,
        if r.correct { "passed" } else { "FAILED" },
        r.driver_busy_pct,
        if r.driver_busy_pct > 50.0 {
            " -- INVALID: the generator was the bottleneck"
        } else {
            ""
        }
    );
    if !spec.window_note.is_empty() {
        let _ = writeln!(
            s,
            "   note: {}",
            spec.window_note
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    for f in &r.failures {
        let _ = writeln!(s, "   failure: {f}");
    }
    if smoke {
        return s;
    }
    if r.per_layer.is_empty() {
        let _ = writeln!(
            s,
            "   {:<22} {:>8} {:>14} {:>14} {:>14} {:>5} {:>9}",
            "end-to-end metric", "unit", "median", "min", "max", "reps", "samples"
        );
        for (name, sum) in &r.end_to_end {
            let unit = end_to_end(name).map_or("", |m| m.unit);
            let _ = writeln!(
                s,
                "   {:<22} {:>8} {:>14.4} {:>14.4} {:>14.4} {:>5} {:>9}",
                name, unit, sum.median, sum.min, sum.max, sum.reps, sum.samples
            );
        }
        for (name, sum) in &r.diagnostic {
            let _ = writeln!(
                s,
                "   {:<22} {:>8} {:>14.4} {:>14.4} {:>14.4} {:>5} {:>9}  (diagnostic, no bound)",
                name, "us", sum.median, sum.min, sum.max, sum.reps, sum.samples
            );
        }
    } else {
        let _ = writeln!(
            s,
            "   {:<40} {:>8} {:>16}",
            "per-layer metric", "unit", "value"
        );
        for m in &r.per_layer {
            let _ = writeln!(s, "   {:<40} {:>8} {:>16.3}", m.name, m.unit, m.value);
        }
        if let Some(budget) = &out.budget {
            for line in budget.lines() {
                let _ = writeln!(s, "   {line}");
            }
        }
        if let Some(path) = &out.trace_file {
            let _ = writeln!(s, "   trace written to {}", path.display());
        }
    }
    s
}

fn run(args: &[String], allocs: AllocCounter) -> Result<i32, String> {
    let parsed = parse_run(args)?;
    let specs: Vec<WorkloadSpec> = match &parsed.workload {
        Some(name) => vec![workload::by_name(name).expect("checked by parse_run")],
        None => workload::ALL.to_vec(),
    };
    let host = HostInfo::gather();
    let seconds = if parsed.smoke { 2.0 } else { parsed.seconds };
    println!(
        "mocha-perf: commit {}, nproc {}, kernel {}, {}, profile {}, seed {}, {} s per workload{}",
        host.commit,
        host.nproc,
        host.kernel,
        host.rustc,
        host.profile,
        parsed.seed,
        seconds,
        if parsed.smoke {
            " (smoke: checks only, no numbers)"
        } else {
            ""
        }
    );
    let opts = RunOptions {
        seed: parsed.seed,
        seconds,
        trace: parsed.trace,
        smoke: parsed.smoke,
        scratch: scratch_dir(),
        allocs,
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    for spec in specs {
        let out = run_workload(spec, &opts)?;
        print!("{}", report(spec, &out, parsed.smoke));
        results.push(out.result);
    }
    if let Some(path) = &parsed.out {
        let doc = document(&host, parsed.seed, opts.seconds as u64, &results);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("result file written to {}", path.display());
    }
    let all_valid = results.iter().all(WorkloadResult::valid);
    // The last line: the acceptance driver's object for a single
    // workload, the same objects keyed by workload otherwise.
    if let [only] = results.as_slice() {
        println!("{}", only.contract_line());
    } else {
        let lines = results.iter().map(|r| {
            (
                r.workload,
                Json::parse(&r.contract_line()).expect("own rendering parses"),
            )
        });
        println!("{}", Json::obj(lines).render());
    }
    Ok(i32::from(!all_valid))
}

fn compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let cmp = Comparison::of(&load(a)?, &load(b)?)?;
    print!("{}", cmp.render());
    if cmp.regressed() {
        println!("REGRESSED: {b} is worse than {a}");
        Ok(1)
    } else {
        println!("ok: no metric of {b} is worse than {a} beyond its bound");
        Ok(0)
    }
}

/// Runs the command line; returns the process exit code (0 fine, 1 a
/// run was invalid or a comparison regressed, 2 bad usage or set-up
/// failure).
pub fn main(args: &[String], allocs: AllocCounter) -> i32 {
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest, allocs),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mocha-perf: {e}\n\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_acceptance_drivers_arguments() {
        let p = parse_run(&args("--workload wan_sim --seed 7 --seconds 30 --trace 0")).unwrap();
        assert_eq!(
            (p.workload.as_deref(), p.seed, p.seconds, p.trace),
            (Some("wan_sim"), 7, 30.0, false)
        );
        assert!(parse_run(&args("--trace 1")).unwrap().trace);
        assert!(parse_run(&args("--trace --seed 2")).unwrap().trace);
        assert!(parse_run(&args("--trace")).unwrap().trace);
        let d = parse_run(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.smoke),
            (1, 30.0, false, false)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds inf",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(main(&args("bogus"), AllocCounter::disabled()), 2);
        assert_eq!(main(&args("compare one.json"), AllocCounter::disabled()), 2);
    }
}
