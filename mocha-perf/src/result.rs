//! Metric definitions (name, unit, direction, regression bound) and the
//! result document a run produces.

use crate::json::Json;
use crate::procfs::HostInfo;
use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Name used in result files and BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of Mocha would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` (and the acceptance driver) calls it a regression.
    pub bound: f64,
}

/// The bounded end-to-end metrics, identical on every workload.
///
/// Bounds are max(the issue's figure, three times the widest spread seen
/// across ten seeds on any workload), capped at the contract's 25 %. On the
/// 2-vCPU reference sandbox the host itself drifts by 10 % and more over
/// minutes (the same seed read 17.5 k and 14.3 k `cycles_per_s` half an hour
/// apart), so every timing sits at or near the cap; the counts, which do
/// not drift, keep the issue's 2 %. BENCHMARK.json repeats the bounds.
pub const END_TO_END: [MetricDef; 10] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricDef {
        name: "cycle_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    MetricDef {
        name: "cycle_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "acquire_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "release_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "cpu_us_per_cycle",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "datagrams_per_cycle",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    MetricDef {
        name: "wire_bytes_per_cycle",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The two solo-phase p99s. The issue lists them end to end, and provides
/// that a p99 which cannot hold 25 % moves, under the same name, to the
/// per-layer list as a diagnostic: across ten seeds `acquire_us_p99`
/// spread 27 % and `release_us_p99` 20 % on `lock_small`. They are printed
/// and stored with every run, and reported by `--trace 1`.
pub const DIAGNOSTIC: [(&str, &str); 2] = [("acquire_us_p99", "us"), ("release_us_p99", "us")];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<MetricDef> {
    END_TO_END.into_iter().find(|m| m.name == name)
}

/// One per-layer reading from the traced run. No bound: these explain a
/// change, they do not gate it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The reading.
    pub value: f64,
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// "wall" or "virtual".
    pub clock: &'static str,
    /// What the datagrams crossed ("loopback, no injected delay" / "sim wan").
    pub link: &'static str,
    /// Sites in the cluster, as run.
    pub sites: usize,
    /// Chains in flight in the load phase, as run.
    pub window: usize,
    /// Why `window` is lower than first specified, if it is.
    pub window_note: &'static str,
    /// Reactor threads (0 for the simulator).
    pub shards: usize,
    /// Load-generator threads.
    pub driver_threads: usize,
    /// Operations issued, including the final replica check.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every read saw the previous cycle's write and the final replica
    /// check passed.
    pub correct: bool,
    /// Cycles completed inside measured phases.
    pub cycles_measured: u64,
    /// Highest share of a load phase the generator was busy, percent;
    /// above 50 the run measured the generator, not Mocha.
    pub driver_busy_pct: f64,
    /// End-to-end metrics in [`END_TO_END`] order (untraced run only).
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// The [`DIAGNOSTIC`] p99s, in that order: unbounded.
    pub diagnostic: Vec<(&'static str, Summary)>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<LayerMetric>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// A run is valid when nothing failed and the generator was not the
    /// bottleneck.
    pub fn valid(&self) -> bool {
        self.correct && self.failed == 0 && self.driver_busy_pct <= 50.0
    }

    /// The line the acceptance driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<(&str, Json)> = if self.per_layer.is_empty() {
            self.end_to_end
                .iter()
                .map(|(name, s)| {
                    let unit = end_to_end(name).map_or("", |m| m.unit);
                    (*name, value_with_unit(s.median, unit))
                })
                .collect()
        } else {
            self.per_layer
                .iter()
                .map(|m| (m.name, value_with_unit(m.value, m.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.valid())),
            ("attempted", Json::count(self.attempted.max(1))),
            ("failed", Json::count(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The workload's entry in a result file.
    pub fn to_json(&self) -> Json {
        let e2e = self.end_to_end.iter().map(|(name, s)| {
            let def = end_to_end(name);
            (
                *name,
                Json::obj([
                    ("median", Json::num(s.median)),
                    ("min", Json::num(s.min)),
                    ("max", Json::num(s.max)),
                    ("reps", Json::count(s.reps as u64)),
                    ("samples", Json::count(s.samples)),
                    ("spread", Json::num(s.spread())),
                    ("unit", Json::str(def.map_or("", |m| m.unit))),
                    (
                        "better",
                        Json::str(def.map_or("lower", |m| m.better.name())),
                    ),
                    ("bound", Json::num(def.map_or(0.0, |m| m.bound))),
                ]),
            )
        });
        let layers = self.per_layer.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.name())),
                ]),
            )
        });
        Json::obj([
            ("clock", Json::str(self.clock)),
            ("link", Json::str(self.link)),
            ("sites", Json::count(self.sites as u64)),
            ("window", Json::count(self.window as u64)),
            (
                "window_note",
                Json::str(
                    self.window_note
                        .split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
            ),
            ("shards", Json::count(self.shards as u64)),
            ("driver_threads", Json::count(self.driver_threads as u64)),
            ("attempted", Json::count(self.attempted)),
            ("failed", Json::count(self.failed)),
            (
                "failed_ops_ratio",
                Json::num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("correct", Json::Bool(self.correct)),
            ("valid", Json::Bool(self.valid())),
            ("cycles_measured", Json::count(self.cycles_measured)),
            ("driver_busy_pct", Json::num(self.driver_busy_pct)),
            ("end_to_end", Json::obj(e2e)),
            (
                "diagnostic",
                Json::obj(self.diagnostic.iter().map(|(name, s)| {
                    (
                        *name,
                        Json::obj([
                            ("median", Json::num(s.median)),
                            ("min", Json::num(s.min)),
                            ("max", Json::num(s.max)),
                        ]),
                    )
                })),
            ),
            ("per_layer", Json::obj(layers)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn value_with_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

/// A whole result file: where it was made, and one entry per workload.
pub fn document(host: &HostInfo, seed: u64, seconds: u64, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("schema", Json::str("mocha-perf/1")),
        ("commit", Json::str(host.commit.clone())),
        ("nproc", Json::count(host.nproc as u64)),
        ("kernel", Json::str(host.kernel.clone())),
        ("rustc", Json::str(host.rustc.clone())),
        ("profile", Json::str(host.profile)),
        ("seed", Json::count(seed)),
        ("seconds", Json::count(seconds)),
        (
            "workloads",
            Json::obj(results.iter().map(|r| (r.workload, r.to_json()))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "lock_small",
            clock: "wall",
            link: "loopback, no injected delay",
            sites: 32,
            window: 16,
            window_note: "",
            shards: 2,
            driver_threads: 1,
            attempted: 1000,
            failed: 0,
            correct: true,
            cycles_measured: 250,
            driver_busy_pct: 27.5,
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let v = 1.5 + i as f64;
                    (m.name, Summary::of(&[v, v * 1.01, v * 0.99], 100).unwrap())
                })
                .collect(),
            diagnostic: Vec::new(),
            per_layer: Vec::new(),
            failures: vec![],
        }
    }

    #[test]
    fn metric_names_are_unique_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = sample();
        let line = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Json::str("s"))
        );

        let mut traced = sample();
        traced.per_layer.push(LayerMetric {
            name: "wire.encode_ctl_ns",
            unit: "ns",
            better: Better::Lower,
            value: 41.5,
        });
        let line = Json::parse(&traced.contract_line()).unwrap();
        assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), 1);
    }

    #[test]
    fn a_busy_generator_or_a_failure_invalidates_the_run() {
        let mut r = sample();
        assert!(r.valid());
        r.driver_busy_pct = 61.0;
        assert!(!r.valid());
        let mut r = sample();
        r.failed = 1;
        assert!(!r.valid());
        assert!(r.contract_line().contains("\"correct\":false"));
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let host = HostInfo {
            commit: "abc".into(),
            nproc: 2,
            kernel: "k".into(),
            rustc: "r".into(),
            profile: "release",
        };
        let doc = document(&host, 1, 30, &[sample()]);
        let back = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
        let m = back
            .get("workloads")
            .and_then(|w| w.get("lock_small"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("cycles_per_s"))
            .unwrap();
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("better").and_then(Json::as_str), Some("higher"));
    }
}
