//! `mocha-perf compare <a.json> <b.json>`: holds each end-to-end metric
//! of result file `b` against `a` using the bound stored with the metric.

use std::fmt::Write as _;

use crate::json::Json;

/// What happened to one metric on one workload between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the good way by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Moved the bad way by more than the bound.
    Worse,
    /// The repetitions within a file spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median in the first file.
    pub a: f64,
    /// Median in the second file.
    pub b: f64,
    /// Wider of the two files' repetition spreads, as a share of the median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric. `change` is signed so that positive is worse.
pub fn judge(a: f64, b: f64, lower_is_better: bool, spread: f64, bound: f64) -> Verdict {
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison of two parsed result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric) present in both files.
    pub rows: Vec<Row>,
    /// Workloads whose `failed_ops_ratio` rose, with both ratios.
    pub failed_rose: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Compares `b` against baseline `a`.
    ///
    /// # Errors
    ///
    /// Either document lacks the `workloads` object, or they share no
    /// workload.
    pub fn of(a: &Json, b: &Json) -> Result<Comparison, String> {
        let workloads = |doc: &Json, which: &str| {
            doc.get("workloads")
                .and_then(Json::as_obj)
                .map(<[(String, Json)]>::to_vec)
                .ok_or_else(|| format!("{which}: not a mocha-perf result file (no \"workloads\")"))
        };
        let (wa, wb) = (workloads(a, "first file")?, workloads(b, "second file")?);
        let mut out = Comparison {
            rows: Vec::new(),
            failed_rose: Vec::new(),
        };
        for (name, ra) in &wa {
            let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let ratio = |r: &Json| {
                r.get("failed_ops_ratio")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            if ratio(rb) > ratio(ra) {
                out.failed_rose.push((name.clone(), ratio(ra), ratio(rb)));
            }
            let metrics = ra.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
            for (metric, ma) in metrics {
                let Some(mb) = rb.get("end_to_end").and_then(|e| e.get(metric)) else {
                    continue;
                };
                let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
                let (Some(va), Some(vb)) = (num(ma, "median"), num(mb, "median")) else {
                    continue;
                };
                // The baseline's bound and direction are the contract.
                let bound = num(ma, "bound").unwrap_or(0.0);
                let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
                let spread = num(ma, "spread")
                    .unwrap_or(0.0)
                    .max(num(mb, "spread").unwrap_or(0.0));
                out.rows.push(Row {
                    workload: name.clone(),
                    metric: metric.clone(),
                    a: va,
                    b: vb,
                    spread,
                    bound,
                    verdict: judge(va, vb, lower, spread, bound),
                });
            }
        }
        if out.rows.is_empty() {
            return Err("the two files share no workload with end-to-end metrics".into());
        }
        Ok(out)
    }

    /// Whether the second file must be rejected: any `worse` row, or any
    /// rise in failed operations.
    pub fn regressed(&self) -> bool {
        !self.failed_rose.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// The table, one row per (workload, metric).
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
            "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound"
        );
        for r in &self.rows {
            let change = if r.a == 0.0 {
                0.0
            } else {
                100.0 * (r.b - r.a) / r.a.abs()
            };
            let _ = writeln!(
                s,
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                change,
                100.0 * r.spread,
                100.0 * r.bound,
                r.verdict.name()
            );
        }
        for (w, a, b) in &self.failed_rose {
            let _ = writeln!(s, "{w:<14} failed_ops_ratio rose from {a} to {b}: rejected");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::HostInfo;
    use crate::result::{document, WorkloadResult, END_TO_END};
    use crate::stats::Summary;

    fn result(scale_cycles: f64, failed: u64) -> Json {
        let r = WorkloadResult {
            workload: "lock_small",
            clock: "wall",
            link: "loopback",
            sites: 32,
            window: 16,
            window_note: "",
            shards: 2,
            driver_threads: 1,
            attempted: 1000,
            failed,
            correct: failed == 0,
            cycles_measured: 100,
            driver_busy_pct: 20.0,
            end_to_end: END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "cycles_per_s" {
                        1000.0 * scale_cycles
                    } else {
                        10.0
                    };
                    (m.name, Summary::of(&[v, v * 1.01, v * 0.99], 10).unwrap())
                })
                .collect(),
            diagnostic: vec![],
            per_layer: vec![],
            failures: vec![],
        };
        let host = HostInfo {
            commit: "c".into(),
            nproc: 2,
            kernel: "k".into(),
            rustc: "r".into(),
            profile: "release",
        };
        document(&host, 1, 30, &[r])
    }

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        assert_eq!(judge(100.0, 115.0, true, 0.01, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 85.0, true, 0.01, 0.10), Verdict::Better);
        assert_eq!(judge(100.0, 105.0, true, 0.01, 0.10), Verdict::Same);
        assert_eq!(judge(100.0, 80.0, false, 0.01, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, false, 0.01, 0.10), Verdict::Better);
        assert_eq!(judge(100.0, 80.0, false, 0.30, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.0, 0.0, true, 0.0, 0.10), Verdict::Same);
    }

    #[test]
    fn same_file_passes_and_a_drop_beyond_the_bound_is_rejected() {
        let base = result(1.0, 0);
        let same = Comparison::of(&base, &base).unwrap();
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(!same.regressed(), "{}", same.render());
        let slower = Comparison::of(&base, &result(0.7, 0)).unwrap();
        assert!(slower.regressed());
        let row = slower
            .rows
            .iter()
            .find(|r| r.metric == "cycles_per_s")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Worse);
        assert!(slower.render().contains("worse"));
        // A 20 % drop is inside this host's 25 % bound.
        assert!(!Comparison::of(&base, &result(0.8, 0)).unwrap().regressed());
        let faster = Comparison::of(&base, &result(1.4, 0)).unwrap();
        assert!(!faster.regressed());
    }

    #[test]
    fn any_rise_in_failed_operations_is_rejected() {
        let cmp = Comparison::of(&result(1.0, 0), &result(1.0, 1)).unwrap();
        assert!(cmp.regressed());
        assert!(cmp.render().contains("failed_ops_ratio rose"));
    }

    #[test]
    fn files_of_another_kind_are_refused() {
        assert!(Comparison::of(&Json::obj::<&str>([]), &result(1.0, 0)).is_err());
    }
}
