//! What a run reports: the driver's one-line JSON result, the result files
//! under `benchmark/out/` with their host record, and `wfbench check`, which
//! compares two sets of runs against the bounds in `spec`.

use crate::spec::{self, Better, Metric};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wfopt::common::Json;

/// Where and how the numbers were taken; written into every result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub profile: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc: nproc(),
            profile: env!("WFBENCH_PROFILE").to_string(),
            rustc: env!("WFBENCH_RUSTC").to_string(),
            commit,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"profile\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc, self.profile, self.rustc, self.commit
        )
    }

    fn from_json(j: &Json) -> Option<Host> {
        let s = |k: &str| Some(j.get(k)?.as_str()?.to_string());
        Some(Host {
            nproc: j.get("nproc")?.as_u64()? as usize,
            profile: s("profile")?,
            rustc: s("rustc")?,
            commit: s("commit")?,
        })
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measured statements attempted, and those that failed: an error, a
    /// timeout, a refusal or a checksum mismatch.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles (failed statements give none).
    pub samples: usize,
    pub latency_quartiles_ms: [f64; 3],
    /// Statement counts by kind (`warmup`, `measured`, per class, …).
    pub counts: BTreeMap<String, u64>,
    /// Every end-to-end metric (untraced) or every per-layer metric (traced).
    pub metrics: BTreeMap<String, f64>,
    /// `spec::DIAGNOSTICS` of an untraced run: recorded, not gated.
    pub diagnostics: BTreeMap<String, f64>,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn spec_metrics(&self) -> &'static [Metric] {
        if self.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.spec_metrics().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = finite(self.metrics.get(m.name).copied().unwrap_or(0.0));
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push('}');
        out
    }

    /// The driver's contract: the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The run as an object of a result file.
    pub fn to_json(&self) -> String {
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        let [q1, q2, q3] = self.latency_quartiles_ms.map(finite);
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", finite(*v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"fail_ratio\":{},\"samples\":{},\
             \"p90_supported\":{},\"latency_quartiles_ms\":[{q1},{q2},{q3}],\
             \"counts\":{{{counts}}},\"diagnostics\":{{{diagnostics}}},\"metrics\":{}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.fail_ratio(),
            self.samples,
            stats::supported(self.samples, 0.9),
            self.metrics_json()
        )
    }

    pub fn from_json(j: &Json) -> Option<Run> {
        let quartiles = j.get("latency_quartiles_ms")?.as_array()?;
        let mut metrics = BTreeMap::new();
        for (name, m) in j.get("metrics")?.members()? {
            metrics.insert(name.clone(), m.get("value")?.as_f64()?);
        }
        let mut counts = BTreeMap::new();
        for (name, v) in j.get("counts")?.members()? {
            counts.insert(name.clone(), v.as_u64()?);
        }
        let mut diagnostics = BTreeMap::new();
        for (name, v) in j.get("diagnostics")?.members()? {
            diagnostics.insert(name.clone(), v.as_f64()?);
        }
        Some(Run {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_u64()?,
            seconds: j.get("seconds")?.as_f64()?,
            trace: j.get("trace")?.as_bool()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            samples: j.get("samples")?.as_u64()? as usize,
            latency_quartiles_ms: [
                quartiles.first()?.as_f64()?,
                quartiles.get(1)?.as_f64()?,
                quartiles.get(2)?.as_f64()?,
            ],
            counts,
            metrics,
            diagnostics,
        })
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed={} trace={} attempted={} failed={} samples={}\n",
            self.workload, self.seed, self.trace as u8, self.attempted, self.failed, self.samples
        );
        for m in self.spec_metrics() {
            let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {:<32} {:>16.4} {}", m.name, v, m.unit);
        }
        for m in spec::DIAGNOSTICS {
            if let Some(v) = self.diagnostics.get(m.name) {
                let _ = writeln!(out, "  {:<32} {:>16.4} {} (not gated)", m.name, v, m.unit);
            }
        }
        out
    }
}

/// A result file: the host record and one or more runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub host: Host,
    pub runs: Vec<Run>,
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(Run::to_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\"host\":{},\"runs\":[\n{runs}\n]}}\n",
            self.host.to_json()
        )
    }

    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let host = doc
            .get("host")
            .and_then(Host::from_json)
            .ok_or("result file lacks a host record")?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("result file lacks runs")?
            .iter()
            .map(|r| Run::from_json(r).ok_or("malformed run"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultSet { host, runs })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between a set's quartiles is wider than the bound and the
    /// sets overlap: the comparison cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare set `b` against set `a` on one metric. `worse` is how far `b`'s
/// median is on the wrong side of `a`'s, as a share of `a`'s. A spread wider
/// than `spread_limit` leaves overlapping sets unresolved.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    spread_limit: f64,
) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let width = |v: &[f64]| {
        let [q1, _, q3] = stats::quartiles(v);
        if ma == 0.0 {
            0.0
        } else {
            (q3 - q1) / ma.abs()
        }
    };
    let spread = width(a).max(width(b));
    let every =
        |f: fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| f(sign * *y, sign * *x)));
    let verdict = if spread > spread_limit {
        if every(|y, x| y <= x) {
            Verdict::Ok
        } else if every(|y, x| y > x) && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, spread)
}

/// `wfbench check`: one row per (workload, metric); `Err` rows fail the check.
pub fn check(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    if a.host != b.host {
        let _ = writeln!(
            out,
            "note: host records differ: {:?} vs {:?}",
            a.host, b.host
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread"
    );
    for w in spec::WORKLOADS {
        let runs = |set: &ResultSet| -> Vec<Run> {
            set.runs
                .iter()
                .filter(|r| r.workload == w.name)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{:<14} missing from one set", w.name);
            pass = false;
            continue;
        }
        // Failures: any increase is a regression.
        let fail = |rs: &[Run]| {
            rs.iter().map(|r| r.failed).sum::<u64>() as f64
                / rs.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
        };
        let (fa, fb) = (fail(&ra), fail(&rb));
        let verdict = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        pass &= verdict == Verdict::Ok;
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:>14.6} {:>14.6} {:>8} {:>8}  {}",
            w.name,
            "fail_ratio",
            fa,
            fb,
            "-",
            "-",
            verdict.as_str()
        );

        let traced = ra[0].trace;
        if !traced {
            for m in spec::END_TO_END {
                let (va, vb) = (a.values(w.name, m.name), b.values(w.name, m.name));
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                // As the driver has it: set-up time is held to its bound
                // between the sets' medians, not in its run-to-run spread.
                let spread_limit = if m.name == "setup_s" {
                    f64::INFINITY
                } else {
                    bound
                };
                let (verdict, worse, spread) = judge(&va, &vb, m.better, bound, spread_limit);
                pass &= verdict == Verdict::Ok;
                let _ = writeln!(
                    out,
                    "{:<14} {:<28} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}%  {}",
                    w.name,
                    m.name,
                    stats::median(&va),
                    stats::median(&vb),
                    worse * 100.0,
                    spread * 100.0,
                    verdict.as_str()
                );
            }
            for m in spec::DIAGNOSTICS {
                let values = |rs: &[Run]| -> Vec<f64> {
                    rs.iter()
                        .filter_map(|r| r.diagnostics.get(m.name).copied())
                        .collect()
                };
                let (va, vb) = (values(&ra), values(&rb));
                if va.is_empty() && vb.is_empty() {
                    continue; // a diagnostic this workload does not have
                }
                let (_, worse, spread) = judge(&va, &vb, m.better, 1.0, 1.0);
                let _ = writeln!(
                    out,
                    "{:<14} {:<28} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}%  not gated",
                    w.name,
                    m.name,
                    stats::median(&va),
                    stats::median(&vb),
                    worse * 100.0,
                    spread * 100.0
                );
            }
        } else if matches!(w.kind, spec::Kind::InProc(_)) {
            // One client: counts of work repeat to the digit, whatever the seed
            // of the run-to-run noise; compare runs of equal seed.
            for name in spec::EXACT {
                let by_seed = |rs: &[Run]| -> BTreeMap<u64, f64> {
                    rs.iter()
                        .filter_map(|r| Some((r.seed, *r.metrics.get(*name)?)))
                        .collect()
                };
                let (sa, sb) = (by_seed(&ra), by_seed(&rb));
                let differs = sa
                    .iter()
                    .any(|(seed, v)| sb.get(seed).is_some_and(|o| o != v));
                if differs {
                    pass = false;
                    let _ = writeln!(
                        out,
                        "{:<14} {:<28} exact count differs between the sets",
                        w.name, name
                    );
                }
            }
            let _ = writeln!(out, "{:<14} {:<28} compared", w.name, "exact counts");
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.into(),
            seed: 42,
            seconds: 0.5,
            trace,
            attempted: 12,
            failed: 0,
            samples: 12,
            latency_quartiles_ms: [1.5, 2.25, 3.0],
            counts: [("measured".to_string(), 12), ("warmup".to_string(), 2)].into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            diagnostics: [("stmt_p50_ms".to_string(), 2.5)].into(),
        }
    }

    fn full_run(workload: &str, scale: f64) -> Run {
        let metrics: Vec<(&str, f64)> = spec::END_TO_END
            .iter()
            .map(|m| (m.name, 10.0 * scale))
            .collect();
        run(workload, false, &metrics)
    }

    fn host() -> Host {
        Host {
            nproc: 2,
            profile: "release".into(),
            rustc: "rustc 1.0.0 (abc 2020-01-01)".into(),
            commit: "unknown".into(),
        }
    }

    #[test]
    fn result_set_round_trips_through_the_engine_json_parser() {
        let metrics: Vec<(&str, f64)> = spec::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.0 / 3.0 + i as f64))
            .collect();
        let set = ResultSet {
            host: host(),
            runs: vec![run("inmem_chain", false, &metrics)],
        };
        assert_eq!(ResultSet::parse(&set.to_json()).unwrap(), set);

        // The driver's line: exactly the four keys, every end-to-end metric.
        let line = Json::parse(&set.runs[0].result_line()).unwrap();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let listed = line.get("metrics").unwrap().members().unwrap();
        assert_eq!(listed.len(), spec::END_TO_END.len());
        assert_eq!(
            listed[0].1.get("value").unwrap().as_f64(),
            Some(1.0 / 3.0),
            "values keep all their digits"
        );
        assert_eq!(listed[0].1.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn traced_run_lists_every_per_layer_metric_and_zero_for_an_idle_layer() {
        let r = run(
            "par_chain",
            true,
            &[("par.scatter_ms", 1.25), ("junk", f64::NAN)],
        );
        let line = Json::parse(&r.result_line()).unwrap();
        let listed = line.get("metrics").unwrap().members().unwrap();
        assert_eq!(listed.len(), spec::PER_LAYER.len());
        let value = |n: &str| {
            listed
                .iter()
                .find(|(k, _)| k == n)
                .unwrap()
                .1
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("par.scatter_ms"), Some(1.25));
        assert_eq!(value("server.ready_s"), Some(0.0));
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = |b: &[f64]| judge(&a, b, Better::Lower, 0.1, 0.1).0;
        let higher = |b: &[f64]| judge(&a, b, Better::Higher, 0.1, 0.1).0;
        // Within the bound.
        assert_eq!(lower(&[104.0, 105.0, 103.0, 104.0, 104.5]), Verdict::Ok);
        // Tight sets, median 20 % worse.
        assert_eq!(
            lower(&[120.0, 121.0, 119.0, 120.0, 120.5]),
            Verdict::Regressed
        );
        // Higher is better: 20 % lower is worse, 20 % higher is fine.
        assert_eq!(higher(&[80.0, 81.0, 79.0, 80.0, 80.5]), Verdict::Regressed);
        assert_eq!(higher(&[120.0, 121.0, 119.0, 120.0, 120.5]), Verdict::Ok);
        // Spread wider than the bound and overlapping: cannot tell ...
        let noisy = [80.0, 100.0, 120.0, 140.0, 90.0];
        assert_eq!(lower(&noisy), Verdict::Unresolved);
        // ... unless the metric's spread is not held to a limit (set-up time).
        assert_eq!(
            judge(&a, &noisy, Better::Lower, 0.1, f64::INFINITY).0,
            Verdict::Ok
        );
        // Spread wider than the bound but every run better: ok.
        assert_eq!(lower(&[50.0, 70.0, 90.0, 60.0, 80.0]), Verdict::Ok);
        // ... and every run worse by more than the bound: regressed.
        assert_eq!(
            lower(&[150.0, 170.0, 190.0, 160.0, 180.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn check_fails_on_a_regression_a_new_failure_and_a_missing_workload() {
        let set = |scale: f64, failed: u64| ResultSet {
            host: host(),
            runs: spec::WORKLOADS
                .iter()
                .flat_map(|w| {
                    (0..3).map(move |_| {
                        let mut r = full_run(w.name, scale);
                        r.failed = failed;
                        r
                    })
                })
                .collect(),
        };
        let (report, pass) = check(&set(1.0, 0), &set(1.0, 0));
        assert!(pass, "{report}");
        assert!(!report.contains("regressed") && !report.contains("unresolved"));
        // Every "lower" metric doubled (and every "higher" doubled, which is fine).
        let (report, pass) = check(&set(1.0, 0), &set(2.0, 0));
        assert!(!pass && report.contains("regressed"), "{report}");
        let (report, pass) = check(&set(1.0, 0), &set(1.0, 1));
        assert!(!pass && report.contains("fail_ratio"), "{report}");
        let mut partial = set(1.0, 0);
        partial.runs.retain(|r| r.workload != "par_chain");
        assert!(!check(&set(1.0, 0), &partial).1);
    }

    #[test]
    fn check_compares_exact_counts_of_traced_single_client_runs() {
        let set = |comparisons: f64| ResultSet {
            host: host(),
            runs: spec::WORKLOADS
                .iter()
                .map(|w| run(w.name, true, &[("sort.comparisons", comparisons)]))
                .collect(),
        };
        assert!(check(&set(5.0), &set(5.0)).1);
        let (report, pass) = check(&set(5.0), &set(6.0));
        assert!(!pass && report.contains("sort.comparisons"), "{report}");
    }
}
