//! `wfbench set`: repetitions of every workload, interleaved across workloads
//! so that drift of the host lands on all of them alike, one process per
//! (workload, repetition), gathered into one result set.

use crate::result::{Host, ResultSet};
use crate::{spec, stats, Args};
use std::path::Path;
use std::process::Command;

pub fn run_set(args: &Args) -> Result<bool, String> {
    let out = args.get("--out").ok_or("set needs --out FILE")?;
    let reps: u64 = args.number("--reps", 10)?;
    let seed: u64 = args.number("--seed", spec::DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", spec::RUN_SECONDS as f64)?;
    let trace: u8 = args.number("--trace", 0)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Each child leaves its result file here; the set is assembled from them.
    let dir = Path::new(out).with_extension("runs");

    let mut set = ResultSet {
        host: Host::detect(),
        runs: Vec::new(),
    };
    for rep in 0..reps {
        for w in spec::WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", w.name])
                .args(["--seed", &(seed + rep).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .arg("--out")
                .arg(&dir);
            if let Some(repro) = args.get("--repro") {
                child.args(["--repro", repro]);
            }
            let output = child
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let file = dir.join(format!("{}.trace{}.json", w.name, trace.min(1)));
            let run = std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|text| ResultSet::parse(&text))
                .ok()
                .and_then(|mut s| s.runs.pop())
                .filter(|_| output.status.code().is_some_and(|c| c < 2))
                .ok_or_else(|| {
                    format!(
                        "{} repetition {rep} gave no result ({}):\n{}",
                        w.name,
                        output.status,
                        String::from_utf8_lossy(&output.stderr)
                    )
                })?;
            eprintln!(
                "rep {rep} {:<14} attempted {:>5} failed {} {}",
                w.name,
                run.attempted,
                run.failed,
                match run.metrics.get("stmt_p25_ms") {
                    Some(p25) => format!("p25 {p25:.3} ms"),
                    None => String::new(),
                }
            );
            let _ = std::fs::remove_file(&file);
            set.runs.push(run);
        }
    }
    std::fs::write(out, set.to_json()).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", summary(&set));
    Ok(set.runs.iter().all(|r| r.correct()))
}

/// Median and run-to-run spread (interquartile range over median, the driver's
/// measure) of every metric of every workload in the set.
fn summary(set: &ResultSet) -> String {
    let mut out = format!(
        "{:<14} {:<32} {:>5} {:>16} {:>8}\n",
        "workload", "metric", "runs", "median", "spread"
    );
    for w in spec::WORKLOADS {
        let runs: Vec<_> = set.runs.iter().filter(|r| r.workload == w.name).collect();
        let Some(first) = runs.first() else { continue };
        for name in first.metrics.keys().chain(first.diagnostics.keys()) {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name).or(r.diagnostics.get(name)).copied())
                .collect();
            out.push_str(&format!(
                "{:<14} {:<32} {:>5} {:>16.4} {:>7.2}%\n",
                w.name,
                name,
                values.len(),
                stats::median(&values),
                stats::spread(&values) * 100.0
            ));
        }
    }
    out
}
