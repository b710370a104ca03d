//! One run of one workload, and what both kinds of workload share: the
//! options, the process's peak memory, the files under the output directory.

use crate::layers::{self, EngineTrace, Samples};
use crate::result::{Host, ResultSet, Run};
use crate::spec::{Kind, Workload};
use crate::trace::{self, Recorder};
use crate::{inproc, served, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where result files and traces go (`benchmark/out` from the repo root).
    pub out_dir: PathBuf,
    /// Overrides the workload's table size; for the smoke tests only.
    pub rows: Option<usize>,
    /// Perturbs one value of the first measured result before it is verified.
    pub plant_fault: bool,
    /// The `repro` binary; by default the one next to this executable.
    pub repro: Option<PathBuf>,
}

/// The end-to-end numbers that are recorded but not gated
/// (`spec::DIAGNOSTICS`), over a run's untraced, verified statements.
pub struct Diagnostics {
    p50_ms: f64,
    p90_ms: f64,
    rows_per_s: f64,
    stmts_per_s: f64,
}

impl Diagnostics {
    /// `wall_s`: the time the statements took — their latencies' sum for one
    /// client, the window's wall for several.
    pub fn new(latencies_ms: &[f64], input_rows: usize, wall_s: f64) -> Self {
        let per_s = |count: f64| if wall_s > 0.0 { count / wall_s } else { 0.0 };
        Diagnostics {
            p50_ms: stats::median(latencies_ms),
            p90_ms: stats::percentile(latencies_ms, 0.9),
            rows_per_s: per_s((latencies_ms.len() * input_rows) as f64),
            stmts_per_s: per_s(latencies_ms.len() as f64),
        }
    }

    /// An untraced run's `diagnostics`; a traced run has none of its own.
    pub fn of_run(&self, traced: bool) -> BTreeMap<String, f64> {
        if traced {
            return BTreeMap::new();
        }
        [
            ("stmt_p50_ms", self.p50_ms),
            ("stmt_p90_ms", self.p90_ms),
            ("rows_per_s", self.rows_per_s),
            ("stmts_per_s", self.stmts_per_s),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// The same numbers as a traced run's `run.*` per-layer metrics.
    pub fn record(&self, samples: &mut Samples) {
        samples.set("run.stmt_p50_ms", self.p50_ms);
        samples.set("run.stmt_p90_ms", self.p90_ms);
        samples.set("run.rows_per_s", self.rows_per_s);
        samples.set("run.stmts_per_s", self.stmts_per_s);
    }
}

/// Variables the engine reads its defaults from; every knob is pinned in code
/// instead, so a run under any of them would not be the benchmark.
pub fn refuse_engine_environment(names: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = names.filter(|k| k.starts_with("WF_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

pub fn run(opts: &Options) -> Result<Run, String> {
    refuse_engine_environment(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))?;
    let run = match &opts.workload.kind {
        Kind::InProc(w) => inproc::run(opts, w),
        Kind::Served(w) => served::run(opts, w),
    }?;
    let file = ResultSet {
        host: Host::detect(),
        runs: vec![run.clone()],
    };
    let name = format!("{}.trace{}.json", run.workload, run.trace as u8);
    write_out(opts, &name, &file.to_json())?;
    Ok(run)
}

pub fn write_out(opts: &Options, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(opts.out_dir.join(name), text))
        .map_err(|e| format!("writing {}: {e}", opts.out_dir.join(name).display()))
}

/// The traced run's artefacts: the Chrome trace (the harness's spans plus one
/// statement's engine spans) and that statement's self time per span name.
pub fn write_trace_files(
    opts: &Options,
    recorders: &[Recorder],
    engine: &EngineTrace,
    exec_ms: f64,
) -> Result<(), String> {
    let name = opts.workload.name;
    let chrome = trace::chrome_json(recorders, &engine.fold.events, engine.execute_start_us);
    write_out(opts, &format!("{name}.trace.json"), &chrome)?;
    let breakdown = layers::breakdown_json(name, &engine.fold, exec_ms);
    write_out(opts, &format!("{name}.layers.json"), &breakdown)
}

/// Restart the kernel's peak-RSS watermark of this process (Linux: `5` into
/// `clear_refs`). Where that is not allowed the peak keeps set-up's memory
/// in it, the same on every run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, or of `pid`, in MiB; 0 where `/proc` has none.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::path::Path;
    use std::process::Command;

    /// `<target>/<profile>/`, where this test executable's `deps/` lives.
    fn profile_dir() -> PathBuf {
        let exe = std::env::current_exe().expect("current_exe");
        exe.parent()
            .and_then(Path::parent)
            .expect("test executables live in <profile>/deps")
            .to_path_buf()
    }

    /// The server binary, built into this test's own target directory on
    /// first use (the root workspace does not know this package, so
    /// `cargo test` here does not build it).
    fn repro() -> PathBuf {
        let dir = profile_dir();
        let path = dir.join("repro");
        if !path.is_file() {
            let mut cargo = Command::new(env!("CARGO"));
            cargo
                .args(["build", "--offline", "-p", "wf-bench", "--bin", "repro"])
                .arg("--manifest-path")
                .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
                .arg("--target-dir")
                .arg(dir.parent().expect("<target>/<profile>"));
            if !cfg!(debug_assertions) {
                cargo.arg("--release");
            }
            assert!(
                cargo.status().expect("cargo runs").success(),
                "building repro"
            );
        }
        path
    }

    fn options(workload: &str, trace: bool) -> Options {
        Options {
            workload: spec::workload(workload).expect("a workload of the benchmark"),
            seed: spec::HELD_OUT_SEED,
            seconds: 0.3,
            trace,
            out_dir: profile_dir().join("wfbench-test-out").join(workload),
            rows: Some(2_000),
            plant_fault: false,
            repro: None,
        }
    }

    #[test]
    fn every_workload_runs_small_and_reports_every_metric() {
        for w in spec::WORKLOADS {
            let mut untraced = options(w.name, false);
            let mut traced = options(w.name, true);
            if matches!(w.kind, Kind::Served(_)) {
                untraced.repro = Some(repro());
                traced.repro = untraced.repro.clone();
            }
            let r = run(&untraced).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(r.correct() && r.attempted >= 1, "{}: {r:?}", w.name);
            for m in spec::END_TO_END {
                assert!(r.metrics[m.name] > 0.0, "{}: {} is never 0", w.name, m.name);
            }
            let file = untraced.out_dir.join(format!("{}.trace0.json", w.name));
            let back = ResultSet::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert_eq!(back.runs, vec![r]);

            let t = run(&traced).unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
            assert!(t.correct(), "{}: {t:?}", w.name);
            let layer = |name: &str| t.metrics.get(name).copied().unwrap_or(0.0);
            assert!(layer("runtime.exec_ms") > 0.0 && layer("sql.parse_us") > 0.0);
            assert!(layer("trace.overhead_ratio") > 0.0, "{}", w.name);
            assert_eq!(layer("run.fail_ratio"), 0.0);
            match w.name {
                "inmem_chain" | "window_fanout" => {
                    for name in [
                        "spill.put_requests",
                        "spill.bytes_written",
                        "pool.spill_blocks_written",
                    ] {
                        assert_eq!(layer(name), 0.0, "{}: {name}", w.name);
                    }
                    assert!(
                        layer("sort.in_memory_ms") > 0.0
                            && layer("sort.probe_inmem_rows_per_s") > 0.0
                    );
                }
                "spill_chain" => {
                    assert!(layer("spill.bytes_written") > 0.0 && layer("codec.ratio") > 1.0);
                    assert!(
                        layer("backend.file_append_us") > 0.0
                            && layer("sort.probe_spill_rows_per_s") > 0.0
                    );
                }
                "served_mixed" => {
                    assert!(layer("server.ready_s") > 0.0 && layer("served.full_p50_ms") > 0.0);
                    assert!(layer("filter.selectivity") > 0.0 && layer("filter.selectivity") < 0.1);
                }
                _ => {}
            }
            if w.name != "par_chain" {
                assert_eq!(
                    layer("par.worker_max_ms"),
                    0.0,
                    "{}: no scheduler spans",
                    w.name
                );
            }
            for artefact in ["trace.json", "layers.json"] {
                let path = traced.out_dir.join(format!("{}.{artefact}", w.name));
                assert!(path.is_file(), "{}", path.display());
            }
        }
    }

    #[test]
    fn a_planted_fault_shows_in_the_failure_count() {
        let mut opts = options("inmem_chain", false);
        opts.out_dir = opts.out_dir.join("planted");
        opts.plant_fault = true;
        let r = run(&opts).expect("the run itself completes");
        assert_eq!(r.failed, 1, "exactly the perturbed statement fails");
        assert!(r.fail_ratio() > 0.0 && !r.correct());
        assert!(r.result_line().starts_with("{\"correct\":false,"));
        assert_eq!(r.samples as u64, r.attempted - 1, "its latency is withheld");
    }

    #[test]
    fn engine_variables_are_refused() {
        let names = |v: &[&str]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(refuse_engine_environment(names(&["PATH", "HOME", "WFX"])).is_ok());
        let err = refuse_engine_environment(names(&["PATH", "WF_SPILL_BACKEND", "WF_WORKERS"]))
            .unwrap_err();
        assert!(
            err.contains("WF_SPILL_BACKEND") && err.contains("WF_WORKERS"),
            "{err}"
        );
    }
}
