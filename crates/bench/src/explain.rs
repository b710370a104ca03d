//! `repro explain` — EXPLAIN / EXPLAIN ANALYZE over the harness queries,
//! with optional span tracing to a Chrome trace-event file.
//!
//! `--analyze` executes the plan and prints the per-step
//! modeled-vs-measured table (`wf_core::runtime::explain_analyze`);
//! without it only the plan tree prints (no execution — unless `--trace`
//! forces one, since spans only exist for executed plans). `--trace PATH`
//! writes the execution's timeline as Chrome trace-event JSON (load in
//! `chrome://tracing` or Perfetto) plus a `PATH.folded` folded-stacks file
//! for flamegraphs, then self-validates the file: it must parse with the
//! in-tree JSON parser, contain a `step` span for every chain step that
//! reports wall time, and — for the parallel workload — interleave at least
//! two thread lanes.
//! CI runs exactly that as its trace-validity smoke step.

use crate::experiments::Harness;
use crate::paper_mb_to_blocks;
use crate::queries;
use std::collections::BTreeSet;
use std::sync::Arc;
use wf_common::{Json, TraceSink};
use wf_core::cost::TableStats;
use wf_core::planner::{optimize, Scheme};
use wf_core::runtime::{explain_analyze, ExecEnv};

/// Run the `explain` subcommand. Returns `false` on an unknown workload or
/// a failed trace validation (the caller exits non-zero).
pub fn run_explain(h: &Harness, which: &str, analyze: bool, trace_path: Option<&str>) -> bool {
    let cfg = h.ws_config();
    let table = cfg.generate();
    let stats = TableStats::from_table(&table);
    let blocks = table.block_count();
    let m = paper_mb_to_blocks(150.0, blocks);
    let (query, workers) = match which {
        "q6" => (queries::q6(&cfg), 1),
        "q7" => (queries::q7(&cfg), 1),
        "q8" => (queries::q8(&cfg), 1),
        "q9" => (queries::q9(&cfg), 1),
        "par" => (queries::par_chain_query(&cfg), queries::PAR_WORKERS),
        other => {
            eprintln!("unknown explain workload {other:?} (expected q6|q7|q8|q9|par)");
            return false;
        }
    };
    let mut env = ExecEnv::with_memory_blocks(m).with_par_workers(workers);
    let sink = trace_path.map(|_| TraceSink::enabled());
    if let Some(s) = &sink {
        env = env.with_trace(Arc::clone(s));
    }
    let plan = optimize(&query, &stats, Scheme::Cso, &env).expect("plan");
    println!(
        "{which}: {} rows, {blocks} blocks, M = {m} blocks (150 paper-MB), workers = {workers}\n",
        table.row_count()
    );
    let mut step_labels: Vec<String> = Vec::new();
    if analyze || sink.is_some() {
        let (report, text) = explain_analyze(&plan, &table, &env).expect("explain analyze");
        // The runtime opens one `step` span per operator, under the label of
        // the first step it covers: the other steps of a window group or of
        // a `PAR→` span have a report row — with no wall of their own — but
        // no span.
        step_labels = report
            .step_metrics
            .iter()
            .filter(|s| !s.wall.is_zero())
            .map(|s| s.label.clone())
            .collect();
        if analyze {
            println!("{text}");
        } else {
            println!("{}", plan.explain(table.schema()));
        }
    } else {
        println!("{}", plan.explain(table.schema()));
    }
    let Some(path) = trace_path else { return true };
    let sink = sink.expect("sink exists when tracing");
    let min_lanes = if which == "par" { 2 } else { 1 };
    match write_and_validate_trace(&sink, path, &step_labels, min_lanes) {
        Ok((spans, lanes)) => {
            println!("trace: {spans} spans across {lanes} lane(s) → {path} (+ {path}.folded)");
            true
        }
        Err(e) => {
            eprintln!("trace validation FAILED: {e}");
            false
        }
    }
}

/// Export the sink to `path` (Chrome trace-event JSON) and `path.folded`
/// (folded stacks), then validate the JSON file: parseable, every expected
/// chain-step label present as a span, and at least `min_lanes` distinct
/// thread lanes. Returns `(span_count, lane_count)`.
pub fn write_and_validate_trace(
    sink: &TraceSink,
    path: &str,
    expected_steps: &[String],
    min_lanes: usize,
) -> Result<(usize, usize), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    let json = sink.to_chrome_json();
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    std::fs::write(format!("{path}.folded"), sink.to_folded_stacks())
        .map_err(|e| format!("write {path}.folded: {e}"))?;
    validate_trace_json(&json, expected_steps, min_lanes)
}

/// The validation half of [`write_and_validate_trace`], on the JSON text
/// (separable for tests and the CI smoke step).
pub fn validate_trace_json(
    json: &str,
    expected_steps: &[String],
    min_lanes: usize,
) -> Result<(usize, usize), String> {
    let doc = Json::parse(json).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("no traceEvents array")?;
    let mut spans = 0usize;
    let mut lanes: BTreeSet<u64> = BTreeSet::new();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        spans += 1;
        if let Some(tid) = ev.get("tid").and_then(|t| t.as_u64()) {
            lanes.insert(tid);
        }
        if let Some(name) = ev.get("name").and_then(|n| n.as_str()) {
            names.insert(name);
        }
    }
    for label in expected_steps {
        if !names.contains(label.as_str()) {
            return Err(format!("no span recorded for chain step {label:?}"));
        }
    }
    if lanes.len() < min_lanes {
        return Err(format!(
            "expected >= {min_lanes} thread lanes, trace has {}",
            lanes.len()
        ));
    }
    Ok((spans, lanes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro explain par --trace` end to end: the second window is fused
    /// into the `PAR→` span and traces under the head's label.
    #[test]
    fn traced_par_chain_validates() {
        let path = std::env::temp_dir().join(format!("wf-explain-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp dir");
        let ok = run_explain(&Harness { rows: 6_000 }, "par", false, Some(path));
        for file in [path.to_string(), format!("{path}.folded")] {
            std::fs::remove_file(file).expect("both trace files written");
        }
        assert!(ok, "trace validation failed");
    }

    #[test]
    fn validator_checks_steps_and_lanes() {
        let sink = TraceSink::enabled();
        {
            let _a = sink.span("step", "scan+filter");
            let _b = sink.span("sort", "run_formation");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = sink.span("worker", "sort_worker shard=0");
            });
        });
        let json = sink.to_chrome_json();
        let expected = vec!["scan+filter".to_string()];
        let (spans, lanes) = validate_trace_json(&json, &expected, 2).expect("valid");
        assert_eq!(spans, 3);
        assert!(lanes >= 2);
        // A missing step label fails.
        let bogus = vec!["FS→ nope".to_string()];
        assert!(validate_trace_json(&json, &bogus, 1).is_err());
        // An impossible lane floor fails.
        assert!(validate_trace_json(&json, &expected, 9).is_err());
        // Garbage fails to parse.
        assert!(validate_trace_json("not json", &expected, 1).is_err());
    }
}
