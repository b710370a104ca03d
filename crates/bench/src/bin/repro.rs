//! `repro` — regenerate every figure and table of "Optimization of Analytic
//! Window Functions" (VLDB 2012).
//!
//! ```sh
//! cargo run --release -p wf-bench --bin repro -- all
//! cargo run --release -p wf-bench --bin repro -- fig3 --rows 400000
//! ```
//!
//! Results print as aligned tables and are written as CSV under `results/`.

use wf_bench::experiments::{
    run_ablate_hs, run_ablate_ss, run_fig3, run_fig4, run_integrated, run_parallel, run_queries,
    run_query_experiment, run_table11, Harness,
};
use wf_bench::queries;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--rows N]\n\
         experiments:\n\
           fig3      FS vs HS micro-benchmark (Q1/Q2/Q3, Fig. 3)\n\
           fig4      SS vs FS/HS on sorted/grouped inputs (Q4/Q5, Fig. 4)\n\
           q6|q7|q8|q9  plans + times per scheme (Tables 4/6/8/10, Figs. 5-8)\n\
           queries   q6..q9 in one go\n\
           table11   optimizer overheads (Table 11)\n\
           ablate-hs HS MFV optimization ablation\n\
           ablate-ss SS unit-count ablation\n\
           parallel  §3.5 parallel speedup\n\
           integrated  §5 GROUP-BY-variant integration\n\
           explain [q6|q7|q8|q9|par]  print the CSO plan (default par, a\n\
                     4-worker parallel chain); with --analyze, execute it\n\
                     and annotate each step with measured wall vs modeled\n\
                     ms, rows, segments, comparisons, spill bytes and\n\
                     residency class; with --trace PATH, also write the\n\
                     execution timeline as Chrome trace-event JSON (load\n\
                     in chrome://tracing or Perfetto) plus PATH.folded\n\
                     flamegraph stacks, self-validated (exit 1 on an\n\
                     invalid trace)\n\
           serve     line-protocol TCP server over a generated web_sales\n\
                     table (one SQL statement per line; `.stats`,\n\
                     `.shutdown`)\n\
           client \"SQL\"...  send statements to a running server; use\n\
                     `.shutdown` as the last statement to stop it; with\n\
                     --time, print each reply's client latency_ms next\n\
                     to the server's wall_ms\n\
           all       everything above (except explain, serve and client)\n\
         options:\n\
           --rows N       table size (default 200000; paper ratio-preserving;\n\
                          serve defaults to 8000)\n\
           --analyze      (explain) execute and print measured-vs-modeled\n\
           --trace PATH   (explain) record spans and write a Chrome trace\n\
           --port N       (serve/client) TCP port, default 7878\n\
           --threads N    (serve) connection-handler threads, default 8\n\
           --time         (client) print latency_ms / wall_ms per statement"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut rows = 200_000usize;
    let mut rows_set = false;
    let mut cmd: Option<String> = None;
    let mut sub: Option<String> = None;
    let mut analyze = false;
    let mut trace: Option<String> = None;
    let mut port = 7878u16;
    let mut threads = 8usize;
    let mut time = false;
    let mut statements: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                i += 1;
                rows = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                rows_set = true;
            }
            "--analyze" => analyze = true,
            "--time" => time = true,
            "--trace" => {
                i += 1;
                trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            c if cmd.is_none() => cmd = Some(c.to_string()),
            c if cmd.as_deref() == Some("explain") && sub.is_none() => sub = Some(c.to_string()),
            c if cmd.as_deref() == Some("client") => statements.push(c.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let h = Harness { rows };
    let cfg = h.ws_config();
    let started = std::time::Instant::now();
    match cmd.as_deref() {
        Some("fig3") => run_fig3(&h),
        Some("fig4") => run_fig4(&h),
        Some("q6") => run_query_experiment("q6", &queries::q6(&cfg), &h, true),
        Some("q7") => run_query_experiment("q7", &queries::q7(&cfg), &h, false),
        Some("q8") => run_query_experiment("q8", &queries::q8(&cfg), &h, false),
        Some("q9") => run_query_experiment("q9", &queries::q9(&cfg), &h, false),
        Some("queries") => run_queries(&h),
        Some("table11") => run_table11(&h),
        Some("ablate-hs") => run_ablate_hs(&h),
        Some("ablate-ss") => run_ablate_ss(&h),
        Some("parallel") => run_parallel(&h),
        Some("integrated") => run_integrated(&h),
        Some("explain") => {
            let which = sub.as_deref().unwrap_or("par");
            if !wf_bench::explain::run_explain(&h, which, analyze, trace.as_deref()) {
                std::process::exit(1);
            }
        }
        Some("serve") => {
            let opts = wfopt::server::ServeOptions {
                port,
                rows: if rows_set { rows } else { 8_000 },
                threads,
                ..Default::default()
            };
            if !wfopt::server::run_serve(&opts) {
                std::process::exit(1);
            }
        }
        Some("client") => {
            if statements.is_empty() {
                usage();
            }
            if !wfopt::server::run_client(port, &statements, time) {
                std::process::exit(1);
            }
        }
        Some("all") => {
            run_fig3(&h);
            run_fig4(&h);
            run_queries(&h);
            run_table11(&h);
            run_integrated(&h);
            run_ablate_hs(&h);
            run_ablate_ss(&h);
            run_parallel(&h);
        }
        _ => usage(),
    }
    eprintln!("\n(total harness time: {:.1?})", started.elapsed());
}
