//! `wfbench` — the repo benchmark. Drives the engine only through its public
//! surface (SQL text through `wfopt::session`, and the `repro serve` wire
//! protocol), one process per run; see `benchmark/README.md`.

mod expect;
mod hostspeed;
mod inproc;
mod layers;
mod oracle;
mod probes;
mod result;
mod run;
mod served;
mod spec;
mod stats;
mod suite;
mod trace;

use result::ResultSet;
use std::path::PathBuf;
use std::process::ExitCode;
use wfopt::common::Json;

const USAGE: &str = "usage:
  wfbench [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--out DIR] [--repro PATH] [--rows N] [--plant-fault]
      one run; the last line of standard output is the result as JSON.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
      --rows and --plant-fault are for the harness's own tests
  wfbench trace --workload NAME [...]      the same as run --trace 1
  wfbench set --out FILE [--reps N] [--seed N] [--seconds S] [--trace 0|1]
      N repetitions of every workload, interleaved, one process each,
      seeds N, N+1, ...; writes one result set
  wfbench check A.json B.json
      compare two result sets against the bounds; exit 1 unless every row is ok
  wfbench list [--verify | --json] [--manifest BENCHMARK.json]
      workloads and metrics; --verify fails if BENCHMARK.json differs";

/// `--name value` options after the subcommand; bare words are positional.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        const FLAGS: &[&str] = &["--verify", "--json", "--plant-fault"];
        let mut out = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                out.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                out.options.push((arg.clone(), value.clone()));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: `{v}` is not a number")),
            None => Ok(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn run_options(args: &Args, force_trace: bool) -> Result<run::Options, String> {
    let name = args.get("--workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let seconds: f64 = args.number("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(run::Options {
        workload,
        seed: args.number("--seed", spec::DEFAULT_SEED)?,
        seconds,
        trace: force_trace || args.number::<u8>("--trace", 0)? != 0,
        out_dir: PathBuf::from(args.get("--out").unwrap_or("benchmark/out")),
        rows: args
            .get("--rows")
            .map(|_| args.number("--rows", 0usize))
            .transpose()?,
        plant_fault: args.flag("--plant-fault"),
        repro: args.get("--repro").map(PathBuf::from),
    })
}

fn manifest(args: &Args) -> Result<Json, String> {
    let path = args.get("--manifest").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn list(args: &Args) -> Result<bool, String> {
    if args.flag("--json") {
        print!("{}", spec::manifest_json());
        return Ok(true);
    }
    println!("workloads ({}):", spec::WORKLOADS.len());
    for w in spec::WORKLOADS {
        println!("  {:<14} {}", w.name, spec::squeeze(w.why));
    }
    println!("end-to-end metrics ({}):", spec::END_TO_END.len());
    for m in spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound") * 100.0;
        println!(
            "  {:<32} {:<8} {:<6} bound {bound}%",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!("per-layer metrics ({}):", spec::PER_LAYER.len());
    for m in spec::PER_LAYER {
        println!("  {:<32} {:<8} {}", m.name, m.unit, m.better.as_str());
    }
    println!(
        "run_seconds {}, default seed {}, held-out seed {}",
        spec::RUN_SECONDS,
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED
    );
    if !args.flag("--verify") {
        return Ok(true);
    }
    let problems = spec::verify_manifest(&manifest(args)?);
    for p in &problems {
        eprintln!("BENCHMARK.json: {p}");
    }
    if problems.is_empty() {
        println!("BENCHMARK.json agrees with the harness");
    }
    Ok(problems.is_empty())
}

fn check(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("check takes two result files".into());
    };
    let load = |path: &String| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, pass) = result::check(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(pass)
}

/// `Ok(true)`: success; `Ok(false)`: ran, and the outcome is a failure.
fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return Ok(!argv.is_empty());
        }
        Some(first) if first.starts_with("--") => ("run", argv),
        Some(first) => (first, &argv[1..]),
    };
    let args = Args::parse(rest)?;
    match command {
        "run" | "trace" => {
            let run = run::run(&run_options(&args, command == "trace")?)?;
            print!("{}", run.table());
            if run.trace {
                for note in expect::unmet(&run.workload, &run.metrics) {
                    println!("note: {note}");
                }
            }
            println!("{}", run.result_line());
            Ok(run.correct())
        }
        "set" => suite::run_set(&args),
        "check" => check(&args),
        "list" => list(&args),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("wfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_argument_form_needs_no_subcommand() {
        let args = Args::parse(&argv(&[
            "--workload",
            "spill_chain",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        let opts = run_options(&args, false).unwrap();
        assert_eq!(opts.workload.name, "spill_chain");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 3.0, true));
        assert_eq!(opts.out_dir, PathBuf::from("benchmark/out"));
        assert!(run_options(&Args::parse(&argv(&["--workload", "nope"])).unwrap(), false).is_err());
        assert!(Args::parse(&argv(&["--seed"])).is_err());
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn a_planted_fault_makes_run_exit_non_zero() {
        let out = std::env::temp_dir().join(format!("wfbench-planted-{}", std::process::id()));
        let out = out.to_string_lossy().into_owned();
        let run = |extra: &[&str]| {
            let mut words = vec![
                "run",
                "--workload",
                "window_fanout",
                "--rows",
                "2000",
                "--seconds",
                "0.2",
                "--out",
                &out,
            ];
            words.extend(extra);
            dispatch(&argv(&words))
        };
        assert_eq!(run(&[]), Ok(true));
        assert_eq!(
            run(&["--plant-fault"]),
            Ok(false),
            "main maps this to a failure exit status"
        );
        let _ = std::fs::remove_dir_all(&out);
    }
}
