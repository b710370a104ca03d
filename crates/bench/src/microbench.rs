//! A tiny fixed-iteration benchmark runner used by the `cargo bench`
//! targets (`harness = false`).
//!
//! The original targets used Criterion; the workspace builds without
//! external dependencies, so this runner keeps the same shape — named
//! groups, named cases, warm-up plus timed iterations — and reports
//! best/mean wall time per case. Set `WF_BENCH_ITERS` to change the
//! iteration count (default 5; CI smoke runs can use 1).

use std::time::Instant;

/// Number of timed iterations per case.
pub fn iterations() -> usize {
    std::env::var("WF_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// A named group of benchmark cases printing aligned results.
pub struct BenchGroup {
    name: String,
    iters: usize,
    results: Vec<CaseResult>,
}

struct CaseResult {
    id: String,
    best_ms: f64,
    mean_ms: f64,
    /// `(amount per run, unit)` for cases reported as a rate as well.
    volume: Option<(f64, &'static str)>,
}

impl BenchGroup {
    /// Start a group with the iteration count from `WF_BENCH_ITERS`.
    pub fn new(name: &str) -> Self {
        Self::with_iterations(name, iterations())
    }

    /// Start a group with an explicit iteration count (the env var is read
    /// once, at construction).
    pub fn with_iterations(name: &str, iters: usize) -> Self {
        eprintln!("group {name} ({iters} iterations per case)");
        BenchGroup {
            name: name.to_string(),
            iters: iters.max(1),
            results: Vec::new(),
        }
    }

    /// Run one case: warm up once, then time the configured iterations.
    pub fn bench<F: FnMut()>(&mut self, id: &str, f: F) {
        self.run(id, None, f);
    }

    /// [`Self::bench`] for a case that processes `amount` `unit`s per run
    /// (`"MB"`, `"rows"`): the table also shows `amount` per second of the
    /// best run.
    pub fn bench_rate<F: FnMut()>(&mut self, id: &str, amount: f64, unit: &'static str, f: F) {
        self.run(id, Some((amount, unit)), f);
    }

    fn run<F: FnMut()>(&mut self, id: &str, volume: Option<(f64, &'static str)>, mut f: F) {
        f(); // warm-up
        let mut total = 0.0f64;
        let mut best = f64::INFINITY;
        for _ in 0..self.iters {
            let t0 = Instant::now();
            f();
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            total += ms;
            best = best.min(ms);
        }
        self.results.push(CaseResult {
            id: id.to_string(),
            best_ms: best,
            mean_ms: total / self.iters as f64,
            volume,
        });
    }

    /// Print the group's results table.
    pub fn finish(self) {
        let width = self
            .results
            .iter()
            .map(|r| r.id.len())
            .max()
            .unwrap_or(4)
            .max(4);
        println!("\n== {} ==", self.name);
        println!("{:width$}  {:>10}  {:>10}", "case", "best ms", "mean ms");
        for r in &self.results {
            let rate = r.volume.map_or(String::new(), |(amount, unit)| {
                format!("  {:>12.1} {unit}/s", amount / (r.best_ms / 1000.0))
            });
            println!(
                "{:width$}  {:>10.2}  {:>10.2}{rate}",
                r.id, r.best_ms, r.mean_ms
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_records() {
        let mut g = BenchGroup::with_iterations("t", 2);
        let mut count = 0u32;
        g.bench("case", || count += 1);
        assert_eq!(count, 3, "one warm-up plus two timed iterations");
        g.bench_rate("rated", 3.0, "MB", || count += 1);
        assert_eq!(count, 6);
        assert_eq!(g.results.len(), 2);
        assert_eq!(g.results[1].volume, Some((3.0, "MB")));
        g.finish();
    }
}
