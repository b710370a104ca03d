//! How fast the host is right now, measured by a kernel of the harness's own.
//!
//! The sandbox is a few cores of a shared machine, and for minutes at a time
//! it runs the same statement 20 to 45 % slower: over ten runs of one commit
//! the raw lower-quartile latency of `inmem_chain` spread 34 %, past any bound
//! the contract allows, and the minimum of a run spread as much, so no
//! statistic taken within a run helps. The kernel below slows with the engine
//! (5.4 to 7.4 ms while the statement went from 90 to 131 ms), so a timing
//! divided by the kernel's in the same run repeats: the same ten runs spread
//! 4 %. Allocation and pointer chasing are what the host's slow phases hit
//! hardest; a sort of plain integers slowed half as much as the engine and a
//! chain of dependent loads over 32 MB a third as much.
//!
//! The kernel calls nothing of the engine, so a change to the engine's code
//! does not move it. It does share the process's allocator, whose state the
//! engine shapes (after `par_chain`'s worker threads it runs a fifth slower
//! than after the other statements): it scales the runs of one workload and
//! compares no two workloads.

use crate::stats;
use std::time::{Duration, Instant};
use wfopt::datagen::rng::SplitMix64;

/// The kernel's lower-quartile time on this class of host while it is quiet.
/// A scale only: it keeps corrected timings in the milliseconds a quiet host
/// shows.
pub const NOMINAL_MS: f64 = 5.4;

const PAIRS: usize = 60_000;
/// Distinct first components, so that the comparator reads both.
const KEYS: u64 = 1_000;

pub struct Kernel {
    values: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut rng = SplitMix64::seed_from_u64(0x5EED);
        Kernel {
            values: (0..PAIRS).map(|_| rng.random_below(u64::MAX)).collect(),
        }
    }

    /// Box every pair, sort the boxes through a comparator, free them.
    pub fn run(&self) -> Duration {
        let t = Instant::now();
        let mut pairs: Vec<Box<(u64, u64)>> = self
            .values
            .iter()
            .map(|&v| Box::new((v % KEYS, v)))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        std::hint::black_box(pairs[PAIRS / 2].1);
        drop(pairs);
        t.elapsed()
    }
}

/// The host's speed over a run, 1 at nominal and below 1 when it is slower:
/// [`NOMINAL_MS`] over the lower quartile of the kernel's times, the quantile
/// the statements' latency is taken at.
pub fn speed(kernel_ms: &[f64]) -> f64 {
    let q = stats::percentile(kernel_ms, crate::spec::LATENCY_QUANTILE);
    if q > 0.0 {
        NOMINAL_MS / q
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_the_lower_quartile() {
        assert_eq!(speed(&[NOMINAL_MS; 8]), 1.0);
        assert_eq!(speed(&[2.0 * NOMINAL_MS; 8]), 0.5);
        // a few slow samples do not move the quartile
        let mut v = vec![NOMINAL_MS; 9];
        v.extend([50.0, 60.0, 70.0]);
        assert_eq!(speed(&v), 1.0);
        assert_eq!(speed(&[]), 1.0);
    }

    #[test]
    fn the_kernel_takes_time_and_repeats_its_work() {
        let k = Kernel::new();
        assert!(k.run() > Duration::ZERO);
        assert_eq!(k.values.len(), PAIRS);
    }
}
