//! Per-operator execution environment.

use std::sync::Arc;
use wf_common::{Result, TraceSink};
use wf_storage::{CostTracker, MemoryLedger, SegmentStore, SpillConfig};

/// Everything a reordering operator needs: the shared cost tracker, the
/// size of its unit reorder memory (the paper's `M`, in blocks), and the
/// shared segment store governing inter-operator segment residency and
/// owning the chain's spill configuration.
#[derive(Clone)]
pub struct OpEnv {
    /// Shared work counters.
    pub tracker: Arc<CostTracker>,
    /// Unit reorder memory in blocks.
    pub mem_blocks: u64,
    /// The chain's segment store: every segment an operator emits lives in
    /// it, resident while the pool budget allows and spilled past it. The
    /// default pool budget equals `mem_blocks`; an unbounded pool
    /// ([`OpEnv::with_unbounded_pool`]) reproduces the pre-store pipeline
    /// (everything resident) with bit-identical modeled counters.
    ///
    /// It is also the one owner of the chain's [`SpillConfig`]
    /// ([`SegmentStore::spill_config`]: backend, compression, read-ahead):
    /// sort runs and hash buckets open their files through it, as pool
    /// spills do. It defaults from `WF_SPILL_BACKEND` /
    /// `WF_SPILL_COMPRESS`; rows, modeled counters, and pool counters are
    /// bit-identical across every setting — only wall time may move.
    pub store: Arc<SegmentStore>,
    /// Worker-thread override for parallel operators: `0` means "use the
    /// plan node's worker count"; any other value forces that many OS
    /// threads without changing the plan's shard count — output rows and
    /// modeled counters are invariant under this knob (the scheduler's
    /// determinism contract). Defaults from the `WF_WORKERS` environment
    /// variable (unset → no override) so CI can force a serial or 4-worker
    /// execution of the whole suite.
    pub worker_threads: usize,
    /// Span recorder for the wall-clock metric domain (defaults to the
    /// shared no-op sink). Shard environments and rebudgeted environments
    /// inherit it, so every phase of a chain — including worker threads —
    /// lands in one timeline. Tracing only reads the clock: rows, modeled
    /// counters, and pool counters are bit-identical with it on or off.
    pub trace: Arc<TraceSink>,
}

/// The `WF_WORKERS` environment variable (unset → no override). Panics on
/// a value [`parse_workers`] rejects.
fn env_worker_threads() -> usize {
    let value = std::env::var_os("WF_WORKERS").unwrap_or_default();
    parse_workers(&value.to_string_lossy()).unwrap_or_else(|e| panic!("{e}"))
}

/// `WF_WORKERS`: a thread count; `0` or empty means no override.
fn parse_workers(value: &str) -> std::result::Result<usize, String> {
    match value.trim() {
        "" => Ok(0),
        count => count.parse().map_err(|_| {
            format!(
                "WF_WORKERS={value:?} is not recognised \
                 (accepted: a thread count, `0` or empty for no override)"
            )
        }),
    }
}

impl OpEnv {
    /// Environment with a fresh tracker, the environment-selected spill
    /// configuration, the given memory budget, and a segment pool of the
    /// same size.
    pub fn with_memory_blocks(mem_blocks: u64) -> Self {
        OpEnv {
            tracker: Arc::new(CostTracker::new()),
            store: SegmentStore::with_spill(Some(mem_blocks.max(1)), SpillConfig::from_env()),
            mem_blocks,
            worker_threads: env_worker_threads(),
            trace: TraceSink::disabled(),
        }
    }

    /// Environment executing inside a **caller-provided segment store** —
    /// the admission path: the governor hands each admitted query a pooled
    /// sub-account of the shared store, and the whole chain (unit reorder
    /// memory included) is budgeted by that account. `mem_blocks` is derived
    /// from the store's budget (unbounded store → a large effective `M`).
    pub fn with_store(store: Arc<SegmentStore>) -> Self {
        let mem_blocks = store
            .budget_bytes()
            .map(|b| (b / wf_storage::BLOCK_SIZE).max(1) as u64)
            .unwrap_or(u64::MAX / wf_storage::BLOCK_SIZE as u64);
        OpEnv {
            tracker: Arc::new(CostTracker::new()),
            store,
            mem_blocks,
            worker_threads: env_worker_threads(),
            trace: TraceSink::disabled(),
        }
    }

    /// Same environment with the given span recorder (see [`OpEnv::trace`]).
    /// The segment store picks it up too, so pool spill-outs land in the
    /// same timeline.
    pub fn with_trace(&self, trace: Arc<TraceSink>) -> Self {
        self.store.set_trace(Arc::clone(&trace));
        OpEnv {
            trace,
            ..self.clone()
        }
    }

    /// Same environment with the worker-thread override pinned (see
    /// [`OpEnv::worker_threads`]); tests use this to prove thread-count
    /// invariance without racing on the process environment.
    pub fn with_worker_threads(&self, worker_threads: usize) -> Self {
        OpEnv {
            worker_threads,
            ..self.clone()
        }
    }

    /// A per-worker environment for one shard of a parallel operator: a
    /// **fresh tracker** (absorbed into the parent's in shard order when the
    /// workers finish), a ledger **sub-account** of the parent store sized
    /// to `mem_blocks`, and everything else inherited. The sub-account
    /// keeps the worker's spill decisions independent of its siblings,
    /// which is what makes parallel executions bit-identical across thread
    /// counts.
    pub fn shard_env(&self, mem_blocks: u64) -> Self {
        let mem_blocks = mem_blocks.max(1);
        OpEnv {
            tracker: Arc::new(CostTracker::new()),
            store: self.store.sub_store(Some(mem_blocks)),
            mem_blocks,
            ..self.clone()
        }
    }

    /// New ledger sized to this environment's budget.
    pub fn ledger(&self) -> Result<MemoryLedger> {
        MemoryLedger::with_blocks(self.mem_blocks)
    }

    /// Same environment with a different spill configuration; the segment
    /// pool is rebuilt on the new backend with the same budget.
    pub fn with_spill(&self, spill: SpillConfig) -> Self {
        let budget = self
            .store
            .budget_bytes()
            .map(|b| (b / wf_storage::BLOCK_SIZE) as u64);
        let store = SegmentStore::with_spill(budget, spill);
        store.set_trace(Arc::clone(&self.trace));
        OpEnv {
            store,
            ..self.clone()
        }
    }

    /// Same environment with a different memory budget (and a fresh segment
    /// pool of the same size; the tracker stays shared).
    pub fn with_blocks(&self, mem_blocks: u64) -> Self {
        let store =
            SegmentStore::with_spill(Some(mem_blocks.max(1)), self.store.spill_config().clone());
        store.set_trace(Arc::clone(&self.trace));
        OpEnv {
            mem_blocks,
            store,
            ..self.clone()
        }
    }

    /// Same environment with an unbounded segment pool — the pre-store
    /// pipeline's residency behaviour (every inter-operator segment stays
    /// in memory, nothing pool-spills). The reference configuration for the
    /// residency equivalence suite.
    pub fn with_unbounded_pool(&self) -> Self {
        let store = SegmentStore::with_spill(None, self.store.spill_config().clone());
        store.set_trace(Arc::clone(&self.trace));
        OpEnv {
            store,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_matches_budget() {
        let env = OpEnv::with_memory_blocks(4);
        assert_eq!(
            env.ledger().unwrap().budget_bytes(),
            4 * wf_storage::BLOCK_SIZE
        );
        assert_eq!(
            env.with_blocks(9).ledger().unwrap().budget_bytes(),
            9 * wf_storage::BLOCK_SIZE
        );
    }

    #[test]
    fn zero_budget_ledger_errors() {
        let env = OpEnv::with_memory_blocks(0);
        assert!(env.ledger().is_err());
    }

    #[test]
    fn shard_env_is_a_sub_account_with_its_own_tracker() {
        let env = OpEnv::with_memory_blocks(8);
        env.tracker.compare(3);
        let shard = env.shard_env(2);
        assert_eq!(shard.mem_blocks, 2);
        assert_eq!(shard.tracker.snapshot().comparisons, 0, "fresh tracker");
        shard.tracker.compare(1);
        assert_eq!(env.tracker.snapshot().comparisons, 3, "parent untouched");
        // The shard's store is budgeted independently of the parent's.
        assert_eq!(shard.store.budget_bytes(), Some(2 * wf_storage::BLOCK_SIZE));
        // Unbounded parents hand out unbounded shard stores.
        let unbounded = env.with_unbounded_pool();
        assert_eq!(unbounded.shard_env(2).store.budget_bytes(), None);
    }

    #[test]
    fn trace_sink_is_inherited_by_shards_and_rebudgets() {
        let env = OpEnv::with_memory_blocks(4);
        assert!(!env.trace.is_enabled(), "default is the no-op sink");
        let traced = env.with_trace(TraceSink::enabled());
        assert!(traced.trace.is_enabled());
        assert!(traced.shard_env(2).trace.is_enabled());
        assert!(traced.with_blocks(8).trace.is_enabled());
        assert!(traced.with_unbounded_pool().trace.is_enabled());
    }

    #[test]
    fn workers_value_parses_or_names_what_is_accepted() {
        for (value, workers) in [("", 0), ("0", 0), ("4", 4), (" 2 ", 2)] {
            assert_eq!(parse_workers(value), Ok(workers), "{value:?}");
        }
        for garbage in ["four", "-1", "4w", "1.5"] {
            let err = parse_workers(garbage).unwrap_err();
            assert!(err.contains("WF_WORKERS"), "{err}");
            assert!(err.contains(&format!("{garbage:?}")), "{err}");
            assert!(err.contains("a thread count"), "{err}");
        }
    }

    #[test]
    fn worker_thread_override_is_pinned_not_inherited() {
        let env = OpEnv::with_memory_blocks(4).with_worker_threads(3);
        assert_eq!(env.worker_threads, 3);
        assert_eq!(env.with_blocks(8).worker_threads, 3);
        assert_eq!(env.shard_env(2).worker_threads, 3);
    }
}
