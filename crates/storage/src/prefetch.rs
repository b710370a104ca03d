//! Async read-ahead over a [`BackendFile`].
//!
//! A [`Prefetcher`] owns a small pool of worker threads that fetch (and
//! decompress) upcoming spill blocks into a bounded ready-buffer while the
//! consumer evaluates the current one. [`SpillReader`](crate::spill::SpillReader)
//! asks for blocks strictly in order; the prefetcher keeps at most
//! `depth` blocks in flight or ready ahead of the consumer, so memory stays
//! bounded no matter how slow the evaluation side is.
//!
//! The consumer-facing contract is intentionally identical to a cold
//! synchronous read: `next_block()` returns the decompressed payload of the
//! next logical block, in order, or an error. Whether the block was already
//! waiting (a *prefetch hit*, recorded on the backend's counters) or the
//! call had to block (a *miss*) only changes wall time — never the bytes
//! delivered, which is what keeps backends bit-identical in rows and
//! counters.

use crate::backend::{BackendCounters, BackendFile};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wf_common::{Error, Result};

/// Cap on worker threads — read-ahead deeper than this is buffered, not
/// fetched more concurrently.
const MAX_WORKERS: usize = 4;

struct State {
    /// Next block index a worker should claim.
    next_fetch: u64,
    /// Next block index the consumer will ask for.
    consumed: u64,
    /// Fetched blocks waiting for the consumer.
    ready: HashMap<u64, Result<Vec<u8>>>,
    /// Set by drop; workers exit at the next wakeup.
    stop: bool,
}

struct Shared {
    file: Arc<dyn BackendFile>,
    /// Decompress payloads in the worker (overlaps CPU with I/O too).
    decompress: bool,
    total_blocks: u64,
    depth: u64,
    state: Mutex<State>,
    cond: Condvar,
    counters: Arc<BackendCounters>,
}

/// Bounded read-ahead pipeline. Create once per spill read pass; drop joins
/// the workers (and, once all handles are gone, deletes the backing file).
pub struct Prefetcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Prefetcher {
    /// Start reading ahead over `file`. `depth` is the maximum number of
    /// blocks fetched beyond the consumer's position (must be ≥ 1; the
    /// caller uses a direct reader for depth 0).
    pub fn new(
        file: Arc<dyn BackendFile>,
        total_blocks: u64,
        depth: usize,
        decompress: bool,
        counters: Arc<BackendCounters>,
    ) -> Self {
        let depth = depth.max(1);
        let shared = Arc::new(Shared {
            file,
            decompress,
            total_blocks,
            depth: depth as u64,
            state: Mutex::new(State {
                next_fetch: 0,
                consumed: 0,
                ready: HashMap::new(),
                stop: false,
            }),
            cond: Condvar::new(),
            counters,
        });
        let workers = (0..depth.min(MAX_WORKERS).min(total_blocks.max(1) as usize))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Prefetcher { shared, workers }
    }

    /// Return the next logical block, in order. Records a prefetch hit when
    /// the block was already in the ready-buffer, a miss when the call had
    /// to wait.
    pub fn next_block(&self) -> Result<Vec<u8>> {
        let shared = &*self.shared;
        let mut state = shared.state.lock().expect("prefetch lock");
        let idx = state.consumed;
        if idx >= shared.total_blocks {
            return Err(Error::Execution("prefetch read past end of spill".into()));
        }
        let mut recorded = false;
        let block = loop {
            if let Some(block) = state.ready.remove(&idx) {
                if !recorded {
                    shared.counters.record_prefetch(true);
                }
                break block;
            }
            if !recorded {
                shared.counters.record_prefetch(false);
                recorded = true;
            }
            state = shared.cond.wait(state).expect("prefetch lock");
        };
        state.consumed = idx + 1;
        // Freeing a buffer slot may unblock a parked worker.
        shared.cond.notify_all();
        block
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("prefetch lock");
            state.stop = true;
        }
        self.shared.cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim the next index within the read-ahead window, or park.
        let idx = {
            let mut state = shared.state.lock().expect("prefetch lock");
            loop {
                if state.stop {
                    return;
                }
                if state.next_fetch >= shared.total_blocks {
                    return; // everything claimed; remaining work is in-flight
                }
                if state.next_fetch < state.consumed + shared.depth {
                    let idx = state.next_fetch;
                    state.next_fetch += 1;
                    break idx;
                }
                state = shared.cond.wait(state).expect("prefetch lock");
            }
        };

        let fetched = shared.file.read_block(idx).and_then(|payload| {
            if shared.decompress {
                crate::codec::decompress_block(&payload)
            } else {
                Ok(payload)
            }
        });

        let mut state = shared.state.lock().expect("prefetch lock");
        if state.stop {
            return;
        }
        state.ready.insert(idx, fetched);
        shared.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, SpillBackend};
    use crate::faulty::FaultyBackend;
    use std::time::{Duration, Instant};

    fn filled(backend: &dyn SpillBackend, blocks: u32) -> Arc<dyn BackendFile> {
        let mut f = backend.open().unwrap();
        for i in 0..blocks {
            f.append_block(&i.to_le_bytes()).unwrap();
        }
        Arc::from(f)
    }

    #[test]
    fn delivers_blocks_in_order() {
        let backend = MemBackend::new();
        let file = filled(&*backend, 16);
        let pf = Prefetcher::new(file, 16, 3, false, Arc::clone(backend.counters()));
        for i in 0..16u32 {
            assert_eq!(pf.next_block().unwrap(), i.to_le_bytes());
        }
        assert!(pf.next_block().is_err(), "reads past end must fail");
        let s = backend.stats();
        assert_eq!(s.prefetch_hits + s.prefetch_misses, 16);
    }

    #[test]
    fn decompresses_in_workers() {
        let backend = MemBackend::new();
        let mut f = backend.open().unwrap();
        let raw = vec![5u8; 4000];
        f.append_block(&crate::codec::compress_block(&raw)).unwrap();
        let pf = Prefetcher::new(Arc::from(f), 1, 2, true, Arc::clone(backend.counters()));
        assert_eq!(pf.next_block().unwrap(), raw);
    }

    #[test]
    fn overlaps_latency_of_slow_backends() {
        let per_get = Duration::from_millis(4);
        let backend = FaultyBackend::slow(MemBackend::new(), per_get);
        let file = filled(&*backend, 12);
        let pf = Prefetcher::new(file, 12, 4, false, Arc::clone(backend.counters()));
        let t = Instant::now();
        for _ in 0..12 {
            pf.next_block().unwrap();
        }
        let wall = t.elapsed();
        // Serial cold reads would cost 12 × 4 ms = 48 ms; four overlapping
        // fetchers should land well under that.
        assert!(wall < per_get * 9, "prefetch took {wall:?}");
    }

    #[test]
    fn early_drop_joins_workers_cleanly() {
        let backend = FaultyBackend::slow(MemBackend::new(), Duration::from_millis(2));
        let file = filled(&*backend, 32);
        let pf = Prefetcher::new(file, 32, 4, false, Arc::clone(backend.counters()));
        pf.next_block().unwrap();
        drop(pf); // mid-stream abort: must not hang or panic
    }

    #[test]
    fn surfaces_read_errors() {
        let backend = MemBackend::new();
        let file = filled(&*backend, 2);
        // Claim more blocks than exist: index 2 will error in the worker.
        let pf = Prefetcher::new(file, 3, 2, false, Arc::clone(backend.counters()));
        assert!(pf.next_block().is_ok());
        assert!(pf.next_block().is_ok());
        assert!(pf.next_block().is_err());
    }
}
