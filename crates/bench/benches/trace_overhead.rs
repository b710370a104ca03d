//! Overhead guard for the disabled trace sink (`TraceSink::disabled()`).
//!
//! The fig3 sort workload runs twice: once as shipped (the sorter's own
//! instrumentation already hits the disabled sink), and once with an
//! artificially amplified span density — one extra disabled `span()` per
//! row on top, far denser than any real instrumentation point. The wall
//! ratio of the two legs (interleaved best-of-N) is printed, not asserted:
//! at one iteration on a shared host it is noise. What is asserted is what
//! makes the no-op path free by construction, counted rather than timed:
//! the disabled sink records nothing, and opening a span on it allocates
//! nothing (the counting allocator below, as in `fig3_fs_vs_hs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wf_bench::experiments::Harness;
use wf_bench::microbench::iterations;
use wf_bench::queries;
use wf_common::TraceSink;
use wf_exec::{sorter, OpEnv, SortKey};

/// Counts every heap allocation; delegates to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn sort_ms(table: &wf_storage::Table, key: &SortKey, spans_per_row: bool) -> f64 {
    let blocks = table.block_count();
    let env = OpEnv::with_memory_blocks(blocks * 4);
    let rows = table.rows().to_vec();
    let sink = TraceSink::disabled();
    let t0 = Instant::now();
    if spans_per_row {
        for _ in 0..rows.len() {
            let _span = sink.span("bench", "noop");
        }
    }
    let sorted = sorter::sort_rows(rows, key, &env).expect("sort");
    let ms = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(sorted.len(), table.row_count());
    ms
}

fn main() {
    let h = Harness { rows: 30_000 };
    let table = h.ws_config().generate();
    let spec = queries::q1();
    let fs_key = wf_core::plan::default_fs_key(&spec);
    let key = SortKey::new(&fs_key);
    let iters = iterations();

    // Interleave the legs so drift (thermal, scheduler) hits both.
    let (mut baseline, mut amplified) = (f64::INFINITY, f64::INFINITY);
    sort_ms(&table, &key, false); // warm-up
    sort_ms(&table, &key, true);
    for _ in 0..iters {
        baseline = baseline.min(sort_ms(&table, &key, false));
        amplified = amplified.min(sort_ms(&table, &key, true));
    }

    println!(
        "disabled-sink overhead (fig3 sort, 30k rows, best of {iters}): {:.4}x \
         ({baseline:.3} ms -> {amplified:.3} ms with a span per row)",
        amplified / baseline
    );

    // Every sort above ran against the shared disabled sink.
    let sink = TraceSink::disabled();
    assert!(
        sink.records().is_empty(),
        "the disabled sink recorded spans"
    );
    assert_eq!(sink.open_spans(), 0);

    let spans = table.row_count() as u64;
    let allocs = count_allocs(|| {
        for i in 0..spans {
            let _span = sink.span("bench", "noop");
            let _lazy = sink.span_with("bench", || format!("noop {i}"));
        }
    });
    println!("disabled-sink allocations: {allocs} over {spans} span() + span_with() pairs");
    assert_eq!(allocs, 0, "a span on the disabled sink allocated");
}
