//! Bench behind Fig. 3: FS vs HS reordering for Q1/Q2/Q3 at a small and a
//! large memory budget (paper-MB equivalents).

use wf_bench::experiments::Harness;
use wf_bench::microbench::BenchGroup;
use wf_bench::{paper_mb_to_blocks, queries};
use wf_core::cost::{hs_bucket_count, TableStats};
use wf_core::plan::default_fs_key;
use wf_exec::{full_sort, hashed_sort, HsOptions, OpEnv, SegmentedRows};

fn main() {
    let h = Harness { rows: 30_000 };
    let table = h.ws_config().generate();
    let stats = TableStats::from_table(&table);
    let b = table.block_count();
    let mut group = BenchGroup::new("fig3_fs_vs_hs");

    for (qname, spec) in [
        ("q1", queries::q1()),
        ("q2", queries::q2()),
        ("q3", queries::q3()),
    ] {
        let key = default_fs_key(&spec);
        for m_mb in [10.0, 150.0] {
            let m = paper_mb_to_blocks(m_mb, b);
            group.bench(&format!("{qname}_fs/{}", m_mb as u64), || {
                let env = OpEnv::with_memory_blocks(m);
                let input = SegmentedRows::single_segment(table.rows().to_vec());
                full_sort(input, &key, &env).unwrap();
            });
            let whk = spec.wpk().clone();
            let opts = HsOptions::with_buckets(hs_bucket_count(&stats, &whk, m));
            group.bench(&format!("{qname}_hs/{}", m_mb as u64), || {
                let env = OpEnv::with_memory_blocks(m);
                let input = SegmentedRows::single_segment(table.rows().to_vec());
                hashed_sort(input, &whk, &key, &opts, &env).unwrap();
            });
        }
    }
    group.finish();
}
