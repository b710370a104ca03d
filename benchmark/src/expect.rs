//! What each workload is for, stated as conditions on its traced run: the
//! layer it was built to stress does most of the work, and the layers it was
//! built to bypass do none. A traced run prints the conditions that do not
//! hold. They are notes, not failures: an engine change that makes window
//! evaluation twice as fast legitimately moves `window.share`, and then the
//! workload's size is what needs another look.

use std::collections::BTreeMap;

pub fn unmet(workload: &str, metrics: &BTreeMap<String, f64>) -> Vec<String> {
    let m = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let mut notes = Vec::new();
    let mut expect = |holds: bool, what: &str| {
        if !holds {
            notes.push(format!("{workload}: expected {what}"));
        }
    };
    let no_spill = m("spill.put_requests") == 0.0
        && m("spill.bytes_written") == 0.0
        && m("pool.spill_blocks_written") == 0.0;
    let exec = m("runtime.exec_ms");

    if workload != "par_chain" {
        expect(
            m("par.worker_max_ms") == 0.0,
            "no scheduler spans outside par_chain",
        );
    }
    if workload != "served_mixed" {
        expect(
            m("admission.queue_wait_p90_ms") == 0.0,
            "no queue wait with one client",
        );
        expect(
            m("sql.parse_us") + m("sql.bind_us") < 0.01 * exec * 1e3,
            "the SQL front end under 1 % of a statement",
        );
    }
    match workload {
        "inmem_chain" => {
            expect(m("sort.in_memory_ms") > 0.0, "in-memory sort spans");
            expect(no_spill, "every spill count at 0");
        }
        "spill_chain" => {
            expect(
                m("reorder.fs_ms") > 0.0,
                "a full sort at the head of the chain",
            );
            expect(m("window.share") < 0.1, "window.share under 0.1");
            let io = m("sort.run_formation_ms") + m("sort.merge_ms") + m("spill.backend_delta_ms");
            expect(
                io >= 0.5 * exec,
                "run formation + merge + backend delta at half of exec or more",
            );
        }
        "window_fanout" => {
            expect(m("window.share") >= 0.5, "window.share at 0.5 or more");
            expect(
                m("planner.reorder_ops") == 1.0,
                "one sort for all the windows",
            );
            expect(no_spill, "every spill count at 0");
        }
        "par_chain" => {
            expect(m("par.worker_max_ms") > 0.0, "scheduler worker spans");
        }
        "served_mixed" => {
            let front = (m("sql.parse_us") + m("sql.bind_us") + m("planner.optimize_us")) / 1e3;
            expect(
                front + m("server.wire_ms_p50") >= 0.3 * m("served.point_p50_ms"),
                "front end + wire at 0.3 of a point statement or more",
            );
            expect(
                m("served.full_p50_ms") > m("served.point_p50_ms").max(m("served.medium_p50_ms")),
                "the full class slowest, so that p90 falls inside it",
            );
        }
        _ => {}
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_workload_that_lost_its_point_is_noted() {
        let metrics = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let good = metrics(&[
            ("runtime.exec_ms", 300.0),
            ("window.share", 0.6),
            ("planner.reorder_ops", 1.0),
            ("sql.parse_us", 200.0),
        ]);
        assert_eq!(unmet("window_fanout", &good), Vec::<String>::new());
        let mut bad = good.clone();
        bad.insert("window.share".into(), 0.3);
        bad.insert("spill.put_requests".into(), 4.0);
        bad.insert("par.worker_max_ms".into(), 1.0);
        let notes = unmet("window_fanout", &bad);
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(notes[0].contains("scheduler") && notes[1].contains("window.share"));
    }
}
