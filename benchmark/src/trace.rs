//! The traced run's two span sources: the harness's own spans around each
//! call into a layer, and the Chrome trace the engine already emits under
//! `Session::with_trace(true)`, folded into per-name self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wfopt::common::json::write_escaped;
use wfopt::common::Json;

/// One complete (`ph:"X"`) event of an engine trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub cat: String,
    pub name: String,
    pub lane: u64,
    pub ts: u64,
    pub dur: u64,
}

impl Event {
    /// `cat/first-word-of-name`: engine span names carry arguments
    /// (`in_memory.radix n=2048`, `chain_worker shard=1`, `HS→ r3`) that the
    /// fold groups over.
    pub fn key(&self) -> String {
        let head = self.name.split_whitespace().next().unwrap_or("");
        format!("{}/{}", self.cat, head)
    }
}

/// The `ph:"X"` events of a Chrome trace-event document laid out as the
/// engine's exporter (and [`chrome_json`]) writes it: one event object per
/// line. Each line is parsed on its own because `wf_common::Json::parse`
/// re-validates the rest of its input at every string character, which is
/// quadratic in the document and does not finish on a trace of 10 000 spans.
pub fn parse_chrome(text: &str) -> Result<Vec<Event>, String> {
    if !text.trim_start().starts_with("{\"traceEvents\":[") {
        return Err("not a Chrome trace-event document".into());
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"name\"") {
            continue;
        }
        let e = Json::parse(line).map_err(|e| format!("{e}: {line}"))?;
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| {
            e.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("event lacks `{k}`"))
        };
        out.push(Event {
            cat: e
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            name: e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            lane: num("tid")?,
            ts: num("ts")?,
            dur: num("dur")?,
        });
    }
    Ok(out)
}

/// Events with each one's self time: its duration minus the part of that
/// interval its direct children (same lane, nested inside it) cover.
#[derive(Debug, Default)]
pub struct Fold {
    pub events: Vec<Event>,
    /// [`Event::key`] of each event.
    pub keys: Vec<String>,
    pub self_us: Vec<u64>,
}

impl Fold {
    pub fn new(events: Vec<Event>) -> Fold {
        let mut order: Vec<usize> = (0..events.len()).collect();
        // Parents before children: earlier start first, longer first on ties.
        order.sort_by_key(|&i| {
            (
                events[i].lane,
                events[i].ts,
                std::cmp::Reverse(events[i].dur),
            )
        });
        let mut covered = vec![0u64; events.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let e = &events[i];
            while let Some(&top) = stack.last() {
                let t = &events[top];
                if t.lane != e.lane || t.ts + t.dur <= e.ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                // Microsecond rounding can push a child's end past its
                // parent's; only the overlap counts.
                let p = &events[parent];
                covered[parent] += (e.ts + e.dur).min(p.ts + p.dur) - e.ts;
            }
            stack.push(i);
        }
        let self_us = events
            .iter()
            .zip(&covered)
            .map(|(e, c)| e.dur.saturating_sub(*c))
            .collect();
        let keys = events.iter().map(Event::key).collect();
        Fold {
            events,
            keys,
            self_us,
        }
    }

    /// `(event, key, self time in ms)` of every event.
    fn rows(&self) -> impl Iterator<Item = (&Event, &str, f64)> {
        self.events
            .iter()
            .zip(&self.keys)
            .zip(&self.self_us)
            .map(|((e, k), s)| (e, k.as_str(), *s as f64 / 1e3))
    }

    /// The lane the statement was driven from: where the earliest span began.
    pub fn driver_lane(&self) -> Option<u64> {
        self.events.iter().min_by_key(|e| e.ts).map(|e| e.lane)
    }

    /// Self time in ms of every event whose key is one of `keys`, on `lane`
    /// only when given.
    pub fn self_ms(&self, keys: &[&str], lane: Option<u64>) -> f64 {
        self.rows()
            .filter(|(e, key, _)| lane.is_none_or(|l| e.lane == l) && keys.contains(key))
            .map(|(_, _, ms)| ms)
            .sum()
    }

    /// Duration in ms of each event with this key.
    pub fn durations_ms(&self, key: &str) -> Vec<f64> {
        self.rows()
            .filter(|(_, k, _)| *k == key)
            .map(|(e, _, _)| e.dur as f64 / 1e3)
            .collect()
    }

    /// Self time in ms per key, on `lane` only when given.
    pub fn by_key(&self, lane: Option<u64>) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (e, key, ms) in self.rows() {
            if lane.is_none_or(|l| e.lane == l) {
                *out.entry(key.to_string()).or_insert(0.0) += ms;
            }
        }
        out
    }
}

/// One span recorded by the harness around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
}

/// The harness's span recorder: in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub lane: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Recorder {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, stmt: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            stmt,
            parent,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.epoch.elapsed().as_micros() as u64;
    }

    /// A span whose interval was timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            name,
            stmt,
            parent,
            start_us,
            end_us: start_us + dur.as_micros() as u64,
        });
        self.spans.len() - 1
    }

    /// Time `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, stmt, parent);
        // Spans keep whole microseconds; the caller gets the clock's digits.
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.close(id);
        (out, elapsed)
    }
}

/// Chrome trace-event JSON of the harness's spans (pid 1, one tid per
/// recorder) plus one statement's engine spans (pid 2), shifted so that they
/// start where the harness's `execute` span for that statement did.
pub fn chrome_json(recorders: &[Recorder], engine: &[Event], engine_start_us: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };
    for rec in recorders {
        for span in &rec.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"stmt\":{},\"parent\":{}}}}}",
                span.name,
                rec.lane,
                span.start_us,
                span.end_us - span.start_us,
                span.stmt,
                span.parent.map_or(-1, |p| p as i64),
            );
        }
    }
    let shift = engine.iter().map(|e| e.ts).min().unwrap_or(0);
    for e in engine {
        sep(&mut out);
        out.push_str("{\"name\":");
        write_escaped(&mut out, &e.name);
        out.push_str(",\"cat\":");
        write_escaped(&mut out, &e.cat);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":2,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            e.lane,
            e.ts - shift + engine_start_us,
            e.dur
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &str, name: &str, lane: u64, ts: u64, dur: u64) -> Event {
        Event {
            cat: cat.into(),
            name: name.into(),
            lane,
            ts,
            dur,
        }
    }

    #[test]
    fn nested_spans_fold_to_self_time() {
        // lane 1: step 0..100 { sort 10..60 { merge 20..40 }, eval 70..90 }
        // lane 2: a worker overlapping in time must not nest under lane 1.
        let fold = Fold::new(vec![
            ev("window", "eval", 1, 70, 20),
            ev("step", "HS→ r1", 1, 0, 100),
            ev("sort", "merge_pass runs=4 fan_in=2", 1, 20, 20),
            ev("sort", "run_formation", 1, 10, 50),
            ev("worker", "chain_worker shard=0", 2, 5, 80),
        ]);
        let lane = Some(1);
        assert_eq!(fold.self_ms(&["step/HS→"], lane), 0.03);
        assert_eq!(fold.self_ms(&["sort/run_formation"], lane), 0.03);
        assert_eq!(fold.self_ms(&["sort/merge_pass"], lane), 0.02);
        assert_eq!(fold.self_ms(&["window/eval"], lane), 0.02);
        assert_eq!(fold.self_ms(&["worker/chain_worker"], None), 0.08);
        assert_eq!(fold.self_ms(&["worker/chain_worker"], lane), 0.0);
        assert_eq!(fold.driver_lane(), Some(1));
        let total: f64 = fold.by_key(Some(1)).values().sum();
        assert!(
            (total - 0.1).abs() < 1e-12,
            "self times partition the root: {total}"
        );
        assert_eq!(fold.durations_ms("worker/chain_worker"), vec![0.08]);
    }

    #[test]
    fn siblings_and_rounding_overhang_do_not_go_negative() {
        let fold = Fold::new(vec![
            ev("step", "a", 1, 0, 10),
            ev("sort", "b", 1, 0, 6),
            ev("sort", "c", 1, 6, 5), // ends 1 µs past its parent
        ]);
        assert_eq!(fold.self_us, vec![0, 6, 5]);
    }

    #[test]
    fn engine_trace_parses_and_harness_trace_round_trips() {
        let engine = "{\"traceEvents\":[\n\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"lane-3\"}},\n\
            {\"name\":\"scan+filter\",\"cat\":\"step\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":5,\"dur\":7}\n]}";
        let events = parse_chrome(engine).unwrap();
        assert_eq!(events, vec![ev("step", "scan+filter", 3, 5, 7)]);

        let mut rec = Recorder::new(Instant::now(), 0);
        let root = rec.open("statement", 9, None);
        let ((), _) = rec.time("execute", 9, Some(root), || ());
        rec.close(root);
        let text = chrome_json(&[rec], &events, 100);
        let back = parse_chrome(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2], ev("step", "scan+filter", 3, 100, 7));
        assert!(text.contains("\"stmt\":9") && text.contains("\"parent\":0"));
    }
}
