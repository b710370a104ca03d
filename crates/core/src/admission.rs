//! Cross-query admission control over one shared [`SegmentStore`] pool.
//!
//! The PR 5 ledger sub-account mechanism bounded the residency of parallel
//! workers *inside* one chain; this module repurposes it **across queries**:
//! a [`QueryGovernor`] owns the global pool and hands every admitted query a
//! *pooled* sub-account ([`SegmentStore::pooled_sub_store`]) budgeted with
//! `per_query_blocks` of the shared pool. At most `max_concurrent` permits
//! are out at once, so
//!
//! ```text
//! Σ live per-query budgets  ≤  max_concurrent × per_query_blocks  ≤  pool
//! ```
//!
//! bounds global residency to `O(pool + largest unit)` while each query's
//! spill decisions (and therefore its rows, modeled counters and pool
//! counters) depend only on its **own** budget — bit-identical to a solo run,
//! which is what `tests/concurrent_sessions.rs` asserts.
//!
//! When all permits are out, arrivals wait in a bounded FIFO queue
//! ([`AdmissionConfig::queue_depth`]); beyond that they are rejected
//! immediately with [`Error::Admission`]. Waiting is subject to an optional
//! per-query timeout and a cooperative [`CancelToken`], both of which
//! surface as clean errors without touching the shared store.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wf_common::{Error, Result};
use wf_storage::{SegmentStore, StoreSnapshot};

/// Sizing knobs for a [`QueryGovernor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queries allowed to run simultaneously (≥ 1).
    pub max_concurrent: usize,
    /// Arrivals allowed to *wait* when every permit is out; one more is
    /// rejected immediately. `0` disables queueing entirely.
    pub queue_depth: usize,
    /// Ledger budget (in blocks) of each admitted query's pooled
    /// sub-account — the per-query `M`.
    pub per_query_blocks: u64,
}

/// Monotonic counters describing everything the governor has ever done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries granted a permit.
    pub admitted: u64,
    /// Queries that had to wait in the FIFO before admission.
    pub queued: u64,
    /// Arrivals bounced because the wait queue was full.
    pub rejected: u64,
    /// Waiters that gave up after their queue-wait timeout.
    pub timed_out: u64,
    /// Waiters whose [`CancelToken`] fired before admission.
    pub canceled: u64,
    /// Permits returned (queries finished).
    pub completed: u64,
    /// Most permits ever out simultaneously.
    pub peak_in_flight: usize,
    /// Total time admitted queries spent waiting in the queue.
    pub total_queue_wait: Duration,
    /// Longest single queue wait among admitted queries.
    pub max_queue_wait: Duration,
}

#[derive(Default)]
struct GovState {
    running: usize,
    /// Tickets of the queries currently waiting, oldest first.
    queue: VecDeque<u64>,
    next_ticket: u64,
    stats: AdmissionStats,
}

/// Cooperative cancellation flag for a queued or about-to-run query.
///
/// Cancellation is checked while waiting for admission and once more before
/// execution starts; a set token surfaces as [`Error::Canceled`]. It never
/// interrupts an executing chain mid-flight — operators are not
/// interruption-safe, and a query that already holds a permit completes and
/// releases it normally.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire the token: pending admission fails with [`Error::Canceled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The admission governor: owns the shared pool, hands out permits.
pub struct QueryGovernor {
    pool: Arc<SegmentStore>,
    cfg: AdmissionConfig,
    state: Mutex<GovState>,
    cv: Condvar,
}

impl QueryGovernor {
    /// Governor over `pool` with the given admission config.
    pub fn new(pool: Arc<SegmentStore>, cfg: AdmissionConfig) -> Arc<Self> {
        Arc::new(QueryGovernor {
            pool,
            cfg: AdmissionConfig {
                max_concurrent: cfg.max_concurrent.max(1),
                ..cfg
            },
            state: Mutex::new(GovState::default()),
            cv: Condvar::new(),
        })
    }

    /// The shared pool the sub-accounts forward into.
    pub fn pool(&self) -> &Arc<SegmentStore> {
        &self.pool
    }

    /// The governor's sizing knobs.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().expect("governor lock").stats
    }

    /// Queries currently holding a permit.
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("governor lock").running
    }

    /// Combined residency/spill snapshot of the shared pool (forwarded
    /// charges of every live sub-account).
    pub fn pool_snapshot(&self) -> StoreSnapshot {
        self.pool.snapshot()
    }

    /// Acquire a permit, waiting in FIFO order when every slot is taken.
    ///
    /// `timeout` bounds the *queue wait* (not execution); `cancel` is polled
    /// while waiting. Returns [`Error::Admission`] when the wait queue is
    /// full or the timeout elapses, [`Error::Canceled`] when the token fires
    /// first. The returned [`AdmissionPermit`] releases its slot on drop.
    pub fn admit(
        self: &Arc<Self>,
        timeout: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Result<AdmissionPermit> {
        let start = Instant::now();
        let mut s = self.state.lock().expect("governor lock");
        if let Some(tok) = cancel {
            if tok.is_canceled() {
                s.stats.canceled += 1;
                return Err(Error::Canceled("before admission".into()));
            }
        }
        // Fast path: a free slot and nobody queued ahead.
        if s.running < self.cfg.max_concurrent && s.queue.is_empty() {
            return Ok(self.grant(&mut s, Duration::ZERO));
        }
        if s.queue.len() >= self.cfg.queue_depth {
            s.stats.rejected += 1;
            return Err(Error::Admission(format!(
                "admission queue full ({} waiting, {} running)",
                s.queue.len(),
                s.running
            )));
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.queue.push_back(ticket);
        s.stats.queued += 1;
        loop {
            if let Some(tok) = cancel {
                if tok.is_canceled() {
                    s.queue.retain(|&t| t != ticket);
                    s.stats.canceled += 1;
                    // A slot may have opened for the waiter behind us.
                    self.cv.notify_all();
                    return Err(Error::Canceled("while queued for admission".into()));
                }
            }
            if s.queue.front() == Some(&ticket) && s.running < self.cfg.max_concurrent {
                s.queue.pop_front();
                let wait = start.elapsed();
                let permit = self.grant(&mut s, wait);
                // More than one slot may be free; wake the next waiter.
                self.cv.notify_all();
                return Ok(permit);
            }
            let elapsed = start.elapsed();
            if let Some(t) = timeout {
                if elapsed >= t {
                    s.queue.retain(|&x| x != ticket);
                    s.stats.timed_out += 1;
                    self.cv.notify_all();
                    return Err(Error::Admission(format!(
                        "queue-wait timeout after {:.0?} ({} still running)",
                        elapsed, s.running
                    )));
                }
            }
            // Short slices keep cancellation responsive even without a
            // notification (the token can fire from any thread at any time).
            let slice = timeout
                .map(|t| t.saturating_sub(elapsed))
                .unwrap_or(Duration::from_millis(25))
                .min(Duration::from_millis(25));
            let (guard, _) = self
                .cv
                .wait_timeout(s, slice)
                .expect("governor lock poisoned");
            s = guard;
        }
    }

    fn grant(
        self: &Arc<Self>,
        s: &mut std::sync::MutexGuard<'_, GovState>,
        queue_wait: Duration,
    ) -> AdmissionPermit {
        s.running += 1;
        s.stats.admitted += 1;
        s.stats.peak_in_flight = s.stats.peak_in_flight.max(s.running);
        s.stats.total_queue_wait += queue_wait;
        s.stats.max_queue_wait = s.stats.max_queue_wait.max(queue_wait);
        AdmissionPermit {
            governor: Arc::clone(self),
            store: self.pool.pooled_sub_store(Some(self.cfg.per_query_blocks)),
            queue_wait,
        }
    }
}

impl std::fmt::Debug for QueryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryGovernor")
            .field("config", &self.cfg)
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One admitted query's slot: a pooled ledger sub-account plus the RAII
/// guard that returns the slot (and wakes the next waiter) on drop.
pub struct AdmissionPermit {
    governor: Arc<QueryGovernor>,
    store: Arc<SegmentStore>,
    queue_wait: Duration,
}

impl AdmissionPermit {
    /// The query's pooled sub-account of the shared store: run the whole
    /// chain in it (e.g. via `ExecEnv::with_store`).
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// How long this query waited in the admission queue.
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// The per-query ledger budget in blocks.
    pub fn mem_blocks(&self) -> u64 {
        self.governor.cfg.per_query_blocks
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut s = self.governor.state.lock().expect("governor lock");
        s.running = s.running.saturating_sub(1);
        s.stats.completed += 1;
        drop(s);
        self.governor.cv.notify_all();
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AdmissionPermit<{} blocks, waited {:.0?}>",
            self.mem_blocks(),
            self.queue_wait
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use wf_storage::SpillConfig;

    fn governor(max: usize, depth: usize) -> Arc<QueryGovernor> {
        let pool = SegmentStore::with_spill(Some(64), SpillConfig::mem());
        QueryGovernor::new(
            pool,
            AdmissionConfig {
                max_concurrent: max,
                queue_depth: depth,
                per_query_blocks: 8,
            },
        )
    }

    #[test]
    fn fast_path_admits_up_to_max_concurrent() {
        let gov = governor(2, 4);
        let a = gov.admit(None, None).unwrap();
        let b = gov.admit(None, None).unwrap();
        assert_eq!(gov.in_flight(), 2);
        assert_eq!(a.queue_wait(), Duration::ZERO);
        assert_eq!(a.mem_blocks(), 8);
        drop(a);
        drop(b);
        let st = gov.stats();
        assert_eq!(st.admitted, 2);
        assert_eq!(st.completed, 2);
        assert_eq!(st.queued, 0);
        assert_eq!(st.peak_in_flight, 2);
        assert_eq!(gov.in_flight(), 0);
    }

    #[test]
    fn queue_full_rejects_immediately() {
        let gov = governor(1, 0);
        let _hold = gov.admit(None, None).unwrap();
        let err = gov.admit(None, None).unwrap_err();
        assert!(matches!(err, Error::Admission(_)), "{err}");
        assert_eq!(gov.stats().rejected, 1);
    }

    #[test]
    fn waiter_is_admitted_when_a_permit_frees() {
        let gov = governor(1, 2);
        let hold = gov.admit(None, None).unwrap();
        let g2 = Arc::clone(&gov);
        let waiter = thread::spawn(move || g2.admit(None, None).map(|p| p.queue_wait()));
        // Give the waiter time to join the queue, then free the slot.
        while gov.stats().queued == 0 {
            thread::yield_now();
        }
        drop(hold);
        let wait = waiter.join().unwrap().unwrap();
        assert!(wait > Duration::ZERO);
        let st = gov.stats();
        assert_eq!(st.admitted, 2);
        assert_eq!(st.queued, 1);
        assert!(st.max_queue_wait >= wait);
    }

    #[test]
    fn queue_wait_timeout_is_a_clean_admission_error() {
        let gov = governor(1, 2);
        let _hold = gov.admit(None, None).unwrap();
        let err = gov
            .admit(Some(Duration::from_millis(30)), None)
            .unwrap_err();
        assert!(matches!(err, Error::Admission(_)), "{err}");
        assert_eq!(gov.stats().timed_out, 1);
        // The governor still works afterwards.
        drop(_hold);
        assert!(gov.admit(None, None).is_ok());
    }

    #[test]
    fn cancel_token_aborts_a_queued_wait() {
        let gov = governor(1, 2);
        let _hold = gov.admit(None, None).unwrap();
        let tok = CancelToken::new();
        let (g2, t2) = (Arc::clone(&gov), tok.clone());
        let waiter = thread::spawn(move || g2.admit(None, Some(&t2)).map(|_| ()));
        while gov.stats().queued == 0 {
            thread::yield_now();
        }
        tok.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
        assert_eq!(gov.stats().canceled, 1);
        // An already-fired token fails fast, before queueing.
        let err = gov.admit(None, Some(&tok)).unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
    }

    #[test]
    fn admission_is_fifo() {
        let gov = governor(1, 8);
        let hold = gov.admit(None, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for i in 0..4 {
            let (g2, ord) = (Arc::clone(&gov), Arc::clone(&order));
            joins.push(thread::spawn(move || {
                let p = g2.admit(None, None).unwrap();
                ord.lock().unwrap().push(i);
                drop(p);
            }));
            // Serialize queue entry so ticket order matches spawn order.
            while gov.stats().queued != i + 1 {
                thread::yield_now();
            }
        }
        drop(hold);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn permit_stores_forward_into_the_shared_pool() {
        let gov = governor(4, 4);
        let p = gov.admit(None, None).unwrap();
        let h = p
            .store()
            .admit(vec![wf_common::row![1i64, "x"]; 100])
            .unwrap();
        assert!(gov.pool_snapshot().resident_rows >= 100);
        drop(h);
        assert_eq!(gov.pool_snapshot().resident_rows, 0);
    }
}
