//! The served, concurrent front end: a shareable [`Database`] opened from a
//! [`DatabaseConfig`], handing out [`Session`]s whose
//! [`prepare`](Session::prepare) → [`execute`](PreparedQuery::execute) flow
//! returns everything about a run — rows, plan, [`ExecReport`], optional
//! trace — in one [`QueryOutcome`], which renders EXPLAIN ANALYZE on request.
//!
//! A table is one registry entry — its rows and statistics, swapped in
//! whole by [`Database::register`]. A statement looks its table up once,
//! at prepare time, and keeps that entry: it binds, plans and runs on the
//! table it was costed on, however often the name is re-registered since.
//!
//! Concurrency model: the database owns one global
//! [`SegmentStore`] pool and a
//! [`QueryGovernor`]. Every executed query is first *admitted* (bounded
//! FIFO queue, optional timeout/cancel) and then runs inside a pooled
//! ledger sub-account budgeted with `per_query_blocks` of the shared pool,
//! so `max_concurrent × per_query_blocks ≤ memory_blocks` bounds global
//! residency while each query's spill decisions — and therefore its rows and
//! modeled counters — stay bit-identical to a solo run.
//!
//! Scheme and memory are fixed when the database is opened
//! ([`DatabaseConfig::scheme`], [`DatabaseConfig::per_query_blocks`]): every
//! handle of one database plans the way its [`Database::config`] says.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use wf_common::{Error, Result, Schema, TraceSink};
use wf_core::admission::{AdmissionConfig, AdmissionStats, CancelToken, QueryGovernor};
use wf_core::cost::TableStats;
use wf_core::plan::Plan;
use wf_core::planner::{optimize, Scheme};
use wf_core::query::WindowQuery;
use wf_core::runtime::{execute_plan, render_analyze, ExecEnv, ExecReport};
use wf_sql::Catalog;
use wf_storage::{
    BackendStats, CostWeights, SegmentStore, SpillBackendKind, SpillConfig, StoreSnapshot, Table,
};

/// Builder for a [`Database`]: planning scheme, the global memory pool, and
/// the admission-control knobs.
///
/// ```
/// use wfopt::prelude::*;
///
/// let db = DatabaseConfig::new()
///     .scheme(Scheme::Cso)
///     .memory_blocks(512)     // global pool
///     .max_concurrent(8)      // permits; per-query budget = 512/8 = 64
///     .open();
/// assert_eq!(db.config().resolved_per_query_blocks(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseConfig {
    scheme: Scheme,
    memory_blocks: u64,
    max_concurrent: usize,
    per_query_blocks: Option<u64>,
    queue_depth: Option<usize>,
    worker_threads: Option<usize>,
    spill_backend: Option<SpillBackendKind>,
    compress_spill: Option<bool>,
    prefetch_blocks: usize,
}

impl Default for DatabaseConfig {
    /// CSO planning, a 1024-block pool, 4 concurrent queries — so the
    /// default per-query budget matches the pre-session default of 256
    /// blocks of unit reorder memory.
    fn default() -> Self {
        DatabaseConfig {
            scheme: Scheme::Cso,
            memory_blocks: 1024,
            max_concurrent: 4,
            per_query_blocks: None,
            queue_depth: None,
            worker_threads: None,
            spill_backend: None,
            compress_spill: None,
            prefetch_blocks: 0,
        }
    }
}

impl DatabaseConfig {
    /// The default configuration (see [`DatabaseConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planning scheme for every query (default [`Scheme::Cso`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Global memory pool in blocks (default 1024). Admitted queries share
    /// it; the shared ledger's high-water mark tracks their combined
    /// residency.
    pub fn memory_blocks(mut self, blocks: u64) -> Self {
        self.memory_blocks = blocks.max(1);
        self
    }

    /// Queries allowed to execute simultaneously (default 4); later
    /// arrivals queue FIFO up to [`DatabaseConfig::queue_depth`].
    pub fn max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }

    /// Per-query ledger budget in blocks — the paper's `M` for each
    /// admitted query. Defaults to `memory_blocks / max_concurrent`, which
    /// guarantees the admitted set never outgrows the pool.
    pub fn per_query_blocks(mut self, blocks: u64) -> Self {
        self.per_query_blocks = Some(blocks.max(1));
        self
    }

    /// Arrivals allowed to wait when every permit is out (default
    /// `max_concurrent`); beyond that, queries are rejected immediately.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Pin worker threads (plan shard count and OS threads) for every
    /// query. Unset, both default from the `WF_WORKERS` environment
    /// variable; pinning makes plans reproducible regardless of it.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = Some(n.max(1));
        self
    }

    /// Spill backend for every query's spill traffic (sort runs, hash
    /// buckets, pool overflow). Unset, the backend comes from the
    /// `WF_SPILL_BACKEND` environment variable (in-memory by default).
    /// Rows and all counters are invariant under this knob.
    pub fn spill_backend(mut self, kind: SpillBackendKind) -> Self {
        self.spill_backend = Some(kind);
        self
    }

    /// Request block compression at rest for spill files (applied only on
    /// backends whose medium benefits — local files; the in-memory backend
    /// declines). Unset, follows `WF_SPILL_COMPRESS`.
    pub fn compress_spill(mut self, compress: bool) -> Self {
        self.compress_spill = Some(compress);
        self
    }

    /// Read-ahead depth in blocks for spill read-back (default `0`:
    /// synchronous cold reads).
    pub fn prefetch_blocks(mut self, blocks: usize) -> Self {
        self.prefetch_blocks = blocks;
        self
    }

    /// The per-query budget this config resolves to.
    pub fn resolved_per_query_blocks(&self) -> u64 {
        self.per_query_blocks
            .unwrap_or_else(|| (self.memory_blocks / self.max_concurrent as u64).max(1))
    }

    /// The queue depth this config resolves to.
    pub fn resolved_queue_depth(&self) -> usize {
        self.queue_depth.unwrap_or(self.max_concurrent)
    }

    /// The live [`SpillConfig`] this config resolves to: environment
    /// defaults (`WF_SPILL_BACKEND` / `WF_SPILL_COMPRESS`) with the explicit
    /// builder knobs layered on top. Each call builds a fresh backend (fresh
    /// traffic counters).
    pub fn resolved_spill_config(&self) -> SpillConfig {
        let env = SpillConfig::from_env();
        let compress = self.compress_spill.unwrap_or(env.compress);
        let cfg = match self.spill_backend {
            Some(kind) => SpillConfig::of_kind(kind),
            None => env,
        };
        cfg.with_compress(compress)
            .with_prefetch(self.prefetch_blocks)
    }

    /// Open an (empty) database with this configuration. The environment
    /// every statement is planned in — the per-query budget, the pinned
    /// workers — is resolved here, once.
    pub fn open(self) -> Database {
        let mut plan_env = ExecEnv::with_memory_blocks(self.resolved_per_query_blocks());
        if let Some(n) = self.worker_threads {
            plan_env = plan_env.with_par_workers(n).with_worker_threads(n);
        }
        let pool = SegmentStore::with_spill(Some(self.memory_blocks), self.resolved_spill_config());
        let governor = QueryGovernor::new(
            Arc::clone(&pool),
            AdmissionConfig {
                max_concurrent: self.max_concurrent,
                queue_depth: self.resolved_queue_depth(),
                per_query_blocks: self.resolved_per_query_blocks(),
            },
        );
        Database {
            inner: Arc::new(DbInner {
                tables: RwLock::new(HashMap::new()),
                governor,
                plan_env,
                cfg: self,
            }),
        }
    }
}

struct DbInner {
    tables: RwLock<HashMap<String, Arc<Registered>>>,
    governor: Arc<QueryGovernor>,
    plan_env: ExecEnv,
    cfg: DatabaseConfig,
}

/// One registered table: its rows (and with them its schema) and the
/// statistics the planner costs it with. Replaced whole, never edited.
struct Registered {
    table: Table,
    stats: TableStats,
}

/// An in-memory database of named tables with a window-query SQL interface,
/// shared across threads: `Database` is `Clone + Send + Sync`, every clone
/// is a handle to the same tables and admission governor.
///
/// ```
/// use wfopt::prelude::*;
/// use wfopt::Database;
///
/// let db = DatabaseConfig::new().open();
/// let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
/// let mut t = Table::new(schema);
/// for (g, v) in [(1, 10), (1, 30), (2, 20)] {
///     t.push(Row::new(vec![g.into(), v.into()]));
/// }
/// db.register("t", t).unwrap();
///
/// let out = db
///     .session()
///     .query("SELECT *, rank() OVER (PARTITION BY g ORDER BY v DESC) AS r FROM t")
///     .unwrap();
/// assert_eq!(out.schema().len(), 3);
/// assert_eq!(out.row_count(), 3);
/// ```
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Default for Database {
    fn default() -> Self {
        DatabaseConfig::default().open()
    }
}

impl Database {
    /// Database with the default configuration (see
    /// [`DatabaseConfig::default`]).
    pub fn new() -> Self {
        Database::default()
    }

    /// The configuration this database was opened with.
    pub fn config(&self) -> &DatabaseConfig {
        &self.inner.cfg
    }

    /// The admission governor (permit accounting, queue, shared pool).
    pub fn governor(&self) -> &Arc<QueryGovernor> {
        &self.inner.governor
    }

    /// Residency/spill snapshot of the shared pool across all queries.
    pub fn pool_snapshot(&self) -> StoreSnapshot {
        self.inner.governor.pool_snapshot()
    }

    /// Admission counters (admitted/queued/rejected, queue waits, …).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.inner.governor.stats()
    }

    /// The live spill configuration (backend, compression, read-ahead)
    /// shared by every query of this database.
    pub fn spill_config(&self) -> &SpillConfig {
        self.inner.governor.pool().spill_config()
    }

    /// Spill-backend traffic across all queries: physical requests and
    /// bytes plus prefetch hit/miss counts. Informational — never part of
    /// modeled time or pool counters.
    pub fn spill_stats(&self) -> BackendStats {
        self.spill_config().stats()
    }

    /// Register (or replace) a table; statistics are computed eagerly and
    /// the entry is swapped in whole. Statements prepared before keep the
    /// entry they were planned on. Names are canonicalized exactly like the
    /// SQL catalog's ([`Catalog::canonical`]), so `WS` and `ws` are the
    /// same table.
    pub fn register(&self, name: &str, table: Table) -> Result<()> {
        let entry = Arc::new(Registered {
            stats: TableStats::from_table(&table),
            table,
        });
        self.inner
            .tables
            .write()
            .expect("tables lock")
            .insert(Catalog::canonical(name), entry);
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<Arc<Registered>> {
        self.inner
            .tables
            .read()
            .expect("tables lock")
            .get(&Catalog::canonical(name))
            .cloned()
            .ok_or_else(|| Error::InvalidQuery(format!("unknown table `{name}`")))
    }

    /// Look up a registered table (a cheap handle: rows are `Arc`-shared).
    pub fn table(&self, name: &str) -> Result<Table> {
        self.entry(name).map(|e| e.table.clone())
    }

    /// Table schema by name.
    pub fn schema(&self, name: &str) -> Result<Schema> {
        self.table(name).map(|t| t.schema().clone())
    }

    /// Names of every registered table, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .tables
            .read()
            .expect("tables lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Open a session — a lightweight, cloneable handle for running
    /// queries; per-session timeout/cancel/trace settings ride on it.
    pub fn session(&self) -> Session {
        Session {
            db: self.clone(),
            timeout: None,
            cancel: None,
            trace: false,
        }
    }

    /// Run a window query end to end; returns the result table.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.session().query(sql)
    }

    /// The plan a query would run, without executing it (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.session().explain(sql)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("config", &self.inner.cfg)
            .finish()
    }
}

/// A handle for running queries against a shared [`Database`].
///
/// Sessions are cheap to clone and hold no server-side state beyond their
/// settings: timeout ([`Session::with_timeout`]), cooperative cancellation
/// ([`Session::with_cancel`]) and tracing ([`Session::with_trace`]). The
/// flow is [`prepare`](Session::prepare) (parse → bind → optimize) followed
/// by [`PreparedQuery::execute`] (admission → run → finalize), or the
/// [`execute`](Session::execute)/[`query`](Session::query) shortcuts.
#[derive(Clone)]
pub struct Session {
    db: Database,
    timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    trace: bool,
}

impl Session {
    /// The database this session runs against.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Bound the admission queue wait for queries from this session.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token; firing it aborts queued or not-yet-run
    /// queries from this session with [`Error::Canceled`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Record an execution timeline; [`QueryOutcome::trace`] carries it as
    /// Chrome trace-event JSON. Tracing never changes rows or counters.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Parse a SQL window query, look its table up once, and bind and
    /// optimize it against that entry.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        let stmt = wf_sql::parse(sql)?;
        let entry = self.db.entry(&stmt.table)?;
        let mut catalog = Catalog::new();
        catalog.register(&stmt.table, entry.table.schema().clone());
        let query = wf_sql::bind(&stmt, &catalog)?;
        self.plan(&stmt.table, entry, query)
    }

    /// Plan an already-bound [`WindowQuery`] (the [`QueryBuilder`] path)
    /// against a registered table. The query must be built on that table's
    /// schema (or on its columns [`WindowQuery::scan_columns`] keeps);
    /// otherwise this is an [`Error::InvalidQuery`].
    ///
    /// The result's column names are checked here, before planning and
    /// admission ([`WindowQuery::check_output_names`]). The query is then
    /// narrowed to the columns it reads ([`WindowQuery::prune_unread`]): a
    /// statement with a column list scans, plans and reorders only those,
    /// while one that reads every column (every `SELECT *`) is planned and
    /// run exactly as written.
    ///
    /// [`QueryBuilder`]: wf_core::query::QueryBuilder
    pub fn prepare_query(&self, table: &str, query: WindowQuery) -> Result<PreparedQuery> {
        let entry = self.db.entry(table)?;
        let schema = entry.table.schema();
        let read = match &query.scan_columns {
            None => Some(schema.clone()),
            Some(cols) if cols.iter().all(|a| a.index() < schema.len()) => schema.select(cols).ok(),
            Some(_) => None,
        };
        if read.as_ref() != Some(&query.schema) {
            return Err(Error::InvalidQuery(format!(
                "the query was built on another schema than table `{table}`'s"
            )));
        }
        self.plan(table, entry, query)
    }

    fn plan(
        &self,
        table: &str,
        entry: Arc<Registered>,
        query: WindowQuery,
    ) -> Result<PreparedQuery> {
        query.check_output_names()?;
        let query = query.prune_unread();
        let db = &self.db.inner;
        let plan = optimize(&query, &entry.stats, db.cfg.scheme, &db.plan_env)?;
        Ok(PreparedQuery {
            session: self.clone(),
            table_name: Catalog::canonical(table),
            entry,
            query,
            plan,
        })
    }

    /// [`prepare`](Session::prepare) + [`execute`](PreparedQuery::execute).
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome> {
        self.prepare(sql)?.execute()
    }

    /// Run a query and return only the result table.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.execute(sql).map(|o| o.table)
    }

    /// The plan a query would run, without executing it (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.prepare(sql)?.explain())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("timeout", &self.timeout)
            .field(
                "canceled",
                &self.cancel.as_ref().map(CancelToken::is_canceled),
            )
            .field("trace", &self.trace)
            .finish()
    }
}

/// A planned query, ready to execute (repeatedly, if desired).
///
/// Produced by [`Session::prepare`]/[`Session::prepare_query`]; the plan is
/// fixed at prepare time, and so is the table: every
/// [`execute`](PreparedQuery::execute) runs on the registry entry the plan
/// was costed on, even after [`Database::register`] has replaced the name.
/// Each execution goes through admission and runs in a fresh pooled
/// sub-account.
pub struct PreparedQuery {
    session: Session,
    table_name: String,
    entry: Arc<Registered>,
    query: WindowQuery,
    plan: Plan,
}

impl PreparedQuery {
    /// The optimized plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Canonical name of the source table.
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// The bound window query this plan was optimized for (narrowed to
    /// the columns it reads; see [`Session::prepare_query`]).
    pub fn window_query(&self) -> &WindowQuery {
        &self.query
    }

    /// EXPLAIN text for the plan (chain, scheme, estimated cost, steps).
    pub fn explain(&self) -> String {
        format!(
            "{} [{}; est {:.1} ms]\n{}",
            self.plan.chain_string(),
            self.plan.scheme,
            self.plan
                .est_cost
                .ms(&self.session.db.inner.plan_env.weights()),
            self.plan.explain(self.entry.table.schema())
        )
    }

    /// Admit the query into the shared pool (waiting in the FIFO queue if
    /// every permit is out), execute the plan — final ORDER BY and
    /// projection included — inside the admitted ledger sub-account, and
    /// return the full [`QueryOutcome`].
    pub fn execute(&self) -> Result<QueryOutcome> {
        let start = Instant::now();
        let db = &self.session.db;
        let governor = &db.inner.governor;
        let permit = governor.admit(self.session.timeout, self.session.cancel.as_ref())?;
        if let Some(tok) = &self.session.cancel {
            if tok.is_canceled() {
                return Err(Error::Canceled("before execution".into()));
            }
        }
        let mut env = ExecEnv::with_store(Arc::clone(permit.store()));
        if let Some(n) = db.inner.cfg.worker_threads {
            env = env.with_par_workers(n).with_worker_threads(n);
        }
        let sink = self.session.trace.then(TraceSink::enabled);
        if let Some(s) = &sink {
            env = env.with_trace(Arc::clone(s));
        }
        let report = execute_plan(&self.plan, &self.entry.table, &env)?;
        let queue_wait = permit.queue_wait();
        drop(permit);
        Ok(QueryOutcome {
            table: report.table.clone(),
            plan: self.plan.clone(),
            report,
            wall: start.elapsed(),
            queue_wait,
            admission: governor.stats(),
            trace: sink.map(|s| s.to_chrome_json()),
            source: self.entry.table.schema().clone(),
            weights: env.weights(),
        })
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedQuery<{} over `{}`>",
            self.plan.chain_string(),
            self.table_name
        )
    }
}

/// Everything one query execution produced, in named fields.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result rows (final ORDER BY and projection applied); shares its
    /// rows with `report.table`.
    pub table: Table,
    /// The executed plan.
    pub plan: Plan,
    /// Execution report: modeled counters, per-step metrics, store snapshot.
    pub report: ExecReport,
    /// End-to-end wall time, admission wait included.
    pub wall: Duration,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Governor counters snapshotted at completion.
    pub admission: AdmissionStats,
    /// Execution timeline as Chrome trace-event JSON, when the session had
    /// tracing enabled ([`Session::with_trace`]).
    pub trace: Option<String>,
    /// The source table's schema and the time-model weights, for
    /// [`QueryOutcome::explain`].
    source: Schema,
    weights: CostWeights,
}

impl QueryOutcome {
    /// EXPLAIN ANALYZE for this run: the plan's EXPLAIN tree, then one row
    /// per step with measured wall against modeled ms, rows, segments,
    /// comparisons and spill bytes (see [`render_analyze`]). Rendered from
    /// the report when asked for, not on every execution.
    pub fn explain(&self) -> String {
        render_analyze(&self.plan, &self.source, &self.report, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{DataType, Row};

    fn demo_db() -> Database {
        let db = DatabaseConfig::new()
            .memory_blocks(256)
            .max_concurrent(2)
            .open();
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new(schema);
        for (g, v) in [(1, 10), (1, 30), (2, 20), (2, 40)] {
            t.push(Row::new(vec![g.into(), v.into()]));
        }
        db.register("T", t).unwrap();
        db
    }

    #[test]
    fn session_flow_returns_a_full_outcome() {
        let db = demo_db();
        let out = db
            .session()
            .execute("SELECT *, rank() OVER (PARTITION BY g ORDER BY v DESC) AS r FROM t")
            .unwrap();
        assert_eq!(out.table.row_count(), 4);
        assert_eq!(out.table.schema().len(), 3);
        assert!(out.explain().contains("model ms"), "analyze table rendered");
        assert_eq!(out.queue_wait, Duration::ZERO);
        assert_eq!(out.admission.admitted, 1);
        assert!(out.trace.is_none());
        assert!(!out.plan.steps.is_empty());
    }

    #[test]
    fn table_names_are_canonicalized_across_register_and_query() {
        let db = demo_db();
        // Registered as `T`; query as `t`, look up as `T` or `t`.
        assert!(db.table("T").is_ok());
        assert!(db.table("t").is_ok());
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        let out = db
            .query("SELECT *, rank() OVER (ORDER BY v) AS r FROM T")
            .unwrap();
        assert_eq!(out.row_count(), 4);
    }

    #[test]
    fn database_handles_share_state() {
        let db = demo_db();
        let other = db.clone();
        let schema = Schema::of(&[("x", DataType::Int)]);
        other.register("late", Table::new(schema)).unwrap();
        assert!(db.table("late").is_ok(), "clone registered into shared map");
        db.query("SELECT *, rank() OVER (ORDER BY v) AS r FROM t")
            .unwrap();
        assert_eq!(other.admission_stats().admitted, 1, "shared governor");
    }

    #[test]
    fn traced_session_carries_a_timeline() {
        let db = demo_db();
        let out = db
            .session()
            .with_trace(true)
            .execute("SELECT *, rank() OVER (ORDER BY v) AS r FROM t")
            .unwrap();
        let trace = out.trace.expect("trace requested");
        assert!(trace.contains("traceEvents"));
    }

    #[test]
    fn canceled_session_fails_cleanly_and_store_survives() {
        let db = demo_db();
        let token = CancelToken::new();
        token.cancel();
        let err = db
            .session()
            .with_cancel(token)
            .execute("SELECT *, rank() OVER (ORDER BY v) AS r FROM t")
            .unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
        // The shared store is untouched and the database still works.
        assert_eq!(db.pool_snapshot().resident_bytes, 0);
        let again = db
            .query("SELECT *, rank() OVER (ORDER BY v) AS r FROM t")
            .unwrap();
        assert_eq!(again.row_count(), 4);
    }
}
