//! # wfopt — Optimization of Analytic Window Functions
//!
//! A from-scratch Rust reproduction of *"Optimization of Analytic Window
//! Functions"* (Cao, Chan, Li, Tan; VLDB 2012). The crate is a facade over
//! the workspace:
//!
//! * [`common`] — values, rows, schemas, attribute algebra,
//! * [`storage`] — block storage, simulated disk, cost tracking,
//! * [`exec`] — Full Sort / Hashed Sort / Segmented Sort and the window
//!   operator,
//! * [`core`] — segmented-relation properties, cover sets and the CSO /
//!   BFO / ORCL / PSQL planners,
//! * [`sql`] — a SQL front end for window queries,
//! * [`datagen`] — TPC-DS-shaped data generators used by the benchmarks.
//!
//! On top of them sit the served front end — [`session`] ([`Database`],
//! [`Session`], admission control) — and [`server`], the line-protocol TCP
//! server and client behind `repro serve` / `repro client`.
//!
//! ## Quickstart
//!
//! ```
//! use wfopt::prelude::*;
//!
//! // emptab(empnum, dept, salary) — the paper's Example 1.
//! let schema = Schema::of(&[
//!     ("empnum", DataType::Int),
//!     ("dept", DataType::Int),
//!     ("salary", DataType::Int),
//! ]);
//! let mut table = Table::new(schema.clone());
//! for (e, d, s) in [(1, 0, 84000), (2, 0, 51000), (3, 1, 78000), (4, 1, 75000)] {
//!     table.push(Row::new(vec![e.into(), d.into(), s.into()]));
//! }
//!
//! let query = QueryBuilder::new(&schema)
//!     .window("rank_in_dept", WindowFunction::Rank, &["dept"], &[("salary", true)])
//!     .window("globalrank", WindowFunction::Rank, &[], &[("salary", true)])
//!     .build()
//!     .unwrap();
//!
//! let env = ExecEnv::with_memory_blocks(64);
//! let planned = optimize(&query, &TableStats::from_table(&table), Scheme::Cso, &env).unwrap();
//! let result = execute_plan(&planned, &table, &env).unwrap();
//! assert_eq!(result.table.row_count(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod server;
pub mod session;
pub use session::{Database, DatabaseConfig, PreparedQuery, QueryOutcome, Session};

pub use wf_common as common;
pub use wf_core as core;
pub use wf_datagen as datagen;
pub use wf_exec as exec;
pub use wf_sql as sql;
pub use wf_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use wf_common::{
        AttrId, AttrSeq, AttrSet, DataType, Direction, Error, Field, NullOrder, OrdElem, Result,
        Row, RowComparator, Schema, SortSpec, Text, Value,
    };
    pub use wf_core::cost::TableStats;
    pub use wf_core::plan::{Plan, PlanStep, ReorderOp};
    pub use wf_core::planner::{optimize, Scheme};
    pub use wf_core::query::{QueryBuilder, WindowQuery};
    pub use wf_core::runtime::{execute_plan, explain_analyze, ExecEnv, ExecReport, StepMetrics};
    pub use wf_core::spec::{WindowFunction, WindowSpec};
    pub use wf_storage::table::Table;
    pub use wf_storage::{BackendStats, SpillBackendKind, SpillConfig};

    pub use crate::session::{Database, DatabaseConfig, PreparedQuery, QueryOutcome, Session};
    pub use wf_core::admission::{AdmissionConfig, AdmissionStats, CancelToken, QueryGovernor};
}
