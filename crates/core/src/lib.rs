//! # wf-core — Optimization of Analytic Window Functions
//!
//! The paper's contribution (Cao, Chan, Li, Tan; VLDB 2012), implemented on
//! top of the `wf-exec` operators:
//!
//! * [`spec`] — window-function specifications `wf = (WPK, WOK)`,
//! * [`props`] — the segmented-relation property algebra `R_{X,Y}`:
//!   matching (Def. 2, Thm. 1), FS/HS/SS-reorderability (Def. 3, §3.2–3.3)
//!   and property propagation (Thm. 2),
//! * [`cover`] — cover sets and covering permutations (Def. 4, Thm. 5/7),
//!   built on an exact key-pattern constraint solver,
//! * [`prefixable`] — prefixable subsets, `θ(P)` and `θ'` (Def. 5, Thm. 8),
//! * [`cost`] — the cost models of §3.4 (Eqs. 1–3) plus CPU terms,
//! * [`plan`] — executable window-function chains with validation/repair,
//! * [`planner`] — the four optimization schemes of §6: **CSO** (cover-set
//!   based, §4), **BFO** (brute force), **ORCL** (Oracle 8i ordering
//!   groups), **PSQL** (PostgreSQL 9.1 naive), plus CSO ablations,
//! * [`query`] / [`runtime`] — user-facing query description and plan
//!   execution,
//! * [`admission`] — cross-query admission control: a governed pool of
//!   ledger sub-accounts, FIFO queueing, timeout/cancel,
//! * [`integrated`] — §5's integrated optimization over input-property
//!   variants and ORDER BY requirements.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cost;
pub mod cover;
pub mod integrated;
pub mod plan;
pub mod planner;
pub mod prefixable;
pub mod props;
pub mod query;
pub mod runtime;
pub mod spec;

pub use admission::{AdmissionConfig, AdmissionPermit, AdmissionStats, CancelToken, QueryGovernor};
pub use plan::{Plan, PlanStep, ReorderOp};
pub use planner::{optimize, Scheme};
pub use props::SegProps;
pub use query::{QueryBuilder, WindowQuery};
pub use runtime::{execute_plan, explain_analyze, ExecEnv, ExecReport, StepMetrics};
pub use spec::WindowSpec;
pub use wf_exec::Predicate;
