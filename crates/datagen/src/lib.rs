//! # wf-datagen
//!
//! TPC-DS-shaped data generators for the benchmark harness:
//!
//! * [`web_sales`] — a synthetic `web_sales` table with the columns the
//!   paper's experiments touch (Table 2) plus a unique order number and a
//!   padding column that brings the encoded row width close to the paper's
//!   214 bytes,
//! * sorted / grouped variants (`web_sales_s`, `web_sales_g` of §6.1
//!   part 2),
//! * [`random_specs`] — the random window-function workload of §6.3
//!   (Table 11).
//!
//! All generators are deterministic in their seed.

#![forbid(unsafe_code)]

pub mod queries;
pub mod rng;
pub mod web_sales;

pub use queries::random_specs;
pub use web_sales::{WsColumn, WsConfig};
