//! # wf-common
//!
//! Foundation types shared by every crate of the `wfopt` workspace:
//!
//! * [`Value`] — a dynamically typed SQL value with NULLs,
//! * [`Row`] / [`Schema`] — tuples and their shape,
//! * [`AttrId`], [`AttrSet`], [`AttrSeq`] — the attribute algebra the paper's
//!   Section 2 defines (permutations, prefixes, longest common prefixes),
//! * [`OrdElem`], [`SortSpec`] — ordering elements with direction and NULL
//!   placement, plus comparators over rows.
//!
//! The paper ("Optimization of Analytic Window Functions", VLDB 2012) reasons
//! about window functions `wf = (WPK, WOK)` purely in terms of this algebra;
//! `wf-core` builds the segmented-relation property calculus on top of it.

#![forbid(unsafe_code)]

pub mod attrs;
pub mod error;
pub mod json;
pub mod ord;
pub mod row;
pub mod schema;
pub mod trace;
pub mod value;

pub use attrs::{AttrId, AttrSeq, AttrSet};
pub use error::{Error, Result};
pub use json::Json;
pub use ord::{Direction, NullOrder, OrdElem, RowComparator, SortSpec};
pub use row::Row;
pub use schema::{DataType, Field, Schema};
pub use trace::{SpanGuard, SpanRecord, TraceSink};
pub use value::{Text, Value};
