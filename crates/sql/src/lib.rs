//! # wf-sql
//!
//! A SQL front end for the window-query dialect the paper works with:
//!
//! ```sql
//! SELECT *, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST)
//!             AS rank_in_dept,
//!           rank() OVER (ORDER BY salary DESC NULLS LAST) AS globalrank
//! FROM emptab
//! ORDER BY dept, rank_in_dept
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`binder`] (resolves
//! names against a [`Catalog`] and produces a
//! [`wf_core::query::WindowQuery`]).

#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use binder::{bind, Catalog};
pub use parser::parse;

use wf_common::Result;
use wf_core::query::WindowQuery;

/// Parse and bind a window query in one call; returns the source table name
/// and the bound query.
pub fn parse_window_query(sql: &str, catalog: &Catalog) -> Result<(String, WindowQuery)> {
    let stmt = parse(sql)?;
    let table = stmt.table.clone();
    let query = bind(&stmt, catalog)?;
    Ok((table, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{DataType, Schema};

    #[test]
    fn end_to_end_example1() {
        let mut catalog = Catalog::new();
        catalog.register(
            "emptab",
            Schema::of(&[
                ("empnum", DataType::Int),
                ("dept", DataType::Int),
                ("salary", DataType::Int),
            ]),
        );
        let (table, query) = parse_window_query(
            "SELECT *, rank() OVER (PARTITION BY dept ORDER BY salary desc nulls last) \
             as rank_in_dept, rank() OVER (ORDER BY salary desc nulls last) as globalrank \
             FROM emptab",
            &catalog,
        )
        .unwrap();
        assert_eq!(table, "emptab");
        assert_eq!(query.specs.len(), 2);
        assert_eq!(query.specs[0].name, "rank_in_dept");
        assert_eq!(query.specs[0].wpk().len(), 1);
        assert_eq!(query.specs[1].wpk().len(), 0);
    }
}
