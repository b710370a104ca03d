//! User-facing window-query description.
//!
//! A [`WindowQuery`] is the paper's setting: a windowed table (already
//! produced by the non-window part of the query) carrying physical
//! properties, a set of window functions to evaluate, and an optional final
//! ORDER BY. [`QueryBuilder`] provides a name-based construction API.

use crate::props::SegProps;
use crate::spec::{WindowFunction, WindowSpec};
use wf_common::{AttrId, AttrSet, Direction, Error, NullOrder, OrdElem, Result, Schema, SortSpec};

/// A set of window functions over a windowed table.
#[derive(Debug, Clone)]
pub struct WindowQuery {
    pub schema: Schema,
    pub specs: Vec<WindowSpec>,
    /// Physical property of the input (unordered for a heap table).
    pub input_props: SegProps,
    /// Number of physical segments of the input (1 for a heap table).
    pub input_segments: u64,
    /// Final ORDER BY clause, if any (§5).
    pub order_by: Option<SortSpec>,
    /// Output projection over the *output schema* (base columns followed by
    /// one column per window function). `None` keeps every column
    /// (`SELECT *` semantics, the paper's setting).
    pub projection: Option<Vec<wf_common::AttrId>>,
    /// WHERE predicate over the **base table's** columns, applied by a
    /// streaming `FilterOp` to the scanned rows — before they are narrowed
    /// to [`WindowQuery::scan_columns`] — and ahead of the first reorder.
    pub filter: Option<wf_exec::Predicate>,
    /// The base-table columns the query reads, in base order, when that is
    /// fewer than all of them ([`WindowQuery::prune_unread`]). `schema` is
    /// then those columns, and the attributes of `specs`, `order_by` and
    /// `projection` index it; the scan hands out rows of that width. `None`:
    /// `schema` is the base table's.
    pub scan_columns: Option<Vec<AttrId>>,
}

impl WindowQuery {
    /// Query over an unordered table.
    pub fn new(schema: Schema, specs: Vec<WindowSpec>) -> Self {
        WindowQuery {
            schema,
            specs,
            input_props: SegProps::unordered(),
            input_segments: 1,
            order_by: None,
            projection: None,
            filter: None,
            scan_columns: None,
        }
    }

    /// Output schema: input plus one column per window function.
    pub fn output_schema(&self) -> Result<Schema> {
        let mut schema = self.schema.clone();
        for spec in &self.specs {
            let dt = spec.func.result_type(&schema);
            schema = schema.with_appended(wf_common::Field::new(spec.name.clone(), dt))?;
        }
        Ok(schema)
    }

    /// Check that the result has one column per name: no window named like
    /// an input column or another window, and no projected name twice.
    /// Returns [`Error::InvalidQuery`] naming the first duplicate — what a
    /// statement must hear before it is planned and admitted, not from the
    /// result table after the whole chain ran.
    pub fn check_output_names(&self) -> Result<()> {
        let output: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .chain(self.specs.iter().map(|s| s.name.as_str()))
            .collect();
        let duplicate = |names: &[&str]| -> Result<()> {
            for (i, name) in names.iter().enumerate() {
                if names[..i].iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    return Err(Error::InvalidQuery(format!(
                        "duplicate output column `{name}`"
                    )));
                }
            }
            Ok(())
        };
        duplicate(&output)?;
        if let Some(projection) = &self.projection {
            let projected: Vec<&str> = projection.iter().map(|a| output[a.index()]).collect();
            duplicate(&projected)?;
        }
        Ok(())
    }

    /// The input columns the query reads: the projected ones (all of them
    /// without a projection), every window's PARTITION BY, ORDER BY and
    /// argument columns, the final ORDER BY's, and those the input's
    /// declared order is on. The WHERE predicate's columns are not in it:
    /// the filter tests the table's rows before they are narrowed.
    pub fn read_set(&self) -> AttrSet {
        let input = self.schema.len();
        let Some(projection) = &self.projection else {
            return AttrSet::from_iter((0..input).map(AttrId::new));
        };
        let mut read = AttrSet::from_iter(projection.iter().copied())
            .union(self.input_props.x())
            .union(&self.input_props.y().attr_set());
        for spec in &self.specs {
            read = read.union(spec.wpk()).union(&spec.wok().attr_set());
            if let Some(col) = spec.func.column() {
                read.insert(col);
            }
        }
        if let Some(order) = &self.order_by {
            read = read.union(&order.attr_set());
        }
        AttrSet::from_iter(read.iter().filter(|a| a.index() < input))
    }

    /// The query over only the input columns it reads ([`Self::read_set`]),
    /// kept in input order: `schema` narrows to them, every attribute is
    /// renumbered over the narrowed schema, and
    /// [`WindowQuery::scan_columns`] records which base columns the scan
    /// keeps. Output names, types, order and projection are unchanged. A
    /// query that reads every column — every `SELECT *`, and every query
    /// this has narrowed already — comes back as it went in.
    pub fn prune_unread(self) -> WindowQuery {
        let read = self.read_set();
        let input = self.schema.len();
        if read.len() == input {
            return self;
        }
        let kept: Vec<AttrId> = read.iter().collect();
        let mut position = vec![usize::MAX; input];
        for (i, a) in kept.iter().enumerate() {
            position[a.index()] = i;
        }
        let narrow = |a: AttrId| AttrId::new(position[a.index()]);
        // Output columns: narrowed inputs, then the windows as before.
        let narrow_out = |a: AttrId| match a.index().checked_sub(input) {
            Some(w) => AttrId::new(kept.len() + w),
            None => narrow(a),
        };
        let projection = self.projection.as_ref().and_then(|p| {
            let p: Vec<AttrId> = p.iter().map(|&a| narrow_out(a)).collect();
            let identity = p.len() == kept.len() + self.specs.len()
                && p.iter().enumerate().all(|(i, a)| a.index() == i);
            (!identity).then_some(p)
        });
        WindowQuery {
            schema: self
                .schema
                .select(&kept)
                .expect("a subset of distinct columns"),
            specs: self.specs.iter().map(|s| s.map_attrs(narrow)).collect(),
            input_props: self.input_props.map_attrs(narrow),
            input_segments: self.input_segments,
            order_by: self.order_by.as_ref().map(|o| o.map_attrs(narrow_out)),
            projection,
            filter: self.filter,
            scan_columns: Some(kept),
        }
    }
}

/// Name-based builder for [`WindowQuery`].
pub struct QueryBuilder<'a> {
    schema: &'a Schema,
    specs: Vec<WindowSpec>,
    input_props: SegProps,
    input_segments: u64,
    order_by: Option<SortSpec>,
    error: Option<Error>,
}

impl<'a> QueryBuilder<'a> {
    /// Start building over a schema.
    pub fn new(schema: &'a Schema) -> Self {
        QueryBuilder {
            schema,
            specs: Vec::new(),
            input_props: SegProps::unordered(),
            input_segments: 1,
            order_by: None,
            error: None,
        }
    }

    fn resolve_order(&mut self, order_by: &[(&str, bool)]) -> Option<SortSpec> {
        let mut elems = Vec::with_capacity(order_by.len());
        for (name, desc) in order_by {
            match self.schema.resolve(name) {
                Ok(attr) => elems.push(OrdElem {
                    attr,
                    dir: if *desc {
                        Direction::Desc
                    } else {
                        Direction::Asc
                    },
                    nulls: NullOrder::Last,
                }),
                Err(e) => {
                    self.error.get_or_insert(e);
                    return None;
                }
            }
        }
        Some(SortSpec::new(elems))
    }

    /// Add a window function: `partition_by` names, `order_by` as
    /// `(name, descending)` pairs.
    pub fn window(
        mut self,
        name: &str,
        func: WindowFunction,
        partition_by: &[&str],
        order_by: &[(&str, bool)],
    ) -> Self {
        let mut wpk = Vec::with_capacity(partition_by.len());
        for p in partition_by {
            match self.schema.resolve(p) {
                Ok(a) => wpk.push(a),
                Err(e) => {
                    self.error.get_or_insert(e);
                    return self;
                }
            }
        }
        let Some(wok) = self.resolve_order(order_by) else {
            return self;
        };
        self.specs.push(WindowSpec::new(name, func, wpk, wok));
        self
    }

    /// Shorthand for `rank()`.
    pub fn rank(self, name: &str, partition_by: &[&str], order_by: &[(&str, bool)]) -> Self {
        self.window(name, WindowFunction::Rank, partition_by, order_by)
    }

    /// Declare the input's physical properties (e.g. output of a GROUP BY).
    pub fn input_props(mut self, props: SegProps, segments: u64) -> Self {
        self.input_props = props;
        self.input_segments = segments.max(1);
        self
    }

    /// Final ORDER BY.
    pub fn order_by(mut self, order_by: &[(&str, bool)]) -> Self {
        if let Some(spec) = self.resolve_order(order_by) {
            self.order_by = Some(spec);
        }
        self
    }

    /// Finish; errors if any name failed to resolve or no function was
    /// added.
    pub fn build(self) -> Result<WindowQuery> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.specs.is_empty() {
            return Err(Error::InvalidQuery(
                "a window query needs at least one function".into(),
            ));
        }
        // Duplicate output names collide with the appended schema.
        for (i, s) in self.specs.iter().enumerate() {
            for t in &self.specs[..i] {
                if s.name.eq_ignore_ascii_case(&t.name) {
                    return Err(Error::InvalidQuery(format!(
                        "duplicate window column name `{}`",
                        s.name
                    )));
                }
            }
        }
        Ok(WindowQuery {
            schema: self.schema.clone(),
            specs: self.specs,
            input_props: self.input_props,
            input_segments: self.input_segments,
            order_by: self.order_by,
            projection: None,
            filter: None,
            scan_columns: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::DataType;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Str),
        ])
    }

    #[test]
    fn builder_resolves_names() {
        let s = schema();
        let q = QueryBuilder::new(&s)
            .rank("r1", &["a"], &[("b", true)])
            .rank("r2", &[], &[("c", false)])
            .order_by(&[("a", false)])
            .build()
            .unwrap();
        assert_eq!(q.specs.len(), 2);
        assert_eq!(q.specs[0].wpk().len(), 1);
        assert_eq!(q.specs[0].wok().elems()[0].dir, Direction::Desc);
        assert!(q.order_by.is_some());
    }

    #[test]
    fn unknown_name_errors() {
        let s = schema();
        assert!(QueryBuilder::new(&s)
            .rank("r", &["zz"], &[])
            .build()
            .is_err());
        assert!(QueryBuilder::new(&s)
            .rank("r", &[], &[("zz", false)])
            .build()
            .is_err());
    }

    #[test]
    fn empty_query_rejected() {
        let s = schema();
        assert!(QueryBuilder::new(&s).build().is_err());
    }

    #[test]
    fn duplicate_output_names_rejected() {
        let s = schema();
        let r = QueryBuilder::new(&s)
            .rank("r", &["a"], &[])
            .rank("R", &["b"], &[])
            .build();
        assert!(r.is_err());
    }

    fn wide() -> Schema {
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("pad", DataType::Str),
            ("c", DataType::Int),
            ("d", DataType::Int),
        ])
    }

    /// `SELECT d, a, s` with `s = sum(c) OVER (PARTITION BY a ORDER BY d)`,
    /// `WHERE b = …`, `ORDER BY s`: reads a, c, d — not b, not pad.
    fn listed() -> WindowQuery {
        let s = wide();
        let mut q = QueryBuilder::new(&s)
            .window(
                "s",
                WindowFunction::Sum(AttrId::new(3)),
                &["a"],
                &[("d", false)],
            )
            .build()
            .unwrap();
        q.projection = Some(vec![AttrId::new(4), AttrId::new(0), AttrId::new(5)]);
        q.order_by = Some(SortSpec::new(vec![OrdElem::desc(AttrId::new(5))]));
        q.filter = Some(wf_exec::Predicate::Eq(AttrId::new(1), 7.into()));
        q
    }

    #[test]
    fn read_set_covers_list_windows_and_order_but_not_where() {
        let ids = |set: AttrSet| set.iter().map(AttrId::index).collect::<Vec<_>>();
        assert_eq!(ids(listed().read_set()), vec![0, 3, 4]);
        let mut star = listed();
        star.projection = None;
        assert_eq!(ids(star.read_set()), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pruning_renumbers_over_the_narrowed_schema() {
        let q = listed().prune_unread();
        let names: Vec<&str> = q.schema.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "c", "d"], "kept in base order");
        assert_eq!(
            q.scan_columns,
            Some(vec![AttrId::new(0), AttrId::new(3), AttrId::new(4)])
        );
        assert_eq!(q.specs[0].wpk().as_slice(), &[AttrId::new(0)]);
        assert_eq!(q.specs[0].wok().elems()[0].attr, AttrId::new(2));
        assert_eq!(q.specs[0].func, WindowFunction::Sum(AttrId::new(1)));
        // Output columns a, c, d, s: the list d, a, s and the order on s.
        let proj: Vec<usize> = q
            .projection
            .as_ref()
            .unwrap()
            .iter()
            .map(|a| a.index())
            .collect();
        assert_eq!(proj, vec![2, 0, 3]);
        assert_eq!(
            q.order_by.as_ref().unwrap().elems()[0],
            OrdElem::desc(AttrId::new(3))
        );
        // The filter still names the base column it tests.
        assert_eq!(
            q.filter,
            Some(wf_exec::Predicate::Eq(AttrId::new(1), 7.into()))
        );
        // Output names and types are the unpruned query's, projected.
        let out = q.output_schema().unwrap();
        let projected: Vec<&str> = q
            .projection
            .as_ref()
            .unwrap()
            .iter()
            .map(|&a| out.name(a))
            .collect();
        assert_eq!(projected, ["d", "a", "s"]);
        // Pruning again keeps everything.
        let again = q.clone().prune_unread();
        assert_eq!(again.scan_columns, q.scan_columns);
        assert_eq!(again.schema, q.schema);
    }

    #[test]
    fn a_query_reading_every_column_is_not_pruned() {
        let mut star = listed();
        star.projection = None;
        let pruned = star.clone().prune_unread();
        assert!(pruned.scan_columns.is_none());
        assert_eq!(pruned.schema, star.schema);
        assert_eq!(pruned.specs, star.specs);
        // A list in base order naming every column and the window collapses
        // to no projection once narrowed.
        let mut q = listed();
        q.projection = Some(vec![
            AttrId::new(0),
            AttrId::new(3),
            AttrId::new(4),
            AttrId::new(5),
        ]);
        q.order_by = None;
        assert!(q.prune_unread().projection.is_none());
    }

    #[test]
    fn duplicate_output_names_are_invalid() {
        assert!(listed().check_output_names().is_ok());
        let mut twice = listed();
        twice.projection = Some(vec![AttrId::new(0), AttrId::new(0)]);
        let clash = QueryBuilder::new(&wide())
            .rank("PAD", &["a"], &[])
            .build()
            .unwrap();
        for q in [twice, clash] {
            let err = q.check_output_names().unwrap_err();
            assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
        }
    }

    #[test]
    fn output_schema_appends_columns() {
        let s = schema();
        let q = QueryBuilder::new(&s)
            .rank("r1", &["a"], &[("b", false)])
            .window("cd", WindowFunction::CumeDist, &[], &[("b", false)])
            .build()
            .unwrap();
        let out = q.output_schema().unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.field(wf_common::AttrId::new(3)).data_type,
            DataType::Int
        );
        assert_eq!(
            out.field(wf_common::AttrId::new(4)).data_type,
            DataType::Float
        );
    }
}
