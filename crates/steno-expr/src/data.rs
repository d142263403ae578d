//! Source collections: the data model over which queries run.
//!
//! A [`DataContext`] maps source names (the `xs` in `from x in xs`) to
//! [`Column`]s. Columns are stored type-specialized — a plain `Vec<f64>`
//! for doubles, a flat matrix for rows — because the Src operator in the
//! paper "may be annotated with the collection's run-time type, which
//! enables Steno to produce efficient iteration code" (§4.1).

use std::collections::HashMap;
use std::sync::Arc;

use crate::ty::Ty;
use crate::value::Value;

/// A typed source collection.
#[derive(Clone, Debug)]
pub enum Column {
    /// A column of doubles.
    F64(Arc<Vec<f64>>),
    /// A column of integers.
    I64(Arc<Vec<i64>>),
    /// A column of booleans.
    Bool(Arc<Vec<bool>>),
    /// A collection of fixed-dimension points stored row-major.
    Rows {
        /// Flat row-major storage of `len() * dim` doubles.
        data: Arc<Vec<f64>>,
        /// Dimension of each row. Must be non-zero.
        dim: usize,
    },
    /// A collection of arbitrary boxed values (the generic fallback, which
    /// is what an opaque `IEnumerable` looks like to the optimizer).
    Values(Arc<Vec<Value>>),
}

impl Column {
    /// Builds an `F64` column.
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column::F64(Arc::new(values))
    }

    /// Builds an `I64` column.
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column::I64(Arc::new(values))
    }

    /// Builds a `Bool` column.
    pub fn from_bool(values: Vec<bool>) -> Column {
        Column::Bool(Arc::new(values))
    }

    /// Builds a `Rows` column from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_rows(data: Vec<f64>, dim: usize) -> Column {
        assert!(dim > 0, "row dimension must be non-zero");
        assert!(
            data.len().is_multiple_of(dim),
            "row data length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Column::Rows {
            data: Arc::new(data),
            dim,
        }
    }

    /// Builds a generic `Values` column.
    pub fn from_values(values: Vec<Value>) -> Column {
        Column::Values(Arc::new(values))
    }

    /// The number of elements in the collection.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Rows { data, dim } => data.len() / dim,
            Column::Values(v) => v.len(),
        }
    }

    /// `true` when the collection has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type of the collection.
    pub fn elem_ty(&self) -> Ty {
        match self {
            Column::F64(_) => Ty::F64,
            Column::I64(_) => Ty::I64,
            Column::Bool(_) => Ty::Bool,
            Column::Rows { .. } => Ty::Row,
            Column::Values(v) => v.first().map(Value::ty).unwrap_or(Ty::F64),
        }
    }

    /// Fetches element `i` as a boxed [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::F64(v) => Value::F64(v[i]),
            Column::I64(v) => Value::I64(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Rows { data, dim } => {
                Value::row(data[i * dim..(i + 1) * dim].to_vec())
            }
            Column::Values(v) => v[i].clone(),
        }
    }

    /// Materializes the whole column as boxed values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value_at(i)).collect()
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Column {
        Column::from_f64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Column {
        Column::from_i64(v)
    }
}

impl From<Vec<Value>> for Column {
    fn from(v: Vec<Value>) -> Column {
        Column::from_values(v)
    }
}

/// Named source collections available to a query.
///
/// Clones share the name map and the columns; adding a source to a
/// shared context copies the map first (copy on write), so a clone is
/// one refcount bump however many sources there are.
#[derive(Clone, Debug, Default)]
pub struct DataContext {
    sources: Arc<HashMap<String, Column>>,
}

impl DataContext {
    /// Creates an empty context.
    pub fn new() -> DataContext {
        DataContext::default()
    }

    /// Adds (or replaces) a named source, returning `self` for chaining.
    pub fn with_source(mut self, name: impl Into<String>, column: impl Into<Column>) -> Self {
        self.insert(name, column);
        self
    }

    /// Adds (or replaces) a named source in place.
    pub fn insert(&mut self, name: impl Into<String>, column: impl Into<Column>) {
        Arc::make_mut(&mut self.sources).insert(name.into(), column.into());
    }

    /// Looks up a source by name.
    pub fn source(&self, name: &str) -> Option<&Column> {
        self.sources.get(name)
    }

    /// Iterates over `(name, column)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.sources.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_sliced_out_of_flat_storage() {
        let c = Column::from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.elem_ty(), Ty::Row);
        assert_eq!(c.value_at(1), Value::row(vec![4.0, 5.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_rows_rejected() {
        let _ = Column::from_rows(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn context_lookup() {
        let ctx = DataContext::new()
            .with_source("xs", vec![1.0, 2.0])
            .with_source("ys", vec![3i64]);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.source("xs").unwrap().len(), 2);
        assert_eq!(ctx.source("ys").unwrap().elem_ty(), Ty::I64);
        assert!(ctx.source("zs").is_none());
    }

    #[test]
    fn clones_share_until_one_is_extended() {
        let base = DataContext::new().with_source("xs", vec![1.0]);
        let shared = base.clone();
        assert!(Arc::ptr_eq(&base.sources, &shared.sources));
        let mut grown = base.clone();
        grown.insert("ns", vec![2i64]);
        assert!(!Arc::ptr_eq(&base.sources, &grown.sources));
        assert_eq!((base.len(), shared.len(), grown.len()), (1, 1, 2));
        assert!(base.source("ns").is_none());
    }

    #[test]
    fn to_values_round_trips() {
        let c = Column::from_i64(vec![5, 6]);
        assert_eq!(c.to_values(), vec![Value::I64(5), Value::I64(6)]);
        let empty = Column::from_values(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.elem_ty(), Ty::F64);
    }
}
