//! Relational tuple model: rows, columns, schemas.

use crate::error::{JanusError, Result};

/// Unique identifier of a tuple over the lifetime of the database.
///
/// Deletions reference rows by id (the paper's out-of-band invalidation
/// processes, e.g. canceled stock orders, identify the record to delete).
pub type RowId = u64;

/// A tuple: an id plus one `f64` value per schema column.
///
/// All attributes are numeric, matching the paper's setting (aggregation
/// attributes and rectangular predicates over numeric columns). Categorical
/// attributes are dictionary-encoded into `f64` by the data generators.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Stable unique id.
    pub id: RowId,
    /// One value per column of the owning [`Schema`].
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row from an id and column values.
    pub fn new(id: RowId, values: Vec<f64>) -> Self {
        Row { id, values }
    }

    /// Returns the value of column `col`.
    ///
    /// # Panics
    /// Panics if `col` is out of bounds (schema violation is a logic error).
    #[inline]
    pub fn value(&self, col: usize) -> f64 {
        self.values[col]
    }

    /// Projects the row onto `cols`, producing the point used for
    /// predicate-space geometry.
    pub fn project(&self, cols: &[usize]) -> Vec<f64> {
        cols.iter().map(|&c| self.values[c]).collect()
    }

    /// Projects the row onto `cols` into a caller-owned buffer (cleared
    /// first) — the allocation-free twin of [`Row::project`] for hot loops
    /// that project many rows against the same column set.
    #[inline]
    pub fn project_into(&self, cols: &[usize], out: &mut Vec<f64>) {
        project_values_into(&self.values, cols, out);
    }

    /// A borrowed view of this row.
    #[inline]
    pub fn as_ref(&self) -> RowRef<'_> {
        RowRef {
            id: self.id,
            values: &self.values,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

/// A borrowed, zero-copy view of a tuple: the id plus a value slice.
///
/// This is the currency of columnar storage ([`janus-storage`]'s archive
/// hands out `RowRef`s over its value buffer) and of every scan
/// API that must not allocate one `Vec` per row. Materialize with
/// [`RowRef::to_row`] only at ownership boundaries (queues, checkpoints).
///
/// [`janus-storage`]: https://docs.rs/janus-storage
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowRef<'a> {
    /// Stable unique id.
    pub id: RowId,
    /// One value per column of the owning schema.
    pub values: &'a [f64],
}

impl<'a> RowRef<'a> {
    /// Creates a view from parts.
    #[inline]
    pub fn new(id: RowId, values: &'a [f64]) -> Self {
        RowRef { id, values }
    }

    /// Returns the value of column `col`.
    ///
    /// # Panics
    /// Panics if `col` is out of bounds (schema violation is a logic error).
    #[inline]
    pub fn value(&self, col: usize) -> f64 {
        self.values[col]
    }

    /// Projects the view onto `cols` (allocating; prefer
    /// [`RowRef::project_into`] in loops).
    pub fn project(&self, cols: &[usize]) -> Vec<f64> {
        cols.iter().map(|&c| self.values[c]).collect()
    }

    /// Projects the view onto `cols` into a caller-owned buffer.
    #[inline]
    pub fn project_into(&self, cols: &[usize], out: &mut Vec<f64>) {
        project_values_into(self.values, cols, out);
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Materializes an owned [`Row`] (one allocation).
    pub fn to_row(&self) -> Row {
        Row::new(self.id, self.values.to_vec())
    }
}

impl<'a> From<&'a Row> for RowRef<'a> {
    #[inline]
    fn from(row: &'a Row) -> Self {
        row.as_ref()
    }
}

#[inline]
fn project_values_into(values: &[f64], cols: &[usize], out: &mut Vec<f64>) {
    out.clear();
    out.extend(cols.iter().map(|&c| values[c]));
}

/// A named column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within a schema.
    pub name: String,
}

/// An ordered list of named columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema from column names.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        Schema {
            columns: names
                .into_iter()
                .map(|n| ColumnDef { name: n.into() })
                .collect(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Returns the index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| JanusError::UnknownColumn(name.to_string()))
    }

    /// Returns the name of column `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }

    /// Iterates over the column definitions.
    pub fn columns(&self) -> impl Iterator<Item = &ColumnDef> {
        self.columns.iter()
    }

    /// Validates that `row` has the right arity for this schema.
    pub fn check(&self, row: &Row) -> Result<()> {
        if row.arity() == self.arity() {
            Ok(())
        } else {
            Err(JanusError::DimensionMismatch {
                expected: self.arity(),
                actual: row.arity(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["time", "light", "temperature"])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = schema();
        assert_eq!(s.index_of("time").unwrap(), 0);
        assert_eq!(s.index_of("temperature").unwrap(), 2);
        assert!(matches!(
            s.index_of("voltage"),
            Err(JanusError::UnknownColumn(_))
        ));
    }

    #[test]
    fn project_extracts_predicate_point() {
        let r = Row::new(7, vec![1.0, 2.0, 3.0]);
        assert_eq!(r.project(&[2, 0]), vec![3.0, 1.0]);
    }

    #[test]
    fn project_into_reuses_the_buffer() {
        let r = Row::new(7, vec![1.0, 2.0, 3.0]);
        let mut buf = vec![99.0; 8];
        r.project_into(&[2, 0], &mut buf);
        assert_eq!(buf, vec![3.0, 1.0]);
        r.project_into(&[1], &mut buf);
        assert_eq!(buf, vec![2.0], "buffer is cleared between projections");
    }

    #[test]
    fn row_ref_views_match_the_owned_row() {
        let r = Row::new(9, vec![4.0, 5.0, 6.0]);
        let v = r.as_ref();
        assert_eq!(v.id, 9);
        assert_eq!(v.value(2), 6.0);
        assert_eq!(v.arity(), 3);
        assert_eq!(v.project(&[1, 0]), r.project(&[1, 0]));
        let mut buf = Vec::new();
        v.project_into(&[2], &mut buf);
        assert_eq!(buf, vec![6.0]);
        assert_eq!(v.to_row(), r);
        assert_eq!(RowRef::from(&r), v);
        assert_eq!(RowRef::new(9, &r.values), v);
    }

    #[test]
    fn check_detects_arity_mismatch() {
        let s = schema();
        assert!(s.check(&Row::new(0, vec![1.0, 2.0, 3.0])).is_ok());
        assert!(s.check(&Row::new(0, vec![1.0])).is_err());
    }

    #[test]
    fn schema_names_round_trip() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.name(1), "light");
        assert_eq!(s.columns().count(), 3);
    }
}
