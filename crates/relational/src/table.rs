//! Row storage: primary-key-ordered rows plus optional single-column
//! secondary indices.
//!
//! The paper's experiments (§6.1) "defined primary keys for all the
//! relational tables and built appropriate indices on the key columns and
//! other join columns"; the flat curves of Figs. 17 and 23 depend on every
//! base-table access in a generated trigger being an index probe, never a
//! scan. Rows live in a hash map keyed by primary key (probes stay O(1)
//! however large the table grows) alongside an ordered key set, so
//! primary-key order — the canonical order of every scan, view
//! materialization and `SELECT` — falls out of iteration for free instead
//! of being re-sorted on every access. Secondary indices are hash indices
//! whose buckets keep their keys ordered, so index probes also yield rows
//! in primary-key order without sorting; the generated plans only ever
//! probe them with equality keys.
//!
//! Every mutation bumps a per-table **version**; executor-level caches
//! (join build sides, stable subplan results) key on it so a cached
//! structure is reused exactly until the data it was built from changes.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::schema::TableSchema;
use crate::value::{Row, Value};
use crate::{Error, Result};

/// Primary-key value tuple.
pub type Key = Box<[Value]>;

/// The access path that answers equalities on a set of columns (see
/// [`Table::covering`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Covering {
    /// The columns are exactly the primary key. Holds, for each key
    /// column in key order, its position among the probed columns.
    PrimaryKey(Box<[usize]>),
    /// The columns are one secondary-indexed column.
    Index(usize),
}

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<TableSchema>,
    rows: HashMap<Key, Row>,
    /// Primary keys in order; kept in lockstep with `rows` so ordered
    /// iteration never sorts and keyed probes never walk a tree.
    order: BTreeSet<Key>,
    /// column index -> (value -> ordered set of pks)
    secondary: HashMap<usize, HashMap<Value, BTreeSet<Key>>>,
    /// Bumped on every mutation (insert/delete/update/index creation).
    version: u64,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema: Arc::new(schema),
            rows: HashMap::new(),
            order: BTreeSet::new(),
            secondary: HashMap::new(),
            version: 0,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_ref(&self) -> Arc<TableSchema> {
        Arc::clone(&self.schema)
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Monotonic per-table mutation counter. Any cache derived from this
    /// table's contents is valid exactly while the version stands still.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Add a hash index on one column (no-op if already present).
    pub fn create_index(&mut self, column: usize) {
        if self.secondary.contains_key(&column) {
            return;
        }
        let mut index: HashMap<Value, BTreeSet<Key>> = HashMap::new();
        for (key, row) in &self.rows {
            index
                .entry(row[column].clone())
                .or_default()
                .insert(key.clone());
        }
        self.secondary.insert(column, index);
        self.version += 1;
    }

    /// `true` if a secondary index exists on `column`.
    pub fn has_index(&self, column: usize) -> bool {
        self.secondary.contains_key(&column)
    }

    /// Column indices carrying a secondary index, in ascending order
    /// (persisted by the storage catalog so indices survive a restart).
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.secondary.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// Fetch a row by primary key.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Which access path answers equalities on exactly the columns `cols`:
    /// the primary key when they are its columns (in any order), else a
    /// secondary index when they are one indexed column. `None` means only
    /// a scan can answer them.
    pub fn covering(&self, cols: &[usize]) -> Option<Covering> {
        let pk = &self.schema.primary_key;
        if cols.len() == pk.len() {
            let positions: Option<Box<[usize]>> = pk
                .iter()
                .map(|c| cols.iter().position(|x| x == c))
                .collect();
            if let Some(positions) = positions {
                return Some(Covering::PrimaryKey(positions));
            }
        }
        match cols {
            [c] if self.has_index(*c) => Some(Covering::Index(*c)),
            _ => None,
        }
    }

    /// Rows whose covered columns equal `vals` (one value per column, in
    /// the order the columns were passed to [`Table::covering`]), in
    /// primary-key order.
    pub fn probe(&self, how: &Covering, vals: &[Value]) -> Vec<&Row> {
        match how {
            Covering::PrimaryKey(positions) => {
                let key: Vec<Value> = positions.iter().map(|&i| vals[i].clone()).collect();
                self.rows.get(key.as_slice()).into_iter().collect()
            }
            Covering::Index(col) => self.index_lookup(*col, &vals[0]).unwrap_or_default(),
        }
    }

    /// Iterate over all rows in primary-key order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.order
            .iter()
            .map(|k| self.rows.get(k).expect("order tracks rows"))
    }

    /// Iterate over `(primary key, row)` pairs in primary-key order. The
    /// stored key is handed out directly so scans never re-extract (and
    /// re-clone) key values from rows.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &Row)> {
        self.order
            .iter()
            .map(|k| (k, self.rows.get(k).expect("order tracks rows")))
    }

    /// Rows whose `column` equals `value`, via the secondary index, in
    /// primary-key order.
    pub fn index_lookup(&self, column: usize, value: &Value) -> Result<Vec<&Row>> {
        let index = self
            .secondary
            .get(&column)
            .ok_or_else(|| Error::Plan(format!("no index on {}.{}", self.schema.name, column)))?;
        Ok(index
            .get(value)
            .map(|keys| keys.iter().filter_map(|k| self.rows.get(k)).collect())
            .unwrap_or_default())
    }

    /// Insert a row; fails on duplicate primary key.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<Row> {
        self.schema.check_row(&values)?;
        let key = self.schema.key_of(&values);
        if self.rows.contains_key(&key) {
            return Err(Error::DuplicateKey {
                table: self.schema.name.clone(),
                key: format!("{key:?}"),
            });
        }
        let row: Row = values.into();
        for (&col, index) in &mut self.secondary {
            index
                .entry(row[col].clone())
                .or_default()
                .insert(key.clone());
        }
        self.order.insert(key.clone());
        self.rows.insert(key, Arc::clone(&row));
        self.version += 1;
        Ok(row)
    }

    /// Delete by primary key, returning the removed row.
    pub fn delete(&mut self, key: &[Value]) -> Option<Row> {
        let row = self.rows.remove(key)?;
        self.order.remove(key);
        for (&col, index) in &mut self.secondary {
            if let Some(bucket) = index.get_mut(&row[col]) {
                bucket.remove(key);
                if bucket.is_empty() {
                    index.remove(&row[col]);
                }
            }
        }
        self.version += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn vendor_table() -> Table {
        let schema = TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid", "pid"],
        )
        .unwrap();
        Table::new(schema)
    }

    fn v(vid: &str, pid: &str, price: f64) -> Vec<Value> {
        vec![Value::str(vid), Value::str(pid), Value::Double(price)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        let key: Key = Box::new([Value::str("Amazon"), Value::str("P1")]);
        assert_eq!(t.get(&key).unwrap()[2], Value::Double(100.0));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        assert!(matches!(
            t.insert(v("Amazon", "P1", 50.0)),
            Err(Error::DuplicateKey { .. })
        ));
    }

    #[test]
    fn secondary_index_tracks_inserts_updates_deletes() {
        let mut t = vendor_table();
        t.create_index(1); // pid
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 120.0)).unwrap();
        t.insert(v("Buy.com", "P2", 200.0)).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 2);

        // Moving a row from P1 to P2 (delete, then insert) moves its
        // index entry.
        let key: Key = Box::new([Value::str("Amazon"), Value::str("P1")]);
        t.delete(&key).unwrap();
        t.insert(v("Amazon", "P2", 100.0)).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 1);
        assert_eq!(t.index_lookup(1, &Value::str("P2")).unwrap().len(), 2);

        // Delete drops index entries.
        let key2: Key = Box::new([Value::str("Bestbuy"), Value::str("P1")]);
        t.delete(&key2).unwrap();
        assert!(t.index_lookup(1, &Value::str("P1")).unwrap().is_empty());
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 120.0)).unwrap();
        t.create_index(1);
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 2);
    }

    #[test]
    fn lookup_without_index_errors() {
        let t = vendor_table();
        assert!(matches!(
            t.index_lookup(2, &Value::Double(1.0)),
            Err(Error::Plan(_))
        ));
    }

    #[test]
    fn iteration_and_index_lookup_are_pk_ordered() {
        let mut t = vendor_table();
        t.create_index(1);
        t.insert(v("Circuitcity", "P1", 3.0)).unwrap();
        t.insert(v("Amazon", "P1", 1.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 2.0)).unwrap();
        let vids: Vec<&Value> = t.iter().map(|r| &r[0]).collect();
        assert_eq!(
            vids,
            vec![
                &Value::str("Amazon"),
                &Value::str("Bestbuy"),
                &Value::str("Circuitcity")
            ]
        );
        let hits = t.index_lookup(1, &Value::str("P1")).unwrap();
        let vids: Vec<&Value> = hits.iter().map(|r| &r[0]).collect();
        assert_eq!(
            vids,
            vec![
                &Value::str("Amazon"),
                &Value::str("Bestbuy"),
                &Value::str("Circuitcity")
            ]
        );
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut t = vendor_table();
        let v0 = t.version();
        t.insert(v("Amazon", "P1", 1.0)).unwrap();
        let v1 = t.version();
        assert!(v1 > v0);
        let key: Key = Box::new([Value::str("Amazon"), Value::str("P1")]);
        t.delete(&key).unwrap();
        let v2 = t.version();
        assert!(v2 > v1);
        t.insert(v("Amazon", "P1", 2.0)).unwrap();
        assert!(t.version() > v2);
        t.create_index(1);
        assert!(t.version() > v2 + 1);
    }
}
