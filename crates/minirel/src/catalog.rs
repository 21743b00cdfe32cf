//! The catalog: tables, their schemas, heap files, and secondary indexes,
//! plus the row-level mutation paths that keep indexes consistent.
//!
//! The paper §3.1: *"Keeping all crawl tables and indices consistent by
//! hand amounted to reinventing the wheel"* — this module is that wheel:
//! every insert/delete/update maintains all of a table's B+tree indexes.

use crate::btree::{check_key, BTree};
use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::heap::{HeapFile, Rid};
use crate::schema::Schema;
use crate::value::{decode_row, decode_row_into, encode_composite_key, encode_row, Row, Value};

/// Dense table identifier.
pub type TableId = usize;

/// A secondary index over a subset of a table's columns.
#[derive(Debug)]
pub struct IndexInfo {
    /// Index name (unique per database).
    pub name: String,
    /// Indexed column positions, in key order.
    pub cols: Vec<usize>,
    /// The underlying B+tree.
    pub btree: BTree,
}

impl IndexInfo {
    /// Encode the index key for `row`.
    pub fn key_of(&self, row: &[Value]) -> Vec<u8> {
        let vals: Vec<Value> = self.cols.iter().map(|&c| row[c].clone()).collect();
        encode_composite_key(&vals)
    }

    /// [`Self::key_of`], refusing a key no B+tree node can hold. Every
    /// mutation path computes its keys through this *before* its first
    /// heap write, so an over-long key leaves heap and indexes agreeing.
    fn checked_key(&self, row: &[Value]) -> DbResult<Vec<u8>> {
        let key = self.key_of(row);
        check_key(&key)?;
        Ok(key)
    }
}

/// One checked key per index of `t`, in index order.
fn checked_keys(t: &TableInfo, row: &[Value]) -> DbResult<Vec<Vec<u8>>> {
    t.indexes.iter().map(|idx| idx.checked_key(row)).collect()
}

/// A table: schema + heap file + indexes.
#[derive(Debug)]
pub struct TableInfo {
    /// Table name (lower-cased).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Base data.
    pub heap: HeapFile,
    /// Secondary indexes.
    pub indexes: Vec<IndexInfo>,
}

/// All tables of one database.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<TableInfo>,
    by_name: std::collections::HashMap<String, TableId>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new table.
    pub fn create_table(
        &mut self,
        pool: &BufferPool,
        name: &str,
        schema: Schema,
    ) -> DbResult<TableId> {
        let name = name.to_ascii_lowercase();
        if self.by_name.contains_key(&name) {
            return Err(DbError::Catalog(format!("table {name} already exists")));
        }
        let heap = HeapFile::create(pool)?;
        let id = self.tables.len();
        self.tables.push(TableInfo {
            name: name.clone(),
            schema,
            heap,
            indexes: Vec::new(),
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Drop a table (its pages are leaked in the file; fine for benches).
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let name = name.to_ascii_lowercase();
        let id = self
            .by_name
            .remove(&name)
            .ok_or_else(|| DbError::Catalog(format!("no table {name}")))?;
        // Keep slot (ids are stable); mark unusable by clearing the name.
        self.tables[id].name = String::new();
        Ok(())
    }

    /// Resolve a table id.
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| DbError::Catalog(format!("no table {name}")))
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> &TableInfo {
        &self.tables[id]
    }

    /// Create a B+tree index on `cols` of `table`, backfilling existing rows.
    pub fn create_index(
        &mut self,
        pool: &BufferPool,
        index_name: &str,
        table: &str,
        cols: &[&str],
    ) -> DbResult<()> {
        let tid = self.table_id(table)?;
        let t = &self.tables[tid];
        if t.indexes.iter().any(|i| i.name == index_name) {
            return Err(DbError::Catalog(format!(
                "index {index_name} already exists"
            )));
        }
        let col_idx: Vec<usize> = cols
            .iter()
            .map(|c| {
                t.schema
                    .index_of(c)
                    .ok_or_else(|| DbError::Binding(format!("no column {c} in {table}")))
            })
            .collect::<DbResult<_>>()?;
        let mut info = IndexInfo {
            name: index_name.to_owned(),
            cols: col_idx,
            btree: BTree::create(pool)?,
        };
        // Backfill: materialize (key, rid) then insert (cannot hold pool
        // borrow across the scan). An existing row whose key is too long
        // refuses the index before anything is inserted.
        let mut entries: Vec<DbResult<(Vec<u8>, Rid)>> = Vec::new();
        self.tables[tid].heap.scan(pool, |rid, bytes| {
            if let Ok(row) = decode_row(bytes) {
                entries.push(info.checked_key(&row).map(|k| (k, rid)));
            }
            Ok(())
        })?;
        for (k, rid) in entries.into_iter().collect::<DbResult<Vec<_>>>()? {
            info.btree.insert(pool, &k, rid)?;
        }
        self.tables[tid].indexes.push(info);
        Ok(())
    }

    /// Insert a row (validates, widens, maintains indexes).
    pub fn insert_row(&mut self, pool: &BufferPool, tid: TableId, mut row: Row) -> DbResult<Rid> {
        let t = &mut self.tables[tid];
        t.schema.check_row(&mut row)?;
        let keys = checked_keys(t, &row)?;
        let rid = t.heap.insert(pool, &encode_row(&row))?;
        for (idx, key) in t.indexes.iter_mut().zip(&keys) {
            idx.btree.insert(pool, key, rid)?;
        }
        Ok(rid)
    }

    /// Insert many rows in one batch. Heap appends happen row by row,
    /// but every secondary index is then maintained with a single
    /// sorted [`crate::btree::BTree::insert_many`] pass — the batch
    /// write path the crawler's frontier flush rides on.
    pub fn insert_many(
        &mut self,
        pool: &BufferPool,
        tid: TableId,
        rows: Vec<Row>,
    ) -> DbResult<Vec<Rid>> {
        let t = &mut self.tables[tid];
        let mut rows = rows;
        for row in &mut rows {
            t.schema.check_row(row)?;
        }
        // Per index, one key per row: all checked before the heap moves.
        let keys: Vec<Vec<Vec<u8>>> = (t.indexes.iter())
            .map(|idx| rows.iter().map(|row| idx.checked_key(row)).collect())
            .collect::<DbResult<_>>()?;
        let encoded: Vec<Vec<u8>> = rows.iter().map(|row| encode_row(row)).collect();
        let recs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let rids = t.heap.insert_many(pool, &recs)?;
        for (idx, keys) in t.indexes.iter_mut().zip(keys) {
            let mut entries: Vec<(Vec<u8>, Rid)> =
                keys.into_iter().zip(rids.iter().copied()).collect();
            entries.sort_unstable();
            idx.btree.insert_many(pool, &entries)?;
        }
        Ok(rids)
    }

    /// Replace many rows in one batch; index maintenance is two sorted
    /// passes per index (`delete_many` the stale keys, `insert_many`
    /// the new ones) instead of one descent pair per row. Returns each
    /// row's (possibly new) rid, in input order.
    ///
    /// `updates` are `(rid, old_row, new_row)`; `old_row` must be
    /// exactly the row currently stored at `rid`. Callers on the hot
    /// path (the frontier's claim/upsert batches) just read those rows
    /// to decide the update, so taking them here instead of re-fetching
    /// halves the heap traffic of the batch. Rows are validated and
    /// encoded, and their index keys checked, *before* the first heap
    /// write, so a schema violation, oversized row or over-long key
    /// anywhere in the batch mutates nothing.
    pub fn update_many(
        &mut self,
        pool: &BufferPool,
        tid: TableId,
        updates: Vec<(Rid, Row, Row)>,
    ) -> DbResult<Vec<Rid>> {
        let t = &mut self.tables[tid];
        let mut rids = Vec::with_capacity(updates.len());
        let mut old_rows = Vec::with_capacity(updates.len());
        let mut new_rows = Vec::with_capacity(updates.len());
        let mut encoded = Vec::with_capacity(updates.len());
        for (rid, old_row, mut new_row) in updates {
            t.schema.check_row(&mut new_row)?;
            let enc = encode_row(&new_row);
            if enc.len() + 8 > crate::page::PAGE_SIZE {
                return Err(DbError::RecordTooLarge(enc.len()));
            }
            rids.push(rid);
            old_rows.push(old_row);
            new_rows.push(new_row);
            encoded.push(enc);
        }
        // Per index, each row's new key.
        let new_keys: Vec<Vec<Vec<u8>>> = (t.indexes.iter())
            .map(|idx| new_rows.iter().map(|row| idx.checked_key(row)).collect())
            .collect::<DbResult<_>>()?;
        let mut new_rids = Vec::with_capacity(rids.len());
        for (&rid, enc) in rids.iter().zip(&encoded) {
            new_rids.push(t.heap.update(pool, rid, enc)?);
        }
        for (idx, new_keys) in t.indexes.iter_mut().zip(new_keys) {
            let mut stale: Vec<(Vec<u8>, Rid)> = Vec::new();
            let mut fresh: Vec<(Vec<u8>, Rid)> = Vec::new();
            for (((old_row, new_key), &old_rid), &new_rid) in
                old_rows.iter().zip(new_keys).zip(&rids).zip(&new_rids)
            {
                let old_key = idx.key_of(old_row);
                if old_key != new_key || new_rid != old_rid {
                    stale.push((old_key, old_rid));
                    fresh.push((new_key, new_rid));
                }
            }
            stale.sort_unstable();
            fresh.sort_unstable();
            idx.btree.delete_many(pool, &stale)?;
            idx.btree.insert_many(pool, &fresh)?;
        }
        Ok(new_rids)
    }

    /// Read the row at `rid`.
    pub fn get_row(&self, pool: &BufferPool, tid: TableId, rid: Rid) -> DbResult<Row> {
        let bytes = self.tables[tid].heap.get(pool, rid)?;
        decode_row(&bytes)
    }

    /// Delete the row at `rid`, removing its index entries.
    pub fn delete_row(&mut self, pool: &BufferPool, tid: TableId, rid: Rid) -> DbResult<()> {
        let row = self.get_row(pool, tid, rid)?;
        let t = &mut self.tables[tid];
        for idx in &mut t.indexes {
            let key = idx.key_of(&row);
            idx.btree.delete(pool, &key, rid)?;
        }
        t.heap.delete(pool, rid)
    }

    /// Replace the row at `rid`; returns the row's (possibly new) rid.
    pub fn update_row(
        &mut self,
        pool: &BufferPool,
        tid: TableId,
        rid: Rid,
        mut new_row: Row,
    ) -> DbResult<Rid> {
        let old_row = self.get_row(pool, tid, rid)?;
        let t = &mut self.tables[tid];
        t.schema.check_row(&mut new_row)?;
        let new_keys = checked_keys(t, &new_row)?;
        let new_rid = t.heap.update(pool, rid, &encode_row(&new_row))?;
        for (idx, new_key) in t.indexes.iter_mut().zip(&new_keys) {
            let old_key = idx.key_of(&old_row);
            if old_key != *new_key || new_rid != rid {
                idx.btree.delete(pool, &old_key, rid)?;
                idx.btree.insert(pool, new_key, new_rid)?;
            }
        }
        Ok(new_rid)
    }

    /// Materialize every row of a table. With `keep`, only the marked
    /// columns are decoded (the rest are `Null` placeholders at their
    /// original positions): the scan half of SELECT column pruning, so
    /// unreferenced text columns never allocate.
    pub fn scan_rows(
        &self,
        pool: &BufferPool,
        tid: TableId,
        keep: Option<&[bool]>,
    ) -> DbResult<Vec<Row>> {
        let heap = &self.tables[tid].heap;
        let mut out = Vec::with_capacity(heap.len() as usize);
        heap.scan(pool, |_, bytes| {
            let mut row = Vec::new();
            decode_row_into(bytes, keep, &mut row)?;
            out.push(row);
            Ok(())
        })?;
        Ok(out)
    }

    /// Every table slot in id order, **including dropped slots** (empty
    /// name) — the WAL catalog image must preserve slot positions so
    /// `TableId`s stay stable across recovery.
    pub(crate) fn slots(&self) -> &[TableInfo] {
        &self.tables
    }

    /// Rebuild a catalog from decoded slots (recovery / replica apply).
    /// `by_name` is reconstructed; dropped slots keep their position.
    pub(crate) fn from_slots(tables: Vec<TableInfo>) -> Catalog {
        let by_name = tables
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.name.is_empty())
            .map(|(i, t)| (t.name.clone(), i))
            .collect();
        Catalog { tables, by_name }
    }

    /// [`crate::Database::check_integrity`], over this catalog's tables.
    pub fn check_integrity(&self, pool: &BufferPool) -> DbResult<()> {
        for t in &self.tables {
            // `HeapFile` finds a page by binary search.
            if !t.heap.pages().windows(2).all(|w| w[0] < w[1]) {
                let msg = format!("{}: heap page list does not strictly ascend", t.name);
                return Err(DbError::Corrupt(msg));
            }
            let mut rows = Vec::with_capacity(t.heap.len() as usize);
            t.heap.scan(pool, |rid, bytes| {
                rows.push((rid, decode_row(bytes)?));
                Ok(())
            })?;
            for idx in &t.indexes {
                let bad = |e| DbError::Corrupt(format!("{}.{}: {e}", t.name, idx.name));
                idx.btree.validate(pool).map_err(|e| bad(e.to_string()))?;
                let mut want: Vec<_> = rows.iter().map(|(r, row)| (idx.key_of(row), *r)).collect();
                // In (key, rid) order, as `validate` just checked.
                let have = idx.btree.lookup_prefix(pool, &[])?;
                want.sort_unstable();
                if have != want || idx.btree.len() != t.heap.len() {
                    return Err(bad(format!("not a map of the {} heap rows", t.heap.len())));
                }
            }
        }
        Ok(())
    }

    /// Find the index (if any) on `table` whose key columns start with `cols`.
    pub fn find_index(&self, tid: TableId, cols: &[usize]) -> Option<usize> {
        self.tables[tid]
            .indexes
            .iter()
            .position(|i| i.cols.len() >= cols.len() && i.cols[..cols.len()] == *cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::MAX_KEY_LEN;
    use crate::buffer::EvictionPolicy;
    use crate::disk::DiskManager;
    use crate::schema::ColumnType;

    fn setup() -> (BufferPool, Catalog, TableId) {
        let pool = BufferPool::new(DiskManager::in_memory(), 32, EvictionPolicy::Lru);
        let mut cat = Catalog::new();
        let tid = cat
            .create_table(
                &pool,
                "crawl",
                Schema::new([
                    ("oid", ColumnType::Int),
                    ("url", ColumnType::Str),
                    ("relevance", ColumnType::Float),
                ]),
            )
            .unwrap();
        (pool, cat, tid)
    }

    #[test]
    fn create_and_duplicate_table() {
        let (pool, mut cat, _) = setup();
        assert!(cat
            .create_table(&pool, "CRAWL", Schema::new([("x", ColumnType::Int)]))
            .is_err());
        assert_eq!(cat.slots().len(), 1, "the refused duplicate added no table");
        assert!(cat.table_id("nope").is_err());
    }

    #[test]
    fn insert_and_index_lookup() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "crawl_oid", "crawl", &["oid"])
            .unwrap();
        for i in 0..100i64 {
            cat.insert_row(
                &pool,
                tid,
                vec![
                    Value::Int(i),
                    Value::Str(format!("u{i}")),
                    Value::Float(i as f64 / 100.0),
                ],
            )
            .unwrap();
        }
        let key = encode_composite_key(&[Value::Int(42)]);
        let t = cat.table(tid);
        let rids = t.indexes[0].btree.lookup(&pool, &key).unwrap();
        assert_eq!(rids.len(), 1);
        let row = cat.get_row(&pool, tid, rids[0]).unwrap();
        assert_eq!(row[1], Value::Str("u42".into()));
    }

    #[test]
    fn check_integrity_finds_a_heap_page_list_out_of_order() {
        let (pool, mut cat, tid) = setup();
        let url = "u".repeat(200);
        let rows = (0..100i64).map(|i| vec![Value::Int(i), Value::Str(url.clone()), Value::Null]);
        cat.insert_many(&pool, tid, rows.collect()).unwrap();
        cat.check_integrity(&pool).unwrap();
        let (pages, hints, live) = cat.table(tid).heap.snapshot_parts();
        assert!(pages.len() > 2, "the rows span several pages");
        let (mut pages, hints) = (pages.to_vec(), hints.to_vec());
        pages.swap(0, 1);
        cat.tables[tid].heap = HeapFile::from_parts(pages, hints, live);
        let err = cat.check_integrity(&pool).unwrap_err();
        assert!(
            matches!(&err, DbError::Corrupt(m) if m.contains("crawl: heap page list")),
            "{err}"
        );
    }

    #[test]
    fn backfilled_index_matches_fresh_index() {
        let (pool, mut cat, tid) = setup();
        for i in 0..50i64 {
            cat.insert_row(
                &pool,
                tid,
                vec![Value::Int(i), Value::Str("u".into()), Value::Float(0.5)],
            )
            .unwrap();
        }
        // Index created after the fact must see all rows.
        cat.create_index(&pool, "late", "crawl", &["oid"]).unwrap();
        assert_eq!(cat.table(tid).indexes[0].btree.len(), 50);
    }

    #[test]
    fn delete_maintains_indexes() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byoid", "crawl", &["oid"]).unwrap();
        let rid = cat
            .insert_row(
                &pool,
                tid,
                vec![Value::Int(5), Value::Str("u5".into()), Value::Float(0.1)],
            )
            .unwrap();
        cat.delete_row(&pool, tid, rid).unwrap();
        let key = encode_composite_key(&[Value::Int(5)]);
        assert!(cat.table(tid).indexes[0]
            .btree
            .lookup(&pool, &key)
            .unwrap()
            .is_empty());
        assert!(cat.get_row(&pool, tid, rid).is_err());
    }

    #[test]
    fn update_moves_index_entries() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byrel", "crawl", &["relevance"])
            .unwrap();
        let rid = cat
            .insert_row(
                &pool,
                tid,
                vec![Value::Int(1), Value::Str("u".into()), Value::Float(0.2)],
            )
            .unwrap();
        let new_rid = cat
            .update_row(
                &pool,
                tid,
                rid,
                vec![Value::Int(1), Value::Str("u".into()), Value::Float(0.9)],
            )
            .unwrap();
        let old_key = encode_composite_key(&[Value::Float(0.2)]);
        let new_key = encode_composite_key(&[Value::Float(0.9)]);
        assert!(cat.table(tid).indexes[0]
            .btree
            .lookup(&pool, &old_key)
            .unwrap()
            .is_empty());
        assert_eq!(
            cat.table(tid).indexes[0]
                .btree
                .lookup(&pool, &new_key)
                .unwrap(),
            vec![new_rid]
        );
    }

    #[test]
    fn insert_many_maintains_all_indexes() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byoid", "crawl", &["oid"]).unwrap();
        cat.create_index(&pool, "byrel", "crawl", &["relevance"])
            .unwrap();
        let rows: Vec<Row> = (0..200i64)
            .map(|i| {
                vec![
                    Value::Int((i * 37) % 500),
                    Value::Str(format!("u{i}")),
                    Value::Float((i % 10) as f64 / 10.0),
                ]
            })
            .collect();
        let rids = cat.insert_many(&pool, tid, rows.clone()).unwrap();
        assert_eq!(rids.len(), 200);
        for (row, rid) in rows.iter().zip(&rids) {
            let key = encode_composite_key(&[row[0].clone()]);
            let hits = cat.table(tid).indexes[0].btree.lookup(&pool, &key).unwrap();
            assert!(hits.contains(rid), "oid index lost {row:?}");
        }
        assert_eq!(cat.table(tid).indexes[1].btree.len(), 200);
    }

    #[test]
    fn update_many_moves_index_entries() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byrel", "crawl", &["relevance"])
            .unwrap();
        let mut rids = Vec::new();
        for i in 0..50i64 {
            rids.push(
                cat.insert_row(
                    &pool,
                    tid,
                    vec![Value::Int(i), Value::Str("u".into()), Value::Float(0.2)],
                )
                .unwrap(),
            );
        }
        let updates: Vec<(Rid, Row, Row)> = rids
            .iter()
            .map(|&rid| {
                (
                    rid,
                    cat.get_row(&pool, tid, rid).unwrap(),
                    vec![Value::Int(-1), Value::Str("u".into()), Value::Float(0.9)],
                )
            })
            .collect();
        let new_rids = cat.update_many(&pool, tid, updates).unwrap();
        let old_key = encode_composite_key(&[Value::Float(0.2)]);
        let new_key = encode_composite_key(&[Value::Float(0.9)]);
        assert!(cat.table(tid).indexes[0]
            .btree
            .lookup(&pool, &old_key)
            .unwrap()
            .is_empty());
        let mut hits = cat.table(tid).indexes[0]
            .btree
            .lookup(&pool, &new_key)
            .unwrap();
        hits.sort_unstable();
        let mut want = new_rids.clone();
        want.sort_unstable();
        assert_eq!(hits, want);
        for rid in new_rids {
            assert_eq!(cat.get_row(&pool, tid, rid).unwrap()[0], Value::Int(-1));
        }
    }

    #[test]
    fn batch_mutations_are_all_or_nothing_on_validation_errors() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byoid", "crawl", &["oid"]).unwrap();
        let rid = cat
            .insert_row(
                &pool,
                tid,
                vec![Value::Int(1), Value::Str("u1".into()), Value::Float(0.1)],
            )
            .unwrap();
        let old = cat.get_row(&pool, tid, rid).unwrap();
        // A schema-violating row *later* in the batch must leave the
        // earlier row untouched in heap AND indexes.
        let res = cat.update_many(
            &pool,
            tid,
            vec![
                (
                    rid,
                    old.clone(),
                    vec![Value::Int(2), Value::Str("u1".into()), Value::Float(0.9)],
                ),
                (
                    rid,
                    old.clone(),
                    vec![Value::Str("not an oid".into()), Value::Null, Value::Null],
                ),
            ],
        );
        assert!(res.is_err());
        assert_eq!(cat.get_row(&pool, tid, rid).unwrap(), old);
        let key = encode_composite_key(&[Value::Int(1)]);
        assert_eq!(
            cat.table(tid).indexes[0].btree.lookup(&pool, &key).unwrap(),
            vec![rid],
            "index must still carry the untouched row"
        );
        // An oversized row anywhere in an insert batch inserts nothing.
        let heap_before = cat.table(tid).heap.len();
        let idx_before = cat.table(tid).indexes[0].btree.len();
        let res = cat.insert_many(
            &pool,
            tid,
            vec![
                vec![Value::Int(5), Value::Str("ok".into()), Value::Float(0.0)],
                vec![
                    Value::Int(6),
                    Value::Str("x".repeat(crate::page::PAGE_SIZE)),
                    Value::Float(0.0),
                ],
            ],
        );
        assert!(matches!(res, Err(DbError::RecordTooLarge(_))));
        assert_eq!(cat.table(tid).heap.len(), heap_before);
        assert_eq!(cat.table(tid).indexes[0].btree.len(), idx_before);
    }

    /// A legal 2.1 KB row whose text key escapes to 4.2 KB: more than
    /// any B+tree node holds.
    fn long_key_row(a: i64) -> Row {
        vec![
            Value::Int(a),
            Value::Str(format!("{a}{}", "\0".repeat(2100))),
            Value::Float(0.0),
        ]
    }

    /// Heap rows, entries of index 0, and what an index scan returns.
    fn agreement(pool: &BufferPool, cat: &Catalog, tid: TableId) -> (u64, u64, usize) {
        let t = cat.table(tid);
        let bt = &t.indexes[0].btree;
        bt.validate(pool).unwrap();
        let scanned = bt.lookup_prefix(pool, &[]).unwrap().len();
        (t.heap.len(), bt.len(), scanned)
    }

    #[test]
    fn over_long_index_key_is_refused_before_the_heap_write() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byurl", "crawl", &["url"]).unwrap();
        // Regression: each insert used to fail inside the B+tree *after*
        // the heap write, so a table scan saw 3 rows and an index scan 0.
        for a in 1..=3 {
            let res = cat.insert_row(&pool, tid, long_key_row(a));
            assert!(
                matches!(res, Err(DbError::KeyTooLarge(n)) if n > 4200),
                "{res:?}"
            );
        }
        assert_eq!(agreement(&pool, &cat, tid), (0, 0, 0));
        // The longest key that is accepted, and the first that is not.
        // (Tag byte + two-byte terminator around the text.)
        let fits = "k".repeat(MAX_KEY_LEN - 3);
        let row = |s: &str| vec![Value::Int(9), Value::Str(s.into()), Value::Float(0.0)];
        assert_eq!(
            cat.table(tid).indexes[0].key_of(&row(&fits)).len(),
            MAX_KEY_LEN
        );
        let rid = cat.insert_row(&pool, tid, row(&fits)).unwrap();
        assert!(matches!(
            cat.insert_row(&pool, tid, row(&format!("{fits}k"))),
            Err(DbError::KeyTooLarge(_))
        ));
        // An update to an over-long key leaves the old row and entry.
        let res = cat.update_row(&pool, tid, rid, long_key_row(9));
        assert!(matches!(res, Err(DbError::KeyTooLarge(_))));
        assert_eq!(cat.get_row(&pool, tid, rid).unwrap(), row(&fits));
        assert_eq!(agreement(&pool, &cat, tid), (1, 1, 1));
    }

    #[test]
    fn batch_with_one_over_long_key_mutates_nothing() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byurl", "crawl", &["url"]).unwrap();
        let ok = |a: i64| {
            vec![
                Value::Int(a),
                Value::Str(format!("u{a}")),
                Value::Float(0.0),
            ]
        };
        let rids = cat.insert_many(&pool, tid, vec![ok(1), ok(2)]).unwrap();
        let res = cat.insert_many(&pool, tid, vec![ok(3), long_key_row(4), ok(5)]);
        assert!(matches!(res, Err(DbError::KeyTooLarge(_))));
        assert_eq!(agreement(&pool, &cat, tid), (2, 2, 2));
        let res = cat.update_many(
            &pool,
            tid,
            vec![(rids[0], ok(1), ok(7)), (rids[1], ok(2), long_key_row(2))],
        );
        assert!(matches!(res, Err(DbError::KeyTooLarge(_))));
        assert_eq!(cat.get_row(&pool, tid, rids[0]).unwrap(), ok(1));
        assert_eq!(agreement(&pool, &cat, tid), (2, 2, 2));
        // An index over existing rows with such a key is refused whole.
        let (pool, mut cat, tid) = setup();
        cat.insert_row(&pool, tid, long_key_row(1)).unwrap();
        let res = cat.create_index(&pool, "byurl", "crawl", &["url"]);
        assert!(matches!(res, Err(DbError::KeyTooLarge(_))));
        assert!(cat.table(tid).indexes.is_empty());
    }

    #[test]
    fn schema_violation_rejected() {
        let (pool, mut cat, tid) = setup();
        assert!(cat
            .insert_row(
                &pool,
                tid,
                vec![Value::Str("no".into()), Value::Null, Value::Null]
            )
            .is_err());
        assert!(cat.insert_row(&pool, tid, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn find_index_prefix_match() {
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "c2", "crawl", &["oid", "relevance"])
            .unwrap();
        assert_eq!(cat.find_index(tid, &[0]), Some(0));
        assert_eq!(cat.find_index(tid, &[0, 2]), Some(0));
        assert_eq!(cat.find_index(tid, &[2]), None);
    }
}
