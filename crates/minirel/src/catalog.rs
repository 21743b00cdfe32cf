//! The catalog: tables, their schemas, heap files, and secondary indexes,
//! plus the one row-write path that keeps indexes consistent.
//!
//! The paper §3.1: *"Keeping all crawl tables and indices consistent by
//! hand amounted to reinventing the wheel"* — this module is that wheel:
//! every insert, update and delete is staged in a [`RowBatch`], which
//! maintains all of a table's B+tree indexes.

use crate::btree::{check_key, clear_to, BTree, Entries, Hits};
use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::heap::{HeapFile, Rid};
use crate::schema::Schema;
use crate::value::{decode_row, decode_row_into, encode_row_into, Row, Value};
use std::mem::take;

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
        let mut key = Vec::new();
        self.key_into(row, &mut key);
        key
    }

    /// [`Self::key_of`] into `key`, replacing what it held.
    fn key_into(&self, row: &[Value], key: &mut Vec<u8>) {
        key.clear();
        for &c in &self.cols {
            row[c].encode_key(key);
        }
    }
}

/// `keys` emptied, one batch for each of `indexes` indexes.
fn clear_entries(keys: &mut Vec<Entries>, indexes: usize) {
    if keys.len() < indexes {
        keys.resize_with(indexes, Entries::default);
    }
    keys.iter_mut().for_each(|k| k.clear_to(KEPT_BYTES));
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
    /// The batch write paths' working memory (see [`RowBatch`]).
    scratch: Scratch,
}

/// Rows staged for one kind of write: each encoded record, and per
/// index each row's key.
#[derive(Debug, Default)]
struct Staged {
    bytes: Vec<u8>,
    /// Where each record ends in `bytes`.
    ends: Vec<usize>,
    /// Per index, each row's key; the rid is filled in when the row is
    /// written.
    keys: Vec<Entries>,
}

impl Staged {
    /// Empty, with a key batch for each of `indexes` indexes.
    fn clear(&mut self, indexes: usize) {
        clear_to(&mut self.bytes, KEPT_BYTES);
        clear_to(&mut self.ends, KEPT_BYTES);
        clear_entries(&mut self.keys, indexes);
    }

    /// Stage `row`, whose schema `t` checked: its index keys, then its
    /// record. A refused row is left unstaged: what was staged before it
    /// stays whole.
    fn push(&mut self, t: &TableInfo, row: &Row, key: &mut Vec<u8>) -> DbResult<()> {
        let (staged, start) = (self.ends.len(), self.bytes.len());
        let mut stage = || {
            for (idx, keys) in t.indexes.iter().zip(&mut self.keys) {
                idx.key_into(row, key);
                check_key(key)?;
                keys.push(key, Rid { page: 0, slot: 0 });
            }
            encode_row_into(row, &mut self.bytes);
            let len = self.bytes.len() - start;
            match len + 8 > crate::page::PAGE_SIZE {
                true => Err(DbError::RecordTooLarge(len)),
                false => Ok(()),
            }
        };
        let res = stage();
        match res {
            Ok(()) => self.ends.push(self.bytes.len()),
            Err(_) => {
                self.bytes.truncate(start);
                self.keys.iter_mut().for_each(|k| k.truncate(staged));
            }
        }
        res
    }

    /// The staged records, in order.
    fn records(&self) -> impl Iterator<Item = &[u8]> + Clone {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.bytes[a..b])
    }
}

/// What each buffer of [`Scratch`] keeps between batches, in bytes:
/// more than a crawl's claims and landings stage, so they reuse it, and
/// a whole-table UPDATE hands back the rest once it is written.
const KEPT_BYTES: usize = 1 << 16;

/// The working memory of [`RowBatch`], owned by the catalog so that a
/// batch of writes allocates only when it outgrows every earlier one
/// and keeps at most [`KEPT_BYTES`] a buffer after it.
#[derive(Debug, Default)]
struct Scratch {
    inserts: Staged,
    updates: Staged,
    /// The rid each staged update replaces.
    replaced: Vec<Rid>,
    /// Per index, each staged update's old key under its old rid.
    stale: Vec<Entries>,
    /// The rid of each staged delete.
    deleted: Vec<Rid>,
    /// Per index, each staged delete's key under its rid.
    gone: Vec<Entries>,
    /// The rids a batch wrote: its inserts', then its updates'.
    rids: Vec<Rid>,
    /// What [`RowBatch::lookup_many`] found.
    hits: Hits,
    /// One index key being encoded.
    key: Vec<u8>,
    /// The stored row an edit is shown, and its replacement.
    old: Row,
    new: Row,
}

impl Scratch {
    /// Empty every buffer but `rids`, for a table with `indexes`
    /// indexes.
    fn clear(&mut self, indexes: usize) {
        self.inserts.clear(indexes);
        self.updates.clear(indexes);
        clear_to(&mut self.replaced, KEPT_BYTES);
        clear_entries(&mut self.stale, indexes);
        clear_to(&mut self.deleted, KEPT_BYTES);
        clear_entries(&mut self.gone, indexes);
        self.hits.clear_to(KEPT_BYTES);
    }
}

/// One batch of row writes to a table, from [`Catalog::batch`]: the one
/// way a row is inserted, replaced or deleted. Rows are checked, keyed
/// and encoded as they are staged, and nothing is written before
/// [`RowBatch::write`]: a refused row is left unstaged, so a caller that
/// passes its error on leaves heap and indexes untouched. The write
/// appends the inserts to the heap, then maintains each index with one
/// sorted [`BTree::insert_many`] pass; then it replaces the updated rows,
/// removes the deleted ones, and maintains each index with one sorted
/// [`BTree::delete_many`] of the stale keys (the updates' old keys and
/// the deleted rows') and one `insert_many` of the updates' new keys —
/// instead of one descent per row.
pub struct RowBatch<'c> {
    pool: &'c BufferPool,
    t: &'c mut TableInfo,
    s: &'c mut Scratch,
}

impl<'c> RowBatch<'c> {
    /// Look the sorted `keys` up in the table's index `index`, for
    /// [`RowBatch::found`].
    pub fn lookup_many<K: AsRef<[u8]>>(&mut self, index: usize, keys: &[K]) -> DbResult<()> {
        let btree = &self.t.indexes[index].btree;
        btree.lookup_many(self.pool, keys, &mut self.s.hits)
    }

    /// The rids the last [`RowBatch::lookup_many`] found under its
    /// `i`-th key.
    pub fn found(&self, i: usize) -> &[Rid] {
        self.s.hits.get(i)
    }

    /// Stage inserting `row`, whose schema was checked.
    fn insert(&mut self, row: &Row) -> DbResult<()> {
        let s = &mut *self.s;
        s.inserts.push(self.t, row, &mut s.key)
    }

    /// Stage replacing `old`, the row stored at `rid`, by `new`, whose
    /// schema was checked.
    fn update(&mut self, rid: Rid, old: &Row, new: &Row) -> DbResult<()> {
        let s = &mut *self.s;
        s.updates.push(self.t, new, &mut s.key)?;
        for (idx, stale) in self.t.indexes.iter().zip(&mut s.stale) {
            idx.key_into(old, &mut s.key);
            stale.push(&s.key, rid);
        }
        s.replaced.push(rid);
        Ok(())
    }

    /// Stage deleting `old`, the row stored at `rid`, which the caller
    /// has read: its keys are taken from `old` (columns past the table's
    /// are ignored), so the write reads no row again.
    pub(crate) fn delete(&mut self, rid: Rid, old: &[Value]) {
        let s = &mut *self.s;
        for (idx, gone) in self.t.indexes.iter().zip(&mut s.gone) {
            idx.key_into(old, &mut s.key);
            gone.push(&s.key, rid);
        }
        s.deleted.push(rid);
    }

    /// Show `edit` the row stored at `rid`, decoded from its page into
    /// a row the catalog keeps, and stage the row as `edit` leaves it
    /// in its place when `edit` answers `true`. Returns that answer.
    pub fn update_with(
        &mut self,
        rid: Rid,
        edit: impl FnOnce(&mut Row) -> DbResult<bool>,
    ) -> DbResult<bool> {
        let (mut old, mut new) = (take(&mut self.s.old), take(&mut self.s.new));
        let edited = || {
            let rids = std::slice::from_ref(&rid);
            (self.t.heap).get_each(self.pool, rids, |_, rec| {
                decode_row_into(rec, None, &mut old)
            })?;
            new.clone_from(&old);
            let staged = edit(&mut new)?;
            if staged {
                self.t.schema.check_row(&mut new)?;
                self.update(rid, &old, &new)?;
            }
            Ok(staged)
        };
        let res = edited();
        (self.s.old, self.s.new) = (old, new);
        res
    }

    /// Hand `fill` a row the catalog keeps, holding whatever an earlier
    /// edit left, and stage it as an insert when `fill` answers `true`
    /// (so `fill` must write the whole row). Returns that answer.
    pub fn insert_with(&mut self, fill: impl FnOnce(&mut Row) -> DbResult<bool>) -> DbResult<bool> {
        let mut row = take(&mut self.s.new);
        let res = fill(&mut row).and_then(|staged| {
            if staged {
                self.t.schema.check_row(&mut row)?;
                self.insert(&row)?;
            }
            Ok(staged)
        });
        self.s.new = row;
        res
    }

    /// Write what was staged: the inserts, then the updates and the
    /// deletes. Returns the rids written, the inserts' then the updates'
    /// (an update's rid changes when its row no longer fits its page).
    pub fn write(self) -> DbResult<&'c [Rid]> {
        let RowBatch { pool, t, s } = self;
        s.rids.clear();
        let ins = &mut s.inserts;
        if !ins.ends.is_empty() {
            t.heap.insert_many(pool, ins.records(), &mut s.rids)?;
            for (idx, keys) in t.indexes.iter_mut().zip(&mut ins.keys) {
                (0..keys.len()).for_each(|i| keys.set_rid(i, s.rids[i]));
                keys.sort();
                idx.btree.insert_many(pool, keys)?;
            }
        }
        let (upd, first) = (&mut s.updates, s.rids.len());
        for (&rid, rec) in s.replaced.iter().zip(upd.records()) {
            s.rids.push(t.heap.update(pool, rid, rec)?);
        }
        for &rid in &s.deleted {
            t.heap.delete(pool, rid)?;
        }
        let moved = &s.rids[first..];
        let indexes =
            (t.indexes.iter_mut().zip(&mut upd.keys)).zip(s.stale.iter_mut().zip(&s.gone));
        for ((idx, fresh), (stale, gone)) in indexes {
            (0..fresh.len()).for_each(|i| fresh.set_rid(i, moved[i]));
            // Keep the pairs the update moved: a new key, or a new rid.
            let mut kept = 0;
            for i in 0..fresh.len() {
                if fresh.get(i) != stale.get(i) {
                    fresh.swap(kept, i);
                    stale.swap(kept, i);
                    kept += 1;
                }
            }
            fresh.truncate(kept);
            stale.truncate(kept);
            gone.iter().for_each(|(key, rid)| stale.push(key, rid));
            stale.sort();
            fresh.sort();
            idx.btree.delete_many(pool, stale)?;
            idx.btree.insert_many(pool, fresh)?;
        }
        s.clear(t.indexes.len());
        Ok(&s.rids)
    }
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
        let found = match name.bytes().any(|b| b.is_ascii_uppercase()) {
            true => self.by_name.get(&name.to_ascii_lowercase()),
            false => self.by_name.get(name),
        };
        found
            .copied()
            .ok_or_else(|| DbError::Catalog(format!("no table {name}")))
    }

    /// Begin a batch of writes to table `tid` (see [`RowBatch`]). What
    /// an earlier batch left behind, written or refused, is cleared.
    pub fn batch<'c>(&'c mut self, pool: &'c BufferPool, tid: TableId) -> RowBatch<'c> {
        let (t, s) = (&mut self.tables[tid], &mut self.scratch);
        s.clear(t.indexes.len());
        clear_to(&mut s.rids, KEPT_BYTES);
        RowBatch { pool, t, s }
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
        // Backfill: every row's key, sorted, in one `insert_many`. A
        // record that does not decode to a row of the schema, or a row
        // whose key is too long, refuses the index before anything is
        // inserted.
        let (mut entries, mut row, mut key) = (Entries::default(), Row::new(), Vec::new());
        t.heap.scan(pool, |rid, bytes| {
            decode_row_into(bytes, None, &mut row)?;
            t.schema.check_row(&mut row)?;
            info.key_into(&row, &mut key);
            entries.push(&key, rid);
            Ok(())
        })?;
        entries.sort();
        info.btree.insert_many(pool, &entries)?;
        self.tables[tid].indexes.push(info);
        Ok(())
    }

    /// Insert a row (validates, widens, maintains indexes).
    pub fn insert_row(&mut self, pool: &BufferPool, tid: TableId, mut row: Row) -> DbResult<Rid> {
        let rids = self.insert_rows(pool, tid, std::slice::from_mut(&mut row))?;
        Ok(rids[0])
    }

    /// Insert many rows in one batch ([`RowBatch`]): the batch write
    /// path the crawler's frontier flush rides on. Returns their rids.
    /// A schema violation in any row is the error reported; otherwise
    /// the first row with an over-long key or an oversized record is
    /// refused. Either way nothing is written.
    pub fn insert_many<'c>(
        &'c mut self,
        pool: &'c BufferPool,
        tid: TableId,
        mut rows: Vec<Row>,
    ) -> DbResult<&'c [Rid]> {
        self.insert_rows(pool, tid, &mut rows)
    }

    /// [`Catalog::insert_many`] of rows the caller keeps (each is
    /// checked and widened in place).
    pub fn insert_rows<'c>(
        &'c mut self,
        pool: &'c BufferPool,
        tid: TableId,
        rows: &mut [Row],
    ) -> DbResult<&'c [Rid]> {
        let mut batch = self.batch(pool, tid);
        for row in rows.iter_mut() {
            batch.t.schema.check_row(row)?;
        }
        for row in rows.iter() {
            batch.insert(row)?;
        }
        batch.write()
    }

    /// Replace many rows in one batch ([`RowBatch`]); index maintenance
    /// is two sorted passes per index (`delete_many` the stale keys,
    /// `insert_many` the new ones) instead of one descent pair per row.
    /// Returns each row's (possibly new) rid, in input order.
    ///
    /// `updates` are `(rid, old_row, new_row)`; `old_row` must be
    /// exactly the row currently stored at `rid`: callers just read
    /// those rows to decide the update, so taking them here instead of
    /// re-fetching halves the heap traffic of the batch. A schema
    /// violation, oversized row or over-long key anywhere in the batch
    /// mutates nothing; which is reported follows
    /// [`Catalog::insert_many`].
    pub fn update_many<'c>(
        &'c mut self,
        pool: &'c BufferPool,
        tid: TableId,
        mut updates: Vec<(Rid, Row, Row)>,
    ) -> DbResult<&'c [Rid]> {
        let mut batch = self.batch(pool, tid);
        for (_, _, new_row) in &mut updates {
            batch.t.schema.check_row(new_row)?;
        }
        for (rid, old_row, new_row) in &updates {
            batch.update(*rid, old_row, new_row)?;
        }
        batch.write()
    }

    /// Read the row at `rid`.
    pub fn get_row(&self, pool: &BufferPool, tid: TableId, rid: Rid) -> DbResult<Row> {
        let bytes = self.tables[tid].heap.get(pool, rid)?;
        decode_row(&bytes)
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
        Catalog {
            tables,
            by_name,
            scratch: Scratch::default(),
        }
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
    use crate::value::encode_composite_key;

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
    fn a_record_that_does_not_decode_refuses_the_index() {
        let (pool, mut cat, tid) = setup();
        let row = vec![Value::Int(1), Value::Str("u".into()), Value::Float(0.5)];
        cat.insert_row(&pool, tid, row).unwrap();
        // A row count that runs past the record's end.
        cat.tables[tid]
            .heap
            .insert(&pool, &[0xff, 0xff, 1])
            .unwrap();
        let res = cat.create_index(&pool, "byoid", "crawl", &["oid"]);
        assert!(matches!(res, Err(DbError::Page(_))), "{res:?}");
        assert!(cat.table(tid).indexes.is_empty());
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
        let old = cat.get_row(&pool, tid, rid).unwrap();
        let mut batch = cat.batch(&pool, tid);
        batch.delete(rid, &old);
        batch.write().unwrap();
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
        let mut batch = cat.batch(&pool, tid);
        let res = batch.update_with(rid, |row| {
            *row = vec![Value::Int(1), Value::Str("u".into()), Value::Float(0.9)];
            Ok(true)
        });
        res.unwrap();
        let new_rid = batch.write().unwrap()[0];
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
        let rids = cat.insert_many(&pool, tid, rows.clone()).unwrap().to_vec();
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
        let new_rids = cat.update_many(&pool, tid, updates).unwrap().to_vec();
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

    /// Every row of `tid` with its rid, and every entry of each index.
    type Contents = (Vec<(Rid, Row)>, Vec<(Vec<u8>, Rid)>);

    fn contents(pool: &BufferPool, cat: &Catalog, tid: TableId) -> Contents {
        let t = cat.table(tid);
        let mut rows = Vec::new();
        let scanned = t.heap.scan(pool, |rid, rec| {
            rows.push((rid, decode_row(rec)?));
            Ok(())
        });
        scanned.unwrap();
        let entries = (t.indexes.iter())
            .flat_map(|idx| idx.btree.lookup_prefix(pool, &[]).unwrap())
            .collect();
        (rows, entries)
    }

    #[test]
    fn a_refused_batch_leaves_nothing_for_the_next() {
        let row = |oid: i64, url: &str, r: f64| {
            vec![Value::Int(oid), Value::Str(url.into()), Value::Float(r)]
        };
        let base = || {
            vec![
                row(1, "http://a.example/1", 0.1),
                row(2, "b", 0.2),
                row(3, "c", 0.3),
            ]
        };
        let valid = |rids: &[Rid], old: &[Row]| {
            vec![
                (rids[0], old[0].clone(), row(1, "a", 0.7)),
                (rids[2], old[2].clone(), row(30, "http://c.example/30", 0.3)),
            ]
        };
        let build = |refused: bool| {
            let (pool, mut cat, tid) = setup();
            cat.create_index(&pool, "byoid", "crawl", &["oid"]).unwrap();
            cat.create_index(&pool, "byrel", "crawl", &["relevance"])
                .unwrap();
            let rids = cat.insert_many(&pool, tid, base()).unwrap().to_vec();
            let old: Vec<Row> = rids
                .iter()
                .map(|&r| cat.get_row(&pool, tid, r).unwrap())
                .collect();
            if refused {
                // Staged rows ahead of the refusal: a moved key, a new
                // rid, an insert.
                let huge = row(2, &"x".repeat(crate::page::PAGE_SIZE), 0.2);
                let updates = vec![
                    (rids[0], old[0].clone(), row(9, "a", 0.9)),
                    (rids[1], old[1].clone(), huge.clone()),
                ];
                let res = cat.update_many(&pool, tid, updates);
                assert!(matches!(res, Err(DbError::RecordTooLarge(_))));
                let res = cat.insert_many(&pool, tid, vec![row(4, "d", 0.4), huge]);
                assert!(matches!(res, Err(DbError::RecordTooLarge(_))));
            }
            cat.update_many(&pool, tid, valid(&rids, &old)).unwrap();
            cat.insert_many(&pool, tid, vec![row(5, "e", 0.5)]).unwrap();
            cat.check_integrity(&pool).unwrap();
            contents(&pool, &cat, tid)
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn a_refused_row_is_left_unstaged() {
        // A caller that goes on after a refusal writes the rows staged
        // around the refused one, and nothing of it.
        let row = |oid: i64, url: &str, body: &str| {
            vec![
                Value::Int(oid),
                Value::Str(url.into()),
                Value::Str(body.into()),
            ]
        };
        let build = |refused: bool| {
            let pool = BufferPool::new(DiskManager::in_memory(), 32, EvictionPolicy::Lru);
            let mut cat = Catalog::new();
            let cols = [
                ("oid", ColumnType::Int),
                ("url", ColumnType::Str),
                ("body", ColumnType::Str),
            ];
            let tid = cat.create_table(&pool, "page", Schema::new(cols)).unwrap();
            cat.create_index(&pool, "byoid", "page", &["oid"]).unwrap();
            cat.create_index(&pool, "byurl", "page", &["url"]).unwrap();
            let rid = cat.insert_row(&pool, tid, row(1, "a", "")).unwrap();
            let mut batch = cat.batch(&pool, tid);
            if refused {
                // Refused at the second index, after the first took its
                // key; and refused for its record, after both did.
                let long_key = row(2, &"\0".repeat(2100), "");
                let huge = row(2, "b", &"x".repeat(crate::page::PAGE_SIZE));
                for (r, key) in [(long_key, true), (huge, false)] {
                    let refusal = |res: DbResult<bool>| match res {
                        Err(DbError::KeyTooLarge(_)) => key,
                        Err(DbError::RecordTooLarge(_)) => !key,
                        _ => false,
                    };
                    let res = batch.insert_with(|fill| {
                        fill.clone_from(&r);
                        Ok(true)
                    });
                    assert!(refusal(res));
                    let res = batch.update_with(rid, |new| {
                        new.clone_from(&r);
                        Ok(true)
                    });
                    assert!(refusal(res));
                }
            }
            let res = batch.insert_with(|fill| {
                *fill = row(3, "c", "three");
                Ok(true)
            });
            res.unwrap();
            let res = batch.update_with(rid, |new| {
                new[1] = Value::Str("a2".into());
                Ok(true)
            });
            res.unwrap();
            batch.write().unwrap();
            cat.check_integrity(&pool).unwrap();
            contents(&pool, &cat, tid)
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn a_schema_violation_anywhere_is_what_a_batch_reports() {
        // Every row's schema is checked before any key or record size:
        // the over-long key ahead of the bad row is not what is reported.
        let (pool, mut cat, tid) = setup();
        cat.create_index(&pool, "byurl", "crawl", &["url"]).unwrap();
        let row = |oid: i64| {
            vec![
                Value::Int(oid),
                Value::Str(oid.to_string()),
                Value::Float(0.0),
            ]
        };
        let bad = vec![
            Value::Str("1".into()),
            Value::Str("u".into()),
            Value::Float(0.0),
        ];
        let res = cat.insert_many(&pool, tid, vec![long_key_row(1), bad.clone()]);
        assert!(matches!(res, Err(DbError::Schema(_))), "{res:?}");
        let rids = cat
            .insert_many(&pool, tid, vec![row(2), row(3)])
            .unwrap()
            .to_vec();
        let updates = vec![(rids[0], row(2), long_key_row(2)), (rids[1], row(3), bad)];
        let res = cat.update_many(&pool, tid, updates);
        assert!(matches!(res, Err(DbError::Schema(_))), "{res:?}");
        assert_eq!(agreement(&pool, &cat, tid), (2, 2, 2));
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
        let res = cat.batch(&pool, tid).update_with(rid, |row| {
            *row = long_key_row(9);
            Ok(true)
        });
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
        let rids = cat
            .insert_many(&pool, tid, vec![ok(1), ok(2)])
            .unwrap()
            .to_vec();
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
