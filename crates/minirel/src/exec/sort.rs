//! Sorting: [`sort_rows`] in memory, and [`external_sort`], which spills
//! sorted runs through the buffer pool once its input passes a budget.
//!
//! SQL's `ORDER BY` sorts with [`sort_rows`]: its input is already a
//! materialized `Vec<Row>`, and a read statement must allocate no store
//! pages. [`external_sort`] serves the bulk probe and the test oracle.
//!
//! Sort keys are turned into memcomparable byte strings (descending
//! directions bit-flip the component), so both the in-memory comparator
//! and the k-way merge heap compare plain `Vec<u8>`.
//!
//! External spill is what couples `BulkProbe` to the buffer-pool size in
//! the Figure 8(b) reproduction: run generation writes pages, merging
//! reads them back, and a small pool turns that traffic into physical I/O.

use crate::buffer::BufferPool;
use crate::error::DbResult;
use crate::exec::expr::Expr;
use crate::heap::HeapFile;
use crate::page::{PageId, SlottedRef};
use crate::value::{decode_row, encode_row, Row};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One sort key: an expression and a direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression over the input row.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

impl SortKey {
    /// Ascending key on column `i`.
    pub fn asc(i: usize) -> SortKey {
        SortKey {
            expr: Expr::Col(i),
            desc: false,
        }
    }
}

/// Compute the memcomparable sort key of `row`.
fn key_bytes(row: &Row, keys: &[SortKey]) -> DbResult<Vec<u8>> {
    let mut out = Vec::with_capacity(keys.len() * 9);
    for k in keys {
        let v = k.expr.eval(row)?;
        let start = out.len();
        v.encode_sort_key(&mut out);
        if k.desc {
            for b in &mut out[start..] {
                *b = !*b;
            }
        }
    }
    Ok(out)
}

/// In-memory sort of `rows` by `keys` (stable).
pub fn sort_rows(mut rows: Vec<Row>, keys: &[SortKey]) -> DbResult<Vec<Row>> {
    let mut keyed: Vec<(Vec<u8>, Row)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        keyed.push((key_bytes(&row, keys)?, row));
    }
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Streaming reader over a spilled run.
struct RunReader {
    pages: Vec<PageId>,
    page_idx: usize,
    slot: u16,
}

impl RunReader {
    fn next(&mut self, pool: &BufferPool) -> DbResult<Option<Row>> {
        while self.page_idx < self.pages.len() {
            let pid = self.pages[self.page_idx];
            let slot = self.slot;
            let rec = pool.with_page(pid, |b| {
                let s = SlottedRef(b);
                if slot < s.slot_count() {
                    s.record(slot).map(<[u8]>::to_vec)
                } else {
                    None
                }
            })?;
            match rec {
                Some(bytes) => {
                    self.slot += 1;
                    return Ok(Some(decode_row(&bytes)?));
                }
                None => {
                    // Either a tombstone (runs have none) or end of page.
                    let exhausted =
                        pool.with_page(pid, |b| self.slot >= SlottedRef(b).slot_count())?;
                    if exhausted {
                        self.page_idx += 1;
                        self.slot = 0;
                    } else {
                        self.slot += 1;
                    }
                }
            }
        }
        Ok(None)
    }
}

/// External sort: when `rows` exceeds `mem_budget_rows`, sorted runs are
/// spilled as heap pages through `pool` and k-way merged back. Temp pages
/// are not reclaimed (the paged file only grows), mirroring sort spill
/// space of the era's engines between reorgs.
pub fn external_sort(
    pool: &BufferPool,
    rows: Vec<Row>,
    keys: &[SortKey],
    mem_budget_rows: usize,
) -> DbResult<Vec<Row>> {
    let budget = mem_budget_rows.max(2);
    if rows.len() <= budget {
        return sort_rows(rows, keys);
    }
    // Run generation.
    let mut readers: Vec<RunReader> = Vec::new();
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Row> = it.by_ref().take(budget).collect();
        if chunk.is_empty() {
            break;
        }
        let sorted = sort_rows(chunk, keys)?;
        let mut run = HeapFile::create(pool)?;
        for row in &sorted {
            run.insert(pool, &encode_row(row))?;
        }
        readers.push(RunReader {
            pages: run.pages().to_vec(),
            page_idx: 0,
            slot: 0,
        });
    }
    // K-way merge on (key, run_idx) min-heap.
    let mut heap: BinaryHeap<Reverse<(Vec<u8>, usize)>> = BinaryHeap::new();
    let mut pending: Vec<Option<Row>> = Vec::with_capacity(readers.len());
    for (i, r) in readers.iter_mut().enumerate() {
        match r.next(pool)? {
            Some(row) => {
                heap.push(Reverse((key_bytes(&row, keys)?, i)));
                pending.push(Some(row));
            }
            None => pending.push(None),
        }
    }
    let mut out = Vec::new();
    while let Some(Reverse((_, i))) = heap.pop() {
        let row = pending[i].take().expect("pending row for popped run");
        out.push(row);
        if let Some(next) = readers[i].next(pool)? {
            heap.push(Reverse((key_bytes(&next, keys)?, i)));
            pending[i] = Some(next);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::DiskManager;
    use crate::value::Value;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
    }

    fn desc(i: usize) -> SortKey {
        SortKey {
            expr: Expr::Col(i),
            desc: true,
        }
    }

    fn rows_of(vals: &[(i64, f64)]) -> Vec<Row> {
        vals.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Float(b)])
            .collect()
    }

    #[test]
    fn in_memory_sort_asc_desc() {
        let rows = rows_of(&[(3, 0.1), (1, 0.9), (2, 0.5), (1, 0.2)]);
        let sorted = sort_rows(rows.clone(), &[SortKey::asc(0), desc(1)]).unwrap();
        let got: Vec<(i64, f64)> = sorted
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap()))
            .collect();
        assert_eq!(got, vec![(1, 0.9), (1, 0.2), (2, 0.5), (3, 0.1)]);
    }

    #[test]
    fn expression_keys() {
        use crate::exec::expr::{BinOp, Expr};
        let rows = rows_of(&[(5, 0.0), (2, 0.0), (8, 0.0)]);
        // Sort by -col0 via expression == descending col0.
        let key = SortKey {
            expr: Expr::bin(BinOp::Sub, Expr::Lit(Value::Int(0)), Expr::Col(0)),
            desc: false,
        };
        let sorted = sort_rows(rows, &[key]).unwrap();
        let got: Vec<i64> = sorted.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![8, 5, 2]);
    }

    #[test]
    fn external_matches_in_memory() {
        let bp = pool(8);
        let n = 3000;
        let mut rows = Vec::new();
        let mut x: i64 = 42;
        for _ in 0..n {
            x = (x * 1103515245 + 12345) % 10_007;
            rows.push(vec![Value::Int(x), Value::Float((x % 97) as f64)]);
        }
        let keys = [SortKey::asc(0)];
        let expect = sort_rows(rows.clone(), &keys).unwrap();
        let got = external_sort(&bp, rows, &keys, 100).unwrap();
        assert_eq!(got, expect);
        assert!(bp.stats().physical_writes > 0, "must have spilled runs");
    }

    #[test]
    fn external_desc_with_strings() {
        let bp = pool(8);
        let rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Str(format!("url-{:04}", (i * 37) % 500))])
            .collect();
        let keys = [desc(0)];
        let got = external_sort(&bp, rows, &keys, 50).unwrap();
        for w in got.windows(2) {
            assert!(w[0][0] >= w[1][0]);
        }
        assert_eq!(got.len(), 500);
    }

    #[test]
    fn small_input_does_not_spill() {
        let bp = pool(8);
        bp.reset_stats();
        let rows = rows_of(&[(2, 0.0), (1, 0.0)]);
        let got = external_sort(&bp, rows, &[SortKey::asc(0)], 100).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(bp.stats().physical_writes, 0);
    }

    #[test]
    fn nulls_sort_first() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(-5)]];
        let sorted = sort_rows(rows, &[SortKey::asc(0)]).unwrap();
        assert_eq!(sorted[0][0], Value::Null);
        assert_eq!(sorted[1][0], Value::Int(-5));
    }

    #[test]
    fn smaller_budget_spills_more() {
        let io_with_budget = |budget: usize| {
            let bp = pool(4);
            let rows: Vec<Row> = (0..2000)
                .map(|i| vec![Value::Int((i * 7919) % 2000)])
                .collect();
            bp.reset_stats();
            external_sort(&bp, rows, &[SortKey::asc(0)], budget).unwrap();
            bp.stats().physical_reads + bp.stats().physical_writes
        };
        let tight = io_with_budget(50);
        let loose = io_with_budget(4000);
        assert!(tight > loose, "tight {tight} <= loose {loose}");
        assert_eq!(loose, 0);
    }
}
