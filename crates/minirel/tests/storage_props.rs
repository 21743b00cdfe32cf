//! Model-based property tests of the storage primitives: the B+tree
//! against `BTreeMap`, external sort against `sort`, merge join against
//! hash join, and codec round trips.

use minirel::btree::{BTree, Entries, Hits, MAX_KEY_LEN};
use minirel::buffer::{BufferPool, EvictionPolicy};
use minirel::disk::DiskManager;
use minirel::exec::{external_sort, hash_join, merge_join, sort_rows, Expr, SortKey};
use minirel::value::{decode_row, encode_composite_key, encode_row, Row, Value};
use minirel::Rid;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

fn pool(frames: usize) -> BufferPool {
    BufferPool::new(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
}

/// A sorted model batch as the tree's batch type.
fn entries(batch: &[(Vec<u8>, Rid)]) -> Entries {
    batch.iter().map(|(k, r)| (k, *r)).collect()
}

/// The key stored under index `k`. Every third is an int; the rest are
/// zero-padded strings of 1–400 bytes, a few of them at or just under
/// the longest key an index accepts. `grow` appends up to that many
/// bytes, so the grown key sorts right behind the original (same leaf).
fn model_key(k: u32, grow: usize) -> Vec<u8> {
    if k.is_multiple_of(3) && grow == 0 {
        return encode_composite_key(&[Value::Int(i64::from(k))]);
    }
    // (A string key is its text plus a tag byte and a two-byte terminator.)
    let longest = MAX_KEY_LEN - 3;
    let width = match k % 97 {
        1 => longest - (k % 4) as usize,
        _ => 1 + (k as usize * 7919) % 400,
    };
    let mut text = format!("{k:0width$}");
    text.push_str(&"~".repeat(grow.min(longest - text.len())));
    encode_composite_key(&[Value::Str(text)])
}

/// A join key: NULL, a small int, or a float that is either an int's
/// equal (`Int(2) = Float(2.0)`) or between two ints.
fn join_key() -> impl Strategy<Value = Value> {
    (0..14i64).prop_map(|k| match k {
        0 => Value::Null,
        1..=7 => Value::Int(k - 1),
        _ => Value::Float((k - 8) as f64 / 2.0),
    })
}

fn model_rid(r: u32) -> Rid {
    Rid {
        page: r,
        slot: (r % 3) as u16,
    }
}

type Model = BTreeMap<(Vec<u8>, Rid), ()>;

/// Sorted, deduplicated `(key, rid)` batch for the `*_many` entry points.
fn model_batch(pairs: &[(u32, u32)], grow: usize) -> Vec<(Vec<u8>, Rid)> {
    let mut batch: Vec<(Vec<u8>, Rid)> = pairs
        .iter()
        .map(|&(k, r)| (model_key(k, grow), model_rid(r)))
        .collect();
    batch.sort_unstable();
    batch.dedup();
    batch
}

fn bound(kind: u8, key: &[u8]) -> Bound<&[u8]> {
    match kind {
        0 => Bound::Included(key),
        1 => Bound::Excluded(key),
        _ => Bound::Unbounded,
    }
}

/// What the model holds between `lo` and `hi`.
fn model_range(model: &Model, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<(Vec<u8>, Rid)> {
    let inside = |k: &[u8]| {
        let after_lo = match lo {
            Bound::Included(l) => k >= l,
            Bound::Excluded(l) => k > l,
            Bound::Unbounded => true,
        };
        let before_hi = match hi {
            Bound::Included(h) => k <= h,
            Bound::Excluded(h) => k < h,
            Bound::Unbounded => true,
        };
        after_lo && before_hi
    };
    (model.keys().filter(|(k, _)| inside(k)).cloned()).collect()
}

/// What the tree holds between `lo` and `hi`: a `scan_from` of the low
/// key that skips what an excluded bound leaves out and stops past `hi`.
fn tree_range(
    bt: &BTree,
    bp: &BufferPool,
    lo: Bound<&[u8]>,
    hi: Bound<&[u8]>,
) -> Vec<(Vec<u8>, Rid)> {
    let from = match lo {
        Bound::Included(k) | Bound::Excluded(k) => k,
        Bound::Unbounded => &[],
    };
    let mut out = Vec::new();
    bt.scan_from(bp, from, |k, rid| {
        let before_hi = (Bound::Unbounded, hi).contains(&k);
        if before_hi && (lo, hi).contains(&k) {
            out.push((k.to_vec(), rid));
        }
        before_hi
    })
    .unwrap();
    out
}

/// Up to `n` entries at or after `key`: a `scan_from` that stops
/// after `n`.
fn first_n(bt: &BTree, bp: &BufferPool, key: &[u8], n: usize) -> Vec<(Vec<u8>, Rid)> {
    let mut out = Vec::new();
    if n > 0 {
        let scanned = bt.scan_from(bp, key, |k, rid| {
            out.push((k.to_vec(), rid));
            out.len() < n
        });
        scanned.unwrap();
    }
    out
}

/// Single and batched mutations and every read path, over key indexes
/// `0..KEY_DOMAIN`.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Delete(u32, u32),
    InsertMany(Vec<(u32, u32)>),
    DeleteMany(Vec<(u32, u32)>),
    LookupMany(Vec<u32>),
    /// `(lo kind, lo key, hi kind, hi key)`; kinds as in [`bound`].
    Scan(u8, u32, u8, u32),
    FirstN(u32, usize),
    /// Pop the first `n` entries at or after a key, as the crawl
    /// frontier's claim does: a `scan_from`, then a `delete_many`.
    PopFront(u32, usize),
    /// Delete every entry in `[lo, hi]`, emptying the leaves between,
    /// then (if asked) insert a few keys back into the emptied range.
    DeleteRange(u32, u32, bool),
}

/// Wide enough that a few thousand entries of ~200-byte keys build a
/// three-level tree (about a dozen cells per node).
const KEY_DOMAIN: u32 = 4000;

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let pair = || (0..KEY_DOMAIN, 0..4u32);
    let batch = || proptest::collection::vec(pair(), 1..80);
    // Inserts listed twice: the tree must grow to be worth reading.
    let op = prop_oneof![
        pair().prop_map(|(k, r)| Op::Insert(k, r)),
        pair().prop_map(|(k, r)| Op::Delete(k, r)),
        batch().prop_map(Op::InsertMany),
        batch().prop_map(Op::InsertMany),
        batch().prop_map(Op::DeleteMany),
        proptest::collection::vec(0..KEY_DOMAIN, 1..40).prop_map(Op::LookupMany),
        (0..3u8, 0..KEY_DOMAIN, 0..3u8, 0..KEY_DOMAIN)
            .prop_map(|(lk, lo, hk, hi)| Op::Scan(lk, lo, hk, hi)),
        (0..KEY_DOMAIN, 0..12usize).prop_map(|(k, n)| Op::FirstN(k, n)),
        (0..KEY_DOMAIN, 1..40usize).prop_map(|(k, n)| Op::PopFront(k, n)),
        (0..KEY_DOMAIN, 0..KEY_DOMAIN / 4, any::<bool>())
            .prop_map(|(lo, width, refill)| Op::DeleteRange(lo, lo + width, refill)),
    ];
    proptest::collection::vec(op, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn btree_matches_btreemap_model(ops in ops_strategy(), frames in 2usize..16) {
        let bp = pool(frames);
        let mut bt = BTree::create(&bp).unwrap();
        let mut model = Model::new();
        for op in &ops {
            match op {
                &Op::Insert(k, r) => {
                    let (key, rid) = (model_key(k, 0), model_rid(r));
                    bt.insert(&bp, &key, rid).unwrap();
                    model.insert((key, rid), ());
                }
                &Op::Delete(k, r) => {
                    let (key, rid) = (model_key(k, 0), model_rid(r));
                    let in_tree = bt.delete_many(&bp, &entries(&[(key.clone(), rid)])).unwrap() == 1;
                    prop_assert_eq!(in_tree, model.remove(&(key, rid)).is_some());
                }
                Op::InsertMany(pairs) => {
                    let batch = model_batch(pairs, 0);
                    bt.insert_many(&bp, &entries(&batch)).unwrap();
                    model.extend(batch.into_iter().map(|e| (e, ())));
                }
                Op::DeleteMany(pairs) => {
                    let batch = model_batch(pairs, 0);
                    let removed = bt.delete_many(&bp, &entries(&batch)).unwrap();
                    let in_model = batch.iter().filter(|e| model.remove(e).is_some()).count();
                    prop_assert_eq!(removed, in_model);
                }
                Op::LookupMany(ks) => {
                    let mut keys: Vec<Vec<u8>> = ks.iter().map(|&k| model_key(k, 0)).collect();
                    keys.sort_unstable();
                    let mut got = Hits::default();
                    bt.lookup_many(&bp, &keys, &mut got).unwrap();
                    prop_assert_eq!(got.len(), keys.len());
                    for (key, rids) in keys.iter().zip(got.iter()) {
                        let key = key.as_slice();
                        let expect = model_range(&model, Bound::Included(key), Bound::Included(key));
                        let expect: Vec<Rid> = expect.into_iter().map(|(_, r)| r).collect();
                        prop_assert_eq!(rids, &expect[..]);
                        prop_assert_eq!(bt.lookup(&bp, key).unwrap(), expect);
                    }
                }
                &Op::Scan(lo_kind, lo, hi_kind, hi) => {
                    let (lo, hi) = (model_key(lo, 0), model_key(hi, 0));
                    let (lo, hi) = (bound(lo_kind, &lo), bound(hi_kind, &hi));
                    prop_assert_eq!(tree_range(&bt, &bp, lo, hi), model_range(&model, lo, hi));
                }
                &Op::FirstN(k, n) => {
                    let key = model_key(k, 0);
                    let mut expect = model_range(&model, Bound::Included(&key), Bound::Unbounded);
                    expect.truncate(n);
                    prop_assert_eq!(first_n(&bt, &bp, &key, n), expect);
                }
                &Op::PopFront(k, n) => {
                    let key = model_key(k, 0);
                    let mut expect = model_range(&model, Bound::Included(&key), Bound::Unbounded);
                    expect.truncate(n);
                    bp.reset_stats();
                    let popped = first_n(&bt, &bp, &key, n);
                    let scanned = bp.stats().logical_reads;
                    prop_assert_eq!(&popped, &expect);
                    // Every leaf past the first holds an entry, so the
                    // scan reads the descent, whose last read is the
                    // first leaf, and at most one more leaf per entry; a
                    // lookup reads at least the descent.
                    bp.reset_stats();
                    bt.lookup(&bp, popped.first().map_or(&key, |(k, _)| k)).unwrap();
                    let levels = bp.stats().logical_reads;
                    prop_assert!(
                        scanned <= levels + n as u64,
                        "popping {} read {} pages, a descent {}", n, scanned, levels
                    );
                    prop_assert_eq!(bt.delete_many(&bp, &entries(&popped)).unwrap(), popped.len());
                    popped.iter().for_each(|e| { model.remove(e); });
                }
                &Op::DeleteRange(lo, hi, refill) => {
                    let (lo, hi) = (model_key(lo, 0), model_key(hi, 0));
                    let range = (Bound::Included(&lo[..]), Bound::Included(&hi[..]));
                    let doomed = model_range(&model, range.0, range.1);
                    prop_assert_eq!(bt.delete_many(&bp, &entries(&doomed)).unwrap(), doomed.len());
                    doomed.iter().for_each(|e| { model.remove(e); });
                    prop_assert!(tree_range(&bt, &bp, range.0, range.1).is_empty());
                    if refill {
                        bt.validate(&bp).unwrap();
                        let back: Vec<_> = doomed.into_iter().step_by(7).collect();
                        bt.insert_many(&bp, &entries(&back)).unwrap();
                        model.extend(back.into_iter().map(|e| (e, ())));
                    }
                }
            }
            bt.validate(&bp).unwrap();
        }
        prop_assert_eq!(bt.len() as usize, model.len());
        bt.validate(&bp).unwrap();

        // Churn: delete four entries in five, then put longer keys right
        // behind where they were. The leaves are full of holes by then,
        // so the re-inserts only fit by compacting nodes in place.
        let doomed: Vec<(Vec<u8>, Rid)> = (model.keys().enumerate())
            .filter(|(i, _)| i % 5 != 0)
            .map(|(_, e)| e.clone())
            .collect();
        for chunk in doomed.chunks(64) {
            prop_assert_eq!(bt.delete_many(&bp, &entries(chunk)).unwrap(), chunk.len());
        }
        model.retain(|e, ()| doomed.binary_search(e).is_err());
        bt.validate(&bp).unwrap();
        let pairs: Vec<(u32, u32)> = (0..KEY_DOMAIN).step_by(3).map(|k| (k + 1, k % 4)).collect();
        for (i, chunk) in pairs.chunks(50).enumerate() {
            let batch = model_batch(chunk, 150);
            if i % 2 == 0 {
                bt.insert_many(&bp, &entries(&batch)).unwrap();
            } else {
                for (key, rid) in &batch {
                    bt.insert(&bp, key, *rid).unwrap();
                }
            }
            model.extend(batch.into_iter().map(|e| (e, ())));
        }
        prop_assert_eq!(bt.len() as usize, model.len());
        bt.validate(&bp).unwrap();
        let all = tree_range(&bt, &bp, Bound::Unbounded, Bound::Unbounded);
        prop_assert_eq!(all, model_range(&model, Bound::Unbounded, Bound::Unbounded));
    }

    /// A sorted batch of every distinct key reads each node at most
    /// once, wherever the leaf boundaries fall and however many leaves a
    /// key's entries span: a leaf a spill reads also serves the keys
    /// after the spilled one that it holds.
    #[test]
    fn lookup_many_of_every_key_reads_no_node_twice(
        pairs in proptest::collection::vec((0..KEY_DOMAIN, 0..8u32), 1..600),
        one_by_one in any::<bool>(),
    ) {
        let bp = pool(8);
        let mut bt = BTree::create(&bp).unwrap();
        let batch = model_batch(&pairs, 0);
        if one_by_one {
            for (key, rid) in &batch {
                bt.insert(&bp, key, *rid).unwrap();
            }
        } else {
            bt.insert_many(&bp, &entries(&batch)).unwrap();
        }
        let mut keys: Vec<Vec<u8>> = batch.into_iter().map(|(k, _)| k).collect();
        keys.dedup();
        bp.reset_stats();
        let mut got = Hits::default();
        bt.lookup_many(&bp, &keys, &mut got).unwrap();
        prop_assert!(got.iter().all(|rids| !rids.is_empty()));
        // The tree is the pool's only tenant and frees no page, so its
        // nodes, internal and leaf, are every page the pool allocated.
        let nodes = u64::from(bp.num_pages());
        let reads = bp.stats().logical_reads;
        prop_assert!(reads <= nodes, "{} keys read {} pages of a {}-node tree", keys.len(), reads, nodes);
    }

    #[test]
    fn external_sort_equals_std_sort(
        vals in proptest::collection::vec((any::<i32>(), -1e6..1e6f64), 0..400),
        budget in 2usize..64,
    ) {
        let rows: Vec<Row> = vals
            .iter()
            .map(|&(a, b)| vec![Value::Int(a as i64), Value::Float(b)])
            .collect();
        let desc = SortKey {
            expr: Expr::Col(1),
            desc: true,
        };
        let keys = [SortKey::asc(0), desc];
        let bp = pool(8);
        let got = external_sort(&bp, rows.clone(), &keys, budget).unwrap();
        let expect = sort_rows(rows, &keys).unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn merge_join_equals_hash_join(
        left in proptest::collection::vec((join_key(), join_key()), 0..60),
        right in proptest::collection::vec((join_key(), join_key()), 0..60),
        composite in any::<bool>(),
        outer in any::<bool>(),
    ) {
        // Rows are `[k0, k1, position]`; the key is k0, or (k0, k1).
        let rows = |keys: &[(Value, Value)]| -> Vec<Row> {
            keys.iter()
                .enumerate()
                .map(|(i, (a, b))| vec![a.clone(), b.clone(), Value::Int(i as i64)])
                .collect()
        };
        let (l, r) = (rows(&left), rows(&right));
        let keys: &[usize] = if composite { &[0, 1] } else { &[0] };
        // The merge join wants its inputs in `Value` order, which (unlike
        // the sort operators' byte keys) interleaves ints and floats.
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| keys.iter().map(|&k| a[k].cmp(&b[k])).fold(
                std::cmp::Ordering::Equal,
                std::cmp::Ordering::then,
            ));
            rows
        };
        let (ls, rs) = (sorted(l.clone()), sorted(r.clone()));
        // The merge's runs as `hash_join` rows: `left ++ right` per match,
        // and an outer join pads a left row whose run is empty.
        let mut merged = Vec::new();
        merge_join(&ls, &rs, keys, keys, |l, run| {
            merged.extend(run.iter().map(|r| [l.as_slice(), r].concat()));
            if outer && run.is_empty() {
                merged.push([l.as_slice(), &[Value::Null, Value::Null, Value::Null]].concat());
            }
        })
        .unwrap();
        let mut hashed = Vec::new();
        hash_join(&l, &r, keys, keys, outer.then_some(3), |row| {
            hashed.push(std::mem::take(row));
            Ok(())
        })
        .unwrap();
        let key = |row: &Row| row.iter().map(|v| format!("{v:?}|")).collect::<String>();
        merged.sort_by_key(|r| key(r));
        hashed.sort_by_key(|r| key(r));
        prop_assert_eq!(merged, hashed);
    }

    #[test]
    fn row_codec_roundtrips(
        ints in proptest::collection::vec(any::<i64>(), 0..6),
        text in "[a-zA-Z0-9 /:.?=-]{0,60}",
        f in any::<f64>(),
    ) {
        let mut row: Row = ints.into_iter().map(Value::Int).collect();
        row.push(Value::Str(text));
        if !f.is_nan() {
            row.push(Value::Float(f));
        }
        row.push(Value::Null);
        let decoded = decode_row(&encode_row(&row)).unwrap();
        prop_assert_eq!(decoded, row);
    }

    #[test]
    fn key_encoding_is_order_preserving_for_ints(a in any::<i64>(), b in any::<i64>()) {
        let ka = encode_composite_key(&[Value::Int(a)]);
        let kb = encode_composite_key(&[Value::Int(b)]);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    #[test]
    fn key_encoding_is_order_preserving_for_strings(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let ka = encode_composite_key(&[Value::Str(a.clone())]);
        let kb = encode_composite_key(&[Value::Str(b.clone())]);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    #[test]
    fn composite_key_order_is_lexicographic(
        a1 in 0..10i64, a2 in 0..10i64, b1 in 0..10i64, b2 in 0..10i64,
    ) {
        let ka = encode_composite_key(&[Value::Int(a1), Value::Int(a2)]);
        let kb = encode_composite_key(&[Value::Int(b1), Value::Int(b2)]);
        prop_assert_eq!((a1, a2).cmp(&(b1, b2)), ka.cmp(&kb));
    }
}
