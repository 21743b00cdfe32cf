//! B+tree secondary indexes over the buffer pool.
//!
//! Keys are memcomparable byte strings (see [`crate::value::encode_composite_key`]);
//! payloads are record ids. Duplicate keys are allowed — `(key, rid)` pairs
//! are unique, and `(key, rid)` is the one order every node uses: leaf
//! entries sort by it, separators are `(key, rid)` pairs, and descent,
//! point lookup, insert/delete position, batch partitioning and the start
//! of a range scan are all the same binary search over a node's slots.
//! Every node visit goes through the buffer pool, so index probes are
//! charged to the physical-I/O counters; this is what makes the
//! `SingleProbe` classifier path of Figure 8(a/b) honest: *"there is little
//! locality of access, because the records are small and most storage
//! managers use page-level caching."*
//!
//! # Node layout
//!
//! One node is one 4 KB page, slotted like a heap page:
//!
//! ```text
//! 0      1       3              7         9        11
//! +------+-------+--------------+---------+--------+----------------+
//! | type | count | next/leftmost| cells   | live   | slot[0..count] |→
//! +------+-------+--------------+---------+--------+----------------+
//! |                  free space                                     |
//! +---------------------------------------------+-------------------+
//!                                              ←| cells … page end  |
//!                                               +-------------------+
//! cell = klen u16 | key | rid (page u32, slot u16) | child u32 (internal only)
//! ```
//!
//! * `slot[i]` is the `u16` page offset of the i-th cell in `(key, rid)`
//!   order; the directory grows up, cells grow down from the page end.
//! * `cells` is the lowest cell offset, `live` the bytes of cells a slot
//!   still points at. An insert writes its cell at `cells - size` and
//!   shifts at most `2·count` slot bytes; a delete only drops the slot, so
//!   the hole it leaves is reclaimed when an insert needs the space (the
//!   node is rewritten packed — compaction — once `live` says it will fit).
//! * An internal node's `leftmost` child holds everything below
//!   `slot[0]`; the child in cell i holds `[cell i, cell i+1)`. A leaf's
//!   `next` chains the leaves in key order.
//! * Opening a node checks the header in O(1); every slot and cell read
//!   after that is bounds-checked, so a corrupt page surfaces as
//!   [`DbError::Page`] — never a panic, never an out-of-bounds read.
//! * A key may be at most [`MAX_KEY_LEN`] bytes, so that any node holds at
//!   least four cells and a split always has entries for both halves.
//!
//! Deletion is lazy (no rebalancing/merging): pages may underflow but never
//! violate ordering invariants. The workloads here delete far less than
//! they insert, matching the paper's crawl tables.

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::heap::Rid;
use crate::page::{get_u16, put_u16, PageId, INVALID_PAGE, PAGE_SIZE};
use std::cmp::Ordering;
use std::ops::Bound;

/// Node-type bytes. 0 and 1 tagged the packed layout of earlier store
/// files, so such a page (like a zeroed one) is rejected, not misread.
const LEAF: u8 = 2;
const INTERNAL: u8 = 3;

/// Header bytes before the slot directory (see the module docs).
const HDR: usize = 11;
const SLOT: usize = 2;
const RID_LEN: usize = 6;
const CHILD_LEN: usize = 4;

/// Longest key an index accepts: four maximal internal cells (slot,
/// length prefix, key, rid, child) fit one node.
pub const MAX_KEY_LEN: usize = (PAGE_SIZE - HDR) / 4 - (SLOT + 2 + RID_LEN + CHILD_LEN);

/// Splits fill nodes to this many bytes, so a freshly split node absorbs
/// more inserts before splitting again (a 100%-full chunk would split on
/// the very next insert).
const SPLIT_FILL: usize = (PAGE_SIZE * 2) / 3;

/// Bounds of the rid half of the `(key, rid)` order.
const MIN_RID: Rid = Rid { page: 0, slot: 0 };
const MAX_RID: Rid = Rid {
    page: u32::MAX,
    slot: u16::MAX,
};

fn corrupt(msg: impl Into<String>) -> DbError {
    DbError::Page(msg.into())
}

/// Refuse a key longer than [`MAX_KEY_LEN`].
pub fn check_key(key: &[u8]) -> DbResult<()> {
    if key.len() > MAX_KEY_LEN {
        return Err(DbError::KeyTooLarge(key.len()));
    }
    Ok(())
}

fn u16_at(b: &[u8], off: usize) -> usize {
    usize::from(get_u16(b, off))
}

/// Offsets and counts within a page always fit a `u16`.
fn set_u16(b: &mut [u8], off: usize, v: usize) {
    put_u16(b, off, v as u16);
}

/// One entry of a node, borrowed from wherever its key lives (a page, a
/// caller's batch, a pending separator). `child` is meaningful in
/// internal nodes only.
#[derive(Clone, Copy)]
struct Cell<'a> {
    key: &'a [u8],
    rid: Rid,
    child: PageId,
}

impl<'a> Cell<'a> {
    fn entry(key: &'a [u8], rid: Rid) -> Cell<'a> {
        Cell {
            key,
            rid,
            child: INVALID_PAGE,
        }
    }

    /// The `(key, rid)` order against a probe.
    fn cmp_to(&self, key: &[u8], rid: Rid) -> Ordering {
        self.key.cmp(key).then_with(|| self.rid.cmp(&rid))
    }

    /// Bytes the cell occupies in a node of the given kind.
    fn size(&self, leaf: bool) -> usize {
        2 + self.key.len() + RID_LEN + if leaf { 0 } else { CHILD_LEN }
    }
}

/// Separator handed up by a split: `child` holds everything `>= (key, rid)`.
type Sep = (Vec<u8>, Rid, PageId);

fn sep_cells(seps: &[Sep]) -> Vec<Cell<'_>> {
    let cells = seps.iter().map(|(key, rid, child)| Cell {
        key,
        rid: *rid,
        child: *child,
    });
    cells.collect()
}

/// A sorted batch a descent routes, read by position: a lookup's keys,
/// an [`Entries`] batch, or cells handed up by a split.
trait Batch {
    fn cell(&self, i: usize) -> Cell<'_>;
}

/// Probe keys: each at the low end of its key's `(key, rid)` range.
impl<K: AsRef<[u8]>> Batch for [K] {
    fn cell(&self, i: usize) -> Cell<'_> {
        Cell::entry(self[i].as_ref(), MIN_RID)
    }
}

impl Batch for [Cell<'_>] {
    fn cell(&self, i: usize) -> Cell<'_> {
        self[i]
    }
}

impl Batch for Entries {
    fn cell(&self, i: usize) -> Cell<'_> {
        let (key, rid) = self.get(i);
        Cell::entry(key, rid)
    }
}

/// A batch of `(key, rid)` index entries for [`BTree::insert_many`] and
/// [`BTree::delete_many`], every key stored in one byte buffer. Cleared
/// and refilled batch after batch, it allocates only when a batch
/// outgrows every earlier one.
#[derive(Debug, Default)]
pub struct Entries {
    bytes: Vec<u8>,
    /// `(start, end)` of each key in `bytes`, and its rid.
    spans: Vec<(usize, usize, Rid)>,
}

impl Entries {
    /// Drop every entry, keeping the memory.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    /// [`Entries::clear`], handing back memory beyond `bytes` a buffer.
    pub(crate) fn clear_to(&mut self, bytes: usize) {
        clear_to(&mut self.bytes, bytes);
        clear_to(&mut self.spans, bytes);
    }

    /// Append `(key, rid)`.
    pub fn push(&mut self, key: &[u8], rid: Rid) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        self.spans.push((start, self.bytes.len(), rid));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Entry `i`.
    pub fn get(&self, i: usize) -> (&[u8], Rid) {
        let (start, end, rid) = self.spans[i];
        (&self.bytes[start..end], rid)
    }

    /// Give entry `i` the rid `rid`.
    pub(crate) fn set_rid(&mut self, i: usize, rid: Rid) {
        self.spans[i].2 = rid;
    }

    /// Exchange entries `i` and `j`.
    pub(crate) fn swap(&mut self, i: usize, j: usize) {
        self.spans.swap(i, j);
    }

    /// Keep the first `n` entries.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.spans.truncate(n);
    }

    /// Sort by `(key, rid)`, the order the batch operations take.
    pub fn sort(&mut self) {
        let bytes = &self.bytes;
        let key = |&(start, end, _): &(usize, usize, Rid)| &bytes[start..end];
        (self.spans).sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.2.cmp(&b.2)));
    }

    /// The entries in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Rid)> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl<K: AsRef<[u8]>> FromIterator<(K, Rid)> for Entries {
    fn from_iter<I: IntoIterator<Item = (K, Rid)>>(iter: I) -> Entries {
        let mut entries = Entries::default();
        for (key, rid) in iter {
            entries.push(key.as_ref(), rid);
        }
        entries
    }
}

/// What [`BTree::lookup_many`] found: each key's rids, in `(key, rid)`
/// order. Reused lookup after lookup, it allocates only when a batch
/// outgrows every earlier one.
#[derive(Debug, Default)]
pub struct Hits {
    /// Every key's rids, key after key.
    rids: Vec<Rid>,
    /// `ends[i]`: where key i's rids end in `rids`.
    ends: Vec<usize>,
    /// The descent's pending child runs (see [`Segs`]).
    segs: Segs,
}

impl Hits {
    /// Number of keys answered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no key was asked.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The rids under key `i`.
    pub fn get(&self, i: usize) -> &[Rid] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.rids[start..self.ends[i]]
    }

    /// Every key's rids, key after key.
    pub fn into_all(self) -> Vec<Rid> {
        self.rids
    }

    /// Each key's rids, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &[Rid]> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Forget every answer, keeping the memory.
    pub(crate) fn clear(&mut self) {
        self.rids.clear();
        self.ends.clear();
        self.segs.clear();
    }

    /// [`Hits::clear`], handing back memory beyond `bytes` a buffer.
    pub(crate) fn clear_to(&mut self, bytes: usize) {
        clear_to(&mut self.rids, bytes);
        clear_to(&mut self.ends, bytes);
        clear_to(&mut self.segs, bytes);
    }

    /// Where the current key's rids start: the end of the last answer.
    fn start(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Close the current key's answer.
    fn answer(&mut self) {
        self.ends.push(self.rids.len());
    }
}

/// A stack of `(child, lo, hi)` runs: each internal node a batch passes
/// through pushes the runs it splits the batch into, its recursion
/// serves them in order, and it pops them. One stack serves a whole
/// descent, and is kept for the next.
type Segs = Vec<(PageId, usize, usize)>;

/// Empty `v`, keeping at most `bytes` of its memory.
pub(crate) fn clear_to<T>(v: &mut Vec<T>, bytes: usize) {
    v.clear();
    v.shrink_to(bytes / std::mem::size_of::<T>().max(1));
}

fn rid_of(p: &[u8]) -> Rid {
    Rid {
        page: u32::from_le_bytes([p[0], p[1], p[2], p[3]]),
        slot: u16::from_le_bytes([p[4], p[5]]),
    }
}

/// A borrowed view of a node page whose header passed the O(1) check.
#[derive(Clone, Copy)]
struct Node<'a> {
    b: &'a [u8],
    leaf: bool,
    n: usize,
    /// Lowest cell offset: the slot directory may grow up to here.
    cells: usize,
    /// Bytes of cells a slot points at.
    live: usize,
}

impl<'a> Node<'a> {
    fn open(b: &'a [u8]) -> DbResult<Node<'a>> {
        let leaf = match b.first() {
            Some(&LEAF) => true,
            Some(&INTERNAL) => false,
            t => return Err(corrupt(format!("bad btree node type {t:?}"))),
        };
        if b.len() < HDR {
            return Err(corrupt("btree node shorter than its header"));
        }
        let (n, cells, live) = (u16_at(b, 1), u16_at(b, 7), u16_at(b, 9));
        if HDR + SLOT * n > cells || cells + live > b.len() {
            return Err(corrupt("btree node header out of range"));
        }
        Ok(Node {
            b,
            leaf,
            n,
            cells,
            live,
        })
    }

    fn expect_leaf(self) -> DbResult<Node<'a>> {
        if self.leaf {
            Ok(self)
        } else {
            Err(corrupt("expected a btree leaf"))
        }
    }

    /// `next` pointer of a leaf / `leftmost` child of an internal node.
    fn first(&self) -> PageId {
        u32::from_le_bytes([self.b[3], self.b[4], self.b[5], self.b[6]])
    }

    /// Bytes an insert may still use (slot included), holes counted in.
    fn free(&self) -> usize {
        self.b.len() - HDR - SLOT * self.n - self.live
    }

    /// Page offset of cell `i` (`i < n`, so the read is inside the
    /// directory the header check bounded).
    fn slot(&self, i: usize) -> usize {
        u16_at(self.b, HDR + SLOT * i)
    }

    /// `(key, rid ++ child)` bytes of cell `i`, bounds-checked.
    fn raw(&self, i: usize) -> DbResult<(&'a [u8], &'a [u8])> {
        let off = self.slot(i);
        let tail = RID_LEN + if self.leaf { 0 } else { CHILD_LEN };
        let body = (off >= self.cells)
            .then(|| self.b.get(off..off + 2))
            .flatten()
            .and_then(|l| self.b.get(off + 2..off + 2 + u16_at(l, 0) + tail))
            .ok_or_else(|| corrupt(format!("btree cell {i} at {off} lies outside the page")))?;
        Ok(body.split_at(body.len() - tail))
    }

    fn cell(&self, i: usize) -> DbResult<Cell<'a>> {
        let (key, p) = self.raw(i)?;
        let child = match self.leaf {
            true => INVALID_PAGE,
            false => u32::from_le_bytes([p[6], p[7], p[8], p[9]]),
        };
        Ok(Cell {
            key,
            rid: rid_of(p),
            child,
        })
    }

    fn all_cells(&self) -> DbResult<Vec<Cell<'a>>> {
        (0..self.n).map(|i| self.cell(i)).collect()
    }

    /// The one search: how many cells sort before `(key, rid)`, and
    /// whether the cell at that position equals it.
    fn search(&self, key: &[u8], rid: Rid) -> DbResult<(usize, bool)> {
        let (mut lo, mut hi) = (0, self.n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, p) = self.raw(mid)?;
            match k.cmp(key).then_with(|| rid_of(p).cmp(&rid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok((mid, true)),
                Ordering::Greater => hi = mid,
            }
        }
        Ok((lo, false))
    }

    /// Index of the child whose range contains `(key, rid)`: the number
    /// of separators `<=` it (an equal separator sends the search right).
    fn route(&self, key: &[u8], rid: Rid) -> DbResult<usize> {
        let (pos, exact) = self.search(key, rid)?;
        Ok(pos + usize::from(exact))
    }

    /// Child `idx` of an internal node: 0 is `leftmost`, i is cell i-1's.
    fn child_at(&self, idx: usize) -> DbResult<PageId> {
        match idx {
            0 => Ok(self.first()),
            i => Ok(self.cell(i - 1)?.child),
        }
    }

    /// Split the sorted `batch[lo..end]` among this internal node's
    /// children by the descent's routing rule, pushing `(child, lo, hi)`
    /// index ranges onto `segs`.
    fn partition<B: Batch + ?Sized>(
        &self,
        batch: &B,
        mut lo: usize,
        end: usize,
        segs: &mut Segs,
    ) -> DbResult<()> {
        while lo < end {
            let first = batch.cell(lo);
            let idx = self.route(first.key, first.rid)?;
            let mut hi = end;
            if idx < self.n {
                // The run ends at the first cell the next separator claims.
                let sep = self.cell(idx)?;
                let mut from = lo + 1;
                while from < hi {
                    let mid = (from + hi) / 2;
                    match batch.cell(mid).cmp_to(sep.key, sep.rid) {
                        Ordering::Less => from = mid + 1,
                        _ => hi = mid,
                    }
                }
            }
            segs.push((self.child_at(idx)?, lo, hi));
            lo = hi;
        }
        Ok(())
    }
}

/// Write `c` at `off`; returns the offset just past it.
fn put_cell(b: &mut [u8], off: usize, c: &Cell<'_>, leaf: bool) -> usize {
    let klen = c.key.len();
    set_u16(b, off, klen);
    b[off + 2..off + 2 + klen].copy_from_slice(c.key);
    let p = off + 2 + klen;
    b[p..p + 4].copy_from_slice(&c.rid.page.to_le_bytes());
    b[p + 4..p + 6].copy_from_slice(&c.rid.slot.to_le_bytes());
    if leaf {
        return p + RID_LEN;
    }
    b[p + 6..p + 10].copy_from_slice(&c.child.to_le_bytes());
    p + RID_LEN + CHILD_LEN
}

/// Format `b` as a node holding exactly the sorted `cells`, packed
/// against the page end with no holes.
fn write_node(b: &mut [u8], leaf: bool, first: PageId, cells: &[Cell<'_>]) -> DbResult<()> {
    write_cells(b, leaf, first, cells.len(), |i| Ok(cells[i]))
}

/// [`write_node`] of the `n` cells `cell(0..n)`, which must not borrow
/// from `b`.
fn write_cells<'c>(
    b: &mut [u8],
    leaf: bool,
    first: PageId,
    n: usize,
    cell: impl Fn(usize) -> DbResult<Cell<'c>>,
) -> DbResult<()> {
    let mut live = 0;
    for i in 0..n {
        live += cell(i)?.size(leaf);
    }
    if HDR + SLOT * n + live > b.len() {
        return Err(corrupt("btree cells exceed the page"));
    }
    let mut off = b.len() - live;
    b[0] = if leaf { LEAF } else { INTERNAL };
    set_u16(b, 1, n);
    b[3..7].copy_from_slice(&first.to_le_bytes());
    set_u16(b, 7, off);
    set_u16(b, 9, live);
    for i in 0..n {
        set_u16(b, HDR + SLOT * i, off);
        off = put_cell(b, off, &cell(i)?, leaf);
    }
    Ok(())
}

/// Outcome of an in-place insert attempt.
enum Placed {
    Inserted,
    Duplicate,
    /// The node is full even with its holes reclaimed: the caller splits.
    NoFit,
}

/// Insert `c` into the node `b` in place: one binary search, one cell
/// write, one slot shift. Holes left by deletes are compacted away only
/// when the contiguous free space is too small and they make up the rest.
fn place(b: &mut [u8], c: &Cell<'_>) -> DbResult<Placed> {
    let node = Node::open(b)?;
    let (pos, exact) = node.search(c.key, c.rid)?;
    if exact {
        return Ok(Placed::Duplicate);
    }
    let (leaf, n, mut live, mut cells) = (node.leaf, node.n, node.live, node.cells);
    let size = c.size(leaf);
    if SLOT + size > node.free() {
        return Ok(Placed::NoFit);
    }
    if SLOT + size > cells - (HDR + SLOT * n) {
        let mut old = [0u8; PAGE_SIZE];
        old.copy_from_slice(b);
        let node = Node::open(&old)?;
        write_cells(b, leaf, node.first(), n, |i| node.cell(i))?;
        (cells, live) = (u16_at(b, 7), u16_at(b, 9));
        if SLOT + size > cells - (HDR + SLOT * n) {
            return Err(corrupt("btree live-byte count below the cells' sizes"));
        }
    }
    cells -= size;
    put_cell(b, cells, c, leaf);
    let at = HDR + SLOT * pos;
    b.copy_within(at..HDR + SLOT * n, at + SLOT);
    set_u16(b, at, cells);
    set_u16(b, 1, n + 1);
    set_u16(b, 7, cells);
    set_u16(b, 9, live + size);
    Ok(Placed::Inserted)
}

/// Remove `(key, rid)` from the leaf `b` by dropping its slot (the cell
/// bytes stay behind as a hole); returns whether it existed.
fn unplace(b: &mut [u8], key: &[u8], rid: Rid) -> DbResult<bool> {
    let node = Node::open(b)?.expect_leaf()?;
    let (pos, exact) = node.search(key, rid)?;
    if !exact {
        return Ok(false);
    }
    let n = node.n;
    let live = (node.live)
        .checked_sub(node.cell(pos)?.size(true))
        .ok_or_else(|| corrupt("btree live-byte count below a cell's size"))?;
    b.copy_within(HDR + SLOT * (pos + 1)..HDR + SLOT * n, HDR + SLOT * pos);
    set_u16(b, 1, n - 1);
    set_u16(b, 9, live);
    Ok(true)
}

/// Rewrite node `pid` from the sorted `cells`, spilling into as many new
/// right siblings as they need, and return the siblings' separators
/// (none when everything fits one page). This is every structural
/// change: a single insert's split, a batch's multi-way split and the
/// growth of a new root. Leaves stay chained in place of the original;
/// between two internal nodes one cell moves up as the separator and its
/// child becomes the right node's leftmost.
fn repack(
    pool: &BufferPool,
    pid: PageId,
    leaf: bool,
    first: PageId,
    cells: &[Cell<'_>],
) -> DbResult<Vec<Sep>> {
    let need = |c: &Cell<'_>| SLOT + c.size(leaf);
    let whole = HDR + cells.iter().map(need).sum::<usize>() <= PAGE_SIZE;
    let fill = if whole { PAGE_SIZE } else { SPLIT_FILL };
    // Greedy cuts: indices of the cells that start a new node.
    let mut cuts = Vec::new();
    let mut size = HDR;
    for (i, c) in cells.iter().enumerate() {
        if size + need(c) > fill && size > HDR {
            cuts.push(i);
            size = HDR;
            if !leaf {
                continue;
            }
        }
        size += need(c);
    }
    let mut pids = vec![pid];
    for _ in &cuts {
        pids.push(pool.allocate()?);
    }
    let mut seps = Vec::with_capacity(cuts.len());
    let (mut start, mut leftmost) = (0, first);
    for (i, &p) in pids.iter().enumerate() {
        let cut = cuts.get(i).copied();
        let link = match leaf {
            true => pids.get(i + 1).copied().unwrap_or(first),
            false => leftmost,
        };
        let chunk = &cells[start..cut.unwrap_or(cells.len())];
        pool.with_page_mut(p, |b| write_node(b, leaf, link, chunk))??;
        if let Some(cut) = cut {
            let c = cells[cut];
            seps.push((c.key.to_vec(), c.rid, pids[i + 1]));
            leftmost = c.child;
            start = cut + usize::from(!leaf);
        }
    }
    Ok(seps)
}

/// Add the sorted `batch[lo..hi]` to node `pid`: in place while they
/// fit, then by repacking the node plus the remainder over new right
/// siblings. Returns how many were not already present and the
/// separators of any siblings.
fn add_cells<B: Batch + ?Sized>(
    pool: &BufferPool,
    pid: PageId,
    batch: &B,
    lo: usize,
    hi: usize,
) -> DbResult<(usize, Vec<Sep>)> {
    // The node as the first cell that did not fit found it.
    let mut full = None;
    let (mut added, done) = pool.with_page_mut_if(pid, |b| {
        let (mut added, mut done) = (0, lo);
        let mut res = Ok(());
        while done < hi {
            match place(b, &batch.cell(done)) {
                Ok(Placed::Inserted) => added += 1,
                Ok(Placed::Duplicate) => {}
                Ok(Placed::NoFit) => {
                    full = Some(b.to_vec());
                    break;
                }
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
            done += 1;
        }
        (res.map(|()| (added, done)), added > 0)
    })??;
    let Some(page) = full else {
        return Ok((added, Vec::new()));
    };
    let node = Node::open(&page)?;
    let mut cells = node.all_cells()?;
    let before = cells.len();
    cells.extend((done..hi).map(|i| batch.cell(i)));
    // Two sorted runs: the stable sort is one merge, and `dedup_by`
    // keeps the resident cell of an exact duplicate.
    cells.sort_by(|a, b| a.cmp_to(b.key, b.rid));
    cells.dedup_by(|b, a| a.cmp_to(b.key, b.rid) == Ordering::Equal);
    added += cells.len() - before;
    let seps = repack(pool, pid, node.leaf, node.first(), &cells)?;
    Ok((added, seps))
}

/// Split the sorted `batch[lo..hi]` among the children of internal node
/// `pid` ([`Node::partition`]), pushing the runs onto `segs`; `false`
/// when `pid` is a leaf.
fn partition<B: Batch + ?Sized>(
    pool: &BufferPool,
    pid: PageId,
    batch: &B,
    lo: usize,
    hi: usize,
    segs: &mut Segs,
) -> DbResult<bool> {
    pool.with_page(pid, |b| {
        let node = Node::open(b)?;
        if node.leaf {
            return Ok(false);
        }
        node.partition(batch, lo, hi, segs).map(|()| true)
    })?
}

/// Where a leaf visit left the batch `keys[out.len()..]`.
enum Leaf {
    /// Every key is answered.
    Done,
    /// The current key's matches may continue in this next leaf; its
    /// rids so far are the ones past `out`'s last answer.
    Spill(PageId),
    /// The current key sorts past leaf `.0`, whose next leaf is `.1`: it
    /// is the descent's to route, and if the descent routes it to `.0`,
    /// its matches start in `.1`.
    Past(PageId, PageId),
}

/// Serve `keys[out.len()..end]` from leaf `pid`, answering each key in
/// `out`. Each key's matches start in this leaf or after it: the first
/// `routed` keys were sent here (by the descent, or by the previous
/// leaf's spill), and every later key sorts at or after them. A key
/// found here is answered here, whichever leaf the descent would route
/// it to; one that sorts past the leaf's last entry spills into the next
/// leaf when it was sent here or its matches began here, and is left to
/// the descent otherwise.
fn serve_lookups<K: AsRef<[u8]>>(
    leaf: Node<'_>,
    pid: PageId,
    keys: &[K],
    end: usize,
    routed: usize,
    out: &mut Hits,
) -> DbResult<Leaf> {
    while let Some(key) = keys[..end].get(out.len()).map(AsRef::as_ref) {
        let mut i = leaf.search(key, MIN_RID)?.0;
        while i < leaf.n {
            let c = leaf.cell(i)?;
            if c.key != key {
                break;
            }
            out.rids.push(c.rid);
            i += 1;
        }
        // The leaf ends at or before `key`: a duplicate span, or a key
        // on a leaf boundary, continues in the next leaf.
        if i == leaf.n && leaf.first() != INVALID_PAGE {
            return Ok(match out.len() < routed || out.rids.len() > out.start() {
                true => Leaf::Spill(leaf.first()),
                false => Leaf::Past(pid, leaf.first()),
            });
        }
        let found = out.start()..out.rids.len();
        out.answer();
        // An equal neighbor gets the same answer.
        while keys[..end]
            .get(out.len())
            .is_some_and(|k| k.as_ref() == key)
        {
            out.rids.extend_from_within(found.clone());
            out.answer();
        }
    }
    Ok(Leaf::Done)
}

/// Answer `keys[out.len()..end]`, the run of a batch that routes into
/// the subtree at `pid`, reading each node once: an internal node
/// partitions the run over its children, a leaf serves it and the leaves
/// a spill continues into. A leaf a spill reads serves the keys after the
/// spilled one that it holds, so a child whose run is answered is not
/// visited; and `at`, where the last leaf visit left the batch, tells a
/// key the descent routes back to the leaf it sorted past to go straight
/// to the next one.
fn lookup_rec<K: AsRef<[u8]>>(
    pool: &BufferPool,
    pid: PageId,
    keys: &[K],
    end: usize,
    out: &mut Hits,
    at: &mut Leaf,
) -> DbResult<()> {
    match *at {
        Leaf::Past(leaf, next) if leaf == pid => *at = Leaf::Spill(next),
        _ => {
            let base = out.segs.len();
            pool.with_page(pid, |b| {
                let node = Node::open(b)?;
                if !node.leaf {
                    return node.partition(keys, out.len(), end, &mut out.segs);
                }
                *at = serve_lookups(node, pid, keys, end, end, out)?;
                Ok(())
            })??;
            for s in base..out.segs.len() {
                let (child, _, hi) = out.segs[s];
                if out.len() < hi {
                    lookup_rec(pool, child, keys, hi, out, at)?;
                }
            }
            out.segs.truncate(base);
        }
    }
    // Follow the leaf chain while the current key spills.
    while let Leaf::Spill(next) = *at {
        let routed = out.len() + 1;
        *at = pool.with_page(next, |b| {
            let leaf = Node::open(b)?.expect_leaf()?;
            serve_lookups(leaf, next, keys, keys.len(), routed, out)
        })??;
    }
    Ok(())
}

/// A persistent B+tree index.
#[derive(Debug)]
pub struct BTree {
    root: PageId,
    len: u64,
    /// The batch writes' descent stack, kept from batch to batch.
    segs: Segs,
}

impl BTree {
    /// Create an empty tree (root is an empty leaf).
    pub fn create(pool: &BufferPool) -> DbResult<BTree> {
        let root = pool.allocate()?;
        pool.with_page_mut(root, |b| write_node(b, true, INVALID_PAGE, &[]))??;
        Ok(BTree::from_parts(root, 0))
    }

    /// Number of `(key, rid)` entries. (No `is_empty`: nothing asks.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Root page id (persisted in the WAL catalog image).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Rebuild from a catalog image decoded at recovery; the node pages
    /// themselves are recovered through the data file / WAL replay.
    pub(crate) fn from_parts(root: PageId, len: u64) -> BTree {
        BTree {
            root,
            len,
            segs: Segs::new(),
        }
    }

    /// Insert an entry. Duplicate `(key, rid)` pairs are ignored; a key
    /// longer than [`MAX_KEY_LEN`] is refused with
    /// [`DbError::KeyTooLarge`].
    ///
    /// Fast path: descend, splice the cell into the leaf in place. Only
    /// a full leaf takes the structural path, as a batch of one.
    pub fn insert(&mut self, pool: &BufferPool, key: &[u8], rid: Rid) -> DbResult<()> {
        check_key(key)?;
        let cell = Cell::entry(key, rid);
        let leaf = self.find_leaf(pool, key, rid)?;
        let placed = pool.with_page_mut_if(leaf, |b| {
            let r = place(b, &cell);
            let dirtied = matches!(r, Ok(Placed::Inserted));
            (r, dirtied)
        })??;
        match placed {
            Placed::Inserted => self.len += 1,
            Placed::Duplicate => {}
            Placed::NoFit => self.insert_batch(pool, &[cell][..], 1)?,
        }
        Ok(())
    }

    /// Descend to the leaf whose range contains `(key, rid)`: one
    /// binary search per node, read in place.
    fn find_leaf(&self, pool: &BufferPool, key: &[u8], rid: Rid) -> DbResult<PageId> {
        let mut pid = self.root;
        loop {
            let next = pool.with_page(pid, |b| -> DbResult<Option<PageId>> {
                let node = Node::open(b)?;
                if node.leaf {
                    return Ok(None);
                }
                Ok(Some(node.child_at(node.route(key, rid)?)?))
            })??;
            match next {
                None => return Ok(pid),
                Some(child) => pid = child,
            }
        }
    }

    /// All rids for each of `keys`, answered in one ordered pass into
    /// `hits` (what it held before is dropped).
    ///
    /// `keys` must be sorted ascending (duplicates allowed). Instead of
    /// one root-to-leaf descent per key, the batch descends once, the
    /// way [`BTree::insert_many`] does: each node it reaches is read
    /// once, partitions the batch over its children, and each leaf
    /// answers, under the page latch and without copying the leaf, the
    /// run of keys routed to it — the "sort once, merge once" batch
    /// access path of §3.1, applied to point lookups. Buffer-pool reads
    /// drop from `O(keys × depth)` to one per node on the keys' paths.
    pub fn lookup_many<K: AsRef<[u8]>>(
        &self,
        pool: &BufferPool,
        keys: &[K],
        hits: &mut Hits,
    ) -> DbResult<()> {
        debug_assert!(
            keys.windows(2).all(|w| w[0].as_ref() <= w[1].as_ref()),
            "lookup_many requires sorted keys"
        );
        hits.clear();
        if !keys.is_empty() {
            lookup_rec(pool, self.root, keys, keys.len(), hits, &mut Leaf::Done)?;
        }
        Ok(())
    }

    /// All rids stored under exactly `key`: one descent from the root
    /// reading each level once, then the leaf (and any it spills into)
    /// serves the key.
    pub fn lookup(&self, pool: &BufferPool, key: &[u8]) -> DbResult<Vec<Rid>> {
        let mut hits = Hits::default();
        self.lookup_many(pool, &[key], &mut hits)?;
        Ok(hits.into_all())
    }

    /// Insert a sorted batch of `(key, rid)` entries in one ordered
    /// pass: the batch is partitioned over the tree's subtrees and each
    /// affected node is visited once, instead of once per entry. Exact
    /// duplicate pairs are ignored and over-long keys refused (before
    /// anything is written), as in [`BTree::insert`]. Entries must be
    /// sorted by `(key, rid)` ([`Entries::sort`]).
    pub fn insert_many(&mut self, pool: &BufferPool, entries: &Entries) -> DbResult<()> {
        debug_assert!(
            (1..entries.len()).all(|i| entries.get(i - 1) <= entries.get(i)),
            "insert_many requires sorted entries"
        );
        entries.iter().try_for_each(|(k, _)| check_key(k))?;
        self.insert_batch(pool, entries, entries.len())
    }

    fn insert_batch<B: Batch + ?Sized>(
        &mut self,
        pool: &BufferPool,
        batch: &B,
        n: usize,
    ) -> DbResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.segs.clear();
        let mut pending = self.insert_rec(pool, self.root, batch, 0, n)?;
        // Root split(s): grow by one level per round until the new root
        // fits (a huge batch can hand back more separators than one
        // internal node holds).
        while !pending.is_empty() {
            let new_root = pool.allocate()?;
            pending = repack(pool, new_root, false, self.root, &sep_cells(&pending))?;
            self.root = new_root;
        }
        Ok(())
    }

    /// Insert `batch[lo..hi]` under `pid`; returns the separators of the
    /// siblings `pid` split off.
    fn insert_rec<B: Batch + ?Sized>(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        batch: &B,
        lo: usize,
        hi: usize,
    ) -> DbResult<Vec<Sep>> {
        let base = self.segs.len();
        if !partition(pool, pid, batch, lo, hi, &mut self.segs)? {
            let (added, seps) = add_cells(pool, pid, batch, lo, hi)?;
            self.len += added as u64;
            return Ok(seps);
        }
        let mut seps = Vec::new();
        for s in base..self.segs.len() {
            let (child, lo, hi) = self.segs[s];
            seps.extend(self.insert_rec(pool, child, batch, lo, hi)?);
        }
        self.segs.truncate(base);
        if seps.is_empty() {
            return Ok(seps);
        }
        // Children split: thread their separators into this node.
        let cells = sep_cells(&seps);
        Ok(add_cells(pool, pid, &cells[..], 0, cells.len())?.1)
    }

    /// Remove a sorted batch of exact `(key, rid)` entries in one
    /// ordered pass; returns how many existed and were removed.
    /// Deletion stays lazy (no rebalancing), so no structural fallback
    /// is ever needed.
    pub fn delete_many(&mut self, pool: &BufferPool, entries: &Entries) -> DbResult<usize> {
        debug_assert!(
            (1..entries.len()).all(|i| entries.get(i - 1) <= entries.get(i)),
            "delete_many requires sorted entries"
        );
        if entries.is_empty() {
            return Ok(0);
        }
        self.segs.clear();
        let removed = delete_rec(pool, self.root, entries, 0, entries.len(), &mut self.segs)?;
        self.len -= removed as u64;
        Ok(removed)
    }

    /// All `(key, rid)` entries whose key starts with `prefix`.
    pub fn lookup_prefix(&self, pool: &BufferPool, prefix: &[u8]) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        let mut out = Vec::new();
        self.scan_range(pool, Bound::Included(prefix), Bound::Unbounded, |k, rid| {
            if !k.starts_with(prefix) {
                return false;
            }
            out.push((k.to_vec(), rid));
            true
        })?;
        Ok(out)
    }

    /// In-order scan over `[lo, hi]`; the callback returns `false` to stop.
    ///
    /// The scan starts at the binary-searched position of `lo` in its
    /// leaf. Each leaf is copied into a page-sized scratch buffer once,
    /// so the callback runs outside the buffer-pool latch and may safely
    /// call back into the pool.
    pub fn scan_range(
        &self,
        pool: &BufferPool,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], Rid) -> bool,
    ) -> DbResult<()> {
        // An exclusive bound starts past every rid stored under its key.
        let (key, rid) = match lo {
            Bound::Included(k) => (k, MIN_RID),
            Bound::Excluded(k) => (k, MAX_RID),
            Bound::Unbounded => (&[][..], MIN_RID),
        };
        let mut pid = self.find_leaf(pool, key, rid)?;
        let mut page = [0u8; PAGE_SIZE];
        let mut lo = lo;
        loop {
            pool.with_page(pid, |b| page.copy_from_slice(b))?;
            let node = Node::open(&page)?.expect_leaf()?;
            // Only the first leaf can hold entries below the bound.
            let from = match std::mem::replace(&mut lo, Bound::Unbounded) {
                Bound::Included(k) => node.search(k, MIN_RID)?.0,
                Bound::Excluded(k) => node.route(k, MAX_RID)?,
                Bound::Unbounded => 0,
            };
            for i in from..node.n {
                let c = node.cell(i)?;
                let before_hi = match hi {
                    Bound::Included(h) => c.key <= h,
                    Bound::Excluded(h) => c.key < h,
                    Bound::Unbounded => true,
                };
                if !before_hi || !f(c.key, c.rid) {
                    return Ok(());
                }
            }
            if node.first() == INVALID_PAGE {
                return Ok(());
            }
            pid = node.first();
        }
    }

    /// Whole-tree structural check, used by tests and after recovery.
    /// Descending from the root: every leaf at the same depth; each
    /// node's slots strictly ascending in `(key, rid)`, its cells inside
    /// the page, non-overlapping and summing to the header's `live`;
    /// every cell of a subtree within the separators around it; the
    /// leaf chain equal to the in-order traversal; `len` equal to the
    /// entry count.
    pub fn validate(&self, pool: &BufferPool) -> DbResult<()> {
        let mut walk = Walk::default();
        walk.node(pool, self.root, 0, None, None)?;
        for (i, &(pid, next)) in walk.leaves.iter().enumerate() {
            let want = walk.leaves.get(i + 1).map_or(INVALID_PAGE, |l| l.0);
            if next != want {
                return Err(corrupt(format!(
                    "btree leaf {pid} chains to {next}, in-order successor is {want}"
                )));
            }
        }
        if walk.entries != self.len {
            return Err(corrupt(format!(
                "btree len {} != {} entries in the leaves",
                self.len, walk.entries
            )));
        }
        Ok(())
    }
}

fn delete_rec(
    pool: &BufferPool,
    pid: PageId,
    batch: &Entries,
    lo: usize,
    hi: usize,
    segs: &mut Segs,
) -> DbResult<usize> {
    let base = segs.len();
    if !partition(pool, pid, batch, lo, hi, segs)? {
        return pool.with_page_mut_if(pid, |b| {
            let mut removed = 0;
            let mut res = Ok(());
            for (key, rid) in (lo..hi).map(|i| batch.get(i)) {
                match unplace(b, key, rid) {
                    Ok(existed) => removed += usize::from(existed),
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
            (res.map(|()| removed), removed > 0)
        })?;
    }
    let mut removed = 0;
    for s in base..segs.len() {
        let (child, lo, hi) = segs[s];
        removed += delete_rec(pool, child, batch, lo, hi, segs)?;
    }
    segs.truncate(base);
    Ok(removed)
}

/// State of one [`BTree::validate`] descent.
#[derive(Default)]
struct Walk {
    /// `(pid, next)` of every leaf, in traversal order.
    leaves: Vec<(PageId, PageId)>,
    entries: u64,
    leaf_depth: Option<usize>,
}

impl Walk {
    /// Check node `pid` and its subtree; `lo`/`hi` are the separators
    /// around it (`lo <= every cell < hi`).
    fn node(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        depth: usize,
        lo: Option<Cell<'_>>,
        hi: Option<Cell<'_>>,
    ) -> DbResult<()> {
        let bad = |what: &str| Err(corrupt(format!("btree node {pid}: {what}")));
        if depth > 32 {
            return bad("deeper than any tree this pool can hold (a cycle?)");
        }
        let mut page = [0u8; PAGE_SIZE];
        pool.with_page(pid, |b| page.copy_from_slice(b))?;
        let node = Node::open(&page)?;
        let cells = node.all_cells()?;
        let mut extents: Vec<(usize, usize)> = (cells.iter().enumerate())
            .map(|(i, c)| (node.slot(i), node.slot(i) + c.size(node.leaf)))
            .collect();
        extents.sort_unstable();
        if extents.windows(2).any(|w| w[0].1 > w[1].0) {
            return bad("cells overlap");
        }
        if extents.iter().map(|e| e.1 - e.0).sum::<usize>() != node.live {
            return bad("header live bytes differ from the cells' sizes");
        }
        let ascending = |w: &[Cell<'_>]| w[0].cmp_to(w[1].key, w[1].rid) == Ordering::Less;
        if !cells.windows(2).all(ascending) {
            return bad("slots out of (key, rid) order");
        }
        let below_lo = |c: &Cell<'_>| lo.is_some_and(|l| c.cmp_to(l.key, l.rid) == Ordering::Less);
        let below_hi = |c: &Cell<'_>| hi.is_none_or(|h| c.cmp_to(h.key, h.rid) == Ordering::Less);
        if cells.first().is_some_and(below_lo) || !cells.last().is_none_or(below_hi) {
            return bad("cells outside the parent's separators");
        }
        if node.leaf {
            if *self.leaf_depth.get_or_insert(depth) != depth {
                return bad("leaf at a different depth than the leftmost leaf");
            }
            self.leaves.push((pid, node.first()));
            self.entries += cells.len() as u64;
            return Ok(());
        }
        for i in 0..=cells.len() {
            let lo = if i == 0 { lo } else { Some(cells[i - 1]) };
            let hi = cells.get(i).copied().or(hi);
            self.node(pool, node.child_at(i)?, depth + 1, lo, hi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::EvictionPolicy;
    use crate::disk::DiskManager;
    use crate::value::{encode_composite_key, Value};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
    }

    fn rid(i: u32) -> Rid {
        Rid {
            page: i,
            slot: (i % 7) as u16,
        }
    }

    fn key_i(i: i64) -> Vec<u8> {
        encode_composite_key(&[Value::Int(i)])
    }

    /// Up to `n` entries at or after `key`, in order: a
    /// [`BTree::scan_range`] that stops after `n`.
    fn first_n(bt: &BTree, bp: &BufferPool, key: &[u8], n: usize) -> DbResult<Vec<(Vec<u8>, Rid)>> {
        let mut out = Vec::new();
        if n > 0 {
            bt.scan_range(bp, Bound::Included(key), Bound::Unbounded, |k, rid| {
                out.push((k.to_vec(), rid));
                out.len() < n
            })?;
        }
        Ok(out)
    }

    /// [`BTree::lookup_many`] of `keys`, each key's rids as a list.
    fn lookup_lists(bt: &BTree, bp: &BufferPool, keys: &[Vec<u8>]) -> Vec<Vec<Rid>> {
        let mut hits = Hits::default();
        bt.lookup_many(bp, keys, &mut hits).unwrap();
        hits.iter().map(<[Rid]>::to_vec).collect()
    }

    fn to_entries(batch: &[(Vec<u8>, Rid)]) -> Entries {
        batch.iter().map(|(k, r)| (k, *r)).collect()
    }

    /// [`BTree::delete_many`] of the one entry `(key, rid)`: whether it
    /// existed.
    fn delete(bt: &mut BTree, bp: &BufferPool, key: &[u8], rid: Rid) -> DbResult<bool> {
        Ok(bt.delete_many(bp, &to_entries(&[(key.to_vec(), rid)]))? == 1)
    }

    #[test]
    fn insert_lookup_small() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..100i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        assert_eq!(bt.len(), 100);
        for i in 0..100i64 {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
        assert!(bt.lookup(&bp, &key_i(1000)).unwrap().is_empty());
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn many_inserts_force_splits_random_order() {
        let bp = pool(64);
        let mut bt = BTree::create(&bp).unwrap();
        // Pseudo-random insertion order without rand dependency here.
        let n = 5000i64;
        let mut x = 1i64;
        let mut keys = Vec::new();
        for _ in 0..n {
            x = (x * 1103515245 + 12345) % 100_000;
            keys.push(x);
        }
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        // Deterministic shuffle.
        let len = shuffled.len();
        for i in 0..len {
            let j = (i * 7919 + 13) % len;
            shuffled.swap(i, j);
        }
        for (i, &k) in shuffled.iter().enumerate() {
            bt.insert(&bp, &key_i(k), rid(i as u32)).unwrap();
        }
        assert_eq!(bt.len() as usize, keys.len());
        bt.validate(&bp).unwrap();
        // Ordered scan returns sorted unique keys.
        let mut scanned = Vec::new();
        bt.scan_range(&bp, Bound::Unbounded, Bound::Unbounded, |k, _| {
            scanned.push(k.to_vec());
            true
        })
        .unwrap();
        let expect: Vec<Vec<u8>> = keys.iter().map(|&k| key_i(k)).collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn duplicates_under_one_key() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..50u32 {
            bt.insert(&bp, &key_i(7), rid(i)).unwrap();
        }
        // Exact duplicate (key, rid) ignored.
        bt.insert(&bp, &key_i(7), rid(3)).unwrap();
        assert_eq!(bt.len(), 50);
        let rids = bt.lookup(&bp, &key_i(7)).unwrap();
        assert_eq!(rids.len(), 50);
    }

    #[test]
    fn duplicate_keys_across_splits_stay_deletable() {
        // Regression: with separators carrying only the user key, equal
        // keys split across leaves became unreachable for delete/lookup
        // (this corrupted the crawler's frontier index).
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        // Thousands of identical keys forces multi-level splits.
        for i in 0..3000u32 {
            bt.insert(&bp, &key_i(7), rid(i)).unwrap();
        }
        // Sprinkle other keys around them.
        for i in 0..200i64 {
            bt.insert(&bp, &key_i(i * 1000), rid(900_000 + i as u32))
                .unwrap();
        }
        assert_eq!(bt.lookup(&bp, &key_i(7)).unwrap().len(), 3000);
        bt.validate(&bp).unwrap();
        // Every duplicate must be individually deletable.
        for i in 0..3000u32 {
            assert!(
                delete(&mut bt, &bp, &key_i(7), rid(i)).unwrap(),
                "duplicate {i} unreachable"
            );
        }
        assert!(bt.lookup(&bp, &key_i(7)).unwrap().is_empty());
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn delete_and_dangling() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..200i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        for i in (0..200i64).step_by(2) {
            assert!(delete(&mut bt, &bp, &key_i(i), rid(i as u32)).unwrap());
        }
        assert!(!delete(&mut bt, &bp, &key_i(0), rid(0)).unwrap());
        assert_eq!(bt.len(), 100);
        for i in 0..200i64 {
            let hit = !bt.lookup(&bp, &key_i(i)).unwrap().is_empty();
            assert_eq!(hit, i % 2 == 1, "key {i}");
        }
        bt.validate(&bp).unwrap();
    }

    #[test]
    fn range_scan_bounds() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..100i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        let collect = |bp: &BufferPool, lo: Bound<i64>, hi: Bound<i64>| -> Vec<u32> {
            let lo_k = match lo {
                Bound::Included(v) => Bound::Included(key_i(v)),
                Bound::Excluded(v) => Bound::Excluded(key_i(v)),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_k = match hi {
                Bound::Included(v) => Bound::Included(key_i(v)),
                Bound::Excluded(v) => Bound::Excluded(key_i(v)),
                Bound::Unbounded => Bound::Unbounded,
            };
            let mut out = Vec::new();
            bt.scan_range(
                bp,
                match &lo_k {
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                    Bound::Unbounded => Bound::Unbounded,
                },
                match &hi_k {
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                    Bound::Unbounded => Bound::Unbounded,
                },
                |_, r| {
                    out.push(r.page);
                    true
                },
            )
            .unwrap();
            out
        };
        assert_eq!(
            collect(&bp, Bound::Included(10), Bound::Excluded(13)),
            vec![10, 11, 12]
        );
        assert_eq!(
            collect(&bp, Bound::Excluded(97), Bound::Unbounded),
            vec![98, 99]
        );
        assert_eq!(
            collect(&bp, Bound::Unbounded, Bound::Included(1)),
            vec![0, 1]
        );
    }

    #[test]
    fn prefix_scan_on_composite_keys() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for c0 in 0..5i64 {
            for t in 0..20i64 {
                let k = encode_composite_key(&[Value::Int(c0), Value::Int(t)]);
                bt.insert(&bp, &k, rid((c0 * 100 + t) as u32)).unwrap();
            }
        }
        let prefix = encode_composite_key(&[Value::Int(3)]);
        let hits = bt.lookup_prefix(&bp, &prefix).unwrap();
        assert_eq!(hits.len(), 20);
        for (_, r) in hits {
            assert!((300..320).contains(&r.page));
        }
    }

    #[test]
    fn first_at_or_after() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in [10i64, 20, 30] {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        let first = first_n(&bt, &bp, &key_i(15), 1).unwrap();
        assert_eq!(first, [(key_i(20), rid(20))]);
        assert!(first_n(&bt, &bp, &key_i(31), 1).unwrap().is_empty());
    }

    #[test]
    fn lookup_many_agrees_with_singular_lookups() {
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..4000i64 {
            bt.insert(&bp, &key_i((i * 7919) % 1000), rid(i as u32))
                .unwrap();
        }
        // Sorted probe set with misses, duplicates, and heavy-duplicate
        // keys spanning leaves.
        let probes: Vec<Vec<u8>> = (0..1200i64).step_by(3).map(key_i).collect();
        let batch = lookup_lists(&bt, &bp, &probes);
        for (k, rids) in probes.iter().zip(&batch) {
            let mut single = bt.lookup(&bp, k).unwrap();
            let mut got = rids.clone();
            single.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, single, "mismatch for key {k:?}");
        }
        // Equal neighboring keys are served too.
        let dup = vec![key_i(7), key_i(7), key_i(700)];
        let batch = lookup_lists(&bt, &bp, &dup);
        assert_eq!(batch[0], batch[1]);
        // One ordered pass touches far fewer pages than per-key descents.
        bp.reset_stats();
        lookup_lists(&bt, &bp, &probes);
        let batched = bp.stats().logical_reads;
        bp.reset_stats();
        for k in &probes {
            bt.lookup(&bp, k).unwrap();
        }
        let singular = bp.stats().logical_reads;
        assert!(
            batched * 2 <= singular,
            "batched pass {batched} reads vs {singular} singular"
        );
    }

    /// The pages a single-key descent passes through, root first.
    fn path_to(bt: &BTree, bp: &BufferPool, key: &[u8]) -> Vec<PageId> {
        let mut path = vec![bt.root];
        loop {
            let child = bp.with_page(*path.last().unwrap(), |b| {
                let node = Node::open(b).unwrap();
                let route = || node.child_at(node.route(key, MIN_RID).unwrap()).unwrap();
                (!node.leaf).then(route)
            });
            match child.unwrap() {
                Some(child) => path.push(child),
                None => return path,
            }
        }
    }

    #[test]
    fn lookup_many_reads_each_node_on_its_paths_once() {
        let bp = pool(256);
        let mut bt = BTree::create(&bp).unwrap();
        // Long keys: a dozen to a node, so a few thousand make 3 levels.
        let pad = Value::Str("x".repeat(200));
        let entries: Vec<(Vec<u8>, Rid)> = (0..2_000i64)
            .map(|i| {
                (
                    encode_composite_key(&[Value::Int(i), pad.clone()]),
                    rid(i as u32),
                )
            })
            .collect();
        bt.insert_many(&bp, &to_entries(&entries)).unwrap();
        let mut walk = Walk::default();
        walk.node(&bp, bt.root, 0, None, None).unwrap();
        let levels = walk.leaf_depth.unwrap() + 1;
        assert!(levels >= 3, "a tree of {levels} levels");
        // The middle key of every 7th leaf: k keys in k distinct leaves,
        // none on a leaf boundary (whose matches could spill rightward).
        let keys: Vec<Vec<u8>> = (walk.leaves.iter().step_by(7))
            .map(|&(leaf, _)| {
                bp.with_page(leaf, |b| {
                    let node = Node::open(b).unwrap();
                    node.cell(node.n / 2).unwrap().key.to_vec()
                })
                .unwrap()
            })
            .collect();
        let k = keys.len();
        let mut on_paths: Vec<PageId> =
            keys.iter().flat_map(|key| path_to(&bt, &bp, key)).collect();
        on_paths.sort_unstable();
        on_paths.dedup();
        let internal = on_paths.len() - k;
        assert!(
            k >= 10 && internal >= 2,
            "{k} leaves under {internal} nodes"
        );

        bp.reset_stats();
        let hits = lookup_lists(&bt, &bp, &keys);
        assert!(hits.iter().all(|rids| rids.len() == 1));
        assert_eq!(
            bp.stats().logical_reads,
            (internal + k) as u64,
            "the root and each internal node on the keys' paths once, plus {k} leaves \
             ({} with a descent per key)",
            k * levels
        );
        // A single key reads every level once on the way down, the leaf
        // that serves it included.
        bp.reset_stats();
        assert_eq!(bt.lookup(&bp, &keys[0]).unwrap().len(), 1);
        assert_eq!(bp.stats().logical_reads, levels as u64);
    }

    #[test]
    fn insert_many_matches_repeated_insert() {
        let bp_a = pool(64);
        let mut a = BTree::create(&bp_a).unwrap();
        let bp_b = pool(64);
        let mut b = BTree::create(&bp_b).unwrap();
        // Pre-populate both identically, then add a large sorted batch
        // (with duplicates of existing pairs) to each via the two paths.
        for i in 0..500i64 {
            a.insert(&bp_a, &key_i(i * 3), rid(i as u32)).unwrap();
            b.insert(&bp_b, &key_i(i * 3), rid(i as u32)).unwrap();
        }
        let mut batch: Vec<(Vec<u8>, Rid)> = (0..3000i64)
            .map(|i| (key_i((i * 31) % 2000), rid(50_000 + i as u32)))
            .collect();
        // Exact duplicates of existing entries must be ignored.
        batch.push((key_i(0), rid(0)));
        batch.push((key_i(3), rid(1)));
        batch.sort_unstable();
        a.insert_many(&bp_a, &to_entries(&batch)).unwrap();
        for (k, r) in &batch {
            b.insert(&bp_b, k, *r).unwrap();
        }
        assert_eq!(a.len(), b.len());
        a.validate(&bp_a).unwrap();
        b.validate(&bp_b).unwrap();
        let mut scan_a = Vec::new();
        a.scan_range(&bp_a, Bound::Unbounded, Bound::Unbounded, |k, r| {
            scan_a.push((k.to_vec(), r));
            true
        })
        .unwrap();
        let mut scan_b = Vec::new();
        b.scan_range(&bp_b, Bound::Unbounded, Bound::Unbounded, |k, r| {
            scan_b.push((k.to_vec(), r));
            true
        })
        .unwrap();
        assert_eq!(scan_a, scan_b);
    }

    #[test]
    fn insert_many_into_empty_tree_grows_levels() {
        let bp = pool(128);
        let mut bt = BTree::create(&bp).unwrap();
        // One huge batch from empty: forces multi-way leaf splits and at
        // least one root-growth round in a single call.
        let batch: Vec<(Vec<u8>, Rid)> =
            (0..20_000i64).map(|i| (key_i(i), rid(i as u32))).collect();
        bt.insert_many(&bp, &to_entries(&batch)).unwrap();
        assert_eq!(bt.len(), 20_000);
        bt.validate(&bp).unwrap();
        for i in (0..20_000i64).step_by(977) {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
    }

    #[test]
    fn delete_many_removes_exactly_the_batch() {
        let bp = pool(64);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..2000i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        let mut batch: Vec<(Vec<u8>, Rid)> = (0..2000i64)
            .step_by(2)
            .map(|i| (key_i(i), rid(i as u32)))
            .collect();
        // Misses are counted out, not errors.
        batch.push((key_i(99_999), rid(1)));
        batch.sort_unstable();
        let removed = bt.delete_many(&bp, &to_entries(&batch)).unwrap();
        assert_eq!(removed, 1000);
        assert_eq!(bt.len(), 1000);
        bt.validate(&bp).unwrap();
        for i in 0..2000i64 {
            let hit = !bt.lookup(&bp, &key_i(i)).unwrap().is_empty();
            assert_eq!(hit, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn first_n_at_or_after_walks_in_order() {
        let bp = pool(16);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..100i64 {
            bt.insert(&bp, &key_i(i * 10), rid(i as u32)).unwrap();
        }
        let hits = first_n(&bt, &bp, &key_i(55), 4).unwrap();
        let keys: Vec<Vec<u8>> = hits.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![key_i(60), key_i(70), key_i(80), key_i(90)]);
        // Asking past the end returns what exists.
        assert_eq!(first_n(&bt, &bp, &key_i(985), 10).unwrap().len(), 1);
        assert!(first_n(&bt, &bp, &key_i(0), 0).unwrap().is_empty());
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // Every node access must round-trip through a 2-frame pool.
        let bp = pool(2);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..2000i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        for i in (0..2000i64).step_by(97) {
            assert_eq!(bt.lookup(&bp, &key_i(i)).unwrap(), vec![rid(i as u32)]);
        }
        bt.validate(&bp).unwrap();
        assert!(bp.stats().evictions > 0);
    }

    #[test]
    fn holes_left_by_deletes_are_reclaimed_in_place() {
        let bp = pool(8);
        let mut bt = BTree::create(&bp).unwrap();
        // Fill the root leaf to the last entry that fits…
        let mut n = 0i64;
        while bp.num_pages() == 1 {
            bt.insert(&bp, &key_i(n), rid(n as u32)).unwrap();
            n += 1;
        }
        // …(the last insert split it: start over, one short of that).
        let bp = pool(8);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..n - 1 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        assert_eq!(bp.num_pages(), 1, "the leaf is full but whole");
        // Deletes free no contiguous space, only holes; longer keys then
        // fit only if the node compacts itself instead of splitting.
        for i in (0..n - 1).filter(|i| i % 4 != 0) {
            assert!(delete(&mut bt, &bp, &key_i(i), rid(i as u32)).unwrap());
        }
        let long = |i: i64| encode_composite_key(&[Value::Int(i), Value::Str("x".repeat(40))]);
        for i in 0..n / 8 {
            bt.insert(&bp, &long(i * 4), rid(i as u32)).unwrap();
        }
        assert_eq!(bp.num_pages(), 1, "holes were reused, nothing split");
        bt.validate(&bp).unwrap();
        for i in 0..n / 8 {
            assert_eq!(bt.lookup(&bp, &long(i * 4)).unwrap(), vec![rid(i as u32)]);
            assert_eq!(
                bt.lookup(&bp, &key_i(i * 4)).unwrap(),
                vec![rid(i as u32 * 4)]
            );
        }
    }

    #[test]
    fn over_long_keys_are_refused_untouched() {
        let bp = pool(8);
        let mut bt = BTree::create(&bp).unwrap();
        let (fits, too_long) = (vec![7u8; MAX_KEY_LEN], vec![7u8; MAX_KEY_LEN + 1]);
        // Maximal keys still split cleanly (four or more to a node).
        for i in 0..40 {
            bt.insert(&bp, &fits, rid(i)).unwrap();
        }
        bt.validate(&bp).unwrap();
        let err = DbError::KeyTooLarge(MAX_KEY_LEN + 1);
        assert_eq!(bt.insert(&bp, &too_long, rid(1)), Err(err.clone()));
        let batch = vec![(vec![1u8], rid(1)), (too_long, rid(2))];
        assert_eq!(bt.insert_many(&bp, &to_entries(&batch)), Err(err));
        assert_eq!(bt.len(), 40, "a refused batch inserts none of its entries");
        assert!(bt.lookup(&bp, &[1u8]).unwrap().is_empty());
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Every public operation, against a tree rooted at `root`.
    type TreeOp = (&'static str, fn(&BufferPool, PageId) -> DbResult<()>);
    const TREE_OPS: [TreeOp; 10] = [
        ("insert", |bp, root| {
            BTree::from_parts(root, 9).insert(bp, &key_i(50), rid(1))
        }),
        ("delete_many of one", |bp, root| {
            delete(&mut BTree::from_parts(root, 9), bp, &key_i(50), rid(1)).map(drop)
        }),
        ("insert_many", |bp, root| {
            let batch = [(key_i(50), rid(1)), (key_i(51), rid(2))];
            BTree::from_parts(root, 9).insert_many(bp, &to_entries(&batch))
        }),
        ("delete_many", |bp, root| {
            let batch = [(key_i(50), rid(1)), (key_i(51), rid(2))];
            BTree::from_parts(root, 9)
                .delete_many(bp, &to_entries(&batch))
                .map(drop)
        }),
        ("lookup", |bp, root| {
            BTree::from_parts(root, 9).lookup(bp, &key_i(50)).map(drop)
        }),
        ("lookup_many", |bp, root| {
            BTree::from_parts(root, 9)
                .lookup_many(bp, &[key_i(50), key_i(60)], &mut Hits::default())
                .map(drop)
        }),
        ("lookup_prefix", |bp, root| {
            BTree::from_parts(root, 9).lookup_prefix(bp, &[]).map(drop)
        }),
        ("scan_range", |bp, root| {
            let (lo, hi) = (key_i(50), key_i(60));
            let tree = BTree::from_parts(root, 9);
            tree.scan_range(bp, Bound::Excluded(&lo), Bound::Included(&hi), |_, _| true)
        }),
        ("first_n", |bp, root| {
            first_n(&BTree::from_parts(root, 9), bp, &key_i(50), 3).map(drop)
        }),
        ("validate", |bp, root| {
            BTree::from_parts(root, 9).validate(bp)
        }),
    ];

    /// Run every operation against `image` installed as the root page
    /// (re-installed each time: an operation may have rewritten it).
    fn ops_on_root(
        bp: &BufferPool,
        root: PageId,
        image: &[u8],
    ) -> Vec<(&'static str, DbResult<()>)> {
        let run = |(name, op): &TreeOp| {
            bp.with_page_mut(root, |b| b.copy_from_slice(image))
                .unwrap();
            (*name, op(bp, root))
        };
        TREE_OPS.iter().map(run).collect()
    }

    #[test]
    fn corrupt_nodes_are_page_errors_never_panics() {
        // Two trees: a root that is a leaf, a root that is internal. A
        // node's first binary-search probe is always its middle slot, so
        // corrupting that one is seen by every operation.
        for entries in [100i64, 3000] {
            let bp = pool(64);
            let mut bt = BTree::create(&bp).unwrap();
            for i in 0..entries {
                bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
            }
            let root = bt.root();
            let good = bp.with_page(root, |b| b.to_vec()).unwrap();
            let node = Node::open(&good).unwrap();
            assert_eq!(node.leaf, entries == 100);
            let mid_slot = HDR + SLOT * (node.n / 2);
            let mid_cell = node.slot(node.n / 2);
            let with = |off: usize, v: u16| {
                let mut image = good.clone();
                image[off..off + 2].copy_from_slice(&v.to_le_bytes());
                image
            };
            let mut x = 0x2545_F491_4F6C_DD1D;
            let mut noise: Vec<u8> = good.iter().map(|_| xorshift(&mut x) as u8).collect();
            noise[0] = 0x5A;
            let cases = [
                ("random bytes", noise),
                ("packed-layout type byte of earlier store files", {
                    let mut image = good.clone();
                    image[0] -= 2;
                    image
                }),
                ("count beyond the cell area", with(1, u16::MAX)),
                ("cell area beyond the page", with(7, PAGE_SIZE as u16 + 1)),
                ("slot beyond the page", with(mid_slot, u16::MAX)),
                ("slot inside the header", with(mid_slot, 3)),
                (
                    "length prefix running off the page",
                    with(mid_slot, PAGE_SIZE as u16 - 1),
                ),
                ("cell running off the page", with(mid_cell, 0x7FFF)),
            ];
            for (what, image) in &cases {
                for (op, res) in ops_on_root(&bp, root, image) {
                    assert!(
                        matches!(res, Err(DbError::Page(_))),
                        "{entries}-entry tree, {what}: {op} returned {res:?}"
                    );
                }
            }
            // Arbitrary bytes under a valid type byte: anything goes,
            // except a panic or an error that is not `Page`.
            for seed in 0..200u64 {
                let mut image = good.clone();
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for byte in image.iter_mut().skip(1) {
                    let x = xorshift(&mut x);
                    // Mostly small values, so headers pass the O(1) check.
                    *byte = if x.is_multiple_of(3) {
                        x as u8
                    } else {
                        (x >> 8) as u8 % 16
                    };
                }
                for (op, res) in ops_on_root(&bp, root, &image) {
                    assert!(
                        matches!(res, Ok(()) | Err(DbError::Page(_))),
                        "fuzzed node {seed}: {op} returned {res:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn validate_sees_what_a_leaf_chain_walk_cannot() {
        let bp = pool(64);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..3000i64 {
            bt.insert(&bp, &key_i(i), rid(i as u32)).unwrap();
        }
        bt.validate(&bp).unwrap();
        let root = bt.root();
        let good = bp.with_page(root, |b| b.to_vec()).unwrap();
        let node = Node::open(&good).unwrap();
        assert!(!node.leaf && node.n >= 3);
        let broken = |edit: &dyn Fn(&mut [u8])| {
            bp.with_page_mut(root, |b| {
                b.copy_from_slice(&good);
                edit(b);
            })
            .unwrap();
            let res = bt.validate(&bp);
            assert!(matches!(res, Err(DbError::Page(_))), "{res:?}");
        };
        // Two separators swapped: every leaf is still sorted and chained.
        let (s0, s1) = (node.slot(0) as u16, node.slot(1) as u16);
        broken(&|b| {
            b[HDR..HDR + 2].copy_from_slice(&s1.to_le_bytes());
            b[HDR + 2..HDR + 4].copy_from_slice(&s0.to_le_bytes());
        });
        // A separator above entries of the child it leads to.
        let key_at = node.slot(1) + 2;
        broken(&|b| b[key_at + 8] ^= 0x40);
        // Two slots sharing one cell; a header that miscounts its cells.
        broken(&|b| b[HDR + 2..HDR + 4].copy_from_slice(&s0.to_le_bytes()));
        broken(&|b| b[9] ^= 1);
        // A wrong entry count.
        bp.with_page_mut(root, |b| b.copy_from_slice(&good))
            .unwrap();
        bt.validate(&bp).unwrap();
        assert!(BTree::from_parts(root, 2999).validate(&bp).is_err());
    }

    #[test]
    fn long_string_keys_split_correctly() {
        let bp = pool(32);
        let mut bt = BTree::create(&bp).unwrap();
        for i in 0..300 {
            let k = encode_composite_key(&[Value::Str(format!(
                "http://server-{:03}.example.org/a/very/long/path/segment/page-{i}.html",
                i % 40
            ))]);
            bt.insert(&bp, &k, rid(i)).unwrap();
        }
        assert_eq!(bt.len(), 300);
        bt.validate(&bp).unwrap();
    }
}
