//! The compiled inference engine — the crawl hot path's classifier.
//!
//! [`crate::model::TrainedModel`] is the *reference* implementation: hash
//! maps keyed by [`ClassId`]/[`TermId`], a fresh `partial` map and `logs`
//! vector per node per document. Correct, and fine for training-time code,
//! but on the per-page hot path every term costs an `FxHashMap` probe and
//! every posting two more, plus per-node allocations — and on a CPU-bound
//! crawl box classifier cycles are crawl throughput (Figure 8(a) is the
//! paper's version of this concern).
//!
//! [`CompiledModel::compile`] lowers the trained parameters into a static
//! layout built for the evaluation loop:
//!
//! * classes are **interned** into dense indices (the taxonomy's ids are
//!   already dense `u16`s, so the intern table is the identity — but the
//!   compiled arrays are indexed, never probed);
//! * each node's feature postings live in **CSR form**: one sorted,
//!   offset-fused term column and one contiguous postings arena of
//!   `(child_slot, logtheta + logdenom)` pairs with the sum pre-combined
//!   at compile time (the reference path re-adds it per term occurrence
//!   per document);
//! * per-child `logprior`/`logdenom` are dense `Vec<f64>` by child slot;
//! * a document — whose [`TermVec`] is canonical (sorted, deduplicated)
//!   by construction — is **merge-joined** against the CSR term column,
//!   with each probe resolved through a per-node compile-time index
//!   (`TermIndex`): a direct-indexed table when the node's term-id
//!   universe is dense, an interpolation directory over the sorted
//!   column when it is sparse (hashed 32-bit tids). Either way a probe
//!   is O(1), branch-light, and hash-free;
//! * the path-node sweep **memoizes** each node's posterior in the
//!   scratch, so the best-first descent re-reads the root's (always the
//!   widest) posterior instead of recomputing it;
//! * all per-document state lives in a caller-provided [`Scratch`];
//!   after the first document has warmed its buffers up, evaluation
//!   performs **zero heap allocations**.
//!
//! The arithmetic is kept operation-for-operation identical to the
//! reference path (same accumulation order, same shared
//! [`normalize_log`]), so the two agree to strict tolerances — the
//! equivalence proptests in `tests/compiled_props.rs` pin this.
//!
//! Concurrency contract: a `CompiledModel` is immutable — share it freely
//! behind an `Arc`. A [`Scratch`] is **per worker, never shared**; it is
//! cheap (a few vectors sized by the model) and `Send`, so give each
//! thread its own.

use crate::model::{normalize_log, TrainedModel};
use focus_types::hash::FxHashMap;
use focus_types::{ClassId, Taxonomy, TermId, TermVec};

/// One internal node's parameters in CSR form.
#[derive(Debug, Clone)]
struct CompiledNode {
    /// Children of `c0` in taxonomy order; posting `child_slot`s index
    /// into this (and into `logprior`/`logdenom`).
    children: Vec<ClassId>,
    /// `ln Pr[ci | c0]` by child slot (−∞ when the child never trained).
    logprior: Vec<f64>,
    /// `logdenom(ci)` by child slot (0.0 when absent, matching the
    /// reference path's defaults).
    logdenom: Vec<f64>,
    /// `F(c0)` as the fused CSR key column, sorted ascending by term id:
    /// `terms[i] = (tid, offset)` where `offset..terms[i+1].1` is the
    /// term's slice of `postings` (a sentinel row with
    /// `tid = u32::MAX, offset = postings.len()` closes the last slice).
    /// Fusing the id and offset columns puts everything a probe needs on
    /// one cache line.
    terms: Vec<(u32, u32)>,
    /// Compile-time choice of probe structure over `terms` (see
    /// [`TermIndex`]).
    index: TermIndex,
    /// Smallest / largest feature term id (the index's domain; ids
    /// outside it are non-features by construction).
    min_tid: u32,
    max_tid: u32,
    /// The postings arena: `(child_slot, logtheta + logdenom)` with the
    /// sum folded in at compile time. A feature term may have zero
    /// postings (it still counts toward `len_F`).
    postings: Vec<(u32, f64)>,
}

/// Sentinel in the class → node-slot intern table: no trained node.
const NO_NODE: u32 = u32::MAX;

/// Sentinel posting-span start in [`TermIndex::Dense`]: not a feature.
const NOT_A_FEATURE: u32 = u32::MAX;

/// When a node's term-id span is at most this many times `|F|` (or
/// fits the small-universe floor), the compiler lowers its lookup to a
/// direct-indexed table.
const DENSE_SPAN_FACTOR: u64 = 16;
/// Universes up to this wide always get the dense table (≤ 512 KiB).
const DENSE_SPAN_FLOOR: u64 = 1 << 16;
/// Hard memory cap for one node's dense table (slots), whatever `|F|`.
const DENSE_SPAN_CAP: u64 = 1 << 22;

/// How a probe of the merge-join resolves a document term against the
/// sorted CSR term column — chosen per node at compile time from the
/// column's value distribution.
#[derive(Debug, Clone)]
enum TermIndex {
    /// The term-id universe is dense (e.g. a small vocabulary):
    /// `spans[tid − min_tid]` is the term's posting span directly, with
    /// [`NOT_A_FEATURE`] marking absent ids. One load per probe, no
    /// scan, no data-dependent branches beyond the hit test.
    Dense(Vec<(u32, u32)>),
    /// The universe is sparse (real 32-bit hashed term ids): an
    /// interpolation directory cuts the sorted column into ≈-equal
    /// *value* ranges — `bucket_starts[b]..bucket_starts[b+1]` is the
    /// contiguous run of terms interpolating into bucket `b`, with
    /// `scale = (buckets << 32) / span` the fixed-point factor mapping
    /// `tid − min_tid` to `b` without a division. With ≈ one term per
    /// bucket, a probe is subtract, multiply, two loads, ~one compare —
    /// no hashing. (A plain high-bits radix cut would collapse dense
    /// universes into one bucket; interpolating over the observed range
    /// handles both, and the dense case above is faster still.)
    Interp { bucket_starts: Vec<u32>, scale: u64 },
}

/// Fixed summary of one document's evaluation; the variable-length
/// per-class posteriors stay in the [`Scratch`] (see
/// [`Scratch::class_probs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// Best leaf under best-first descent.
    pub best_leaf: ClassId,
    /// `Pr[best_leaf | d]`.
    pub best_leaf_prob: f64,
    /// Soft-focus relevance `R(d)` (Eq. 3).
    pub relevance: f64,
    /// Hard-focus acceptance of `best_leaf` (§2.1.2 radius rules),
    /// looked up from the compile-time acceptance table.
    pub hard_accepts: bool,
}

/// Reusable per-worker evaluation buffers. Created by
/// [`CompiledModel::scratch`] (pre-sized) or [`Scratch::default`]
/// (sized lazily on first use); either way, steady-state evaluation
/// never allocates.
///
/// **Not shared**: one `Scratch` per worker thread. It is `Send`, so a
/// worker can own it across a whole crawl.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-child-slot `Σ freq·(logtheta + logdenom)` accumulator.
    partial: Vec<f64>,
    /// Per-node posterior staging: `(child, log-score → prob)`.
    logs: Vec<(ClassId, f64)>,
    /// Absolute `Pr[c | d]` by interned class index.
    abs: Vec<f64>,
    /// `Pr[c | d]` for every evaluated class, in path-node order — the
    /// compiled counterpart of [`crate::model::Posterior::class_probs`].
    class_probs: Vec<(ClassId, f64)>,
    /// Per-node-slot memo of the current evaluation's posterior: the
    /// path sweep fills it, the best-first descent reuses it instead of
    /// recomputing (the root is always both a path node and the first
    /// descent step). Valid iff `node_stamp[slot] == stamp`.
    node_probs: Vec<Vec<(ClassId, f64)>>,
    node_stamp: Vec<u64>,
    /// Monotone per-evaluation counter; bumping it invalidates every
    /// memo entry at once.
    stamp: u64,
}

impl Scratch {
    /// Grow buffers to `model`'s dimensions (no-op once warm).
    fn ensure(&mut self, model: &CompiledModel) {
        if self.abs.len() < model.num_classes {
            self.abs.resize(model.num_classes, 0.0);
        }
        if self.partial.len() < model.max_children {
            self.partial.resize(model.max_children, 0.0);
        }
        if self.node_probs.len() < model.nodes.len() {
            self.node_probs.resize(model.nodes.len(), Vec::new());
            self.node_stamp.resize(model.nodes.len(), 0);
        }
    }

    /// The per-class posteriors of the most recent
    /// [`CompiledModel::evaluate_into`] call: `Pr[c|d]` for the children
    /// of every path node, in topological order.
    pub fn class_probs(&self) -> &[(ClassId, f64)] {
        &self.class_probs
    }
}

/// The trained classifier, compiled for zero-alloc hash-free inference.
///
/// Immutable once built; recompile (cheap — proportional to the model's
/// parameter count) whenever the taxonomy's good marking changes.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The topic tree with good/path markings as of compile time.
    taxonomy: Taxonomy,
    /// Class index → slot in `nodes` ([`NO_NODE`] for leaves/untrained).
    node_of: Vec<u32>,
    nodes: Vec<CompiledNode>,
    /// Path nodes in topological order, frozen at compile time.
    path_nodes: Vec<ClassId>,
    /// The good set `C*`, frozen at compile time.
    good_set: Vec<ClassId>,
    /// Hard-focus acceptance by class index: does the class have a
    /// (non-strict) good ancestor?
    accepts: Vec<bool>,
    num_classes: usize,
    max_children: usize,
}

impl CompiledModel {
    /// Lower a [`TrainedModel`] into the compiled layout.
    pub fn compile(model: &TrainedModel) -> CompiledModel {
        let taxonomy = model.taxonomy.clone();
        let num_classes = taxonomy.len();
        let mut node_of = vec![NO_NODE; num_classes];
        let mut nodes = Vec::with_capacity(model.nodes.len());
        let mut max_children = 1;
        // Compile in dense class order so equal models compile to equal
        // layouts regardless of hash-map iteration order.
        for c0 in taxonomy.all() {
            let Some(nm) = model.nodes.get(&c0) else {
                continue;
            };
            let children: Vec<ClassId> = taxonomy.children(c0).to_vec();
            max_children = max_children.max(children.len());
            let slot_of: FxHashMap<ClassId, u32> = children
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            let logprior: Vec<f64> = children
                .iter()
                .map(|c| {
                    nm.child_logprior
                        .get(c)
                        .copied()
                        .unwrap_or(f64::NEG_INFINITY)
                })
                .collect();
            let logdenom: Vec<f64> = children
                .iter()
                .map(|c| nm.child_logdenom.get(c).copied().unwrap_or(0.0))
                .collect();
            let mut term_ids: Vec<TermId> = nm.features.keys().copied().collect();
            term_ids.sort_unstable();
            let n_terms = term_ids.len();
            let mut terms = Vec::with_capacity(n_terms + 1);
            let mut postings = Vec::new();
            for t in &term_ids {
                terms.push((t.raw(), postings.len() as u32));
                // Preserve the reference path's posting order per term so
                // floating-point accumulation is bit-identical. Postings
                // whose child is not under `c0` are dropped: the
                // reference accumulates them into map keys its final
                // per-child loop never reads.
                for &(ci, logtheta) in &nm.features[t] {
                    if let Some(&slot) = slot_of.get(&ci) {
                        let ld = nm.child_logdenom.get(&ci).copied().unwrap_or(0.0);
                        postings.push((slot, logtheta + ld));
                    }
                }
            }
            // Sentinel closes the last posting slice and keeps the
            // `terms[j + 1]` offset read in bounds.
            terms.push((u32::MAX, postings.len() as u32));
            let min_tid = term_ids.first().map_or(0, |t| t.raw());
            let max_tid = term_ids.last().map_or(0, |t| t.raw());
            let span = (max_tid - min_tid) as u64 + 1;
            let dense = span <= DENSE_SPAN_CAP
                && (span <= DENSE_SPAN_FLOOR || span <= DENSE_SPAN_FACTOR * n_terms as u64);
            let index = if dense {
                let mut spans = vec![(NOT_A_FEATURE, 0u32); span as usize];
                for w in terms.windows(2) {
                    let (tid, start) = w[0];
                    spans[(tid - min_tid) as usize] = (start, w[1].1);
                }
                TermIndex::Dense(spans)
            } else {
                // ≈ one expected term per bucket (power of two ≥ |F|),
                // cut over the value range actually present. One sorted
                // pass assigns each bucket its run.
                let buckets = n_terms.max(2).next_power_of_two();
                let scale = ((buckets as u64) << 32) / span;
                let bucket_of = |t: u32| ((((t - min_tid) as u64) * scale) >> 32) as usize;
                let mut bucket_starts = Vec::with_capacity(buckets + 1);
                bucket_starts.push(0u32);
                let mut idx = 0usize;
                for b in 0..buckets {
                    while idx < n_terms && bucket_of(term_ids[idx].raw()) == b {
                        idx += 1;
                    }
                    bucket_starts.push(idx as u32);
                }
                TermIndex::Interp {
                    bucket_starts,
                    scale,
                }
            };
            node_of[c0.raw() as usize] = nodes.len() as u32;
            nodes.push(CompiledNode {
                children,
                logprior,
                logdenom,
                terms,
                index,
                min_tid,
                max_tid,
                postings,
            });
        }
        let path_nodes = taxonomy.path_nodes_topological();
        let good_set = taxonomy.good_set();
        let accepts = taxonomy
            .all()
            .map(|c| taxonomy.hard_focus_accepts(c))
            .collect();
        CompiledModel {
            taxonomy,
            node_of,
            nodes,
            path_nodes,
            good_set,
            accepts,
            num_classes,
            max_children,
        }
    }

    /// The taxonomy snapshot the model was compiled against.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Number of compiled internal nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Do any good marks exist (as of compile time)?
    pub fn has_goods(&self) -> bool {
        !self.good_set.is_empty()
    }

    /// A pre-sized scratch for this model. One per worker.
    pub fn scratch(&self) -> Scratch {
        let mut s = Scratch::default();
        s.ensure(self);
        s
    }

    fn node_slot(&self, c0: ClassId) -> Option<usize> {
        let idx = *self.node_of.get(c0.raw() as usize)?;
        (idx != NO_NODE).then_some(idx as usize)
    }

    fn node(&self, c0: ClassId) -> Option<&CompiledNode> {
        self.node_slot(c0).map(|i| &self.nodes[i])
    }

    /// `Pr[ci | c0, d]` for every child of `c0` — the compiled
    /// counterpart of [`crate::model::NodeModel::posterior`]. Returns a
    /// slice into `scratch` (valid until the next call).
    pub fn posterior<'s>(
        &self,
        c0: ClassId,
        doc: &TermVec,
        scratch: &'s mut Scratch,
    ) -> &'s [(ClassId, f64)] {
        scratch.ensure(self);
        match self.node(c0) {
            Some(node) => {
                node_posterior(node, doc, &mut scratch.partial, &mut scratch.logs);
                &scratch.logs
            }
            None => {
                scratch.logs.clear();
                &scratch.logs
            }
        }
    }

    /// Best-first descent from the root to the most probable leaf,
    /// reusing the posteriors `evaluate_into` memoized for `doc`.
    fn classify_leaf(&self, doc: &TermVec, scratch: &mut Scratch) -> (ClassId, f64) {
        let mut cur = ClassId::ROOT;
        let mut prob = 1.0;
        loop {
            let Some(slot) = self.node_slot(cur) else {
                return (cur, prob); // leaf (or untrained interior)
            };
            // The path sweep already evaluated path nodes for this very
            // document; reuse those posteriors (bit-identical — they
            // are the stored outputs) instead of recomputing. The root
            // is always memoized when anything is marked good, so the
            // descent's widest node is usually free.
            let probs: &[(ClassId, f64)] = if scratch.node_stamp[slot] == scratch.stamp {
                &scratch.node_probs[slot]
            } else {
                node_posterior(
                    &self.nodes[slot],
                    doc,
                    &mut scratch.partial,
                    &mut scratch.logs,
                );
                &scratch.logs
            };
            // `>=` keeps the *last* maximum, matching the reference
            // path's `Iterator::max_by` tie-breaking exactly.
            let mut best: Option<(ClassId, f64)> = None;
            for &(ci, p) in probs {
                if best.is_none_or(|(_, bp)| p >= bp) {
                    best = Some((ci, p));
                }
            }
            match best {
                Some((ci, p)) => {
                    cur = ci;
                    prob *= p;
                }
                None => return (cur, prob),
            }
        }
    }

    /// Hard-focus acceptance (§2.1.2) of a leaf already classified: is
    /// some (non-strict) ancestor of it good? A table lookup.
    pub fn accepts_leaf(&self, leaf: ClassId) -> bool {
        self.accepts
            .get(leaf.raw() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Evaluate one document: `Pr[c|d]` at every path node's children
    /// (left in [`Scratch::class_probs`]), soft-focus relevance, and the
    /// best-first leaf with its hard-focus verdict. Zero allocations once
    /// `scratch` is warm.
    pub fn evaluate_into(&self, doc: &TermVec, scratch: &mut Scratch) -> EvalSummary {
        scratch.ensure(self);
        // New evaluation epoch: every memo entry from a previous
        // document is invalid from here on.
        scratch.stamp += 1;
        scratch.abs[..self.num_classes].fill(0.0);
        scratch.abs[ClassId::ROOT.raw() as usize] = 1.0;
        scratch.class_probs.clear();
        for i in 0..self.path_nodes.len() {
            let c0 = self.path_nodes[i];
            let parent_prob = scratch.abs[c0.raw() as usize];
            let Some(slot) = self.node_slot(c0) else {
                continue;
            };
            node_posterior(
                &self.nodes[slot],
                doc,
                &mut scratch.partial,
                &mut scratch.logs,
            );
            // Memoize for the best-first descent below (same document,
            // same epoch).
            scratch.node_stamp[slot] = scratch.stamp;
            scratch.node_probs[slot].clear();
            scratch.node_probs[slot].extend_from_slice(&scratch.logs);
            for &(ci, p) in &scratch.logs {
                let ap = parent_prob * p;
                scratch.abs[ci.raw() as usize] = ap;
                scratch.class_probs.push((ci, ap));
            }
        }
        let relevance = self
            .good_set
            .iter()
            .map(|c| scratch.abs[c.raw() as usize])
            .sum();
        let (best_leaf, best_leaf_prob) = self.classify_leaf(doc, scratch);
        EvalSummary {
            best_leaf,
            best_leaf_prob,
            relevance,
            hard_accepts: self.accepts_leaf(best_leaf),
        }
    }
}

/// Evaluate one node's child posterior into `logs` by merge-joining the
/// document's canonical entries against the CSR term column.
///
/// The arithmetic mirrors [`crate::model::NodeModel::posterior`]
/// operation for operation (same accumulation order, same
/// [`normalize_log`]), so both paths produce identical probabilities.
fn node_posterior(
    node: &CompiledNode,
    doc: &TermVec,
    partial: &mut [f64],
    logs: &mut Vec<(ClassId, f64)>,
) {
    logs.clear();
    if node.children.is_empty() {
        return;
    }
    let partial = &mut partial[..node.children.len()];
    partial.fill(0.0);
    let mut len_f: f64 = 0.0;
    // Merge join of two sorted, deduplicated columns — the document's
    // canonical entries and the CSR term column — with the feature
    // side's skips resolved through the radix directory: the document
    // walks in ascending tid order, and each of its terms lands on its
    // (usually zero- or one-element) bucket run in O(1). F(c0) is
    // routinely an order of magnitude wider than a page, so stepping
    // the column term by term (or even galloping) would put the wide
    // side's length on the critical path; the directory keeps the work
    // proportional to the document.
    if node.terms.len() > 1 {
        match &node.index {
            TermIndex::Dense(spans) => {
                for &(t, freq) in doc.as_slice() {
                    let raw = t.raw();
                    if raw < node.min_tid || raw > node.max_tid {
                        continue;
                    }
                    let (start, end) = spans[(raw - node.min_tid) as usize];
                    if start == NOT_A_FEATURE {
                        continue;
                    }
                    len_f += freq as f64;
                    for &(slot, theta_plus_denom) in &node.postings[start as usize..end as usize] {
                        partial[slot as usize] += freq as f64 * theta_plus_denom;
                    }
                }
            }
            TermIndex::Interp {
                bucket_starts,
                scale,
            } => {
                for &(t, freq) in doc.as_slice() {
                    let raw = t.raw();
                    if raw < node.min_tid || raw > node.max_tid {
                        continue;
                    }
                    let b = ((((raw - node.min_tid) as u64) * scale) >> 32) as usize;
                    let lo = bucket_starts[b] as usize;
                    let hi = bucket_starts[b + 1] as usize;
                    for j in lo..hi {
                        let (ft, off) = node.terms[j];
                        if ft < raw {
                            continue;
                        }
                        if ft == raw {
                            len_f += freq as f64;
                            let span = off as usize..node.terms[j + 1].1 as usize;
                            for &(slot, theta_plus_denom) in &node.postings[span] {
                                partial[slot as usize] += freq as f64 * theta_plus_denom;
                            }
                        }
                        break;
                    }
                }
            }
        }
    }
    for (k, &ci) in node.children.iter().enumerate() {
        let lp = node.logprior[k];
        let ld = node.logdenom[k];
        logs.push((ci, lp + partial[k] - len_f * ld));
    }
    normalize_log(logs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};
    use focus_types::{DocId, Document};

    /// A three-level taxonomy with enough training data to exercise
    /// every code path: multi-node descent, path-node chaining, unknown
    /// terms, and empty docs.
    fn trained() -> TrainedModel {
        let mut t = Taxonomy::new("root");
        let sport = t.add_child(ClassId::ROOT, "sport").unwrap();
        let cyc = t.add_child(sport, "cycling").unwrap();
        let soc = t.add_child(sport, "soccer").unwrap();
        let fin = t.add_child(ClassId::ROOT, "finance").unwrap();
        t.mark_good(cyc).unwrap();
        let mut ex = Vec::new();
        for i in 0..12u64 {
            ex.push((
                cyc,
                Document::new(
                    DocId(i),
                    TermVec::from_counts([
                        (TermId(10), 5),
                        (TermId(11), 2 + (i % 3) as u32),
                        (TermId(2), 2),
                    ]),
                ),
            ));
            ex.push((
                soc,
                Document::new(
                    DocId(100 + i),
                    TermVec::from_counts([(TermId(20), 5), (TermId(2), 2)]),
                ),
            ));
            ex.push((
                fin,
                Document::new(
                    DocId(200 + i),
                    TermVec::from_counts([(TermId(30), 4 + (i % 2) as u32), (TermId(2), 2)]),
                ),
            ));
        }
        train(&t, &ex, &TrainConfig::default())
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new(
                DocId(1000),
                TermVec::from_counts([(TermId(10), 3), (TermId(2), 1)]),
            ),
            Document::new(DocId(1001), TermVec::from_counts([(TermId(20), 4)])),
            Document::new(DocId(1002), TermVec::from_counts([(TermId(30), 2)])),
            Document::new(DocId(1003), TermVec::from_counts([(TermId(999), 7)])),
            Document::new(DocId(1004), TermVec::default()),
        ]
    }

    #[test]
    fn compiled_matches_reference_evaluate() {
        let model = trained();
        let compiled = CompiledModel::compile(&model);
        let mut scratch = compiled.scratch();
        for d in docs() {
            let want = model.evaluate(&d.terms);
            let got = compiled.evaluate_into(&d.terms, &mut scratch);
            assert_eq!(want.best_leaf, got.best_leaf, "doc {:?}", d.id);
            assert!((want.best_leaf_prob - got.best_leaf_prob).abs() < 1e-12);
            assert!((want.relevance - got.relevance).abs() < 1e-12);
            let got_probs = scratch.class_probs();
            assert_eq!(want.class_probs.len(), got_probs.len());
            for (&(wc, wp), &(gc, gp)) in want.class_probs.iter().zip(got_probs) {
                assert_eq!(wc, gc);
                assert!((wp - gp).abs() < 1e-12, "{wc}: {wp} vs {gp}");
            }
        }
    }

    #[test]
    fn compiled_matches_reference_hard_focus() {
        let model = trained();
        let compiled = CompiledModel::compile(&model);
        let mut scratch = compiled.scratch();
        for d in docs() {
            assert_eq!(
                model.hard_focus_accepts(&d.terms),
                compiled.evaluate_into(&d.terms, &mut scratch).hard_accepts,
                "doc {:?}",
                d.id
            );
        }
    }

    #[test]
    fn compiled_posterior_matches_node_model() {
        let model = trained();
        let compiled = CompiledModel::compile(&model);
        let mut scratch = compiled.scratch();
        for c0 in [ClassId::ROOT, ClassId(1)] {
            for d in docs() {
                let want = model.nodes[&c0].posterior(&model.taxonomy, &d.terms);
                let got = compiled.posterior(c0, &d.terms, &mut scratch).to_vec();
                assert_eq!(want.len(), got.len());
                for (&(wc, wp), &(gc, gp)) in want.iter().zip(&got) {
                    assert_eq!(wc, gc);
                    assert!((wp - gp).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn posterior_at_leaf_or_unknown_class_is_empty() {
        let model = trained();
        let compiled = CompiledModel::compile(&model);
        let mut scratch = compiled.scratch();
        let doc = TermVec::from_counts([(TermId(10), 1)]);
        assert!(compiled
            .posterior(ClassId(2), &doc, &mut scratch)
            .is_empty());
        assert!(compiled
            .posterior(ClassId(999), &doc, &mut scratch)
            .is_empty());
    }

    #[test]
    fn recompile_tracks_marking_changes() {
        let mut model = trained();
        let compiled = CompiledModel::compile(&model);
        assert!(compiled.has_goods());
        let doc = TermVec::from_counts([(TermId(30), 4)]);
        let mut scratch = compiled.scratch();
        let before = compiled.evaluate_into(&doc, &mut scratch).relevance;
        assert!(before < 0.3, "finance doc irrelevant to cycling: {before}");
        // Re-mark: finance becomes the good topic.
        let cyc = model.taxonomy.find("cycling").unwrap();
        let fin = model.taxonomy.find("finance").unwrap();
        model.taxonomy.unmark_good(cyc).unwrap();
        model.taxonomy.mark_good(fin).unwrap();
        let recompiled = CompiledModel::compile(&model);
        let after = recompiled.evaluate_into(&doc, &mut scratch).relevance;
        assert!(after > 0.7, "finance doc now relevant: {after}");
        assert_eq!(
            recompiled.evaluate_into(&doc, &mut scratch).relevance,
            model.evaluate(&doc).relevance
        );
    }

    #[test]
    fn default_scratch_warms_up_lazily_and_is_reusable() {
        let model = trained();
        let compiled = CompiledModel::compile(&model);
        let mut scratch = Scratch::default();
        let doc = TermVec::from_counts([(TermId(10), 2)]);
        let a = compiled.evaluate_into(&doc, &mut scratch);
        let b = compiled.evaluate_into(&doc, &mut scratch);
        assert_eq!(a, b);
        assert!(!scratch.class_probs().is_empty());
    }
}
