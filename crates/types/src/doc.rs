//! Documents as sparse term-frequency vectors.
//!
//! The generative model of §2.1.1 treats a document as a bag of terms; the
//! `DOCUMENT` relation stores rows `(did, tid, freq(d,t))`. [`TermVec`] is
//! the in-memory form: term ids sorted ascending with positive counts,
//! which lets joins against `STAT_c0` stream in merge order.

use crate::ids::{DocId, TermId};

/// Sparse term-frequency vector: `(tid, freq)` sorted by `tid`, freq > 0.
///
/// **Canonical-form invariant:** entries are strictly ascending in `tid`
/// with positive frequencies, established once at construction (every
/// constructor funnels through [`TermVec::from_counts`]). Downstream
/// consumers — the classifier's reference path, and especially the
/// compiled engine's merge-join against CSR term columns — rely on this
/// and never re-sort or re-deduplicate per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermVec {
    entries: Vec<(TermId, u32)>,
}

impl TermVec {
    /// Build from arbitrary (possibly repeated, unsorted) term occurrences.
    ///
    /// Canonicalizes by sort + adjacent merge — no hash table, so the
    /// per-page tokenization path does one `O(n log n)` pass instead of
    /// `n` hash probes plus a sort of the map's spill.
    pub fn from_counts(counts: impl IntoIterator<Item = (TermId, u32)>) -> Self {
        let mut entries: Vec<(TermId, u32)> = counts.into_iter().filter(|&(_, c)| c > 0).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        entries.dedup_by(|cur, prev| {
            if cur.0 == prev.0 {
                prev.1 = prev.1.saturating_add(cur.1);
                true
            } else {
                false
            }
        });
        TermVec { entries }
    }

    /// Build from a token stream (each occurrence counts once).
    pub fn from_tokens<'a>(tokens: impl IntoIterator<Item = &'a str>) -> Self {
        Self::from_counts(tokens.into_iter().map(|t| (TermId::of_token(t), 1)))
    }

    /// Tokenize free text: lowercase alphanumeric runs of length ≥ 2,
    /// mirroring what the paper's crawler does before populating `DOCUMENT`.
    pub fn from_text(text: &str) -> Self {
        let lower = text.to_lowercase();
        let tokens = lower
            .split(|ch: char| !ch.is_alphanumeric())
            .filter(|tok| tok.len() >= 2);
        Self::from_tokens(tokens)
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.entries.len()
    }

    /// Document length `n(d)`: total term occurrences.
    pub fn len(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c as u64).sum()
    }

    /// True when the document has no terms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `freq(d, t)`; 0 when absent.
    pub fn freq(&self, t: TermId) -> u32 {
        match self.entries.binary_search_by_key(&t, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Iterate `(tid, freq)` in ascending `tid` order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The canonical entries as a slice: strictly ascending `tid`,
    /// positive frequencies. The compiled classifier merge-joins this
    /// directly against its CSR term columns.
    pub fn as_slice(&self) -> &[(TermId, u32)] {
        &self.entries
    }

    /// Merge another vector into this one (summing frequencies).
    pub fn merge(&self, other: &TermVec) -> TermVec {
        TermVec::from_counts(self.iter().chain(other.iter()))
    }
}

impl FromIterator<(TermId, u32)> for TermVec {
    fn from_iter<I: IntoIterator<Item = (TermId, u32)>>(iter: I) -> Self {
        TermVec::from_counts(iter)
    }
}

/// A document ready for classification or indexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// `did` key in the `DOCUMENT` relation.
    pub id: DocId,
    /// Sparse term frequencies.
    pub terms: TermVec,
}

impl Document {
    /// Pair an id with a term vector.
    pub fn new(id: DocId, terms: TermVec) -> Self {
        Document { id, terms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_merged_sorted_and_positive() {
        let v = TermVec::from_counts([
            (TermId(9), 1),
            (TermId(3), 2),
            (TermId(9), 4),
            (TermId(1), 0), // dropped
        ]);
        assert_eq!(v.num_terms(), 2);
        assert_eq!(v.freq(TermId(9)), 5);
        assert_eq!(v.freq(TermId(3)), 2);
        assert_eq!(v.freq(TermId(1)), 0);
        assert_eq!(v.len(), 7);
        let tids: Vec<u32> = v.iter().map(|(t, _)| t.raw()).collect();
        assert!(tids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn construction_canonicalizes_unsorted_duplicates() {
        // The worst case a tokenizer can produce: interleaved repeats of
        // the same ids, out of order. One construction pass must leave
        // the canonical form the classifier paths rely on.
        let v = TermVec::from_counts([
            (TermId(7), 2),
            (TermId(3), 1),
            (TermId(7), 3),
            (TermId(3), 4),
            (TermId(7), 1),
        ]);
        assert_eq!(v.as_slice(), &[(TermId(3), 5), (TermId(7), 6)]);
        // Strictly ascending (no equal neighbors survive).
        assert!(v.as_slice().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn merging_duplicate_counts_saturates_instead_of_overflowing() {
        let v = TermVec::from_counts([(TermId(1), u32::MAX), (TermId(1), 10)]);
        assert_eq!(v.freq(TermId(1)), u32::MAX);
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        let v = TermVec::from_text("Bicycling, BICYCLING; bike-riding 2nd a");
        // "a" filtered (len < 2); "bicycling" counted twice.
        assert_eq!(v.freq(TermId::of_token("bicycling")), 2);
        assert_eq!(v.freq(TermId::of_token("bike")), 1);
        assert_eq!(v.freq(TermId::of_token("riding")), 1);
        assert_eq!(v.freq(TermId::of_token("2nd")), 1);
        assert_eq!(v.freq(TermId::of_token("a")), 0);
    }

    #[test]
    fn empty_document() {
        let v = TermVec::from_text("! ?");
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn merge_sums_frequencies() {
        let a = TermVec::from_counts([(TermId(1), 1), (TermId(2), 2)]);
        let b = TermVec::from_counts([(TermId(2), 3), (TermId(4), 1)]);
        let m = a.merge(&b);
        assert_eq!(m.freq(TermId(1)), 1);
        assert_eq!(m.freq(TermId(2)), 5);
        assert_eq!(m.freq(TermId(4)), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let v: TermVec = [(TermId(5), 2)].into_iter().collect();
        assert_eq!(v.freq(TermId(5)), 2);
    }
}
