//! # focus-distiller
//!
//! Topic distillation (§2.2): relevance-weighted HITS over the growing
//! crawl graph. Edge weights follow §2.2.2 —
//!
//! * forward weight `EF[u,v] = relevance(v)`: a hub only confers prestige
//!   through links that were (probably) made *because the target is
//!   topical*, preventing "leakage of endorsement from relevant hubs to
//!   irrelevant authorities";
//! * backward weight `EB[u,v] = relevance(u)`: an authority only reflects
//!   prestige to topical hubs.
//!
//! Plus the two hygiene rules of Figure 4: the **nepotism filter**
//! (`sid_src <> sid_dst` — same-server endorsements don't count) and the
//! **relevance threshold ρ** on authority candidates.
//!
//! Two implementations live here, and a third in `focus-eval`:
//!
//! * [`graph::LinkGraph`] + [`graph::GraphSnapshot::distill`] — what a
//!   crawl runs: the session's one in-memory link/relevance state as a
//!   dense arena, and the recursion as a kernel over `Vec<f64>` score
//!   arrays on an owned snapshot, so no lock is held while it iterates;
//! * [`memory::WeightedHits`] — the reference: the pre-relational
//!   main-memory edge-walk ("an array of links would be traversed,
//!   reading and updating the endpoints using node hashes"). No crawl
//!   calls it; the kernel is property-checked against it
//!   (`tests/graph_props.rs`) and Figure 8(d) and the benchmark's stage
//!   replay time it;
//! * `focus_eval::distiller_db` — the Figure 8(d) exhibit: the Figure 4
//!   SQL (one aggregate join per direction; ≈3× faster in the paper)
//!   and the naive edge-at-a-time plan against `LINK`/`HUBS`/`AUTH`
//!   tables. It lives with the figure, not in this crate.

#![forbid(unsafe_code)]

pub mod graph;
pub mod memory;

use focus_types::Oid;

/// Distillation parameters.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Mutual-recursion iterations (the paper runs few; scores only steer
    /// crawl priorities).
    pub iterations: usize,
    /// Relevance threshold ρ for authority candidacy (Figure 4's
    /// `relevance > ρ` filter).
    pub rho: f64,
    /// Apply the same-server nepotism filter?
    pub nepotism_filter: bool,
    /// Use relevance-weighted edges? (`false` = plain HITS, the ablation.)
    pub weighted_edges: bool,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            iterations: 10,
            rho: 0.05,
            nepotism_filter: true,
            weighted_edges: true,
        }
    }
}

/// One hyperlink with server metadata and relevance weights — a row of the
/// `LINK` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEdge {
    /// Source page.
    pub src: Oid,
    /// Source server.
    pub sid_src: u32,
    /// Target page.
    pub dst: Oid,
    /// Target server.
    pub sid_dst: u32,
    /// `EF[u,v] = relevance(v)`.
    pub wgt_fwd: f64,
    /// `EB[u,v] = relevance(u)`.
    pub wgt_rev: f64,
}

/// Distillation output: scores sorted descending.
#[derive(Debug, Clone, Default)]
pub struct DistillResult {
    /// `(page, hub score)`, best first.
    pub hubs: Vec<(Oid, f64)>,
    /// `(page, authority score)`, best first.
    pub auths: Vec<(Oid, f64)>,
}

impl DistillResult {
    /// Top-k hubs.
    pub fn top_hubs(&self, k: usize) -> &[(Oid, f64)] {
        &self.hubs[..k.min(self.hubs.len())]
    }

    /// Top-k authorities.
    pub fn top_auths(&self, k: usize) -> &[(Oid, f64)] {
        &self.auths[..k.min(self.auths.len())]
    }

    /// Hub score of a page (0 when absent).
    pub fn hub_score(&self, oid: Oid) -> f64 {
        self.hubs
            .iter()
            .find(|(o, _)| *o == oid)
            .map_or(0.0, |(_, s)| *s)
    }

    /// The ψ-quantile of hub scores (the §3.7 monitor uses the 90th
    /// percentile to find "possibly missed neighbors of great hubs").
    pub fn hub_quantile(&self, q: f64) -> f64 {
        if self.hubs.is_empty() {
            return 0.0;
        }
        let mut scores: Vec<f64> = self.hubs.iter().map(|(_, s)| *s).collect();
        scores.sort_by(f64::total_cmp);
        let i = ((scores.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        scores[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_helpers() {
        let r = DistillResult {
            hubs: vec![(Oid(1), 0.5), (Oid(2), 0.3), (Oid(3), 0.2)],
            auths: vec![(Oid(9), 1.0)],
        };
        assert_eq!(r.top_hubs(2).len(), 2);
        assert_eq!(r.top_auths(5).len(), 1);
        assert_eq!(r.hub_score(Oid(2)), 0.3);
        assert_eq!(r.hub_score(Oid(99)), 0.0);
        assert!(r.hub_quantile(0.9) >= r.hub_quantile(0.1));
        assert_eq!(DistillResult::default().hub_quantile(0.9), 0.0);
    }
}
