//! The crawl's link graph as a dense arena, and weighted HITS as a
//! kernel over an owned snapshot of it.
//!
//! A session keeps exactly one in-memory picture of what it has
//! learned about the web's link structure, and this is it:
//!
//! * every page ever seen as a link endpoint (or visited) is interned
//!   once, `Oid → u32` dense id, ids never change or disappear;
//! * per node, the server it lives on and its linear relevance `R` —
//!   present only for *visited* pages, which is also how the crawler
//!   asks "was this page fetched yet?";
//! * edges are two append-only `u32` columns `(src, dst)` in discovery
//!   order: 8 bytes per link, filled in O(outlinks) when a page lands.
//!
//! Distillation never runs against the live graph. [`LinkGraph::snapshot`]
//! copies the flat columns (no hash map, ~1 MB at 75k edges) and
//! [`GraphSnapshot::distill`] iterates over `Vec<f64>` score arrays
//! indexed by dense id — the harvesting model: compute from what was
//! harvested, never against the live provider. The caller holds no lock
//! while it runs, and because ids are stable a result computed on a
//! snapshot can be applied to the (since grown) live graph.
//!
//! The kernel is the same recursion as [`crate::memory::WeightedHits`]
//! — uniform start over distinct targets, `cfg.iterations` rounds, edge
//! weights `EF[u,v] = R(v)`, `EB[u,v] = R(u)` read per node instead of
//! per edge, nepotism and ρ filters from `sid`/`rel` — and per-node
//! sums are accumulated in the same edge order, so the two agree to
//! within the rounding of the normalization sums
//! (`tests/graph_props.rs` holds them to 1e-9).

use crate::{DistillConfig, DistillResult};
use focus_types::hash::FxHashMap;
use focus_types::Oid;

/// `rel` value of a page that has not been visited.
const UNVISITED: f64 = f64::NAN;

/// One endpoint of a link, as the graph knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Page identity.
    pub oid: Oid,
    /// The server the page lives on (learned from its links).
    pub sid: u32,
    /// Linear relevance; `None` until the page has been visited.
    pub relevance: Option<f64>,
}

/// The flat columns of a [`LinkGraph`], owned: what a distillation pass
/// runs on after the lock that guards the live graph is released.
#[derive(Debug, Clone, Default)]
pub struct GraphSnapshot {
    oids: Vec<Oid>,
    sid: Vec<u32>,
    /// Linear relevance per node; [`UNVISITED`] (NaN) when not visited.
    rel: Vec<f64>,
    src: Vec<u32>,
    dst: Vec<u32>,
}

/// The live link graph of a crawl session (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct LinkGraph {
    ids: FxHashMap<Oid, u32>,
    cols: GraphSnapshot,
}

impl LinkGraph {
    /// An empty graph.
    pub fn new() -> LinkGraph {
        LinkGraph::default()
    }

    fn intern(&mut self, oid: Oid) -> u32 {
        let cols = &mut self.cols;
        *self.ids.entry(oid).or_insert_with(|| {
            let id = u32::try_from(cols.oids.len()).expect("fewer than 2^32 pages in one crawl");
            cols.oids.push(oid);
            cols.sid.push(0);
            cols.rel.push(UNVISITED);
            id
        })
    }

    /// The dense id of page `oid` on server `sid`, interning it on
    /// first sight. A page lives on one server; the latest report wins.
    pub fn node_id(&mut self, oid: Oid, sid: u32) -> u32 {
        let id = self.intern(oid);
        self.cols.sid[id as usize] = sid;
        id
    }

    /// Append the link `src → dst`, where `src` is a dense id from
    /// [`LinkGraph::node_id`]. Repeated links are kept (each counts,
    /// as each `LINK` row does).
    pub fn add_link(&mut self, src: u32, dst: Oid, sid_dst: u32) {
        let dst = self.node_id(dst, sid_dst);
        self.cols.src.push(src);
        self.cols.dst.push(dst);
    }

    /// Record (or re-record, after a topic re-mark) the linear relevance
    /// of a visited page. From here on the page counts as visited.
    pub fn set_relevance(&mut self, oid: Oid, relevance: f64) {
        debug_assert!(!relevance.is_nan(), "NaN marks unvisited pages");
        let id = self.intern(oid);
        self.cols.rel[id as usize] = relevance;
    }

    /// Linear relevance of `oid`; `None` unless it has been visited.
    pub fn relevance(&self, oid: Oid) -> Option<f64> {
        let &id = self.ids.get(&oid)?;
        self.cols.node(id).relevance
    }

    /// The node behind a dense id (ids come from this graph or from a
    /// snapshot of it, so they are always in range).
    pub fn node(&self, id: u32) -> Node {
        self.cols.node(id)
    }

    /// Every link `(source, target)` in discovery order.
    pub fn links(&self) -> impl Iterator<Item = (Node, Node)> + '_ {
        let cols = &self.cols;
        cols.src
            .iter()
            .zip(&cols.dst)
            .map(|(&s, &d)| (cols.node(s), cols.node(d)))
    }

    /// Links from a visited page to one not visited yet, as `(target,
    /// R(source))` in discovery order: where the crawl has been pointed
    /// and has not been.
    pub fn pending_links(&self) -> impl Iterator<Item = (Node, f64)> + '_ {
        let pending = |(src, dst): (Node, Node)| match (src.relevance, dst.relevance) {
            (Some(r), None) => Some((dst, r)),
            _ => None,
        };
        self.links().filter_map(pending)
    }

    /// `(page, linear relevance)` of every visited page, in dense-id
    /// order.
    pub fn visited(&self) -> impl Iterator<Item = (Oid, f64)> + '_ {
        let cols = &self.cols;
        cols.oids
            .iter()
            .zip(&cols.rel)
            .filter(|(_, r)| !r.is_nan())
            .map(|(&o, &r)| (o, r))
    }

    /// Links recorded.
    pub fn num_links(&self) -> usize {
        self.cols.src.len()
    }

    /// An owned copy of the flat columns: a memcpy of five vectors, no
    /// hash map. Everything [`GraphSnapshot::distill`] needs.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.cols.clone()
    }
}

/// What one pass over a snapshot produced.
#[derive(Debug, Clone, Default)]
pub struct Distilled {
    /// Hub and authority scores, best first.
    pub result: DistillResult,
    /// Dense ids of the pages the top hubs endorse: targets of the
    /// cross-server links of the `boost_top_k` best hubs that the
    /// snapshot saw as unvisited — one entry per link, in discovery
    /// order. Ids are valid in the graph the snapshot was cut from;
    /// whether a target is *still* unvisited is for the caller to
    /// re-check there.
    pub endorsed: Vec<u32>,
}

impl GraphSnapshot {
    fn node(&self, id: u32) -> Node {
        let i = id as usize;
        let r = self.rel[i];
        Node {
            oid: self.oids[i],
            sid: self.sid[i],
            relevance: (!r.is_nan()).then_some(r),
        }
    }

    /// Links in the snapshot.
    pub fn num_links(&self) -> usize {
        self.src.len()
    }

    /// Run `cfg.iterations` rounds of the Figure 4 mutual recursion from
    /// the uniform start, and collect the unvisited pages the
    /// `boost_top_k` best hubs endorse.
    ///
    /// Cost: two passes over every edge (the uniform start and the first
    /// hub update see them all), then two sweeps per iteration over the
    /// *active* edges only — non-nepotistic links into targets with
    /// `R > ρ`. No other edge can carry authority (the ρ filter drops
    /// its target from `AUTH`) or, from the second hub update on,
    /// hub score (its target has no authority to reflect), so the active
    /// list is compacted once and the membership of both score sets is
    /// fixed after the first iteration.
    pub fn distill(&self, cfg: &DistillConfig, boost_top_k: usize) -> Distilled {
        let n = self.oids.len();
        let keep =
            |s: u32, d: u32| !cfg.nepotism_filter || self.sid[s as usize] != self.sid[d as usize];
        // Uniform start: every distinct link target, filtered or not.
        let mut targets = Members::new(n);
        for &d in &self.dst {
            targets.add(d);
        }
        if targets.list.is_empty() {
            return Distilled::default();
        }
        let uniform = 1.0 / targets.list.len() as f64;
        if cfg.iterations == 0 {
            let auths = self.ranked(&targets.list, &vec![uniform; n]);
            return Distilled {
                result: DistillResult {
                    hubs: Vec::new(),
                    auths: self.with_oids(auths),
                },
                endorsed: Vec::new(),
            };
        }

        // `R` with unvisited pages at 0, as the ρ filter and the edge
        // weights read it.
        let rel: Vec<f64> = self
            .rel
            .iter()
            .map(|&r| if r.is_nan() { 0.0 } else { r })
            .collect();
        let ones;
        let w: &[f64] = if cfg.weighted_edges {
            &rel
        } else {
            ones = vec![1.0; n];
            &ones
        };

        // First hub update over every kept edge, compacting the active
        // edges and both steady-state member lists on the way.
        let mut hub = vec![0.0f64; n];
        let mut auth = vec![0.0f64; n];
        let mut first_hubs = Members::new(n);
        let mut hubs = Members::new(n);
        let mut auths = Members::new(n);
        let mut act_src: Vec<u32> = Vec::new();
        let mut act_dst: Vec<u32> = Vec::new();
        for (&s, &d) in self.src.iter().zip(&self.dst) {
            if !keep(s, d) {
                continue;
            }
            first_hubs.add(s);
            hub[s as usize] += uniform * w[s as usize];
            if rel[d as usize] > cfg.rho {
                act_src.push(s);
                act_dst.push(d);
                hubs.add(s);
                auths.add(d);
            }
        }
        normalize(&mut hub, &first_hubs.list);
        for round in 0..cfg.iterations {
            if round > 0 {
                // UpdateHubs: h(u) = Σ a(v)·R(u). After round 0 only
                // sources of active edges are members.
                let stale = if round == 1 { &first_hubs } else { &hubs };
                for &s in &stale.list {
                    hub[s as usize] = 0.0;
                }
                for (&s, &d) in act_src.iter().zip(&act_dst) {
                    hub[s as usize] += auth[d as usize] * w[s as usize];
                }
                normalize(&mut hub, &hubs.list);
            }
            // UpdateAuth: a(v) = Σ h(u)·R(v) over targets with R > ρ.
            for &d in &auths.list {
                auth[d as usize] = 0.0;
            }
            for (&s, &d) in act_src.iter().zip(&act_dst) {
                auth[d as usize] += hub[s as usize] * w[d as usize];
            }
            normalize(&mut auth, &auths.list);
        }
        let hub_members = if cfg.iterations == 1 {
            &first_hubs
        } else {
            &hubs
        };
        let hubs_ranked = self.ranked(&hub_members.list, &hub);
        let auths_ranked = self.ranked(&auths.list, &auth);

        let mut endorsed = Vec::new();
        if boost_top_k > 0 {
            let mut top = Members::new(n);
            for &(h, _) in hubs_ranked.iter().take(boost_top_k) {
                top.add(h);
            }
            for (&s, &d) in self.src.iter().zip(&self.dst) {
                let (si, di) = (s as usize, d as usize);
                if top.seen[si] && self.sid[si] != self.sid[di] && self.rel[di].is_nan() {
                    endorsed.push(d);
                }
            }
        }
        Distilled {
            result: DistillResult {
                hubs: self.with_oids(hubs_ranked),
                auths: self.with_oids(auths_ranked),
            },
            endorsed,
        }
    }

    fn with_oids(&self, ranked: Vec<(u32, f64)>) -> Vec<(Oid, f64)> {
        let oid = |(i, s): (u32, f64)| (self.oids[i as usize], s);
        ranked.into_iter().map(oid).collect()
    }

    /// `(dense id, score)` of `members`, best first; ties by oid.
    fn ranked(&self, members: &[u32], score: &[f64]) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = members.iter().map(|&i| (i, score[i as usize])).collect();
        v.sort_unstable_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then_with(|| self.oids[a.0 as usize].cmp(&self.oids[b.0 as usize]))
        });
        v
    }
}

/// A set of dense ids that remembers the order its members arrived in.
struct Members {
    seen: Vec<bool>,
    list: Vec<u32>,
}

impl Members {
    fn new(nodes: usize) -> Members {
        Members {
            seen: vec![false; nodes],
            list: Vec::new(),
        }
    }

    fn add(&mut self, id: u32) {
        if !std::mem::replace(&mut self.seen[id as usize], true) {
            self.list.push(id);
        }
    }
}

/// Scale `members`' scores to sum to 1 (left alone when they sum to 0).
fn normalize(score: &mut [f64], members: &[u32]) {
    let sum: f64 = members.iter().map(|&i| score[i as usize]).sum();
    if sum > 0.0 {
        for &i in members {
            score[i as usize] /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_relevance_marks_visited() {
        let mut g = LinkGraph::new();
        let a = g.node_id(Oid(7), 1);
        g.add_link(a, Oid(9), 2);
        g.add_link(a, Oid(9), 2);
        assert_eq!(g.node_id(Oid(7), 1), a, "interned once");
        assert_eq!(g.num_links(), 2, "repeated links are kept");
        assert_eq!(g.relevance(Oid(9)), None);
        assert_eq!(g.relevance(Oid(1234)), None, "unknown page");
        g.set_relevance(Oid(9), 0.0);
        assert_eq!(g.relevance(Oid(9)), Some(0.0), "R = 0 is still visited");
        g.set_relevance(Oid(9), 0.4);
        assert_eq!(g.visited().collect::<Vec<_>>(), vec![(Oid(9), 0.4)]);
        let (s, d) = g.links().next().unwrap();
        assert_eq!((s.oid, s.sid, d.oid, d.sid), (Oid(7), 1, Oid(9), 2));
        assert_eq!(d.relevance, Some(0.4));
        assert_eq!(g.pending_links().count(), 0, "no visited source yet");
        g.set_relevance(Oid(7), 0.6);
        assert_eq!(g.pending_links().count(), 0, "the target is visited");
        g.add_link(a, Oid(11), 3);
        let pending: Vec<_> = g.pending_links().map(|(d, r)| (d.oid, d.sid, r)).collect();
        assert_eq!(pending, vec![(Oid(11), 3, 0.6)]);
    }

    #[test]
    fn snapshot_is_independent_of_later_growth() {
        let mut g = LinkGraph::new();
        let a = g.node_id(Oid(1), 10);
        g.set_relevance(Oid(1), 0.9);
        g.set_relevance(Oid(4), 0.7);
        g.add_link(a, Oid(2), 20);
        g.add_link(a, Oid(4), 40);
        let snap = g.snapshot();
        g.add_link(a, Oid(3), 30);
        g.set_relevance(Oid(2), 0.8);
        assert_eq!(snap.num_links(), 2);
        let out = snap.distill(&DistillConfig::default(), 1);
        assert_eq!(out.result.hubs, vec![(Oid(1), 1.0)]);
        assert_eq!(out.result.auths, vec![(Oid(4), 1.0)]);
        // Page 2 was unvisited when the snapshot was cut, so hub 1
        // endorses it; the live graph knows it has been visited since.
        assert_eq!(out.endorsed.len(), 1);
        assert_eq!(g.node(out.endorsed[0]).oid, Oid(2));
        assert_eq!(g.node(out.endorsed[0]).relevance, Some(0.8));
    }

    #[test]
    fn empty_graph_distills_to_nothing() {
        let out = LinkGraph::new()
            .snapshot()
            .distill(&DistillConfig::default(), 10);
        assert!(out.result.hubs.is_empty() && out.result.auths.is_empty());
        assert!(out.endorsed.is_empty());
    }
}
