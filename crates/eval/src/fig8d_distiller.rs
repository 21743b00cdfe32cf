//! Figure 8(d) — distillation running time: naive sequential edge-walk
//! (scan + per-edge index lookups + per-edge updates) vs the join-based
//! Figure 4 plan. "The join approach is a factor of three faster."

use crate::common::{Scale, World};
use crate::distiller_db::{
    create_crawl_stub, create_tables, init_auth_uniform, join_iteration, load_links,
    naive_iteration,
};
use focus_distiller::memory::edges_from_links;
use focus_distiller::{DistillConfig, LinkEdge};
use focus_types::hash::FxHashMap;
use focus_types::Oid;
use minirel::Database;
use std::time::Instant;

/// Figure 8(d) output.
#[derive(Debug, Clone)]
pub struct Fig8d {
    /// Edges in the crawl graph.
    pub num_edges: usize,
    /// Naive iteration total, µs (the median repetition).
    pub naive_us: f64,
    /// Breakdown of that repetition (scan, lookup, update) in µs.
    pub naive_breakdown: (f64, f64, f64),
    /// Join iteration total, µs (the median repetition).
    pub join_us: f64,
    /// naive / join speed ratio.
    pub ratio: f64,
    /// Physical reads: naive vs join.
    pub physical_reads: (u64, u64),
}

/// Build a topical crawl graph from the simulator's ground truth plus the
/// trained classifier's relevance scores (what a real crawl would hold in
/// `CRAWL`/`LINK` after a session).
pub fn build_graph(scale: Scale) -> (Vec<LinkEdge>, FxHashMap<Oid, f64>) {
    let world = World::cycling(scale, 31);
    let n_pages = match scale {
        Scale::Tiny => 600,
        Scale::Small => 2000,
        Scale::Full => 6000,
    };
    // Prefer topical pages (like a focused crawl would), then pad with
    // whatever follows.
    let mut pages: Vec<&focus_webgraph::SimPage> = world
        .graph
        .pages()
        .iter()
        .filter(|p| {
            world.taxonomy.is_ancestor(focus_types::ClassId(1), p.topic) || p.topic == world.topic
        })
        .collect();
    for p in world.graph.pages() {
        if pages.len() >= n_pages {
            break;
        }
        if !pages.iter().any(|q| q.oid == p.oid) {
            pages.push(p);
        }
    }
    pages.truncate(n_pages);
    let in_set: std::collections::HashSet<Oid> = pages.iter().map(|p| p.oid).collect();
    let mut relevance: FxHashMap<Oid, f64> = FxHashMap::default();
    let mut scratch = world.compiled.scratch();
    for p in &pages {
        relevance.insert(
            p.oid,
            world
                .compiled
                .evaluate_into(&p.terms, &mut scratch)
                .relevance,
        );
    }
    let mut raw = Vec::new();
    for p in &pages {
        for &dst in &p.outlinks {
            if in_set.contains(&dst) {
                let sid_dst = world.graph.page(dst).map(|q| q.server.raw()).unwrap_or(0);
                raw.push((p.oid, p.server.raw(), dst, sid_dst));
            }
        }
    }
    (edges_from_links(&raw, &relevance), relevance)
}

/// Timed repetitions per plan; each plan's time is their median.
const REPS: usize = 5;

/// Run the comparison: one full iteration per plan on identical state,
/// `REPS` times, each on a fresh database and the two plans alternating.
/// Each plan reports its median repetition (time, breakdown and reads).
pub fn run(scale: Scale) -> Fig8d {
    let (edges, relevance) = build_graph(scale);
    let frames = 192;
    let cfg = DistillConfig::default();

    let mk_db = || -> Database {
        let mut db = Database::in_memory_with_frames(frames);
        create_tables(&mut db).expect("tables");
        create_crawl_stub(&mut db, &relevance).expect("crawl");
        load_links(&mut db, &edges).expect("links");
        init_auth_uniform(&mut db).expect("auth init");
        db.reset_io_stats();
        db
    };

    let mut naive = Vec::with_capacity(REPS);
    let mut join = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut db = mk_db();
        let t = Instant::now();
        let timing = naive_iteration(&mut db, &cfg).expect("naive");
        let us = t.elapsed().as_micros() as f64;
        naive.push((us, timing, db.io_stats().physical_reads));

        let mut db = mk_db();
        let t = Instant::now();
        join_iteration(&mut db, &cfg).expect("join");
        let us = t.elapsed().as_micros() as f64;
        join.push((us, db.io_stats().physical_reads));
    }
    naive.sort_by(|a, b| a.0.total_cmp(&b.0));
    join.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (naive_us, timing, naive_reads) = naive[REPS / 2];
    let (join_us, join_reads) = join[REPS / 2];

    Fig8d {
        num_edges: edges.len(),
        naive_us,
        naive_breakdown: (
            timing.scan.as_micros() as f64,
            timing.lookup.as_micros() as f64,
            timing.update.as_micros() as f64,
        ),
        join_us,
        ratio: naive_us / join_us.max(1.0),
        physical_reads: (naive_reads, join_reads),
    }
}

/// Print the comparison.
pub fn print(f: &Fig8d) {
    println!(
        "--- Figure 8(d): distillation running time ({} edges) ---",
        f.num_edges
    );
    let (scan, lookup, update) = f.naive_breakdown;
    println!(
        "naive (index): {:.0} us  [scan {:.0} | lookup {:.0} | update {:.0}]  phys reads {}",
        f.naive_us, scan, lookup, update, f.physical_reads.0
    );
    println!(
        "join:          {:.0} us  phys reads {}",
        f.join_us, f.physical_reads.1
    );
    println!(
        "ratio naive/join = {:.1}x   (paper: \"a factor of three faster\")",
        f.ratio
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_faster_and_lookup_dominates_naive() {
        let f = run(Scale::Tiny);
        assert!(f.num_edges > 200, "graph too small: {}", f.num_edges);
        assert!(
            f.ratio > 1.5,
            "join should clearly beat naive; ratio {} ({} vs {} us)",
            f.ratio,
            f.naive_us,
            f.join_us
        );
        let (scan, lookup, update) = f.naive_breakdown;
        assert!(
            lookup + update > scan,
            "per-edge work should dominate the sequential scan: {:?}",
            f.naive_breakdown
        );
    }
}
