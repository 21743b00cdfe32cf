//! Figure 5 — harvest rate: unfocused (a) vs. soft focus (b).
//!
//! "By far the most important indicator of the success of our system is
//! the harvest rate, or the average fraction of crawled pages that are
//! relevant." Both crawls start from the *same* keyword-search start set;
//! the y-axis is a moving average of R(p) as judged by the classifier
//! (which, as §3.4 argues, evaluates the architecture, not itself).

use crate::common::{Scale, World};
use crate::report::Series;
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::CrawlPolicy;

/// Figure 5 output.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Moving-average harvest of the unfocused baseline (Fig 5a).
    pub unfocused_avg100: Series,
    /// Moving-average harvest of soft focus, window 100 (Fig 5b).
    pub soft_avg100: Series,
    /// Moving-average harvest of soft focus, window 1000.
    pub soft_avg1000: Series,
    /// Tail-mean harvest (last half) per policy.
    pub unfocused_tail: f64,
    /// Soft-focus tail mean.
    pub soft_tail: f64,
    /// Overall mean harvest, unfocused.
    pub unfocused_mean: f64,
    /// Overall mean harvest, soft focus.
    pub soft_mean: f64,
    /// Soft-focus mean harvest re-measured by ad-hoc SQL over the crawl
    /// table (`avg(exp(relevance))`, the §3.7 applet aggregate) — the
    /// planner-served cross-check of the in-memory series.
    pub soft_sql_mean: f64,
    /// Fraction of visited pages above the R > e⁻¹ relevance cut, via a
    /// parameterized query (the cut binds as `?`).
    pub soft_sql_relevant_frac: f64,
}

/// Run one crawl with `policy` and return its raw harvest series.
pub fn run_crawl(world: &World, policy: CrawlPolicy, budget: u64) -> Series {
    run_crawl_with_session(world, policy, budget).0
}

/// Like [`run_crawl`], but also hands back the finished session so the
/// caller can point ad-hoc SQL at the crawl tables.
pub fn run_crawl_with_session(
    world: &World,
    policy: CrawlPolicy,
    budget: u64,
) -> (Series, std::sync::Arc<CrawlSession>) {
    let session = std::sync::Arc::new(
        CrawlSession::new(
            world.fetcher(),
            world.model.clone(),
            CrawlConfig {
                policy,
                threads: 4,
                max_fetches: budget,
                distill_every: if policy == CrawlPolicy::SoftFocus {
                    Some(400)
                } else {
                    None
                },
                hub_boost_top_k: if policy == CrawlPolicy::SoftFocus {
                    10
                } else {
                    0
                },
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(&world.start_set(20)).expect("seed");
    session.run().expect("crawl");
    let series = Series::new(
        format!("{policy:?}"),
        (session.landings().expect("landings").iter()).map(|l| (l.attempt as f64, l.relevance)),
    );
    (series, session)
}

fn moving_avg(s: &Series, window: usize) -> Series {
    let w = window.max(1);
    let mut out = Vec::new();
    let mut sum = 0.0;
    for (i, &(x, y)) in s.points.iter().enumerate() {
        sum += y;
        if i + 1 >= w {
            out.push((x, sum / w as f64));
            sum -= s.points[i + 1 - w].1;
        }
    }
    Series::new(format!("{} avg{w}", s.name), out)
}

/// Run the full Figure 5 experiment.
pub fn run(scale: Scale) -> Fig5 {
    let world = World::cycling(scale, 42);
    let budget = scale.fetch_budget();
    let unf = run_crawl(&world, CrawlPolicy::Unfocused, budget);
    let (soft, soft_session) = run_crawl_with_session(&world, CrawlPolicy::SoftFocus, budget);
    // The paper's live applet measures harvest by ad-hoc SQL (§3.7);
    // re-measure the finished crawl the same way as a cross-check on
    // the in-memory series. The relevance cut is a bound parameter.
    let (soft_sql_mean, soft_sql_relevant_frac) = soft_session.with_db_read(|db| {
        let mean = db
            .query("select avg(exp(relevance)) from crawl where visited = 1")
            .ok()
            .and_then(|rs| rs.scalar_f64())
            .unwrap_or(0.0);
        let visited = db
            .query("select count(*) from crawl where visited = 1")
            .ok()
            .and_then(|rs| rs.scalar_i64())
            .unwrap_or(0);
        let relevant = db
            .query_with(
                "select count(*) from crawl where visited = 1 and relevance > ?",
                &[minirel::Value::Float(-1.0)],
            )
            .ok()
            .and_then(|rs| rs.scalar_i64())
            .unwrap_or(0);
        (mean, relevant as f64 / visited.max(1) as f64)
    });
    let win = match scale {
        Scale::Tiny => 30,
        _ => 100,
    };
    Fig5 {
        unfocused_avg100: moving_avg(&unf, win),
        soft_avg100: moving_avg(&soft, win),
        soft_avg1000: moving_avg(&soft, win * 10),
        unfocused_tail: unf.tail_mean(0.5),
        soft_tail: soft.tail_mean(0.5),
        unfocused_mean: unf.tail_mean(1.0),
        soft_mean: soft.tail_mean(1.0),
        soft_sql_mean,
        soft_sql_relevant_frac,
    }
}

/// Print in the paper's terms.
pub fn print(f: &Fig5) {
    println!("--- Figure 5: harvest rate (cycling) ---");
    print!("{}", f.unfocused_avg100.ascii_chart(64, 10));
    print!("{}", f.soft_avg100.ascii_chart(64, 10));
    println!(
        "tail harvest: unfocused {:.4}  vs  soft focus {:.4}  (ratio {:.1}x)",
        f.unfocused_tail,
        f.soft_tail,
        f.soft_tail / f.unfocused_tail.max(1e-6)
    );
    println!(
        "SQL cross-check (planner): avg(exp(relevance)) = {:.4}, \
         {:.1}% of visited pages above the R > e^-1 cut",
        f.soft_sql_mean,
        f.soft_sql_relevant_frac * 100.0
    );
    println!(
        "paper: unfocused \"completely lost within the next hundred page fetches\"; \
         focused \"on an average, every second page is relevant\""
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_focus_dominates_unfocused() {
        let f = run(Scale::Tiny);
        // 1.5x, not 2x: with 4 worker threads the claim order (and thus
        // the unfocused crawl's wander) varies with scheduler load.
        assert!(
            f.soft_tail > 1.5 * f.unfocused_tail,
            "tail: soft {} vs unfocused {}",
            f.soft_tail,
            f.unfocused_tail
        );
        assert!(
            f.soft_mean > 1.5 * f.unfocused_mean,
            "mean: soft {} vs unfocused {}",
            f.soft_mean,
            f.unfocused_mean
        );
        assert!(f.soft_mean > 0.25, "absolute soft harvest {}", f.soft_mean);
        assert!(
            f.soft_sql_mean > 0.0 && f.soft_sql_mean <= 1.0,
            "SQL cross-check harvest {}",
            f.soft_sql_mean
        );
        assert!(!f.soft_avg100.points.is_empty());
    }
}
