//! Crawl policies (§2.1.2): how classification steers link expansion.

use focus_classifier::compiled::EvalSummary;

/// The three policies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlPolicy {
    /// Standard-crawler baseline (Figure 5(a)): every outlink enqueued at
    /// a fixed neutral priority; classification happens only so harvest
    /// can be measured.
    Unfocused,
    /// Hard focus: expand outlinks only when the page's best leaf class
    /// has a good ancestor. The paper: "this turns out not to be a good
    /// rule; crawls controlled by this rule may stagnate".
    HardFocus,
    /// Soft focus (Eq. 3): always expand; an outlink inherits the source
    /// page's R(d) as its frontier priority. "More robust" — the paper
    /// reports only this rule.
    SoftFocus,
}

/// What the policy decides for one fetched page.
#[derive(Debug, Clone, Copy)]
pub struct Expansion {
    /// Insert this page's outlinks into the frontier?
    pub expand: bool,
    /// log-relevance priority the outlinks inherit.
    pub child_log_relevance: f64,
}

impl CrawlPolicy {
    /// Apply the policy to a classified page. The decision needs only
    /// the relevance scalar and the hard-focus verdict on the page's
    /// best leaf, both of which the compiled engine returns by value.
    pub fn decide_eval(&self, eval: &EvalSummary) -> Expansion {
        match self {
            CrawlPolicy::Unfocused => Expansion {
                expand: true,
                child_log_relevance: 0.0,
            },
            CrawlPolicy::HardFocus => Expansion {
                expand: eval.hard_accepts,
                // Accepted pages' links get top priority (R treated as 1).
                child_log_relevance: 0.0,
            },
            CrawlPolicy::SoftFocus => Expansion {
                expand: true,
                child_log_relevance: log_clamped(eval.relevance),
            },
        }
    }

    /// The policy's name, as events and `CRAWL_STATE.policy` spell it.
    pub fn name(self) -> &'static str {
        match self {
            CrawlPolicy::Unfocused => "Unfocused",
            CrawlPolicy::HardFocus => "HardFocus",
            CrawlPolicy::SoftFocus => "SoftFocus",
        }
    }

    /// The policy [`CrawlPolicy::name`] spells `name`.
    pub fn from_name(name: &str) -> Option<CrawlPolicy> {
        let all = [Self::Unfocused, Self::HardFocus, Self::SoftFocus];
        all.into_iter().find(|p| p.name() == name)
    }
}

/// `ln R` with a floor so log-space priorities stay finite.
pub fn log_clamped(r: f64) -> f64 {
    r.max(1e-9).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_types::ClassId;

    /// A page classified at relevance `r`, hard-accepted or not.
    fn eval(r: f64, hard_accepts: bool) -> EvalSummary {
        EvalSummary {
            best_leaf: ClassId(3),
            best_leaf_prob: 0.9,
            relevance: r,
            hard_accepts,
        }
    }

    #[test]
    fn unfocused_always_expands_neutrally() {
        let e = CrawlPolicy::Unfocused.decide_eval(&eval(0.01, false));
        assert!(e.expand);
        assert_eq!(e.child_log_relevance, 0.0);
    }

    #[test]
    fn hard_focus_gates_on_acceptance() {
        assert!(CrawlPolicy::HardFocus.decide_eval(&eval(0.9, true)).expand);
        assert!(!CrawlPolicy::HardFocus.decide_eval(&eval(0.9, false)).expand);
    }

    #[test]
    fn compiled_summary_path_agrees_with_reference_path() {
        // The decision reads the relevance and the hard-focus verdict
        // and nothing else of the summary: it is the §2.1.2 rule table.
        for r in [0.0, 0.3, 1.0] {
            for hard in [false, true] {
                for (leaf, prob) in [(3, 0.9), (7, 0.1)] {
                    let summary = EvalSummary {
                        best_leaf: ClassId(leaf),
                        best_leaf_prob: prob,
                        ..eval(r, hard)
                    };
                    for (policy, expand, child) in [
                        (CrawlPolicy::Unfocused, true, 0.0),
                        (CrawlPolicy::HardFocus, hard, 0.0),
                        (CrawlPolicy::SoftFocus, true, log_clamped(r)),
                    ] {
                        let e = policy.decide_eval(&summary);
                        assert_eq!((e.expand, e.child_log_relevance), (expand, child));
                    }
                }
            }
        }
    }

    #[test]
    fn soft_focus_inherits_relevance() {
        let e = CrawlPolicy::SoftFocus.decide_eval(&eval(0.5, false));
        assert!(e.expand);
        assert!((e.child_log_relevance - 0.5f64.ln()).abs() < 1e-12);
        // Floor keeps zero-relevance finite.
        let e = CrawlPolicy::SoftFocus.decide_eval(&eval(0.0, false));
        assert!(e.child_log_relevance.is_finite());
    }

    #[test]
    fn soft_focus_clamps_at_the_relevance_boundaries() {
        // R = 1 (perfectly relevant) maps to the top priority, ln 1 = 0.
        let top = CrawlPolicy::SoftFocus.decide_eval(&eval(1.0, true));
        assert_eq!(top.child_log_relevance, 0.0);
        // The floor at R = 1e-9 bounds every priority from below...
        let floor = 1e-9f64.ln();
        let bottom = CrawlPolicy::SoftFocus.decide_eval(&eval(0.0, false));
        assert_eq!(bottom.child_log_relevance, floor);
        // ...including degenerate negative posteriors from float error.
        let neg = CrawlPolicy::SoftFocus.decide_eval(&eval(-1e-12, false));
        assert_eq!(neg.child_log_relevance, floor);
        // Priorities are monotone in R above the floor.
        let lo = CrawlPolicy::SoftFocus.decide_eval(&eval(1e-9, false));
        let mid = CrawlPolicy::SoftFocus.decide_eval(&eval(0.3, false));
        assert!(lo.child_log_relevance < mid.child_log_relevance);
        assert!(mid.child_log_relevance < top.child_log_relevance);
    }

    #[test]
    fn hard_vs_soft_disagree_only_on_expansion() {
        // At the same relevance, hard focus gates expansion on the
        // acceptance predicate while soft focus always expands; hard
        // focus grants accepted pages top child priority (R treated as
        // 1), soft focus propagates the measured R.
        let hard_in = CrawlPolicy::HardFocus.decide_eval(&eval(0.4, true));
        let hard_out = CrawlPolicy::HardFocus.decide_eval(&eval(0.4, false));
        let soft = CrawlPolicy::SoftFocus.decide_eval(&eval(0.4, false));
        assert!(hard_in.expand && !hard_out.expand && soft.expand);
        assert_eq!(hard_in.child_log_relevance, 0.0);
        assert!((soft.child_log_relevance - 0.4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_clamped_boundaries() {
        assert_eq!(log_clamped(1.0), 0.0);
        assert_eq!(log_clamped(0.0), 1e-9f64.ln());
        assert_eq!(log_clamped(-5.0), 1e-9f64.ln());
        assert!(log_clamped(f64::MIN_POSITIVE) >= 1e-9f64.ln());
        // Above the floor the clamp is the identity under ln.
        assert!((log_clamped(0.7) - 0.7f64.ln()).abs() < 1e-15);
    }
}
