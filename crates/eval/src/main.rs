//! The paper's evaluation (§3, Figures 5–8) through one door:
//!
//! ```sh
//! cargo run --release -p focus-eval -- <experiment|all> [tiny|small|full]
//! ```
//!
//! [`EXPERIMENTS`] is the one place an experiment is registered: the
//! table serves dispatch, `all` and the usage text. Each entry runs its
//! module at the given scale, prints the figure in the paper's format
//! and answers with its paper-vs-measured [`Comparison`] row.

use focus_eval::report::{print_comparisons, Comparison};
use focus_eval::*;

/// Run at a scale, print the figure, answer with the comparison row.
type Experiment = fn(Scale) -> Comparison;

/// Every experiment by the name the command line takes, in the order
/// `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("fig8c", fig8c),
    ("fig8d", fig8d),
    ("radius", radius),
    ("sociology", sociology),
    ("scaling", scaling),
    ("chaos", chaos),
];

/// Runs every table entry, in table order.
const ALL: &str = "all";

/// The twelve words the command line takes as its first argument.
fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(n, _)| n).chain([ALL])
}

fn fig5(scale: Scale) -> Comparison {
    let f5 = fig5_harvest::run(scale);
    fig5_harvest::print(&f5);
    Comparison {
        experiment: "Fig 5".into(),
        paper: "unfocused collapses; focused ~every 2nd page relevant".into(),
        measured: format!(
            "tail harvest: unfocused {:.3}, soft {:.3}",
            f5.unfocused_tail, f5.soft_tail
        ),
        holds: f5.soft_tail > 2.0 * f5.unfocused_tail && f5.soft_tail > 0.25,
    }
}

fn fig6(scale: Scale) -> Comparison {
    let f6 = fig6_coverage::run(scale);
    fig6_coverage::print(&f6);
    Comparison {
        experiment: "Fig 6".into(),
        paper: "~83% URL / ~90% server coverage".into(),
        measured: format!(
            "{:.0}% URL / {:.0}% server",
            f6.final_url_coverage * 100.0,
            f6.final_server_coverage * 100.0
        ),
        holds: f6.final_url_coverage > 0.4 && f6.final_server_coverage > 0.5,
    }
}

fn fig7(scale: Scale) -> Comparison {
    let f7 = fig7_distance::run(scale);
    fig7_distance::print(&f7);
    Comparison {
        experiment: "Fig 7".into(),
        paper: "authorities up to 12-15 links out".into(),
        measured: format!(
            "max distance {}, {:.0}% beyond 2 links",
            f7.max_distance,
            f7.frac_beyond_2 * 100.0
        ),
        holds: f7.max_distance >= 3,
    }
}

fn fig8a(scale: Scale) -> Comparison {
    let f8a = fig8a_classifier::run(scale);
    fig8a_classifier::print(&f8a);
    Comparison {
        experiment: "Fig 8a".into(),
        paper: ">10x bulk over SingleProbe(SQL)".into(),
        measured: format!(
            "SQL/CLI {:.1}x, BLOB/CLI {:.1}x",
            f8a.sql_over_cli, f8a.blob_over_cli
        ),
        holds: f8a.sql_over_cli > 2.0 && f8a.sql_over_cli > f8a.blob_over_cli,
    }
}

fn fig8b(scale: Scale) -> Comparison {
    let f8b = fig8b_memory::run(scale);
    fig8b_memory::print(&f8b);
    Comparison {
        experiment: "Fig 8b".into(),
        paper: "single improves continually; bulk stabilizes".into(),
        measured: format!(
            "single phys reads {:?} -> {:?}; bulk {:?} -> {:?}",
            f8b.single_io.points.first().map(|p| p.1),
            f8b.single_io.points.last().map(|p| p.1),
            f8b.bulk_io.points.first().map(|p| p.1),
            f8b.bulk_io.points.last().map(|p| p.1)
        ),
        holds: f8b.holds().is_ok(),
    }
}

fn fig8c(scale: Scale) -> Comparison {
    let f8c = fig8c_output::run(scale);
    fig8c_output::print(&f8c);
    Comparison {
        experiment: "Fig 8c".into(),
        paper: "roughly linear in output size".into(),
        measured: format!("R^2 = {:.3}", f8c.r_squared),
        holds: f8c.r_squared > 0.5,
    }
}

fn fig8d(scale: Scale) -> Comparison {
    let f8d = fig8d_distiller::run(scale);
    fig8d_distiller::print(&f8d);
    Comparison {
        experiment: "Fig 8d".into(),
        paper: "join ~3x faster than naive".into(),
        measured: format!("{:.1}x over {} edges", f8d.ratio, f8d.num_edges),
        holds: f8d.ratio > 1.5,
    }
}

fn radius(scale: Scale) -> Comparison {
    let radius = radius_rules::run(scale);
    radius_rules::print(&radius);
    Comparison {
        experiment: "Radius-2".into(),
        paper: "~45% chance of a second same-topic link".into(),
        measured: format!(
            "P(2nd|1st) = {:.2} (cycling)",
            radius.first().map(|r| r.r2_second).unwrap_or(0.0)
        ),
        holds: radius.iter().all(|r| r.r2_second > 0.25),
    }
}

fn sociology(scale: Scale) -> Comparison {
    let soc = citation_sociology::run(scale);
    citation_sociology::print(&soc);
    Comparison {
        experiment: "Citation sociology".into(),
        paper: "first aid within one link of bicycling".into(),
        measured: format!(
            "top lift: {}",
            soc.first().map(|l| l.topic.as_str()).unwrap_or("-")
        ),
        holds: soc
            .first()
            .map(|l| l.topic == "health/first-aid")
            .unwrap_or(false),
    }
}

fn scaling(scale: Scale) -> Comparison {
    println!("\n--- cluster scaling (1/2/4 shards, equal total workers) ---");
    let scal = scaling::run(scale);
    scal.print();
    let s1 = scal.row(1).expect("the standard table measures 1 shard");
    let s4 = scal.row(4).expect("the standard table measures 4 shards");
    Comparison {
        experiment: "Sharded crawl".into(),
        paper: "title: *distributed* discovery; partitioning must not cost precision".into(),
        measured: format!(
            "4-shard {:.0} vs single {:.0} pages/sec; harvest {:.3} vs {:.3}",
            s4.pages_per_sec, s1.pages_per_sec, s4.harvest, s1.harvest
        ),
        holds: s4.pages_per_sec >= s1.pages_per_sec * 0.9 && s4.harvest > s1.harvest - 0.1,
    }
}

fn chaos(scale: Scale) -> Comparison {
    println!("\n--- chaos matrix (fault profiles vs clean baseline) ---");
    let cha = chaos::run(scale);
    cha.print();
    let clean = cha.clean();
    let flaky = cha
        .row("flaky")
        .expect("the standard matrix has a flaky row");
    let outage = cha
        .row("outage")
        .expect("the standard matrix has an outage row");
    Comparison {
        experiment: "Chaos matrix".into(),
        paper: "robustness: crawler survives dead links, slow servers (§3.1)".into(),
        measured: format!(
            "flaky ok {}/{} clean; outage quar {} recov {}, tail {:.3} vs {:.3}",
            flaky.successes,
            clean.successes,
            outage.quarantines,
            outage.recoveries,
            outage.tail_harvest,
            clean.tail_harvest,
        ),
        holds: flaky.successes as f64 >= 0.5 * clean.successes as f64
            && outage.quarantines > 0
            && outage.recoveries > 0
            && outage.tail_harvest >= clean.tail_harvest - 0.1,
    }
}

/// `<experiment|all> [scale]`, strictly: an unknown experiment, an
/// unknown scale, a stray argument or no argument at all is an error
/// that lists the valid names; no scale means `small`.
fn parse_args(args: &[String]) -> Result<(&'static str, Scale), String> {
    let usage = |why: String| {
        let names: Vec<&str> = names().collect();
        format!(
            "{why}\nusage: focus-eval <{}> [tiny|small|full]",
            names.join("|")
        )
    };
    let (name, scale) = match args {
        [] => return Err(usage("no experiment named".into())),
        [name] => (name, None),
        [name, scale] => (name, Some(scale.as_str())),
        [_, _, stray, ..] => return Err(usage(format!("stray argument {stray:?}"))),
    };
    let name = names()
        .find(|n| *n == name.as_str())
        .ok_or_else(|| usage(format!("unknown experiment {name:?}")))?;
    Ok((name, Scale::from_arg(scale).map_err(usage)?))
}

/// Run one experiment (or, for `all`, every one in table order),
/// printing each figure as it completes; the comparison rows come back
/// in the same order.
fn run(name: &str, scale: Scale) -> Vec<Comparison> {
    println!("running {name} at {scale:?} scale\n");
    EXPERIMENTS
        .iter()
        .filter(|&&(n, _)| name == ALL || name == n)
        .map(|&(_, experiment)| experiment(scale))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((name, scale)) => {
            let comparisons = run(name, scale);
            println!();
            print_comparisons(&comparisons);
        }
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_registered_name_parses_with_and_without_each_scale() {
        let scales = [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("full", Scale::Full),
        ];
        for name in names() {
            assert_eq!(parse_args(&args(&[name])), Ok((name, Scale::Small)));
            for (word, scale) in scales {
                assert_eq!(parse_args(&args(&[name, word])), Ok((name, scale)));
            }
        }
    }

    #[test]
    fn a_mistyped_command_line_is_an_error_that_lists_what_is_valid() {
        for bad in [
            &["fig5", "ful"][..],
            &["figs"],
            &["fig5", "tiny", "extra"],
            &["fig5", "--scale", "full"],
            &[],
        ] {
            let err = parse_args(&args(bad)).expect_err(&format!("{bad:?} parsed"));
            let usage = err.lines().last().unwrap();
            let listed: Vec<&str> = usage
                .split(['<', '>', '[', ']', '|', ' '])
                .filter(|w| !w.is_empty())
                .collect();
            for name in names() {
                assert!(listed.contains(&name), "{bad:?}: {name} not in {usage:?}");
            }
            for scale in ["tiny", "small", "full"] {
                assert!(listed.contains(&scale), "{bad:?}: {scale} not in {usage:?}");
            }
        }
    }

    #[test]
    fn the_table_holds_eleven_distinct_names_and_all_is_not_one() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
        assert!(!names.contains(&ALL));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn all_at_tiny_scale_runs_every_experiment_and_returns_its_row() {
        let rows = run(ALL, Scale::Tiny);
        let experiments: Vec<&str> = rows.iter().map(|r| r.experiment.as_str()).collect();
        assert_eq!(
            experiments,
            [
                "Fig 5",
                "Fig 6",
                "Fig 7",
                "Fig 8a",
                "Fig 8b",
                "Fig 8c",
                "Fig 8d",
                "Radius-2",
                "Citation sociology",
                "Sharded crawl",
                "Chaos matrix"
            ]
        );
        assert!(rows.iter().all(|r| !r.measured.is_empty()));
    }
}
