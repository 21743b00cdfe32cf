//! Figure 8(a) — classifier running time: SQL vs BLOB vs CLI (bulk).
//!
//! The measured task is the one both Figure 2 and Figure 3 perform:
//! evaluate `Pr[ci | c0, d]` at a node `c0` for a batch of documents.
//! The SQL and BLOB bars probe per document per term; the CLI bar is the
//! sort-merge `BulkProbe`. The paper sees "over an order of magnitude
//! reduction in overall running time … using the bulk formulation"; wall
//! time here, plus machine-independent buffer-pool counters.
//!
//! A fourth bar, COMPILED, is ours rather than the paper's: the
//! zero-alloc CSR engine the crawl hot path runs
//! ([`focus_classifier::compiled::CompiledModel`]). It touches no
//! buffer-pool page at all, which is the point — per-page
//! classification cost is crawl throughput on a CPU-bound box.
//!
//! A fifth, FIG3-SQL, is the Figure 3 text itself run through the SQL
//! planner ([`bulk_posterior_sql`]), printed beside CLI and not gated.
//! Every bar is the median of five repetitions, the variants taking
//! turns.

use crate::bulk_probe::{bulk_posterior, bulk_posterior_sql};
use crate::common::{Scale, World};
use crate::single_probe::{SingleProbeBlob, SingleProbeSql};
use crate::tables::ClassifierTables;
use focus_classifier::compiled::CompiledModel;
use focus_types::{ClassId, DocId, Document};
use minirel::Database;
use std::time::Instant;

/// One variant's measurement.
#[derive(Debug, Clone)]
pub struct VariantCost {
    /// Variant name (SQL / BLOB / CLI / COMPILED / FIG3-SQL).
    pub name: String,
    /// Wall microseconds per document.
    pub us_per_doc: f64,
    /// Buffer-pool logical reads for the whole batch.
    pub logical_reads: u64,
    /// Buffer-pool physical reads for the whole batch.
    pub physical_reads: u64,
}

/// Figure 8(a) output.
#[derive(Debug, Clone)]
pub struct Fig8a {
    /// Per-variant costs, in paper order (SQL, BLOB, CLI), then our
    /// COMPILED bar and the Figure 3 SQL text (FIG3-SQL).
    pub variants: Vec<VariantCost>,
    /// SQL time / CLI time.
    pub sql_over_cli: f64,
    /// BLOB time / CLI time.
    pub blob_over_cli: f64,
    /// CLI time / COMPILED time (how far the hot path has moved past
    /// the paper's fastest formulation).
    pub cli_over_compiled: f64,
}

/// Build a DB-backed classifier and a test batch from real (generated)
/// pages. Returns `(db, tables, batch)`.
pub fn setup(scale: Scale, frames: usize) -> (Database, ClassifierTables, Vec<Document>) {
    let (db, tables, batch, _) = setup_with_compiled(scale, frames);
    (db, tables, batch)
}

/// [`setup`] plus the compiled engine over the same trained model.
pub fn setup_with_compiled(
    scale: Scale,
    frames: usize,
) -> (Database, ClassifierTables, Vec<Document>, CompiledModel) {
    let world = World::cycling(scale, 11);
    let mut db = Database::in_memory_with_frames(frames);
    let tables = ClassifierTables::create_and_load(&mut db, &world.model).expect("load model");
    let n_docs = match scale {
        Scale::Tiny => 40,
        Scale::Small => 150,
        Scale::Full => 500,
    };
    let batch: Vec<Document> = world
        .graph
        .pages()
        .iter()
        .filter(|p| !p.terms.is_empty())
        .take(n_docs)
        .enumerate()
        .map(|(i, p)| Document::new(DocId(i as u64), p.terms.clone()))
        .collect();
    tables
        .load_documents(&mut db, &batch)
        .expect("load documents");
    (db, tables, batch, world.compiled)
}

/// Timed repetitions per variant; each variant reports its median.
const REPS: usize = 5;

/// Run the comparison at the root node: `REPS` rounds of every variant
/// in turn on one database, each variant reporting its median
/// repetition (time and reads).
pub fn run(scale: Scale) -> Fig8a {
    let frames = match scale {
        Scale::Tiny => 64,
        Scale::Small => 96,
        Scale::Full => 128,
    };
    let (mut db, tables, batch, compiled) = setup_with_compiled(scale, frames);
    let c0 = ClassId::ROOT;
    let n = batch.len() as f64;
    let sp = SingleProbeSql { tables: &tables };
    let bp = SingleProbeBlob { tables: &tables };
    let mut scratch = compiled.scratch();
    // Warm the scratch outside the timed region (the hot path's
    // steady state is what the crawl pays per page).
    if let Some(d) = batch.first() {
        compiled.evaluate_into(&d.terms, &mut scratch);
    }
    type Pass<'a> = &'a mut dyn FnMut(&mut Database);
    let mut passes: [(&str, Pass); 5] = [
        // SQL: row-store per-term probes.
        ("SQL", &mut |db: &mut Database| {
            for d in &batch {
                sp.posterior(db, c0, &d.terms).expect("sql probe");
            }
        }),
        // BLOB: packed per-term probes.
        ("BLOB", &mut |db: &mut Database| {
            for d in &batch {
                bp.posterior(db, c0, &d.terms).expect("blob probe");
            }
        }),
        // CLI: bulk sort-merge.
        ("CLI", &mut |db: &mut Database| {
            bulk_posterior(db, &tables, c0).expect("bulk probe");
        }),
        // COMPILED: the crawl hot path — in-memory CSR merge join, one
        // warmed scratch, no database touched at all.
        ("COMPILED", &mut |_: &mut Database| {
            for d in &batch {
                std::hint::black_box(compiled.posterior(c0, &d.terms, &mut scratch));
            }
        }),
        // FIG3-SQL: the Figure 3 text through the planner; printed, not
        // gated.
        ("FIG3-SQL", &mut |db: &mut Database| {
            bulk_posterior_sql(db, &tables, c0).expect("figure 3 sql");
        }),
    ];

    // Round 0 is not kept: it leaves the pool in the state every kept
    // round starts from, so a bar's reads do not depend on which
    // repetition is its median.
    let mut reps: Vec<Vec<VariantCost>> = vec![Vec::with_capacity(REPS + 1); passes.len()];
    for _ in 0..=REPS {
        for ((name, pass), costs) in passes.iter_mut().zip(&mut reps) {
            db.reset_io_stats();
            let t = Instant::now();
            pass(&mut db);
            let us_per_doc = t.elapsed().as_secs_f64() * 1e6 / n;
            let s = db.io_stats();
            costs.push(VariantCost {
                name: name.to_string(),
                us_per_doc,
                logical_reads: s.logical_reads,
                physical_reads: s.physical_reads,
            });
        }
    }
    let variants: Vec<VariantCost> = reps
        .into_iter()
        .map(|mut costs| {
            costs.remove(0);
            costs.sort_by(|a, b| a.us_per_doc.total_cmp(&b.us_per_doc));
            costs.swap_remove(REPS / 2)
        })
        .collect();
    let us = |i: usize| variants[i].us_per_doc.max(1e-9);
    Fig8a {
        sql_over_cli: us(0) / us(2),
        blob_over_cli: us(1) / us(2),
        cli_over_compiled: us(2) / us(3),
        variants,
    }
}

/// Print the comparison.
pub fn print(f: &Fig8a) {
    println!("--- Figure 8(a): classification running time ---");
    println!(
        "{:<8} {:>12} {:>14} {:>15}",
        "variant", "us/doc", "logical reads", "physical reads"
    );
    for v in &f.variants {
        println!(
            "{:<8} {:>12.1} {:>14} {:>15}",
            v.name, v.us_per_doc, v.logical_reads, v.physical_reads
        );
    }
    println!(
        "speedup: SQL/CLI = {:.1}x, BLOB/CLI = {:.1}x   (paper: \"over an order of magnitude\")",
        f.sql_over_cli, f.blob_over_cli
    );
    println!(
        "hot path: CLI/COMPILED = {:.1}x (the crawl's zero-alloc CSR engine; no pages touched)",
        f.cli_over_compiled
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_builds_read_the_same_pages() {
        // Training walks its features in score order, so every build
        // loads the `STAT` rows in the same order and each bar's read
        // counts repeat exactly.
        let reads = |f: Fig8a| {
            let counts = f.variants.into_iter();
            counts
                .map(|v| (v.name, v.logical_reads, v.physical_reads))
                .collect::<Vec<_>>()
        };
        assert_eq!(reads(run(Scale::Tiny)), reads(run(Scale::Tiny)));
    }

    #[test]
    fn bulk_beats_both_single_probe_variants() {
        let f = run(Scale::Tiny);
        // The wall-clock ratios are printed, not asserted: a loaded box
        // shrinks any margin. The orderings are asserted on the
        // deterministic buffer-pool counters.
        print(&f);
        let sql = &f.variants[0];
        let blob = &f.variants[1];
        let cli = &f.variants[2];
        // Per-(term × child) probing touches more pages than per-term
        // probing, which touches more than one streaming pass.
        assert!(
            sql.logical_reads > blob.logical_reads,
            "SQL reads {} <= BLOB reads {}",
            sql.logical_reads,
            blob.logical_reads
        );
        assert!(
            blob.logical_reads > cli.logical_reads,
            "BLOB reads {} <= CLI reads {}",
            blob.logical_reads,
            cli.logical_reads
        );
        // The compiled engine never touches the buffer pool — its cost
        // is pure CPU, which is what the crawl hot path wants.
        let compiled = &f.variants[3];
        assert_eq!(compiled.name, "COMPILED");
        assert_eq!(compiled.logical_reads, 0);
        assert_eq!(compiled.physical_reads, 0);
        // Margin vs the paper's fastest path is orders of magnitude;
        // > 1x cannot flake even on a loaded host.
        assert!(
            f.cli_over_compiled > 1.0,
            "compiled slower than CLI: {}",
            f.cli_over_compiled
        );
    }
}
