//! Bench for Figure 8(a): the three classifier paths on one prepared
//! database. The paper's result: bulk ("CLI") is ~10x the row-store
//! ("SQL") path. Regenerate the table with
//! `cargo run -p focus-eval --bin fig8a --release -- full`.

use criterion::{criterion_group, criterion_main, Criterion};
use focus_eval::bulk_probe::bulk_posterior;
use focus_eval::common::Scale;
use focus_eval::fig8a_classifier::setup;
use focus_eval::single_probe::{SingleProbeBlob, SingleProbeSql};
use focus_types::ClassId;

fn bench(c: &mut Criterion) {
    let (mut db, tables, batch) = setup(Scale::Tiny, 64);
    let mut g = c.benchmark_group("fig8a_classifier");
    g.sample_size(10);
    g.bench_function("single_probe_sql_batch", |b| {
        b.iter(|| {
            let sp = SingleProbeSql { tables: &tables };
            for d in &batch {
                sp.posterior(&mut db, ClassId::ROOT, &d.terms).unwrap();
            }
        })
    });
    g.bench_function("single_probe_blob_batch", |b| {
        b.iter(|| {
            let sp = SingleProbeBlob { tables: &tables };
            for d in &batch {
                sp.posterior(&mut db, ClassId::ROOT, &d.terms).unwrap();
            }
        })
    });
    g.bench_function("bulk_probe_batch", |b| {
        b.iter(|| bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
