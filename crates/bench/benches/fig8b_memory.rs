//! Bench for Figure 8(b): classifier paths under different buffer-pool
//! sizes. Regenerate the sweep with
//! `cargo run -p focus-eval --bin fig8b --release -- full`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_eval::bulk_probe::bulk_posterior;
use focus_eval::common::Scale;
use focus_eval::fig8a_classifier::setup;
use focus_eval::single_probe::SingleProbeBlob;
use focus_types::ClassId;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8b_memory");
    g.sample_size(10);
    for frames in [16usize, 64, 256] {
        let (mut db, tables, batch) = setup(Scale::Tiny, frames);
        g.bench_with_input(BenchmarkId::new("single_probe", frames), &frames, |b, _| {
            b.iter(|| {
                let sp = SingleProbeBlob { tables: &tables };
                for d in batch.iter().take(10) {
                    sp.posterior(&mut db, ClassId::ROOT, &d.terms).unwrap();
                }
            })
        });
        let (mut db2, tables2, _) = setup(Scale::Tiny, frames);
        g.bench_with_input(BenchmarkId::new("bulk_probe", frames), &frames, |b, _| {
            b.iter(|| bulk_posterior(&mut db2, &tables2, ClassId::ROOT).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
