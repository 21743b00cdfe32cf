//! Bench for Figure 8(c): BulkProbe cost vs output size (children x docs).
//! Regenerate the scatter with
//! `cargo run -p focus-eval --bin fig8c --release -- full`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use focus_eval::bulk_probe::bulk_posterior;
use focus_eval::common::{Scale, World};
use focus_eval::tables::ClassifierTables;
use focus_types::{ClassId, DocId, Document};
use minirel::Database;

fn bench(c: &mut Criterion) {
    let world = World::cycling(Scale::Tiny, 23);
    let mut g = c.benchmark_group("fig8c_output");
    g.sample_size(10);
    for n_docs in [20usize, 80, 160] {
        let mut db = Database::in_memory_with_frames(256);
        let tables = ClassifierTables::create_and_load(&mut db, &world.model).unwrap();
        let batch: Vec<Document> = world
            .graph
            .pages()
            .iter()
            .filter(|p| !p.terms.is_empty())
            .take(n_docs)
            .enumerate()
            .map(|(i, p)| Document::new(DocId(i as u64), p.terms.clone()))
            .collect();
        tables.load_documents(&mut db, &batch).unwrap();
        let kids = world.taxonomy.children(ClassId::ROOT).len();
        g.throughput(Throughput::Elements((kids * batch.len()) as u64));
        g.bench_with_input(BenchmarkId::new("bulk_probe", n_docs), &n_docs, |b, _| {
            b.iter(|| bulk_posterior(&mut db, &tables, ClassId::ROOT).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
