//! Bench for Figure 8(d): naive edge-walk vs join-based distillation.
//! The paper's result: join is ~3x faster. Regenerate with
//! `cargo run -p focus-eval --bin fig8d --release -- full`.

use criterion::{criterion_group, criterion_main, Criterion};
use focus_distiller::DistillConfig;
use focus_eval::common::Scale;
use focus_eval::distiller_db::{
    create_crawl_stub, create_tables, init_auth_uniform, join_iteration, load_links,
    naive_iteration,
};
use focus_eval::fig8d_distiller::build_graph;
use minirel::Database;

fn bench(c: &mut Criterion) {
    let (edges, relevance) = build_graph(Scale::Tiny);
    let cfg = DistillConfig::default();
    let mk = || {
        let mut db = Database::in_memory_with_frames(192);
        create_tables(&mut db).unwrap();
        create_crawl_stub(&mut db, &relevance).unwrap();
        load_links(&mut db, &edges).unwrap();
        init_auth_uniform(&mut db).unwrap();
        db
    };
    let mut g = c.benchmark_group("fig8d_distiller");
    g.sample_size(10);
    let mut db = mk();
    g.bench_function("naive_iteration", |b| {
        b.iter(|| naive_iteration(&mut db, &cfg).unwrap())
    });
    let mut db2 = mk();
    g.bench_function("join_iteration", |b| {
        b.iter(|| join_iteration(&mut db2, &cfg).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
