//! E3 companion: parallel vs sequential full view rebuild.
//!
//! Benchmarks `ViewIndex::rebuild` (parallel evaluate + bulk-loaded
//! orders) against `ViewIndex::rebuild_sequential` (the single-threaded
//! reference) at 1k/10k/100k documents. Numbers land in EXPERIMENTS.md
//! under E3.

use criterion::{criterion_group, criterion_main, Criterion};

use domino_bench::workload::{make_db, populate, rng};
use domino_core::Note;
use domino_formula::EvalEnv;
use domino_views::index::{NoSource, ViewIndex};
use domino_views::{ColumnSpec, SortDir, ViewDesign};

fn design() -> ViewDesign {
    ViewDesign::new("v", r#"SELECT Form = "Doc""#)
        .unwrap()
        .column(
            ColumnSpec::new("Category", "Category")
                .unwrap()
                .categorized(),
        )
        .column(
            ColumnSpec::new("Priority", "Priority")
                .unwrap()
                .sorted(SortDir::Descending),
        )
        .column(
            ColumnSpec::new("F0", "F0")
                .unwrap()
                .sorted(SortDir::Ascending),
        )
}

fn bench_rebuild_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_rebuild_par");

    // One 100k corpus; smaller sizes are prefixes of it.
    let db = make_db("bench", 1, 1);
    populate(&db, &mut rng(3), 100_000, 4, 32, 0);
    let docs: Vec<Note> = db
        .snapshot()
        .document_summaries()
        .iter()
        .map(|doc| Note::clone(doc))
        .collect();

    for &n in &[1_000usize, 10_000, 100_000] {
        let samples = match n {
            100_000 => 5,
            10_000 => 10,
            _ => 20,
        };
        group.sample_size(samples);
        let slice = &docs[..n];

        let mut seq = ViewIndex::new(design(), EvalEnv::default()).unwrap();
        group.bench_function(&format!("sequential_{n}"), |b| {
            b.iter(|| seq.rebuild_sequential(slice.iter(), &NoSource).unwrap());
        });

        let mut par = ViewIndex::new(design(), EvalEnv::default()).unwrap();
        group.bench_function(&format!("parallel_{n}"), |b| {
            b.iter(|| par.rebuild(slice.iter(), &NoSource).unwrap());
        });

        assert_eq!(seq.len(), par.len(), "both paths index the same rows");
    }

    group.finish();
}

criterion_group!(benches, bench_rebuild_par);
criterion_main!(benches);
