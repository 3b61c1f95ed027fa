//! Criterion microbenches behind E5/E6: replication passes.

use criterion::{criterion_group, criterion_main, Criterion};

use domino_bench::workload::{make_db, populate, rng};
use domino_replica::{ReplicationOptions, Replicator};
use domino_types::Value;

fn bench_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication");
    group.sample_size(20);

    group.bench_function("noop_sync_1k_docs", |b| {
        let a = make_db("bench", 5, 1);
        let bb = make_db("bench", 5, 2);
        populate(&a, &mut rng(1), 1_000, 8, 64, 0);
        let mut r = Replicator::new(ReplicationOptions::default());
        r.sync(&a, &bb).unwrap();
        b.iter(|| r.sync(&a, &bb).unwrap());
    });

    group.bench_function("incremental_sync_10_changes", |b| {
        let a = make_db("bench", 5, 1);
        let bb = make_db("bench", 5, 2);
        let ids = populate(&a, &mut rng(2), 1_000, 8, 64, 0);
        let mut r = Replicator::new(ReplicationOptions::default());
        r.sync(&a, &bb).unwrap();
        let mut tick = 0usize;
        b.iter(|| {
            for i in 0..10 {
                let mut d = a.open_note(ids[(tick + i * 97) % ids.len()]).unwrap();
                d.set("F0", Value::text(format!("t{tick}")));
                a.save(&mut d).unwrap();
            }
            tick += 1;
            r.sync(&a, &bb).unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
