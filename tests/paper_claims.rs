//! The paper's claims as shapes: one test per claim EXPERIMENTS.md
//! quantifies. Each asserts what is deterministic — counts, bytes, rounds,
//! booleans — at a scale that runs in seconds, and never a timing. The
//! rates and latencies those experiments also printed are recorded in
//! EXPERIMENTS.md, under the `benchmark/` row that measures them now or a
//! "Retired harness" paragraph.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use domino::core::{ChangeEvent, Database, DbConfig, Note, Session};
use domino::formula::Formula;
use domino::net::{LinkSpec, MailRouter, MailUser, Network, Topology};
use domino::replica::{Cluster, ReplicationOptions, Replicator, RetryPolicy};
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::storage::{EngineConfig, MemDisk};
use domino::types::{Clock, ItemFlags, LogicalClock, NoteClass, NoteId, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};
use domino::wal::MemLogStore;

const WORDS: &[&str] = &[
    "project", "review", "budget", "deploy", "replica", "server", "meeting", "agenda", "status",
    "release", "storage", "index", "network", "client", "update", "report",
];

/// `n` words of seeded pseudo-text, with a tail of rare terms.
fn text(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| {
            if rng.random_bool(0.8) {
                WORDS[rng.random_range(0..WORDS.len())].to_string()
            } else {
                format!("term{:04}", rng.random_range(0..5000))
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A `Doc` with `fields` summary items of about `field_len` characters,
/// a category, a priority and, when `body_len > 0`, a non-summary body.
fn make_doc(rng: &mut StdRng, fields: usize, field_len: usize, body_len: usize) -> Note {
    let mut n = Note::document("Doc");
    for f in 0..fields {
        n.set(&format!("F{f}"), Value::text(text(rng, field_len / 8)));
    }
    n.set(
        "Category",
        Value::text(format!("cat{}", rng.random_range(0..8))),
    );
    n.set("Priority", Value::Number(rng.random_range(1..=5) as f64));
    if body_len > 0 {
        n.set_body("Body", Value::RichText(vec![b'b'; body_len]));
    }
    n
}

/// Save `n` documents made by [`make_doc`]; their note ids.
fn populate(db: &Database, seed: u64, n: usize, fields: usize, field_len: usize) -> Vec<NoteId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut doc = make_doc(&mut rng, fields, field_len, 0);
            db.save(&mut doc).unwrap();
            doc.id
        })
        .collect()
}

fn in_memory(title: &str, instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new(title, ReplicaId(7), ReplicaId(instance)),
            LogicalClock::new(),
        )
        .unwrap(),
    )
}

/// A logged database on `disk` + `log`, so a test can crash and reopen it.
fn on_disk(
    disk: &MemDisk,
    log: &MemLogStore,
    clock: &LogicalClock,
    engine: EngineConfig,
) -> Arc<Database> {
    Arc::new(
        Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            DbConfig::new("claims", ReplicaId(1), ReplicaId(1)).with_engine(engine),
            clock.clone(),
        )
        .unwrap(),
    )
}

/// E2: restart recovery replays the log tail after the last checkpoint,
/// so the records it examines do not grow with the database; and every
/// acknowledged save survives the crash.
#[test]
fn e2_recovery_work_is_the_log_tail_not_the_database() {
    let mut replayed = Vec::new();
    for n in [500, 2_000] {
        let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
        let tail = {
            let db = on_disk(&disk, &log, &clock, EngineConfig::default());
            let ids = populate(&db, 0xE2E2, n, 6, 48);
            db.checkpoint().unwrap();
            let mut tail = Vec::new();
            for id in ids.iter().take(200) {
                let mut d = db.open_note(*id).unwrap();
                d.set("F0", Value::text("tail"));
                db.save(&mut d).unwrap();
                tail.push(d.unid());
            }
            log.crash();
            tail
        };
        let db = on_disk(&disk, &log, &clock, EngineConfig::default());
        assert_eq!(db.document_count().unwrap(), n, "a save was lost at {n}");
        for unid in tail {
            assert_eq!(
                db.open_by_unid(unid).unwrap().get_text("F0").as_deref(),
                Some("tail")
            );
        }
        replayed.push(db.recovery_stats().unwrap().analyzed);
    }
    assert_eq!(
        replayed[0], replayed[1],
        "records replayed grew with the database"
    );
}

fn by_category() -> ViewDesign {
    ViewDesign::new("by-cat", r#"SELECT Form = "Doc""#)
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

/// E3: a view applies k change events by evaluating k documents, where a
/// rebuild evaluates all N; and the incrementally kept rows equal a fresh
/// rebuild's.
#[test]
fn e3_view_refresh_evaluates_the_changed_documents() {
    let n = 400;
    let db = in_memory("e3", 1);
    let ids = populate(&db, 0xE3, n, 6, 48);
    let view = View::detached(&db, by_category()).unwrap();
    view.rebuild().unwrap();
    assert_eq!(view.stats().evaluated, n as u64);

    let captured: Arc<Mutex<Vec<ChangeEvent>>> = Arc::default();
    let sink = captured.clone();
    db.subscribe(Arc::new(move |e: &ChangeEvent| {
        sink.lock().unwrap().push(e.clone())
    }));

    for k in [1, 4, 40, 200, 400] {
        for i in 0..k {
            let mut d = db.open_note(ids[i * (n / k)]).unwrap();
            d.set("F0", Value::text(format!("edit-{k}-{i}")));
            d.set("Priority", Value::Number((i % 5) as f64 + 1.0));
            db.save(&mut d).unwrap();
        }
        let events: Vec<ChangeEvent> = captured.lock().unwrap().drain(..).collect();
        assert_eq!(events.len(), k);
        let before = view.stats().evaluated;
        for e in &events {
            view.apply(e).unwrap();
        }
        assert_eq!(view.stats().evaluated - before, k as u64, "{k} changes");

        let fresh = View::detached(&db, by_category()).unwrap();
        fresh.rebuild().unwrap();
        assert_eq!(fresh.stats().evaluated, n as u64);
        let rows = |v: &View| v.rows().iter().map(|r| (**r).clone()).collect::<Vec<_>>();
        assert_eq!(
            rows(&view),
            rows(&fresh),
            "incremental rows differ after {k} changes"
        );
    }
}

/// E5: field-level replication (R4) ships the changed items, document-level
/// (R3) the whole document. The edits keep each field's length, so the
/// document-level bytes are the same on every row and the two differ only
/// in what is shipped.
#[test]
fn e5_field_level_replication_ships_what_changed() {
    let (n, fields) = (100, 20);
    let mut rows = Vec::new();
    for changed in [1, 5, 10, 20] {
        let a = in_memory("e5", 1);
        let (b_field, b_doc) = (in_memory("e5", 2), in_memory("e5", 3));
        let ids = populate(&a, 0xE5, n, fields, 120);
        let mut field = Replicator::new(ReplicationOptions {
            field_level: true,
            ..Default::default()
        });
        let mut doc = Replicator::new(ReplicationOptions {
            field_level: false,
            ..Default::default()
        });
        field.pull(&b_field, &a).unwrap();
        doc.pull(&b_doc, &a).unwrap();

        // Touch `changed` fields of every fifth document, same length.
        for (i, id) in ids.iter().enumerate().step_by(5) {
            let mut d = a.open_note(*id).unwrap();
            for f in 0..changed {
                let name = format!("F{f}");
                let len = d.get_text(&name).unwrap().len();
                let edit: String = format!("v2-{i}-{f}-").chars().cycle().take(len).collect();
                d.set(&name, Value::text(edit));
            }
            a.save(&mut d).unwrap();
        }
        let by_field = field.pull(&b_field, &a).unwrap();
        let by_doc = doc.pull(&b_doc, &a).unwrap();
        assert_eq!(by_field.updated, n as u64 / 5);
        assert_eq!(by_field.updated, by_doc.updated, "same change set");
        rows.push((changed, by_doc.bytes_shipped, by_field.bytes_shipped));
    }
    let ratio = |(_, doc, field): (usize, u64, u64)| doc as f64 / field as f64;
    for pair in rows.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "document-level bytes moved with the edit"
        );
        assert!(
            pair[0].2 < pair[1].2,
            "field-level bytes did not rise: {rows:?}"
        );
    }
    assert!(ratio(rows[0]) >= 4.0, "1 of 20: {:.3}", ratio(rows[0]));
    assert!(
        (0.9..=1.0).contains(&ratio(rows[3])),
        "20 of 20: {:.3}",
        ratio(rows[3])
    );
}

/// E6: scheduled pairwise replication converges on every topology; mesh in
/// one round, and none in more rounds than its diameter.
#[test]
fn e6_every_topology_converges_within_its_diameter() {
    for n in [4, 8] {
        for topology in Topology::ALL {
            let mut net = Network::new(n, topology, LinkSpec::default(), LogicalClock::new());
            net.create_replica_set("d").unwrap();
            let mut rng = StdRng::seed_from_u64(0xE6 + n as u64);
            for u in 0..20 {
                let mut note = Note::document("Doc");
                note.set("Payload", Value::text(format!("u{u}")));
                net.db(rng.random_range(0..n), "d")
                    .unwrap()
                    .save(&mut note)
                    .unwrap();
            }
            let rounds = net.run_until_converged("d", 4 * n + 8).unwrap();
            let name = topology.name();
            assert!(
                rounds <= topology.diameter(n),
                "{name} x {n}: {rounds} rounds"
            );
            if topology == Topology::Mesh {
                assert_eq!(rounds, 1, "mesh x {n}");
            }
        }
    }
}

/// E8: a deleted document comes back exactly when a replica stays offline
/// longer than the purge interval, so its stub is gone when the replica
/// returns with a live copy.
#[test]
fn e8_resurrection_iff_offline_longer_than_the_purge_interval() {
    for (purge, offline) in [
        (10_000u64, 1_000u64),
        (10_000, 5_000),
        (10_000, 20_000),
        (2_000, 5_000),
        (50_000, 20_000),
    ] {
        let clock = LogicalClock::new();
        let open = |instance| {
            let config =
                DbConfig::new("e8", ReplicaId(8), ReplicaId(instance)).with_purge_interval(purge);
            Arc::new(Database::open_in_memory(config, clock.clone()).unwrap())
        };
        let (a, c) = (open(1), open(2));
        let mut repl = Replicator::new(ReplicationOptions::default());
        let mut doc = Note::document("Doc");
        doc.set("Subject", Value::text("to be deleted"));
        a.save(&mut doc).unwrap();
        repl.sync(&a, &c).unwrap();
        a.delete(a.id_of_unid(doc.unid()).unwrap().unwrap())
            .unwrap();

        clock.advance(offline);
        let purged = a.purge_stubs().unwrap();
        repl.sync(&a, &c).unwrap();
        repl.sync(&a, &c).unwrap();
        let resurrected = a.open_by_unid(doc.unid()).is_ok();
        assert_eq!(
            purged > 0,
            offline > purge,
            "purge {purge}, offline {offline}"
        );
        assert_eq!(
            resurrected,
            offline > purge,
            "purge {purge}, offline {offline}"
        );
    }
}

/// E11: a session search returns exactly the documents whose reader list
/// admits the user, whatever fraction is protected.
#[test]
fn e11_session_search_returns_exactly_the_unprotected_documents() {
    let n = 200;
    let select = Formula::compile(r#"SELECT Form = "Doc""#).unwrap();
    for protected_pct in [0, 25, 75, 100] {
        let db = in_memory("e11", 1);
        for (i, id) in populate(&db, 0xE11, n, 4, 32).iter().enumerate() {
            if i % 100 < protected_pct {
                let mut d = db.open_note(*id).unwrap();
                d.set_with_flags(
                    "$Readers",
                    Value::text_list(["[Vault]"]),
                    ItemFlags::SUMMARY | ItemFlags::READERS,
                );
                db.save(&mut d).unwrap();
            }
        }
        let mut acl = Acl::new(AccessLevel::NoAccess);
        acl.set("worker", AclEntry::new(AccessLevel::Editor));
        db.set_acl(&acl).unwrap();

        assert_eq!(db.search(&select, &Default::default()).unwrap().len(), n);
        let session = Session::new(Arc::clone(&db), "worker", Directory::new());
        let visible = session.search(&select).unwrap();
        assert_eq!(
            visible.len(),
            n - n * protected_pct / 100,
            "{protected_pct}%"
        );
        assert!(visible.iter().all(|d| d.get_text("$Readers").is_none()));
    }
}

/// E12: a cluster mate, pushed every commit, misses nothing at any failover
/// instant; a replica on a schedule misses what arrived since its last
/// pass.
#[test]
fn e12_the_cluster_mate_misses_nothing_at_failover() {
    let trials = 4;
    for (update_every, interval) in [(10u64, 200u64), (10, 1000), (50, 1000), (5, 2000)] {
        let clock = LogicalClock::new();
        let mut net = Network::new(3, Topology::Mesh, LinkSpec::default(), clock.clone());
        net.create_replica_set("app").unwrap();
        // Server 1 is the cluster mate; server 2 the scheduled replica.
        let (primary, mate, sched) = (
            net.db(0, "app").unwrap(),
            net.db(1, "app").unwrap(),
            net.db(2, "app").unwrap(),
        );
        let _cluster = Cluster::join(&[primary.clone(), mate.clone()]).unwrap();
        net.schedule_replication("app", interval, ReplicationOptions::default());

        let mut rng = StdRng::seed_from_u64(update_every + interval);
        let horizon = interval * trials;
        let mut failovers: Vec<u64> = (0..trials).map(|_| rng.random_range(1..horizon)).collect();
        failovers.sort_unstable();
        let (mut committed, mut next_update) = (0, update_every);
        let (mut mate_missing, mut sched_missing) = (0, 0);
        let mut next_failover = failovers.iter().peekable();
        while clock.peek().0 < horizon {
            net.step(update_every.min(17)).unwrap();
            let now = clock.peek().0;
            if now >= next_update {
                let mut d = Note::document("Doc");
                d.set("Seq", Value::Number(committed as f64));
                primary.save(&mut d).unwrap();
                committed += 1;
                next_update += update_every;
            }
            while next_failover.next_if(|t| **t <= now).is_some() {
                mate_missing += committed - mate.document_count().unwrap();
                sched_missing += committed - sched.document_count().unwrap();
            }
        }
        assert_eq!(
            mate_missing, 0,
            "every {update_every} ticks, interval {interval}"
        );
        assert!(
            sched_missing > 0,
            "every {update_every} ticks, interval {interval}"
        );
    }
}

/// E13: mail delivery cost is the topology's hop count — every message is
/// delivered, a mesh delivers each in one hop, and the total orders mesh <
/// hub-spoke < ring < chain.
#[test]
fn e13_mail_hops_follow_the_topology() {
    let (servers, messages) = (6, 60);
    let mut hops = Vec::new();
    for topology in [
        Topology::Mesh,
        Topology::HubSpoke,
        Topology::Ring,
        Topology::Chain,
    ] {
        let link = LinkSpec {
            latency: 3,
            bytes_per_tick: 512,
            ..LinkSpec::default()
        };
        let mut net = Network::new(servers, topology, link, LogicalClock::new());
        let users: Vec<MailUser> = (0..servers)
            .map(|i| MailUser {
                name: format!("u{i}"),
                home_server: i,
            })
            .collect();
        let mut router = MailRouter::setup(&mut net, &users).unwrap();
        let mut rng = StdRng::seed_from_u64(0xE13);
        for m in 0..messages {
            let from = rng.random_range(0..servers);
            let mut to = rng.random_range(0..servers);
            if to == from {
                to = (to + 1) % servers;
            }
            let (sender, recipient) = (format!("u{from}"), format!("u{to}"));
            router
                .send(
                    &net,
                    from,
                    &sender,
                    &recipient,
                    &format!("msg {m}"),
                    "body body body",
                )
                .unwrap();
        }
        router.run_until_delivered(&mut net, 100_000).unwrap();
        let stats = router.stats();
        assert_eq!(stats.delivered, messages as u64, "{}", topology.name());
        hops.push(stats.forwarded);
    }
    assert_eq!(hops[0], messages as u64, "a mesh hop per message");
    assert!(
        hops.windows(2).all(|w| w[0] < w[1]),
        "mesh < hub-spoke < ring < chain: {hops:?}"
    );
}

/// E17: re-converging after a few edits examines the same candidates at
/// two corpus sizes, on every topology and drop rate; and a pull between
/// converged replicas stops at the 16-byte root exchange.
#[test]
fn e17_candidates_follow_the_change_not_the_corpus() {
    let (servers, touched) = (4, 3);
    for topology in [Topology::Mesh, Topology::HubSpoke, Topology::Chain] {
        for drop in [0.0, 0.10] {
            let candidates: Vec<u64> = [40, 160]
                .into_iter()
                .map(|docs| {
                    let spec = LinkSpec::default().with_drop_rate(drop);
                    let mut net = Network::new(servers, topology, spec, LogicalClock::new());
                    net.set_fault_seed(0xE17 ^ (drop * 100.0) as u64);
                    net.set_retry_policy(RetryPolicy::standard());
                    net.create_replica_set("d").unwrap();
                    let db = net.db(0, "d").unwrap();
                    let mut unids = Vec::new();
                    for i in 0..docs {
                        let mut note = Note::document("Doc");
                        note.set("Payload", Value::text(format!("v0 doc {i}")));
                        db.save(&mut note).unwrap();
                        unids.push(note.unid());
                    }
                    net.run_until_converged("d", 300).unwrap();
                    for unid in unids.iter().take(touched) {
                        let mut note = db.open_by_unid(*unid).unwrap();
                        note.set("Payload", Value::text("touched"));
                        db.save(&mut note).unwrap();
                    }
                    let (mut candidates, mut rounds) = (0, 0);
                    while !net.converged("d").unwrap() {
                        rounds += 1;
                        assert!(
                            rounds <= 300,
                            "{} drop {drop} did not converge",
                            topology.name()
                        );
                        for report in net.replicate_all_links("d").unwrap() {
                            candidates += report.candidates;
                        }
                    }
                    for idle in net.replicate_all_links("d").unwrap() {
                        assert_eq!((idle.candidates, idle.root_matched), (0, 1));
                        assert_eq!(idle.negotiation_bytes, 16, "{}", topology.name());
                    }
                    candidates
                })
                .collect();
            assert!(candidates[0] > 0);
            assert_eq!(
                candidates[0],
                candidates[1],
                "{} drop {drop}",
                topology.name()
            );
        }
    }
}

/// A1: the buffer pool's hit rate never falls as it grows, and once it
/// covers the working set a full-record read loop evicts nothing.
#[test]
fn a1_pool_hit_rate_rises_with_capacity() {
    let (n, probes) = (150, 1_000);
    let mut rates = Vec::new();
    for capacity in [64, 256, 1024, 4096] {
        let engine = EngineConfig {
            buffer_capacity: capacity,
            ..EngineConfig::default()
        };
        let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
        {
            let db = on_disk(&disk, &log, &clock, engine.clone());
            let mut rng = StdRng::seed_from_u64(0xA1A1);
            for _ in 0..n {
                db.save(&mut make_doc(&mut rng, 6, 48, 12_288)).unwrap();
            }
            db.shutdown().unwrap();
        }
        let db = on_disk(&disk, &log, &clock, engine);
        let ids = db.note_ids(Some(NoteClass::Document)).unwrap();
        let mut rng = StdRng::seed_from_u64(0xA1);
        let before = db.engine_stats();
        for _ in 0..probes {
            db.stored_note(ids[rng.random_range(0..ids.len())]).unwrap();
        }
        let after = db.engine_stats();
        let (hits, misses) = (
            after.pool_hits - before.pool_hits,
            after.pool_misses - before.pool_misses,
        );
        rates.push(hits as f64 / (hits + misses) as f64);
        if capacity == 4096 {
            assert_eq!(
                after.evictions - before.evictions,
                0,
                "the pool covers {n} notes"
            );
        }
    }
    assert!(
        rates.windows(2).all(|w| w[0] <= w[1]),
        "hit rates {rates:?}"
    );
}

/// A2: ancestry is proven from the unbounded hash history, so a replica
/// any number of edits behind takes the newer copy as a clean update —
/// no spurious conflict — and keeps the latest payload.
#[test]
fn a2_no_spurious_conflict_at_any_depth() {
    for k in [4, 16, 31, 32, 36, 64, 256] {
        let (a, b) = (in_memory("a2", 1), in_memory("a2", 2));
        let mut repl = Replicator::new(ReplicationOptions::default());
        let mut doc = Note::document("Doc");
        doc.set("Payload", Value::text("v0"));
        a.save(&mut doc).unwrap();
        repl.sync(&a, &b).unwrap();
        for i in 1..=k {
            let mut d = a.open_by_unid(doc.unid()).unwrap();
            d.set("Payload", Value::text(format!("v{i}")));
            a.save(&mut d).unwrap();
        }
        let (_, into_b) = repl.sync(&a, &b).unwrap();
        repl.sync(&a, &b).unwrap();
        assert_eq!((into_b.updated, into_b.conflicts), (1, 0), "depth {k}");
        let latest = b.open_by_unid(doc.unid()).unwrap().get_text("Payload");
        assert_eq!(latest, Some(format!("v{k}")), "depth {k}");
        assert_eq!(b.document_count().unwrap(), 1, "depth {k}");
    }
}

/// A3: the checkpoint interval trades run-time page writes against
/// restart work — records replayed rise with the interval, page writes
/// never do, and every save survives the crash.
#[test]
fn a3_checkpoint_interval_trades_page_writes_for_replay() {
    let ops = 600;
    let (mut replayed, mut writes) = (Vec::new(), Vec::new());
    for interval in [ops / 20, ops / 5, ops / 2, ops + 1] {
        let (disk, log, clock) = (MemDisk::new(), MemLogStore::new(), LogicalClock::new());
        // The crash lands mid-interval: half an interval after the last
        // checkpoint.
        let tail = interval.min(ops) / 2;
        {
            let db = on_disk(&disk, &log, &clock, EngineConfig::default());
            for i in 0..ops + tail {
                let mut n = Note::document("Doc");
                n.set("I", Value::Number(i as f64));
                db.save(&mut n).unwrap();
                if i < ops && i % interval == interval - 1 {
                    db.checkpoint().unwrap();
                }
            }
            log.crash();
            writes.push(db.engine_stats().page_writes);
        }
        let db = on_disk(&disk, &log, &clock, EngineConfig::default());
        assert_eq!(db.document_count().unwrap(), ops + tail, "every {interval}");
        replayed.push(db.recovery_stats().unwrap().analyzed);
    }
    assert!(
        replayed.windows(2).all(|w| w[0] < w[1]),
        "replayed {replayed:?}"
    );
    assert!(
        writes.windows(2).all(|w| w[0] >= w[1]),
        "page writes {writes:?}"
    );
}
