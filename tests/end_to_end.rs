//! Full-stack integration: storage + WAL + core + views + full-text +
//! security + replication + simulator working together.

use std::sync::Arc;

use domino::core::{Database, DbConfig, Note, Session};
use domino::formula::Formula;
use domino::ftindex::FtIndex;
use domino::net::{LinkSpec, Network, Topology};
use domino::replica::{Cluster, ReplicationOptions, Replicator};
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::storage::MemDisk;
use domino::types::{ItemFlags, LogicalClock, NoteClass, ReplicaId, Value};
use domino::wal::MemLogStore;

fn new_db(title: &str, lineage: u64, instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new(title, ReplicaId(lineage), ReplicaId(instance)),
            LogicalClock::new(),
        )
        .unwrap(),
    )
}

/// A view and a full-text index both stay current through replication:
/// documents arriving from another replica update them via change events.
#[test]
fn views_and_ftindex_update_through_replication() {
    let a = new_db("disc", 1, 10);
    let b = new_db("disc", 1, 20);
    let view = domino::views::View::attach(
        &b,
        domino::views::ViewDesign::new("all", r#"SELECT Form = "Memo""#)
            .unwrap()
            .column(
                domino::views::ColumnSpec::new("Subject", "Subject")
                    .unwrap()
                    .sorted(domino::views::SortDir::Ascending),
            ),
    )
    .unwrap();
    let ft = FtIndex::attach(&b);

    for i in 0..5 {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("memo number {i}")));
        a.save(&mut n).unwrap();
    }
    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&a, &b).unwrap();

    assert_eq!(view.len(), 5, "view picked up replicated documents");
    assert_eq!(ft.search("memo").unwrap().len(), 5);

    // A deletion replicates and disappears from both.
    let id = a.note_ids(Some(NoteClass::Document)).unwrap()[0];
    a.delete(id).unwrap();
    r.sync(&a, &b).unwrap();
    assert_eq!(view.len(), 4);
    assert_eq!(ft.search("memo").unwrap().len(), 4);
}

/// Reader fields written on one replica are enforced on another after
/// replication (security travels with the documents and the ACL note).
#[test]
fn security_replicates_with_documents() {
    let a = new_db("vault", 7, 1);
    let b = new_db("vault", 7, 2);

    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set("spy", AclEntry::new(AccessLevel::Reader));
    acl.set(
        "chief",
        AclEntry::new(AccessLevel::Manager).with_role("Clearance"),
    );
    a.set_acl(&acl).unwrap();

    let mut secret = Note::document("Dossier");
    secret.set("Subject", Value::text("classified"));
    secret.set_with_flags(
        "$Readers",
        Value::text_list(["[Clearance]"]),
        ItemFlags::SUMMARY | ItemFlags::READERS,
    );
    a.save(&mut secret).unwrap();

    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&a, &b).unwrap();

    // The ACL note replicated; enforcement works on replica b.
    let dir = Directory::new();
    let spy = Session::new(b.clone(), "spy", dir.clone());
    let chief = Session::new(b.clone(), "chief", dir);
    let doc_id = b.id_of_unid(secret.unid()).unwrap().unwrap();
    assert_eq!(spy.open_note(doc_id).unwrap_err().kind(), "access_denied");
    assert!(chief.open_note(doc_id).is_ok());
}

/// A pulled ACL note is the ACL the puller enforces: storing an ACL-class
/// note, local or replicated, points the ACL slot at it in the same
/// transaction.
#[test]
fn a_pulled_acl_is_enforced() {
    let a = new_db("locked", 8, 1);
    let b = new_db("locked", 8, 2);
    a.set_acl(&Acl::new(AccessLevel::NoAccess)).unwrap();
    let report = Replicator::new(ReplicationOptions::default())
        .pull(&b, &a)
        .unwrap();
    assert_eq!((report.candidates, report.added), (1, 1));
    assert_eq!(b.acl().unwrap().to_lines(), a.acl().unwrap().to_lines());
    let anyone = Session::new(b.clone(), "anyone", Directory::new());
    assert!(anyone.save(&mut Note::document("Memo")).is_err());
}

/// Two replicas that each stored an ACL hold both notes after a sync and
/// enforce the same one: the lowest UNID, as for a design title.
#[test]
fn two_replicas_that_each_set_an_acl_converge_on_one() {
    let a = new_db("pair", 9, 1);
    let b = new_db("pair", 9, 2);
    let mut from_a = Acl::new(AccessLevel::Reader);
    from_a.set("ann", AclEntry::new(AccessLevel::Manager));
    let mut from_b = Acl::new(AccessLevel::Author);
    from_b.set("bob", AclEntry::new(AccessLevel::Manager));
    a.set_acl(&from_a).unwrap();
    b.set_acl(&from_b).unwrap();
    Replicator::new(ReplicationOptions::default())
        .sync(&a, &b)
        .unwrap();
    let notes = |db: &Database| db.note_ids(Some(NoteClass::Acl)).unwrap().len();
    assert_eq!((notes(&a), notes(&b)), (2, 2));
    assert_eq!(a.acl().unwrap().to_lines(), b.acl().unwrap().to_lines());
    // The instance id is a UNID's high half, so replica a's note is lower.
    assert_eq!(b.acl().unwrap().to_lines(), from_a.to_lines());
}

/// A compacted copy holds the one ACL note it copied, and enforces it.
#[test]
fn compaction_keeps_one_acl_note() {
    let a = new_db("tidy", 10, 1);
    let mut acl = Acl::new(AccessLevel::Reader);
    acl.set("boss", AclEntry::new(AccessLevel::Manager));
    a.set_acl(&acl).unwrap();
    let copy = a
        .compact_into(Box::new(MemDisk::new()), Some(Box::new(MemLogStore::new())))
        .unwrap();
    assert_eq!(copy.note_ids(Some(NoteClass::Acl)).unwrap().len(), 1);
    assert_eq!(copy.acl().unwrap().to_lines(), acl.to_lines());
}

/// A clustered pair plus a WAL crash on one member: the survivor carries
/// reads; the crashed member recovers and catches up by replication.
#[test]
fn cluster_failover_with_crash_recovery() {
    let clock = LogicalClock::new();
    let disk = MemDisk::new();
    let log = MemLogStore::new();
    let primary = Arc::new(
        Database::open(
            Box::new(disk.clone()),
            Some(Box::new(log.clone())),
            DbConfig::new("app", ReplicaId(3), ReplicaId(100)),
            clock.clone(),
        )
        .unwrap(),
    );
    let mate = new_db("app", 3, 200);
    let _cluster = Cluster::join(&[primary.clone(), mate.clone()]).unwrap();

    let mut order = Note::document("Order");
    order.set("Total", Value::Number(99.0));
    primary.save(&mut order).unwrap();

    // Failover: the mate already has the order (event-driven push).
    let on_mate = mate.open_by_unid(order.unid()).unwrap();
    assert_eq!(on_mate.get("Total"), Some(&Value::Number(99.0)));

    // Primary crashes; clients keep working against the mate.
    log.crash();
    drop(primary);
    let mut update = mate.open_by_unid(order.unid()).unwrap();
    update.set("Total", Value::Number(120.0));
    mate.save(&mut update).unwrap();

    // Primary restarts (recovery) and catches up via replication.
    let revived = Arc::new(
        Database::open(
            Box::new(disk),
            Some(Box::new(log)),
            DbConfig::new("app", ReplicaId(3), ReplicaId(100)),
            clock,
        )
        .unwrap(),
    );
    assert!(
        revived.open_by_unid(order.unid()).is_ok(),
        "recovered its own copy"
    );
    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&revived, &mate).unwrap();
    assert_eq!(
        revived.open_by_unid(order.unid()).unwrap().get("Total"),
        Some(&Value::Number(120.0)),
        "caught up with edits made during the outage"
    );
}

/// Formula agents (FIELD writes) drive workflow transitions that then
/// replicate — the Notes "workflow on top of replication" pattern.
#[test]
fn formula_agent_workflow_replicates() {
    let a = new_db("wf", 9, 1);
    let b = new_db("wf", 9, 2);

    let mut req = Note::document("Request");
    req.set("Status", Value::text("submitted"));
    req.set("Amount", Value::Number(800.0));
    a.save(&mut req).unwrap();

    // Approval agent: big requests escalate, small ones auto-approve.
    let agent = Formula::compile(
        r#"SELECT Status = "submitted"; FIELD Status := @If(Amount > 1000; "needs-approval"; "approved")"#,
    )
    .unwrap();
    for id in a.note_ids(Some(NoteClass::Document)).unwrap() {
        let note = a.open_note(id).unwrap();
        let out = agent.eval_full(&note, &Default::default()).unwrap();
        if out.selected {
            let mut doc = note;
            for (field, value) in out.field_writes {
                doc.set(&field, value);
            }
            a.save(&mut doc).unwrap();
        }
    }
    assert_eq!(
        a.open_by_unid(req.unid())
            .unwrap()
            .get_text("Status")
            .unwrap(),
        "approved"
    );
    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&a, &b).unwrap();
    assert_eq!(
        b.open_by_unid(req.unid())
            .unwrap()
            .get_text("Status")
            .unwrap(),
        "approved"
    );
}

/// Network-level: documents created on every server of a ring all reach
/// every other server, including through a temporary partition.
#[test]
fn ring_network_with_partition_heals() {
    let mut net = Network::new(4, Topology::Ring, LinkSpec::default(), LogicalClock::new());
    net.create_replica_set("d").unwrap();
    for i in 0..4 {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(format!("from {i}")));
        net.db(i, "d").unwrap().save(&mut n).unwrap();
    }
    net.partition(0, 1);
    net.partition(0, 3); // server 0 fully isolated
                         // The rest still converge among themselves.
    for _ in 0..4 {
        net.replicate_all_links("d").unwrap();
    }
    assert_eq!(net.db(1, "d").unwrap().document_count().unwrap(), 3);
    assert_eq!(net.db(0, "d").unwrap().document_count().unwrap(), 1);
    net.heal(0, 1);
    net.heal(0, 3);
    let rounds = net.run_until_converged("d", 10).unwrap();
    assert!(rounds <= 3);
    for i in 0..4 {
        assert_eq!(net.db(i, "d").unwrap().document_count().unwrap(), 4);
    }
}
