//! Quickstart: create a database, save documents, query them three ways
//! (formula search, a sorted view, full-text), and enforce some security.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use domino::core::{Database, DbConfig, Note, Session};
use domino::formula::Formula;
use domino::ftindex::FtIndex;
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::types::{LogicalClock, ReplicaId, Value};
use domino::views::{ColumnSpec, SortDir, View, ViewDesign};

fn main() -> domino::types::Result<()> {
    // A database is identified by a replica id (shared by all replicas)
    // and an instance id (unique to this physical copy).
    let db = Arc::new(Database::open_in_memory(
        DbConfig::new("Team Tasks", ReplicaId(0x7EA3), ReplicaId(0x0001)),
        LogicalClock::new(),
    )?);

    // Attach a view (incrementally maintained from here on) and a
    // full-text index.
    let view = View::attach(
        &db,
        ViewDesign::new(
            "Open by priority",
            r#"SELECT Form = "Task" & Status != "done""#,
        )?
        .column(ColumnSpec::new("Priority", "Priority")?.sorted(SortDir::Descending))
        .column(ColumnSpec::new("Subject", "Subject")?.sorted(SortDir::Ascending))
        .column(ColumnSpec::new("Hours", "Hours")?.totaled()),
    )?;
    let ft = FtIndex::attach(&db);

    // Documents are schemaless bags of typed items.
    for (subject, prio, hours, status) in [
        ("write the design note", 2.0, 6.0, "open"),
        ("review storage engine", 3.0, 4.0, "open"),
        ("ship the beta", 1.0, 12.0, "done"),
        ("fix replication conflict test", 3.0, 2.0, "open"),
    ] {
        let mut task = Note::document("Task");
        task.set("Subject", Value::text(subject));
        task.set("Priority", Value::Number(prio));
        task.set("Hours", Value::Number(hours));
        task.set("Status", Value::text(status));
        db.save(&mut task)?;
    }

    println!("== view: open tasks by priority ==");
    for row in view.rows() {
        println!(
            "  p{} {:<32} {}h",
            row.values[0].to_text(),
            row.values[1].to_text(),
            row.values[2].to_text()
        );
    }
    println!("  total hours open: {}", view.column_total(2));

    // Formula search works on any item.
    let f = Formula::compile(r#"SELECT Form = "Task" & Hours > 5"#)?;
    let big = db.search(&f, &Default::default())?;
    println!("\n== formula: tasks over 5 hours ==");
    for t in &big {
        println!("  {}", t.get_text("Subject").unwrap_or_default());
    }

    // Full-text search with boolean operators.
    println!("\n== full-text: 'replication OR storage' ==");
    for hit in ft.search("replication OR storage")? {
        let n = db.open_by_unid(hit.unid)?;
        println!(
            "  {:.3}  {}",
            hit.score,
            n.get_text("Subject").unwrap_or_default()
        );
    }

    // Security: a reader cannot create tasks.
    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set("manager", AclEntry::new(AccessLevel::Manager));
    acl.set("visitor", AclEntry::new(AccessLevel::Reader));
    db.set_acl(&acl)?;
    let visitor = Session::new(db.clone(), "visitor", Directory::new());
    let mut draft = Note::document("Task");
    match visitor.save(&mut draft) {
        Err(e) => println!("\nvisitor blocked as expected: {e}"),
        Ok(_) => unreachable!("readers may not create documents"),
    }
    Ok(())
}
