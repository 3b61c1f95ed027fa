//! What a web write costs the engine does not depend on how many
//! documents the database holds.
//!
//! `Session::save` — the routine behind every `?SaveDocument` and
//! `?CreateDocument` — decides everything it decides (ACL, form design,
//! edit rights against the stored copy) from one pinned snapshot; its only
//! engine work is the commit. The counts below are `EngineStats::reads`
//! deltas (logical page reads), so they repeat exactly.

use std::sync::Arc;

use domino::core::{form_for, save_form, Database, DbConfig, FieldSpec, FormDesign, Note, Session};
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::types::{LogicalClock, ReplicaId, Unid, Value};

/// Saves measured per kind; the reported cost is the worst of them.
const SAMPLES: usize = 8;
/// Ceiling on logical page reads for one `Session::save`.
const MAX_READS_PER_SAVE: u64 = 64;

fn corpus(docs: usize, with_form: bool) -> (Arc<Database>, Vec<Unid>) {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("WriteCost", ReplicaId(1), ReplicaId(7)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set("ann", AclEntry::new(AccessLevel::Editor));
    acl.set("carol", AclEntry::new(AccessLevel::Author));
    db.set_acl(&acl).unwrap();
    if with_form {
        let form = FormDesign::new("Task")
            .field(
                FieldSpec::editable("Status")
                    .with_default(r#""new""#)
                    .unwrap(),
            )
            .field(FieldSpec::computed("Shout", "@UpperCase(Subject)").unwrap());
        save_form(&db, &form).unwrap();
    }
    let ann = Session::new(db.clone(), "ann", Directory::new());
    let unids = (0..docs)
        .map(|i| {
            let mut n = Note::document("Task");
            n.set("Subject", Value::text(format!("task {i}")));
            n.set_body("Body", Value::RichText(vec![i as u8; 600]));
            ann.save(&mut n).unwrap();
            n.unid()
        })
        .collect();
    (db, unids)
}

/// Engine page reads `op` causes.
fn reads<T>(db: &Database, op: impl FnOnce() -> T) -> (u64, T) {
    let before = db.engine_stats().reads;
    let out = op();
    (db.engine_stats().reads - before, out)
}

struct Cost {
    create: u64,
    update: u64,
}

fn measure(docs: usize, with_form: bool) -> Cost {
    let (db, unids) = corpus(docs, with_form);
    let ann = Session::new(db.clone(), "ann", Directory::new());
    let carol = Session::new(db.clone(), "carol", Directory::new());
    let mut cost = Cost {
        create: 0,
        update: 0,
    };
    for k in 0..SAMPLES {
        let unid = unids[k * docs / SAMPLES];

        // Everything before the commit is free: the form lookup, the
        // ACL-checked read, and a save the ACL refuses.
        let (n, form) = reads(&db, || form_for(&db, &Note::document("Task")).unwrap());
        assert_eq!(form.is_some(), with_form);
        assert_eq!(n, 0, "form_for read the engine ({docs} documents)");
        let (n, mut note) = reads(&db, || ann.open_by_unid(unid).unwrap());
        assert_eq!(n, 0, "Session::open_by_unid read the engine");
        let (n, refused) = reads(&db, || {
            let mut theirs = note.clone();
            theirs.set("Subject", Value::text("carol was here"));
            carol.save(&mut theirs)
        });
        assert_eq!(refused.unwrap_err().kind(), "access_denied");
        assert_eq!(n, 0, "a refused save read the engine");

        note.set("Subject", Value::text(format!("edited {k}")));
        let (n, saved) = reads(&db, || ann.save(&mut note));
        saved.unwrap();
        cost.update = cost.update.max(n);

        let mut fresh = Note::document("Task");
        fresh.set("Subject", Value::text(format!("created {k}")));
        let (n, saved) = reads(&db, || ann.save(&mut fresh));
        saved.unwrap();
        assert_eq!(
            fresh.get_text("Status").as_deref(),
            with_form.then_some("new")
        );
        cost.create = cost.create.max(n);
    }
    cost
}

#[test]
fn engine_reads_per_web_write_do_not_grow_with_the_corpus() {
    for with_form in [false, true] {
        let small = measure(250, with_form);
        let large = measure(4000, with_form);
        for (kind, small, large) in [
            ("create", small.create, large.create),
            ("update", small.update, large.update),
        ] {
            println!("form={with_form} {kind}: {small} reads at 250 docs, {large} at 4000");
            assert!(
                small <= MAX_READS_PER_SAVE && large <= MAX_READS_PER_SAVE,
                "{kind} (form={with_form}): {small} / {large} page reads per save"
            );
            assert!(
                large <= 2 * small,
                "{kind} (form={with_form}): {large} reads at 4000 documents vs {small} at 250"
            );
        }
    }
}
