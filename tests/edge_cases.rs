//! Edge-case integration tests: behaviours at the seams between crates.

use std::sync::Arc;

use domino::core::{Database, DbConfig, Note, Session};
use domino::formula::Formula;
use domino::replica::{ReplicationOptions, Replicator};
use domino::security::{AccessLevel, Acl, AclEntry, Directory};
use domino::types::{LogicalClock, NoteClass, ReplicaId, Timestamp, Value};

fn new_db(lineage: u64, instance: u64) -> Arc<Database> {
    Arc::new(
        Database::open_in_memory(
            DbConfig::new("edge", ReplicaId(lineage), ReplicaId(instance)),
            LogicalClock::starting_at(Timestamp(instance * 100)),
        )
        .unwrap(),
    )
}

/// Deletions replicate even when the document would have been excluded by
/// a selective-replication formula (Domino ships deletions regardless —
/// the filter applies to content, not to tombstones).
#[test]
fn selective_filter_does_not_block_deletions() {
    let a = new_db(1, 1);
    let b = new_db(1, 2);
    // First, replicate the doc over WITHOUT a filter.
    let mut full = Replicator::new(ReplicationOptions::default());
    let mut n = Note::document("Task");
    n.set("Region", Value::text("east"));
    a.save(&mut n).unwrap();
    full.sync(&a, &b).unwrap();
    assert_eq!(b.document_count().unwrap(), 1);

    // Now delete on a; replicate with a filter that matches nothing.
    a.delete(a.id_of_unid(n.unid()).unwrap().unwrap()).unwrap();
    let mut filtered = Replicator::new(ReplicationOptions {
        selective: Some(Formula::compile(r#"SELECT Region = "west""#).unwrap()),
        ..ReplicationOptions::default()
    });
    filtered.sync(&a, &b).unwrap();
    assert_eq!(
        b.document_count().unwrap(),
        0,
        "deletion crossed the filter"
    );
}

/// A purged stub leaves the Merkle summary, so it stops being a
/// replication candidate entirely — and a peer that has not purged it yet
/// does not hand it back.
#[test]
fn purge_removes_stubs_from_change_feed() {
    let clock = LogicalClock::new();
    let open = |instance| {
        Arc::new(
            Database::open_in_memory(
                DbConfig::new("p", ReplicaId(1), ReplicaId(instance)).with_purge_interval(100),
                clock.clone(),
            )
            .unwrap(),
        )
    };
    let (db, peer) = (open(1), open(2));
    let mut n = Note::document("M");
    db.save(&mut n).unwrap();
    db.delete(n.id).unwrap();
    assert_eq!(db.merkle_len(), 1);
    let stub_head = db.head_hash(n.unid()).expect("the stub is summarised");
    let mut repl = Replicator::new(ReplicationOptions::default());
    repl.sync(&db, &peer).unwrap();
    assert_eq!(peer.head_hash(n.unid()), Some(stub_head));

    clock.advance(10_000);
    assert_eq!(db.purge_stubs().unwrap(), 1);
    assert_eq!(db.merkle_len(), 0);
    assert_eq!(db.head_hash(n.unid()), None);
    assert!(db.stubs().unwrap().is_empty());
    // The UNID is fully forgotten: re-creating is a fresh document.
    assert_eq!(db.id_of_unid(n.unid()).unwrap(), None);

    // The peer still holds the stub, older than this replica's purge
    // horizon: the next sync must not re-create it here.
    let (into_db, _) = repl.sync(&db, &peer).unwrap();
    assert_eq!(into_db.deletions, 0, "{into_db:?}");
    assert!(db.stubs().unwrap().is_empty());
    assert_eq!(db.head_hash(n.unid()), None);
    // Once the peer purges too, the pair is converged again.
    assert_eq!(peer.purge_stubs().unwrap(), 1);
    assert_eq!(db.merkle_root(), peer.merkle_root());
}

/// A Depositor can put documents in but read nothing back — the drop-box
/// pattern.
#[test]
fn depositor_drop_box() {
    let db = new_db(2, 1);
    let mut acl = Acl::new(AccessLevel::NoAccess);
    acl.set("dropper", AclEntry::new(AccessLevel::Depositor));
    acl.set("owner", AclEntry::new(AccessLevel::Manager));
    db.set_acl(&acl).unwrap();
    let dropper = Session::new(db.clone(), "dropper", Directory::new());
    let owner = Session::new(db.clone(), "owner", Directory::new());

    let mut ballot = Note::document("Ballot");
    ballot.set("Vote", Value::text("yes"));
    dropper.save(&mut ballot).unwrap();
    // The depositor cannot read anything back — not even their own note.
    assert_eq!(
        dropper.open_note(ballot.id).unwrap_err().kind(),
        "access_denied"
    );
    let f = Formula::compile("SELECT @All").unwrap();
    assert_eq!(dropper.search(&f).unwrap_err().kind(), "access_denied");
    // The owner sees it.
    assert_eq!(owner.search(&f).unwrap().len(), 1);
}

/// Unread marks: deleting a document removes it from everyone's unread
/// sets implicitly (it no longer exists).
#[test]
fn unread_marks_follow_deletions() {
    let db = new_db(3, 1);
    let mut a = Note::document("M");
    db.save(&mut a).unwrap();
    let mut b = Note::document("M");
    db.save(&mut b).unwrap();
    let u = Session::new(db.clone(), "u", Directory::new());
    assert_eq!(u.unread().unwrap().len(), 2);
    u.mark_read(a.unid());
    db.delete(b.id).unwrap();
    assert!(u.unread().unwrap().is_empty());
}

/// Formula corner cases crossing several features at once.
#[test]
fn formula_cross_feature_corners() {
    let db = new_db(4, 1);
    let mut n = Note::document("Doc");
    n.set("Tags", Value::text_list(["alpha", "beta"]));
    n.set("Scores", Value::NumberList(vec![1.0, 2.0, 3.0]));
    db.save(&mut n).unwrap();

    let env = Default::default();
    let cases: Vec<(&str, Value)> = vec![
        // list comparisons against computed lists
        (r#"Tags = @Subset(Tags; 1)"#, Value::from(true)),
        // arithmetic over list items inside @If
        (r#"@If(@Sum(Scores) = 6; "six"; "no")"#, Value::text("six")),
        // nested @functions with field refs
        (
            r#"@Implode(@Sort(Tags; "descending"); "+")"#,
            Value::text("beta+alpha"),
        ),
        // permuted comparison between two fields
        (r#"Tags *= "BETA""#, Value::from(true)),
        // @Elements of a missing field ("") is 1 (a scalar empty text)
        (r#"@Elements(Missing)"#, Value::Number(1.0)),
    ];
    let doc = db.open_by_unid(n.unid()).unwrap();
    for (src, want) in cases {
        let f = Formula::compile(src).unwrap();
        assert_eq!(f.eval(&doc, &env).unwrap(), want, "formula: {src}");
    }
}

/// Replicating design notes (views, forms, agents, folders) carries the
/// application with the data — "the database is the application".
#[test]
fn whole_application_replicates() {
    use domino::core::{save_agent, save_form, AgentDesign, FieldSpec, FormDesign};
    use domino::views::{ColumnSpec, Folder, SortDir, View, ViewDesign};

    let a = new_db(5, 1);
    let b = new_db(5, 2);

    // Build an "application" on replica a.
    save_form(
        &a,
        &FormDesign::new("Task").field(
            FieldSpec::editable("Status")
                .with_default(r#""new""#)
                .unwrap(),
        ),
    )
    .unwrap();
    save_agent(
        &a,
        &AgentDesign::new(
            "close",
            r#"SELECT Status = "done"; FIELD Archived := "yes""#,
        )
        .unwrap(),
    )
    .unwrap();
    let view = View::attach(
        &a,
        ViewDesign::new("All", r#"SELECT Form = "Task""#)
            .unwrap()
            .column(
                ColumnSpec::new("Status", "Status")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            ),
    )
    .unwrap();
    view.save_design().unwrap();
    let folder = Folder::create(&a, "Hot").unwrap();
    let mut t = Note::document("Task");
    t.set("Status", Value::text("done"));
    a.save(&mut t).unwrap();
    folder.add(t.unid()).unwrap();

    // Replicate everything.
    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&a, &b).unwrap();

    // The whole application arrived: form, agent, view design, folder.
    assert_eq!(domino::core::stored_forms(&b).unwrap().len(), 1);
    let agents = domino::core::stored_agents(&b).unwrap();
    assert_eq!(agents.len(), 1);
    assert_eq!(domino::views::stored_designs(&b).unwrap().len(), 1);
    assert_eq!(
        Folder::open(&b, "Hot").unwrap().members().unwrap(),
        vec![t.unid()]
    );
    // And it runs: the agent archives the done task on replica b.
    agents[0].run(&b, "server-b").unwrap();
    assert_eq!(
        b.open_by_unid(t.unid())
            .unwrap()
            .get_text("Archived")
            .unwrap(),
        "yes"
    );
    // note_ids by class sees all four design notes on b.
    assert_eq!(b.note_ids(Some(NoteClass::Form)).unwrap().len(), 1);
    assert_eq!(b.note_ids(Some(NoteClass::Agent)).unwrap().len(), 1);
    assert_eq!(b.note_ids(Some(NoteClass::View)).unwrap().len(), 2); // view + folder
}

/// Two replicas that each create a form titled `Task` hold two `Form`
/// notes with one title after they sync. Every replica must pick the
/// same one — the lowest UNID — or the same document gets different
/// defaults depending on where it is saved, and `save_form` on one
/// replica edits a design the other never consults.
#[test]
fn conflicting_form_titles_resolve_alike_on_every_replica() {
    use domino::core::{form_for, save_form, FieldSpec, FormDesign};

    let a = new_db(6, 1);
    let b = new_db(6, 2);
    let task = |field: &str| FormDesign::new("Task").field(FieldSpec::editable(field));
    save_form(&a, &task("FromA")).unwrap();
    save_form(&b, &task("FromB")).unwrap();
    let mut r = Replicator::new(ReplicationOptions::default());
    r.sync(&a, &b).unwrap();
    r.sync(&b, &a).unwrap();
    for db in [&a, &b] {
        assert_eq!(db.note_ids(Some(NoteClass::Form)).unwrap().len(), 2);
    }

    let fields = |db: &Database| -> Vec<String> {
        form_for(db, &Note::document("Task"))
            .unwrap()
            .expect("a Task form is stored")
            .fields
            .iter()
            .map(|f| f.name.clone())
            .collect()
    };
    let winner = fields(&a);
    assert_eq!(winner, fields(&b), "replicas disagree on which form wins");
    // The listing shows the winner once, not both.
    assert_eq!(domino::core::stored_forms(&a).unwrap().len(), 1);
    assert_eq!(domino::core::stored_forms(&b).unwrap().len(), 1);

    // Editing the form on either replica edits that same note: no third
    // note appears and both replicas serve the new design after a sync.
    for (editor, field) in [(&a, "EditedOnA"), (&b, "EditedOnB")] {
        save_form(editor, &task(field)).unwrap();
        r.sync(&a, &b).unwrap();
        r.sync(&b, &a).unwrap();
        assert_eq!(fields(&a), vec![field.to_string()]);
        assert_eq!(fields(&b), vec![field.to_string()]);
        assert_eq!(a.note_ids(Some(NoteClass::Form)).unwrap().len(), 2);
        assert_eq!(b.note_ids(Some(NoteClass::Form)).unwrap().len(), 2);
    }
}

/// Hostile `Start`/`Count` values reach no overflow (this test runs in a
/// debug build, where one would panic) and no page larger than the cap.
#[test]
fn hostile_view_windows_are_clamped() {
    use domino::server::{DominoServer, Request, ServerConfig};
    use domino::views::{ColumnSpec, SortDir, ViewDesign};

    const DOCS: usize = 1_200;
    let db = new_db(9, 9);
    {
        let _batch = db.begin_batch();
        for i in 0..DOCS {
            let mut n = Note::document("Memo");
            n.set("Subject", Value::text(format!("memo {i:04}")));
            db.save(&mut n).unwrap();
        }
    }
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("edge", &db).unwrap();
    let design = ViewDesign::new("all", "SELECT @All").unwrap().column(
        ColumnSpec::new("Subject", "Subject")
            .unwrap()
            .sorted(SortDir::Ascending),
    );
    server.add_view("edge", design).unwrap();

    let max = usize::MAX;
    let rows = |body: &str| body.matches("?OpenDocument").count();
    for (args, want_rows) in [
        (format!("Start={max}"), 0),
        (format!("Start={max}&Count={max}"), 0),
        (format!("Count={max}"), 1_000),
        ("Count=6000".to_string(), 1_000),
        ("Start=1101&Count=6000".to_string(), 100),
        ("Count=0".to_string(), 0),
    ] {
        let html = server.handle(&Request::get(&format!("/edge.nsf/all?OpenView&{args}")));
        assert_eq!(html.status.code(), 200, "OpenView&{args}");
        assert_eq!(rows(&html.body), want_rows, "OpenView&{args}");
        let json = server.handle(&Request::get(&format!(
            "/edge.nsf/all?ReadViewEntries&{args}"
        )));
        assert_eq!(json.status.code(), 200, "ReadViewEntries&{args}");
        assert_eq!(
            json.body.matches("\"@unid\"").count(),
            want_rows,
            "ReadViewEntries&{args}"
        );
    }
    let found = server.handle(&Request::get(&format!(
        "/edge.nsf/all?SearchView&Query=memo&Count={max}"
    )));
    assert_eq!(found.status.code(), 200);
    assert_eq!(rows(&found.body), 1_000);
    let none = server.handle(&Request::get("/edge.nsf/all?SearchView&Query=memo&Count=0"));
    assert_eq!((none.status.code(), rows(&none.body)), (200, 0));
}
