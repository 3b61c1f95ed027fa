//! The on-disk NSF end to end: `Database::open_path` against a real
//! file, a simulated power cut (drop without shutdown), and a **second
//! process** reopening the same file and seeing every committed note.
//!
//! The parent process writes 75 documents (a checkpoint in the middle,
//! the last 25 never checkpointed or shut down cleanly — they exist only
//! in the `.txn` log), then re-executes itself as a child. The child's
//! `open_path` replays the on-disk log tail; it asserts all 75 notes and
//! the identical Merkle root, proving durability crosses a process
//! boundary, not just a reopen in the same address space.

use std::path::PathBuf;

use domino_core::{Database, DbConfig, Note};
use domino_types::{ContentHash, LogicalClock, ReplicaId, Value};

const DOCS: usize = 75;

fn config() -> DbConfig {
    DbConfig::new("NsfDemo", ReplicaId(1), ReplicaId(7))
}

/// Child mode: open the file written by the parent, recover, verify.
fn child(path: PathBuf, want_root: ContentHash) {
    let db = Database::open_path(&path, config(), LogicalClock::new()).unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.document_count(), DOCS, "child must see every commit");
    assert_eq!(db.merkle_root(), want_root, "replication digest must match");
    // Hydrate one lazily-seeded body to prove record chains survived.
    let docs = snap.documents();
    let with_body = docs
        .iter()
        .filter(|d| matches!(d.get("Body"), Some(Value::RichText(b)) if b.len() == 6000))
        .count();
    println!(
        "child pid {}: recovered {} notes, {} full bodies, root matches",
        std::process::id(),
        snap.document_count(),
        with_body
    );
    assert_eq!(with_body, DOCS / 3);
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let (Some(flag), Some(path)) = (args.next(), args.next()) {
        if flag == "--child" {
            let root = args.next().expect("root arg");
            child(PathBuf::from(path), ContentHash(root.parse().unwrap()));
            return;
        }
    }

    let dir = std::env::temp_dir().join(format!("domino-nsf-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.nsf");

    let db = Database::open_path(&path, config(), LogicalClock::new()).unwrap();
    for i in 0..DOCS {
        let mut n = Note::document("Memo");
        n.set("Seq", Value::Number(i as f64));
        if i % 3 == 0 {
            n.set_body("Body", Value::RichText(vec![i as u8; 6000]));
        }
        db.save(&mut n).unwrap();
        if i == 49 {
            // Checkpoint mid-stream: pages 0..=49 reach the file, the
            // log is rewritten to start at the redo point.
            db.checkpoint().unwrap();
        }
    }
    let root = db.merkle_root();
    println!(
        "parent pid {}: committed {DOCS} notes to {} (checkpoint at 50), root {:?}",
        std::process::id(),
        path.display(),
        root
    );
    // Power cut: drop without shutdown. The last 25 commits live only in
    // demo.txn — the data file was never synced past the checkpoint.
    drop(db);

    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("--child")
        .arg(&path)
        .arg(root.0.to_string())
        .status()
        .unwrap();
    assert!(status.success(), "child verification failed");
    println!("second process saw every committed note — demo complete");
    let _ = std::fs::remove_dir_all(&dir);
}
