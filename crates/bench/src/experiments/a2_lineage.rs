//! A2 (ablation) — revision-lineage depth vs spurious conflicts.
//!
//! Design choice being ablated: how ancestry is proven between two copies
//! of a note. The original bounded `$Revisions` fingerprint list (32
//! entries, like Notes) could not prove descent once a replica fell more
//! than 32 revisions behind, so replication conservatively manufactured a
//! `$Conflict` document — a false positive. That list is gone; the
//! content-addressed history (`$RevisionHashes`) is unbounded, so descent
//! is provable at *any* edit depth. This table re-runs the old sweep
//! (across and past the old 32-entry limit) and verifies the anomaly stays
//! gone: zero spurious conflicts at every depth.

use domino_core::Note;
use domino_replica::{ReplicationOptions, Replicator};
use domino_types::{NoteClass, Value};

use crate::table::{fmt, Table};
use crate::workload::make_db;
use crate::Scale;

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "a2",
        "Ablation 2",
        "Unbounded revision chains: spurious conflicts eliminated at every depth",
        "Design choice: ancestry is proven from the content-addressed hash \
         history ($RevisionHashes), which replaced the bounded $Revisions \
         fingerprint list; it carries the full lineage, so an \
         arbitrarily stale replica can still prove the newer copy descends \
         from its own",
    )
    .columns(&[
        "updates between syncs",
        "clean updates",
        "conflicts (spurious)",
        "data preserved",
    ]);
    let _ = scale;

    // 31, 32 and 36 straddle the deleted fingerprint list's depth.
    for k in [4usize, 16, 31, 32, 36, 64, 256] {
        let a = make_db("a2", 2, 1);
        let b = make_db("a2", 2, 2);
        let mut repl = Replicator::new(ReplicationOptions::default());
        let mut doc = Note::document("Doc");
        doc.set("Payload", Value::text("v0"));
        a.save(&mut doc).expect("save");
        repl.sync(&a, &b).expect("sync");

        // `k` successive edits on a alone.
        for i in 0..k {
            let mut d = a.open_by_unid(doc.unid()).expect("open");
            d.set("Payload", Value::text(format!("v{}", i + 1)));
            a.save(&mut d).expect("save");
        }
        let (_, into_b) = repl.sync(&a, &b).expect("sync");
        // A second sync would settle conflict docs — there must be none.
        repl.sync(&a, &b).expect("sync");

        let preserved = b
            .note_ids(Some(NoteClass::Document))
            .expect("ids")
            .iter()
            .any(|id| {
                b.open_note(*id)
                    .map(|n| n.get_text("Payload").as_deref() == Some(&format!("v{k}")))
                    .unwrap_or(false)
            });
        table.row(vec![
            fmt(k as f64),
            fmt(into_b.updated as f64),
            fmt(into_b.conflicts as f64),
            if preserved { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(preserved, "latest payload must survive regardless");
        assert_eq!(
            into_b.conflicts, 0,
            "hash-chain ancestry must prove descent at depth {k}"
        );
    }
    table.takeaway(
        "spurious conflicts: 0 at every depth — the unbounded hash history \
         proves ancestry even when a replica falls hundreds of revisions \
         behind, where the deleted fingerprint list used to manufacture a \
         conflict document past its 32-entry depth",
    );
    table
}
