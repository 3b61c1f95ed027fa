//! Per-database full-text indexing.
//!
//! Domino attaches an optional inverted index to each database (the paper
//! notes the engine was licensed; ours is built from scratch — see
//! DESIGN.md §2). The index covers the text of every item of every
//! document, updates incrementally from change events, and answers word,
//! boolean (`AND`/`OR`/`NOT`), and quoted-phrase queries ranked by term
//! frequency.
//!
//! ```
//! use std::sync::Arc;
//! use domino_core::{Database, DbConfig, Note};
//! use domino_types::{LogicalClock, ReplicaId, Value};
//! use domino_ftindex::FtIndex;
//!
//! let db = Arc::new(Database::open_in_memory(
//!     DbConfig::new("Docs", ReplicaId(1), ReplicaId(2)),
//!     LogicalClock::new(),
//! ).unwrap());
//! let ft = FtIndex::attach(&db).unwrap();
//! let mut n = Note::document("Memo");
//! n.set("Body", Value::text("the quarterly revenue report"));
//! db.save(&mut n).unwrap();
//! let hits = ft.search("revenue AND report").unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod index;
pub mod query;
pub mod tokenizer;

pub use index::{FtStats, InvertedIndex, SearchHit};
pub use query::{parse_query, QueryNode};
pub use tokenizer::{tokenize, STOPWORDS};

use std::sync::Arc;

use parking_lot::RwLock;

use domino_core::{ChangeEvent, Database, Note};
use domino_types::Result;

/// A live full-text index bound to a database.
pub struct FtIndex {
    state: Arc<RwLock<InvertedIndex>>,
}

impl FtIndex {
    /// Index the current contents and stay current via change events.
    /// Subscribes first; [`FtIndex::rebuild`] then pins its snapshot under
    /// the index's write lock, so a commit is either in that snapshot or
    /// its event is applied after the build.
    pub fn attach(db: &Arc<Database>) -> Result<FtIndex> {
        let ft = FtIndex::detached();
        let state = ft.state.clone();
        db.subscribe(Arc::new(move |event: &ChangeEvent| {
            let mut g = state.write();
            match event {
                ChangeEvent::Saved { new, .. } => g.index_note(new),
                ChangeEvent::Deleted { old, .. } => g.remove(old.unid()),
            }
        }));
        ft.rebuild(db)?;
        Ok(ft)
    }

    /// An empty, manually-maintained index.
    pub fn detached() -> FtIndex {
        FtIndex {
            state: Arc::new(RwLock::new(InvertedIndex::new())),
        }
    }

    /// Re-index everything from one snapshot, pinned under the index's
    /// write lock (see [`FtIndex::attach`]): the result is the database
    /// exactly as of the snapshot's change sequence, with no writer lock
    /// held while tokenizing.
    pub fn rebuild(&self, db: &Database) -> Result<()> {
        let mut g = self.state.write();
        let snap = db.snapshot();
        *g = InvertedIndex::new();
        for note in snap.documents() {
            g.index_note(note.as_ref());
        }
        Ok(())
    }

    /// Index one note manually.
    pub fn index_note(&self, note: &Note) {
        self.state.write().index_note(note);
    }

    /// Search with the query language: bare words (implicit AND), `AND`,
    /// `OR`, `NOT`, parentheses, and `"quoted phrases"`.
    pub fn search(&self, query: &str) -> Result<Vec<SearchHit>> {
        let ast = parse_query(query)?;
        Ok(self.state.read().execute(&ast))
    }

    pub fn stats(&self) -> FtStats {
        self.state.read().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::DbConfig;
    use domino_types::{LogicalClock, ReplicaId, Unid, Value};

    fn db() -> Arc<Database> {
        Arc::new(
            Database::open_in_memory(
                DbConfig::new("T", ReplicaId(1), ReplicaId(3)),
                LogicalClock::new(),
            )
            .unwrap(),
        )
    }

    fn doc(db: &Database, subject: &str, body: &str) -> Unid {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(subject));
        n.set_body("Body", Value::RichText(body.as_bytes().to_vec()));
        db.save(&mut n).unwrap();
        n.unid()
    }

    #[test]
    fn attach_indexes_existing_and_new_documents() {
        let db = db();
        let before = doc(&db, "old doc", "about elephants");
        let ft = FtIndex::attach(&db).unwrap();
        let after = doc(&db, "new doc", "about giraffes");
        let e = ft.search("elephants").unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].unid, before);
        let g = ft.search("giraffes").unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].unid, after);
    }

    #[test]
    fn boolean_queries() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        let a = doc(&db, "alpha", "cats and dogs");
        let b = doc(&db, "beta", "cats and birds");
        let c = doc(&db, "gamma", "only birds");
        assert_eq!(ft.search("cats").unwrap().len(), 2);
        let and = ft.search("cats AND birds").unwrap();
        assert_eq!(and.len(), 1);
        assert_eq!(and[0].unid, b);
        let or = ft.search("dogs OR birds").unwrap();
        assert_eq!(or.len(), 3);
        let not = ft.search("cats NOT birds").unwrap();
        assert_eq!(not.len(), 1);
        assert_eq!(not[0].unid, a);
        let complex = ft.search("(dogs OR birds) NOT cats").unwrap();
        assert_eq!(complex.len(), 1);
        assert_eq!(complex[0].unid, c);
    }

    #[test]
    fn phrase_queries_respect_adjacency() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        let hit = doc(&db, "a", "the quick brown fox jumps");
        let _miss = doc(&db, "b", "the brown quick fox naps");
        let r = ft.search("\"quick brown fox\"").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].unid, hit);
    }

    #[test]
    fn phrase_spans_stopwords() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        let hit = doc(&db, "a", "state of the art engine");
        let r = ft.search("\"state art\"").unwrap();
        // "of the" are stopwords and never indexed; positions still line up
        // because stopwords are dropped before position assignment.
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].unid, hit);
    }

    #[test]
    fn updates_and_deletes_keep_index_current() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        let unid = doc(&db, "s", "original wording");
        assert_eq!(ft.search("original").unwrap().len(), 1);
        let mut n = db.open_by_unid(unid).unwrap();
        n.set_body("Body", Value::RichText(b"revised wording".to_vec()));
        db.save(&mut n).unwrap();
        assert_eq!(ft.search("original").unwrap().len(), 0);
        assert_eq!(ft.search("revised").unwrap().len(), 1);
        db.delete(n.id).unwrap();
        assert_eq!(ft.search("revised").unwrap().len(), 0);
        assert_eq!(ft.search("wording").unwrap().len(), 0);
    }

    #[test]
    fn ranking_prefers_higher_term_frequency() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        let heavy = doc(&db, "h", "storage storage storage engine");
        let light = doc(&db, "l", "storage notes");
        let r = ft.search("storage").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].unid, heavy);
        assert_eq!(r[1].unid, light);
        assert!(r[0].score > r[1].score);
    }

    #[test]
    fn stopwords_not_searchable() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        doc(&db, "s", "the and of it");
        // A stopword-only query is rejected outright...
        assert!(ft.search("the").is_err());
        // ...and no stopword was indexed: only the Form item's "memo".
        assert_eq!(ft.stats().terms, 1);
    }

    #[test]
    fn stats_reflect_contents() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        doc(&db, "a", "unique tokens here");
        let s = ft.stats();
        assert_eq!(s.documents, 1);
        assert!(s.terms >= 3);
        assert!(s.postings >= 3);
    }

    #[test]
    fn empty_and_bad_queries() {
        let db = db();
        let ft = FtIndex::attach(&db).unwrap();
        assert!(ft.search("").is_err());
        assert!(ft.search("(unbalanced").is_err());
        assert!(ft.search("\"unterminated").is_err());
    }
}
