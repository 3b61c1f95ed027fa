//! The inverted index and query execution.
//!
//! Storage is keyed by small integers. Each term is interned once to a
//! `u32` id and each document gets a dense `u32` ordinal; a freed id or
//! ordinal is reused. A document keeps every position in one boxed slice,
//! grouped by term in the order of its term-id list, and a term's posting
//! list maps an ordinal to the `(offset, len)` of its run in that slice.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

use domino_core::Note;
use domino_obs as obs;
use domino_types::{Unid, Value};

use crate::query::QueryNode;
use crate::tokenizer::for_each_word;

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub unid: Unid,
    /// Term-frequency score, normalized by document length.
    pub score: f32,
}

/// Index size counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtStats {
    pub documents: usize,
    pub terms: usize,
    /// Total (term, document) pairs.
    pub postings: usize,
    /// Total positions stored.
    pub positions: usize,
    /// Heap bytes the index holds, summed from the capacities of its
    /// vectors and hash tables.
    pub bytes: usize,
}

/// Hashes a document ordinal with one multiply by an odd constant (the
/// rustc FxHasher's): a bijection on the low bits the table indexes by,
/// mixed into the high bits it tags with. Posting lookups are the query's
/// inner loop, and ordinals are dense integers the index hands out, not
/// keys a caller chooses.
#[derive(Default)]
struct OrdinalHasher(u64);

impl Hasher for OrdinalHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u32(u32::from(*b) ^ self.0 as u32);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

/// Document ordinal → `V`.
type ByOrdinal<V> = HashMap<u32, V, BuildHasherDefault<OrdinalHasher>>;

/// One interned term. A retired slot has empty text and no postings.
#[derive(Debug, Default)]
struct Term {
    /// Shared with the key of `InvertedIndex::ids`.
    text: Arc<str>,
    /// Ordinal → `(offset, len)` of this term's run in the document's
    /// positions.
    postings: ByOrdinal<(u32, u32)>,
}

impl Term {
    fn heap_bytes(&self) -> usize {
        let text = if self.text.is_empty() {
            0
        } else {
            2 * size_of::<usize>() + self.text.len()
        };
        text + map_bytes(&self.postings)
    }
}

/// One indexed document. A free ordinal's slot is empty.
#[derive(Debug)]
struct Doc {
    unid: Unid,
    /// Indexed tokens (at least 1): the score's denominator.
    tokens: u32,
    /// Ids of the terms it contains, ascending: the runs of `positions`.
    terms: Box<[u32]>,
    /// Every position, grouped by term in `terms` order and ascending
    /// within a term.
    positions: Box<[u32]>,
}

impl Doc {
    fn vacant() -> Doc {
        Doc {
            unid: Unid(0),
            tokens: 0,
            terms: Box::default(),
            positions: Box::default(),
        }
    }

    fn heap_bytes(&self) -> usize {
        size_of::<u32>() * (self.terms.len() + self.positions.len())
    }

    fn run(&self, (offset, len): (u32, u32)) -> &[u32] {
        &self.positions[offset as usize..(offset + len) as usize]
    }
}

/// The in-memory inverted index.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    ids: HashMap<Arc<str>, u32>,
    /// By term id.
    terms: Vec<Term>,
    free_terms: Vec<u32>,
    ordinals: HashMap<Unid, u32>,
    /// By ordinal.
    docs: Vec<Doc>,
    free_docs: Vec<u32>,
    /// `index_note`'s reused buffer: `term id << 32 | position` per token.
    tokens: Vec<u64>,
    /// Heap bytes of the terms and documents, kept as they change;
    /// [`InvertedIndex::bytes`] adds the containers that hold them.
    held: usize,
    /// What this index last added to `Ft.Index.Bytes`.
    reported: usize,
}

/// A `HashMap`'s table at hashbrown's layout: a power-of-two bucket
/// count with `capacity()` at 7/8 of it, each bucket one slot and one
/// control byte.
fn map_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    let buckets = match map.capacity() {
        0 => 0,
        1..=3 => 4,
        4..=7 => 8,
        cap => (cap * 8 / 7).next_power_of_two(),
    };
    buckets * (size_of::<(K, V)>() + 1)
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// One note's recent words (up to eight bytes, packed into an integer)
/// and their term ids, one slot each, so that most of a note's tokens
/// skip the term table. A slot is picked by an unkeyed multiply: words
/// made to share one only miss, and a miss is one lookup in the term
/// table, whose hasher stays keyed. Ids hold while a note is indexed.
struct RecentWords([(u64, u32); 256]);

impl RecentWords {
    fn id(&mut self, word: &str, intern: impl FnOnce(&str) -> u32) -> u32 {
        if word.len() > 8 {
            return intern(word);
        }
        // No word holds a zero byte, so no two words pack alike.
        let key = word.bytes().fold(0, |k, b| k << 8 | u64::from(b));
        let slot = &mut self.0[(key.wrapping_mul(0x517C_C1B7_2722_0A95) >> 56) as usize];
        if slot.0 != key {
            *slot = (key, intern(word));
        }
        slot.1
    }
}

impl InvertedIndex {
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Add or refresh one note. Every text-ish item is tokenized in item
    /// order, and one position is skipped at each item boundary, so a
    /// phrase never matches across two items. The elements of a
    /// `TextList` are one stream: `"alpha beta"` matches
    /// `["alpha", "beta"]`.
    pub fn index_note(&mut self, note: &Note) {
        self.remove(note.unid());
        let mut tokens = std::mem::take(&mut self.tokens);
        tokens.clear();
        let mut recent = RecentWords([(0, 0); 256]);
        let mut word = String::new();
        let mut pos = 0;
        for item in note.items().filter(|item| !item.is_system()) {
            let mut visit = |text: &str| {
                for_each_word(text, &mut pos, &mut word, |w, p| {
                    let id = recent.id(w, |w| self.intern(w));
                    tokens.push(u64::from(id) << 32 | u64::from(p))
                })
            };
            match &item.value {
                Value::Text(s) => visit(s),
                Value::TextList(list) => list.iter().for_each(|s| visit(s)),
                Value::RichText(bytes) => match std::str::from_utf8(bytes) {
                    Ok(text) => visit(text),
                    Err(_) => visit(&String::from_utf8_lossy(bytes)),
                },
                _ => continue,
            }
            pos += 1;
        }
        // Term id high: sorting the integers groups the tokens by term,
        // each term's positions ascending.
        tokens.sort_unstable();
        let term_of = |token: &u64| (token >> 32) as u32;

        let ord = self.free_docs.pop().unwrap_or_else(|| {
            self.docs.push(Doc::vacant());
            self.docs.len() as u32 - 1
        });
        let mut terms = Vec::new();
        let mut offset = 0;
        for run in tokens.chunk_by(|a, b| term_of(a) == term_of(b)) {
            let id = term_of(&run[0]);
            let len = run.len() as u32;
            let term = &mut self.terms[id as usize];
            self.held -= term.heap_bytes();
            term.postings.insert(ord, (offset, len));
            self.held += term.heap_bytes();
            terms.push(id);
            offset += len;
        }
        let doc = Doc {
            unid: note.unid(),
            tokens: (tokens.len() as u32).max(1),
            terms: terms.into_boxed_slice(),
            positions: tokens.iter().map(|&token| token as u32).collect(),
        };
        self.held += doc.heap_bytes();
        self.docs[ord as usize] = doc;
        self.ordinals.insert(note.unid(), ord);
        self.tokens = tokens;
        obs::counter!("Ft.Notes.Indexed").inc();
        obs::gauge!("Ft.Index.Documents").add(1);
        self.report();
    }

    /// The id of `word`, interning it if new. A hit allocates nothing.
    fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = self.free_terms.pop().unwrap_or_else(|| {
            self.terms.push(Term::default());
            self.terms.len() as u32 - 1
        });
        let term = &mut self.terms[id as usize];
        term.text = word.into();
        self.held += term.heap_bytes();
        self.ids.insert(term.text.clone(), id);
        id
    }

    /// Remove one document entirely, retiring each term it alone held.
    pub fn remove(&mut self, unid: Unid) {
        let Some(ord) = self.ordinals.remove(&unid) else {
            return;
        };
        let doc = std::mem::replace(&mut self.docs[ord as usize], Doc::vacant());
        self.held -= doc.heap_bytes();
        for &id in doc.terms.iter() {
            let term = &mut self.terms[id as usize];
            self.held -= term.heap_bytes();
            term.postings.remove(&ord);
            if term.postings.is_empty() {
                let retired = std::mem::take(term);
                self.ids.remove(&retired.text);
                self.free_terms.push(id);
            } else {
                self.held += term.heap_bytes();
            }
        }
        self.free_docs.push(ord);
        obs::counter!("Ft.Notes.Removed").inc();
        obs::gauge!("Ft.Index.Documents").add(-1);
        self.report();
    }

    /// Heap bytes held: the terms and documents plus their containers.
    fn bytes(&self) -> usize {
        self.held
            + map_bytes(&self.ids)
            + map_bytes(&self.ordinals)
            + vec_bytes(&self.terms)
            + vec_bytes(&self.free_terms)
            + vec_bytes(&self.docs)
            + vec_bytes(&self.free_docs)
            + vec_bytes(&self.tokens)
    }

    /// Move `Ft.Index.Bytes` by this index's change since the last report.
    fn report(&mut self) {
        let now = self.bytes();
        obs::gauge!("Ft.Index.Bytes").add(now as i64 - self.reported as i64);
        self.reported = now;
    }

    pub fn stats(&self) -> FtStats {
        FtStats {
            documents: self.ordinals.len(),
            terms: self.ids.len(),
            postings: self.terms.iter().map(|t| t.postings.len()).sum(),
            positions: self.docs.iter().map(|d| d.positions.len()).sum(),
            bytes: self.bytes(),
        }
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    /// Run a parsed query; hits sorted by descending score.
    pub fn execute(&self, q: &QueryNode) -> Vec<SearchHit> {
        let _span = obs::span!("Ft.Query");
        let started = std::time::Instant::now();
        obs::counter!("Ft.Queries").inc();
        let matches = self.eval(q);
        let mut hits: Vec<SearchHit> = matches
            .into_iter()
            .map(|(ord, tf)| {
                let doc = &self.docs[ord as usize];
                SearchHit {
                    unid: doc.unid,
                    score: tf as f32 / doc.tokens as f32,
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.unid.0.cmp(&b.unid.0))
        });
        obs::histogram!("Ft.Query.Micros").record_micros(started.elapsed());
        hits
    }

    fn postings(&self, word: &str) -> Option<&ByOrdinal<(u32, u32)>> {
        self.ids
            .get(word)
            .map(|&id| &self.terms[id as usize].postings)
    }

    /// Evaluate to document ordinal → matched-term-occurrence count.
    fn eval(&self, q: &QueryNode) -> ByOrdinal<u32> {
        match q {
            QueryNode::Term(w) => self
                .postings(w)
                .map(|p| p.iter().map(|(&ord, &(_, len))| (ord, len)).collect())
                .unwrap_or_default(),
            QueryNode::Phrase(words) => self.eval_phrase(words),
            QueryNode::And(a, b) => {
                let (small, large) = {
                    let ra = self.eval(a);
                    let rb = self.eval(b);
                    if ra.len() <= rb.len() {
                        (ra, rb)
                    } else {
                        (rb, ra)
                    }
                };
                small
                    .into_iter()
                    .filter_map(|(ord, tf)| large.get(&ord).map(|tf2| (ord, tf + tf2)))
                    .collect()
            }
            QueryNode::Or(a, b) => {
                let mut out = self.eval(a);
                for (ord, tf) in self.eval(b) {
                    *out.entry(ord).or_insert(0) += tf;
                }
                out
            }
            QueryNode::Not(a, b) => {
                let excluded = self.eval(b);
                self.eval(a)
                    .into_iter()
                    .filter(|(ord, _)| !excluded.contains_key(ord))
                    .collect()
            }
        }
    }

    fn eval_phrase(&self, words: &[String]) -> ByOrdinal<u32> {
        let mut out = ByOrdinal::default();
        let Some(first) = words.first().and_then(|w| self.postings(w)) else {
            return out;
        };
        let Some(rest) = words[1..]
            .iter()
            .map(|w| self.postings(w))
            .collect::<Option<Vec<_>>>()
        else {
            return out;
        };
        let mut runs: Vec<&[u32]> = Vec::with_capacity(rest.len());
        'docs: for (&ord, &first_run) in first {
            let doc = &self.docs[ord as usize];
            // Every subsequent word must appear at position +k.
            runs.clear();
            for postings in &rest {
                match postings.get(&ord) {
                    Some(&run) => runs.push(doc.run(run)),
                    None => continue 'docs,
                }
            }
            let count = doc
                .run(first_run)
                .iter()
                .filter(|&&start| {
                    runs.iter()
                        .enumerate()
                        .all(|(k, pos)| pos.binary_search(&(start + k as u32 + 1)).is_ok())
                })
                .count() as u32;
            if count > 0 {
                out.insert(ord, count * words.len() as u32);
            }
        }
        out
    }
}

impl Drop for InvertedIndex {
    /// Take this index's share back out of the process-wide gauges.
    fn drop(&mut self) {
        obs::gauge!("Ft.Index.Documents").add(-(self.ordinals.len() as i64));
        obs::gauge!("Ft.Index.Bytes").add(-(self.reported as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use domino_types::NoteClass;

    fn note(unid: u128, text: &str) -> Note {
        let mut n = Note::new(NoteClass::Document);
        n.oid.unid = Unid(unid);
        n.set("Body", Value::text(text));
        n
    }

    fn index(texts: &[(u128, &str)]) -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        for (unid, text) in texts {
            ix.index_note(&note(*unid, text));
        }
        ix
    }

    fn unids(ix: &InvertedIndex, q: &str) -> Vec<u128> {
        let mut v: Vec<u128> = ix
            .execute(&parse_query(q).unwrap())
            .into_iter()
            .map(|h| h.unid.0)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn term_lookup() {
        let ix = index(&[(1, "red green"), (2, "green blue")]);
        assert_eq!(unids(&ix, "green"), vec![1, 2]);
        assert_eq!(unids(&ix, "red"), vec![1]);
        assert_eq!(unids(&ix, "purple"), Vec::<u128>::new());
    }

    #[test]
    fn reindex_replaces_old_terms() {
        let mut ix = index(&[(1, "alpha beta")]);
        ix.index_note(&note(1, "gamma delta"));
        assert_eq!(unids(&ix, "alpha"), Vec::<u128>::new());
        assert_eq!(unids(&ix, "gamma"), vec![1]);
        assert_eq!(ix.stats().documents, 1);
    }

    #[test]
    fn remove_cleans_empty_posting_lists() {
        let mut ix = index(&[(1, "solo word")]);
        ix.remove(Unid(1));
        let s = ix.stats();
        assert_eq!(s.documents, 0);
        assert_eq!(s.terms, 0);
        assert_eq!(s.postings, 0);
    }

    #[test]
    fn phrase_counts_multiple_occurrences() {
        let ix = index(&[(1, "big cat big cat big dog")]);
        let hits = ix.execute(&parse_query("\"big cat\"").unwrap());
        assert_eq!(hits.len(), 1);
        // two aligned occurrences * 2 words
        let raw = ix.eval(&parse_query("\"big cat\"").unwrap());
        assert_eq!(raw[&ix.ordinals[&Unid(1)]], 4);
    }

    #[test]
    fn a_query_word_with_punctuation_is_split_as_documents_are() {
        let ix = index(&[
            (
                1,
                "please send the e-mail about state-of-the-art quick-brown foxes",
            ),
            (2, "brown quick foxes"),
        ]);
        assert_eq!(unids(&ix, "e-mail"), vec![1]);
        assert_eq!(unids(&ix, "quick-brown"), vec![1]);
        assert_eq!(unids(&ix, "\"quick-brown foxes\""), vec![1]);
        assert_eq!(unids(&ix, "State-of-the-Art"), vec![1]);
        assert_eq!(unids(&ix, "brown"), vec![1, 2]);
    }

    #[test]
    fn system_items_not_indexed() {
        let mut n = note(1, "visible");
        n.set("$Secret", Value::text("hiddenword"));
        let mut ix = InvertedIndex::new();
        ix.index_note(&n);
        assert!(unids(&ix, "hiddenword").is_empty());
        assert_eq!(unids(&ix, "visible"), vec![1]);
    }

    #[test]
    fn numeric_items_ignored() {
        let mut n = note(1, "text");
        n.set("Total", Value::Number(12345.0));
        let mut ix = InvertedIndex::new();
        ix.index_note(&n);
        assert!(unids(&ix, "12345").is_empty());
    }

    #[test]
    fn phrases_do_not_match_across_items() {
        let mut n = Note::new(NoteClass::Document);
        n.oid.unid = Unid(1);
        n.set("Subject", Value::text("quarterly"));
        n.set("Body", Value::text("budget review"));
        n.set("Tags", Value::text_list(["alpha", "beta"]));
        let mut ix = InvertedIndex::new();
        ix.index_note(&n);
        assert!(unids(&ix, "\"quarterly budget\"").is_empty());
        assert_eq!(unids(&ix, "\"budget review\""), vec![1]);
        // A text list's elements are one stream.
        assert_eq!(unids(&ix, "\"alpha beta\""), vec![1]);
        // The skipped position is not a token: counts and scores hold.
        assert_eq!(ix.stats().positions, 5);
        let hit = ix.execute(&parse_query("budget").unwrap());
        assert_eq!(hit[0].score, 1.0 / 5.0);
    }

    #[test]
    fn ordinals_and_term_ids_are_reused() {
        let mut ix = index(&[(1, "alpha beta"), (2, "gamma")]);
        ix.remove(Unid(1));
        ix.index_note(&note(3, "delta epsilon"));
        assert_eq!((ix.docs.len(), ix.terms.len()), (2, 3));
        assert_eq!(unids(&ix, "delta"), vec![3]);
        assert_eq!(unids(&ix, "alpha"), Vec::<u128>::new());
        assert_eq!(ix.stats().terms, 3);
    }

    /// The heap bytes `held` keeps as the index changes equal a recount
    /// of every term and document.
    #[test]
    fn held_bytes_match_a_recount() {
        let mut ix = index(&[(1, "red green blue"), (2, "green blue"), (3, "blue")]);
        ix.index_note(&note(2, "violet green"));
        ix.remove(Unid(1));
        ix.index_note(&note(4, "red red orange"));
        let recount: usize = ix.terms.iter().map(Term::heap_bytes).sum::<usize>()
            + ix.docs.iter().map(Doc::heap_bytes).sum::<usize>();
        assert_eq!(ix.held, recount);
        for unid in 2..=4 {
            ix.remove(Unid(unid));
        }
        assert_eq!(ix.held, 0);
    }

    /// One allocation per posting, as the old layout made, costs well over
    /// 12 bytes per position on a corpus shaped like the web workloads'
    /// (a 64-word vocabulary, a rare term in about thirty words).
    #[test]
    fn a_stored_position_costs_at_most_twelve_bytes() {
        let mut ix = InvertedIndex::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for unid in 0..2_000u128 {
            let words = 64 + next(900);
            let text: Vec<String> = (0..words)
                .map(|_| match next(30) {
                    0 => format!("term{:04}", next(4_000)),
                    _ => format!("word{:02}", next(64)),
                })
                .collect();
            ix.index_note(&note(unid, &text.join(" ")));
        }
        let s = ix.stats();
        let per_position = s.bytes as f64 / s.positions as f64;
        assert!(
            per_position <= 12.0,
            "{per_position:.1} B per position: {s:?}"
        );
    }
}
