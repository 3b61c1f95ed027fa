//! Property: the inverted index answers exactly like a naive scan over the
//! document texts, through arbitrary index/update/remove schedules, and an
//! index maintained through a schedule of item edits equals one built
//! fresh from the final notes. The tokenizer itself is checked against the
//! `char` rule it replaced, and a query built from a text's tokens finds
//! that text.

use proptest::prelude::*;

use domino::core::Note;
use domino::ftindex::{parse_query, tokenize, InvertedIndex, STOPWORDS};
use domino::types::{NoteClass, Unid, Value};

fn words() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "storage", "notes", "view", "index",
    ])
    .prop_map(|s| s.to_string())
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(words(), 0..12).prop_map(|ws| ws.join(" "))
}

fn note(unid: u128, text: &str) -> Note {
    let mut n = Note::new(NoteClass::Document);
    n.oid.unid = Unid(unid);
    n.set("Body", Value::text(text));
    n
}

/// The `char` rule the byte-level tokenizer must reproduce: maximal
/// alphanumeric runs, each lowercased by `str::to_lowercase` and split
/// again on non-alphanumerics; pieces of at least two bytes that are not
/// stopwords are the words, numbered in order.
fn char_rule(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for raw in text.split(|c: char| !c.is_alphanumeric()) {
        for word in raw.to_lowercase().split(|c: char| !c.is_alphanumeric()) {
            if word.len() >= 2 && !STOPWORDS.contains(&word) {
                out.push((word.to_string(), out.len() as u32));
            }
        }
    }
    out
}

/// Pieces of a mixed text, glued with no space between them: ASCII words
/// and stopwords, non-ASCII letters and separators (no-break space, em
/// dash, middle dot), digits, one-byte words and a word-final sigma.
const PIECES: &[&str] = &[
    "alpha",
    "Beta",
    "GAMMA",
    "dElTa",
    "the",
    "The",
    "THE",
    "Of",
    "which",
    "THEIR",
    "x",
    "Q",
    "7",
    "2024",
    "q3",
    " ",
    "\t",
    "-",
    ",",
    ".",
    "'",
    "\n",
    "\u{a0}",
    "\u{2014}",
    "\u{b7}",
    "é",
    "naïve",
    "Café",
    "STRASSE",
    "straße",
    "Ærø",
    "ΟΔΟΣ",
    "Σ",
    "λόγος",
    "日本",
    "Ω",
];

/// Pieces whose lowercase is not itself one word: the Kelvin sign
/// lowercases to a one-byte `k`, and dotted capital I to `i` and a
/// combining dot that is not alphanumeric. The tokenizer measures and
/// splits a word after lowercasing it, so these index as `stanbul` and
/// nothing.
const UNSTABLE_PIECES: &[&str] = &["\u{212a}", "İstanbul"];

fn mixed_text(pieces: Vec<&'static str>) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(pieces), 0..24).prop_map(|ps| ps.concat())
}

/// Naive evaluation of a single-word query: docs whose token stream
/// contains the word.
fn naive_contains(docs: &[(u128, String)], word: &str) -> Vec<u128> {
    let mut v: Vec<u128> = docs
        .iter()
        .filter(|(_, t)| tokenize(t).iter().any(|(w, _)| w == word))
        .map(|(u, _)| *u)
        .collect();
    v.sort_unstable();
    v
}

/// The items of a several-item note, each absent or a list of texts:
/// `Subject` (one text), `Body` (rich text) and `Tags` (a text list).
type Items = [Option<Vec<String>>; 3];

const ITEMS: [&str; 3] = ["Subject", "Body", "Tags"];

fn item() -> impl Strategy<Value = Option<Vec<String>>> {
    prop::option::of(prop::collection::vec(text(), 1..3))
}

fn items() -> impl Strategy<Value = Items> {
    (item(), item(), item()).prop_map(|(s, b, t)| [s, b, t])
}

fn multi_note(unid: u128, items: &Items) -> Note {
    let mut n = Note::new(NoteClass::Document);
    n.oid.unid = Unid(unid);
    for (i, parts) in items.iter().enumerate() {
        let Some(parts) = parts else { continue };
        match i {
            0 => n.set(ITEMS[i], Value::text(parts.join(" "))),
            1 => n.set_body(ITEMS[i], Value::RichText(parts.join(" ").into_bytes())),
            _ => n.set(ITEMS[i], Value::text_list(parts.iter().map(String::as_str))),
        };
    }
    n
}

/// One step of a maintenance schedule, addressing a note by slot.
#[derive(Debug, Clone)]
enum Step {
    /// Replace (or, with `None`, delete) one item, then re-index.
    Edit(usize, usize, Option<Vec<String>>),
    /// Re-index the note unchanged.
    Reindex(usize),
    Remove(usize),
    Add(Items),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..16usize, 0..3usize, item()).prop_map(|(slot, i, v)| Step::Edit(slot, i, v)),
        (0..16usize).prop_map(Step::Reindex),
        (0..16usize).prop_map(Step::Remove),
        items().prop_map(Step::Add),
    ]
}

/// Every hit with its score, in the order the index ranks them.
fn ranked(ix: &InvertedIndex, q: &str) -> Vec<(u128, f32)> {
    ix.execute(&parse_query(q).unwrap())
        .into_iter()
        .map(|h| (h.unid.0, h.score))
        .collect()
}

fn index_hits(ix: &InvertedIndex, q: &str) -> Vec<u128> {
    let mut v: Vec<u128> = ix
        .execute(&parse_query(q).unwrap())
        .into_iter()
        .map(|h| h.unid.0)
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Word queries match a naive scan after arbitrary updates/removals.
    #[test]
    fn word_queries_match_naive_scan(
        initial in prop::collection::vec(text(), 1..10),
        updates in prop::collection::vec((0..10usize, text()), 0..6),
        removals in prop::collection::vec(0..10usize, 0..4),
        probe in words(),
    ) {
        let mut ix = InvertedIndex::new();
        let mut docs: Vec<(u128, String)> = initial
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as u128 + 1, t))
            .collect();
        for (u, t) in &docs {
            ix.index_note(&note(*u, t));
        }
        for (slot, t) in updates {
            if docs.is_empty() { break; }
            let i = slot % docs.len();
            docs[i].1 = t.clone();
            ix.index_note(&note(docs[i].0, &t));
        }
        for slot in removals {
            if docs.is_empty() { break; }
            let i = slot % docs.len();
            let (u, _) = docs.remove(i);
            ix.remove(Unid(u));
        }
        prop_assert_eq!(index_hits(&ix, &probe), naive_contains(&docs, &probe));
    }

    /// Boolean algebra: AND is intersection, OR is union, NOT is
    /// difference — verified against set operations on word results.
    #[test]
    fn boolean_operators_are_set_operations(
        texts in prop::collection::vec(text(), 1..12),
        w1 in words(),
        w2 in words(),
    ) {
        let docs: Vec<(u128, String)> = texts
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as u128 + 1, t))
            .collect();
        let mut ix = InvertedIndex::new();
        for (u, t) in &docs {
            ix.index_note(&note(*u, t));
        }
        let a = naive_contains(&docs, &w1);
        let b = naive_contains(&docs, &w2);
        let inter: Vec<u128> = a.iter().filter(|x| b.contains(x)).copied().collect();
        let mut union: Vec<u128> = a.iter().chain(b.iter()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let diff: Vec<u128> = a.iter().filter(|x| !b.contains(x)).copied().collect();

        prop_assert_eq!(index_hits(&ix, &format!("{w1} AND {w2}")), inter);
        prop_assert_eq!(index_hits(&ix, &format!("{w1} OR {w2}")), union);
        prop_assert_eq!(index_hits(&ix, &format!("{w1} NOT {w2}")), diff);
    }

    /// Phrase queries match exactly the docs whose token stream contains
    /// the two words adjacently.
    #[test]
    fn phrases_match_adjacency(texts in prop::collection::vec(text(), 1..12), w1 in words(), w2 in words()) {
        let docs: Vec<(u128, String)> = texts
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as u128 + 1, t))
            .collect();
        let mut ix = InvertedIndex::new();
        for (u, t) in &docs {
            ix.index_note(&note(*u, t));
        }
        let naive: Vec<u128> = {
            let mut v: Vec<u128> = docs
                .iter()
                .filter(|(_, t)| {
                    let toks: Vec<String> =
                        tokenize(t).into_iter().map(|(w, _)| w).collect();
                    toks.windows(2).any(|w| w[0] == w1 && w[1] == w2)
                })
                .map(|(u, _)| *u)
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(index_hits(&ix, &format!("\"{w1} {w2}\"")), naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Item edits, re-indexes, removals and additions reuse ordinals and
    /// retire terms; afterwards the index answers every query kind, with
    /// the same scores in the same order, and counts the same as a fresh
    /// index of the final notes.
    #[test]
    fn incremental_index_equals_a_fresh_build(
        initial in prop::collection::vec(items(), 1..8),
        schedule in prop::collection::vec(step(), 0..24),
        w1 in words(),
        w2 in words(),
        w3 in words(),
    ) {
        let mut ix = InvertedIndex::new();
        let mut docs: Vec<(u128, Items)> = Vec::new();
        let mut next = 1u128;
        for step in initial.into_iter().map(Step::Add).chain(schedule) {
            match step {
                Step::Add(items) => {
                    ix.index_note(&multi_note(next, &items));
                    docs.push((next, items));
                    next += 1;
                }
                _ if docs.is_empty() => {}
                Step::Edit(slot, i, value) => {
                    let n = docs.len();
                    let (unid, items) = &mut docs[slot % n];
                    items[i] = value;
                    ix.index_note(&multi_note(*unid, items));
                }
                Step::Reindex(slot) => {
                    let (unid, items) = &docs[slot % docs.len()];
                    ix.index_note(&multi_note(*unid, items));
                }
                Step::Remove(slot) => {
                    let (unid, _) = docs.remove(slot % docs.len());
                    ix.remove(Unid(unid));
                }
            }
        }
        let mut fresh = InvertedIndex::new();
        for (unid, items) in &docs {
            fresh.index_note(&multi_note(*unid, items));
        }
        for q in [
            w1.clone(),
            format!("{w1} AND {w2}"),
            format!("{w1} OR {w2}"),
            format!("{w1} NOT {w2}"),
            format!("\"{w1} {w2}\""),
            format!("\"{w1} {w2} {w3}\""),
        ] {
            prop_assert_eq!(ranked(&ix, &q), ranked(&fresh, &q), "query {}", q);
        }
        let counts = |ix: &InvertedIndex| {
            let s = ix.stats();
            (s.documents, s.terms, s.postings, s.positions)
        };
        prop_assert_eq!(counts(&ix), counts(&fresh));
    }

    /// A phrase matches within one item, never across two: exactly the
    /// notes with an item whose token stream holds the words adjacently
    /// (a text list's elements are one stream).
    #[test]
    fn no_phrase_matches_across_two_items(
        notes in prop::collection::vec(items(), 1..10),
        w1 in words(),
        w2 in words(),
    ) {
        let mut ix = InvertedIndex::new();
        for (i, items) in notes.iter().enumerate() {
            ix.index_note(&multi_note(i as u128 + 1, items));
        }
        let naive: Vec<u128> = (1..)
            .zip(&notes)
            .filter(|(_, items)| {
                items.iter().flatten().any(|parts| {
                    let toks: Vec<String> =
                        tokenize(&parts.join(" ")).into_iter().map(|(w, _)| w).collect();
                    toks.windows(2).any(|w| w[0] == w1 && w[1] == w2)
                })
            })
            .map(|(u, _)| u)
            .collect();
        prop_assert_eq!(index_hits(&ix, &format!("\"{w1} {w2}\"")), naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The byte-level tokenizer yields the `char` rule's words at the
    /// `char` rule's positions.
    #[test]
    fn tokenizer_matches_the_char_rule(
        text in mixed_text([PIECES, UNSTABLE_PIECES].concat()),
    ) {
        prop_assert_eq!(tokenize(&text), char_rule(&text));
    }

    /// Every token is a fixed point: tokenized on its own, it is itself,
    /// so a query for it looks up the term it was indexed under.
    #[test]
    fn every_token_tokenizes_to_itself(
        text in mixed_text([PIECES, UNSTABLE_PIECES].concat()),
    ) {
        for (word, _) in tokenize(&text) {
            prop_assert_eq!(tokenize(&word), vec![(word.clone(), 0)], "in {:?}", text);
        }
    }

    /// Any run of a text's tokens, joined by punctuation and quoted, finds
    /// that text; so does the run as one bare word.
    #[test]
    fn a_run_of_tokens_joined_by_punctuation_finds_its_text(
        text in mixed_text([PIECES, UNSTABLE_PIECES].concat()),
        other in mixed_text([PIECES, UNSTABLE_PIECES].concat()),
        start in any::<prop::sample::Index>(),
        len in 1..4usize,
        joiner in prop::sample::select(vec!["-", ",", ".", "/", "_", "'", "\u{2014}", "\u{b7}"]),
    ) {
        // Indexed beside `other`, so a query can match the wrong note.
        let mut ix = InvertedIndex::new();
        ix.index_note(&note(1, &text));
        ix.index_note(&note(2, &other));
        let tokens = tokenize(&text);
        let start = start.index(tokens.len().max(1));
        let run: Vec<&str> = tokens
            .iter()
            .skip(start)
            .take(len)
            .map(|(w, _)| w.as_str())
            .collect();
        let joined = run.join(joiner);
        let queries = if run.is_empty() { vec![] } else { vec![format!("\"{joined}\""), joined] };
        for q in queries {
            prop_assert!(index_hits(&ix, &q).contains(&1), "query {} on {:?}", q, text);
        }
    }
}
