//! Robustness properties: decoders and parsers must never panic on
//! arbitrary input, and encodings must round-trip arbitrary values.

use proptest::prelude::*;

use domino::core::Note;
use domino::formula::Formula;
use domino::types::{DateTime, Item, ItemFlags, NoteClass, NoteId, Timestamp, Value};
use domino::wal::{LogRecord, Lsn, TxId};

/// FNV-1a-32, the log's record checksum (FORMAT.md §9), so a damaged
/// record can be re-checksummed and reach the payload parser.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c9dc5u32, |h, b| {
        (h ^ u32::from(*b)).wrapping_mul(0x01000193)
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Number),
        prop::collection::vec(any::<i32>().prop_map(|i| i as f64), 0..6)
            .prop_map(Value::NumberList),
        ".{0,40}".prop_map(Value::Text),
        prop::collection::vec(".{0,12}", 0..5).prop_map(Value::TextList),
        any::<i64>().prop_map(|t| Value::DateTime(DateTime(t))),
        prop::collection::vec(any::<i64>().prop_map(DateTime), 0..5).prop_map(Value::DateTimeList),
        prop::collection::vec(any::<u8>(), 0..200).prop_map(Value::RichText),
    ]
}

fn arb_item() -> impl Strategy<Value = Item> {
    (
        "[A-Za-z$][A-Za-z0-9_]{0,12}",
        arb_value(),
        0u8..32,
        any::<u64>(),
    )
        .prop_map(|(name, value, flags, revised)| {
            let mut it = Item::new(name, value);
            it.flags = ItemFlags(flags);
            it.revised = Timestamp(revised);
            it
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Arbitrary values survive the canonical binary encoding.
    #[test]
    fn value_encoding_roundtrips(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(pos, buf.len());
    }

    /// Value decoding never panics on arbitrary bytes (errors are fine).
    #[test]
    fn value_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut pos = 0;
        let _ = Value::decode(&bytes, &mut pos);
    }

    /// Notes with arbitrary items round-trip through the summary/body
    /// segment encoding.
    #[test]
    fn note_encoding_roundtrips(items in prop::collection::vec(arb_item(), 0..8)) {
        let mut n = Note::new(NoteClass::Document);
        for it in items {
            n.set_item(it);
        }
        n.created = Timestamp(3);
        n.modified = Timestamp(9);
        let summary = n.encode_summary();
        let body = n.encode_body();
        let back = Note::decode(NoteId(1), &summary, body.as_deref()).unwrap();
        // Compare item multisets by name (order across segments may vary).
        let mut a: Vec<_> = n.items_raw().to_vec();
        let mut b: Vec<_> = back.items_raw().to_vec();
        let key = |i: &Item| (i.name.clone(), i.revised);
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b);
        prop_assert_eq!(back.oid, n.oid);
    }

    /// Note decoding never panics on arbitrary bytes.
    #[test]
    fn note_decode_never_panics(
        summary in prop::collection::vec(any::<u8>(), 0..200),
        body in prop::option::of(prop::collection::vec(any::<u8>(), 0..100)),
    ) {
        let _ = Note::decode(NoteId(1), &summary, body.as_deref());
    }

    /// Log-record decoding never panics on arbitrary bytes and always
    /// terminates.
    #[test]
    fn log_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let mut pos = 0;
        let mut guard = 0;
        while let Ok(Some(_)) = LogRecord::decode(&bytes, &mut pos) {
            guard += 1;
            if guard > 1000 { break; }
        }
    }

    /// An update record (tag 7 when its before-image is zero, else tag 2)
    /// with any four payload bytes overwritten and a fixed-up checksum
    /// decodes or is refused as corruption. It never panics, and no image
    /// it returns is longer than the record that carried it.
    #[test]
    fn damaged_update_record_decodes_or_is_refused(
        zero in any::<bool>(),
        len in 0usize..48,
        at in any::<usize>(),
        value in any::<u32>(),
    ) {
        let mut bytes = LogRecord::Update {
            tx: TxId(5),
            prev: Lsn(64),
            page: 9,
            offset: 128,
            before: vec![u8::from(!zero); len],
            after: vec![3; len],
        }
        .encode();
        let at = 9 + at % (bytes.len() - 12);
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let sum = fnv1a(&bytes[8..]);
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut pos = 0;
        if let Ok(Some(LogRecord::Update { before, after, .. })) = LogRecord::decode(&bytes, &mut pos) {
            prop_assert!(before.len().max(after.len()) <= bytes.len());
        }
    }

    /// The formula compiler never panics on arbitrary input; it either
    /// compiles or reports a parse error.
    #[test]
    fn formula_compile_never_panics(src in ".{0,80}") {
        let _ = Formula::compile(&src);
    }

    /// Formula evaluation never panics on programs built from a grammar of
    /// plausible fragments.
    #[test]
    fn formula_eval_never_panics(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "1", "x", "\"t\"", "@Sum(1;2)", "@Left(\"ab\"; 1)", "(1 + 2)",
                "@If(1; 2; 3)", "x := 4", "@Elements(1 : 2)", "-3", "!0",
            ]),
            1..5,
        ),
        op in prop::sample::select(vec![" + ", " : ", " = ", " & ", "; "]),
    ) {
        let src = parts.join(op);
        if let Ok(f) = Formula::compile(&src) {
            let _ = f.eval(&domino::formula::MapDoc::new(), &Default::default());
        }
    }
}
