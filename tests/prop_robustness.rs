//! Robustness properties: decoders and parsers must never panic on
//! arbitrary input, and encodings must round-trip arbitrary values.

use proptest::prelude::*;

use domino::core::{DeletionStub, Note};
use domino::formula::Formula;
use domino::storage::{SuperBlock, PAGE_SIZE};
use domino::types::{
    DateTime, DominoError, Frame, FrameDecoder, Item, ItemFlags, NoteClass, NoteId, Oid, Opcode,
    Result, Timestamp, Unid, Value,
};
use domino::wal::{FileLogStore, LogRecord, Lsn, TxId};

/// FNV-1a-32, the log's record checksum (FORMAT.md §9), so a damaged
/// record can be re-checksummed and reach the payload parser.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c9dc5u32, |h, b| {
        (h ^ u32::from(*b)).wrapping_mul(0x01000193)
    })
}

/// FNV-1a-64, the superblock checksum (FORMAT.md §2).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One kind of damage to an encoding: flip a byte's bits, cut the bytes
/// short, or overwrite (up to) four bytes with a little-endian value.
#[derive(Debug, Clone)]
enum Damage {
    Flip(usize, u8),
    Cut(usize),
    Overwrite(usize, u32),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, mask)| Damage::Flip(at, mask.max(1))),
        any::<usize>().prop_map(Damage::Cut),
        // Small values land as plausible lengths, counts and tags.
        (
            any::<usize>(),
            prop_oneof![0u32..4, 0u32..64, Just(u32::MAX), any::<u32>()]
        )
            .prop_map(|(at, v)| Damage::Overwrite(at, v)),
    ]
}

/// Apply `damage` to the first `span` bytes of `bytes` (all of them when
/// `span` is larger).
fn damage(bytes: &mut Vec<u8>, damage: &Damage, span: usize) {
    let span = span.min(bytes.len());
    if span == 0 {
        return;
    }
    match *damage {
        Damage::Flip(at, mask) => bytes[at % span] ^= mask,
        Damage::Cut(at) => bytes.truncate(at % span),
        Damage::Overwrite(at, v) => {
            for (i, b) in v.to_le_bytes().into_iter().enumerate() {
                if let Some(slot) = bytes.get_mut(at % span + i) {
                    *slot = b;
                }
            }
        }
    }
}

/// What every decoder of damaged bytes may return.
fn decoded_or_corrupt<T: std::fmt::Debug>(got: &Result<T>) {
    assert!(
        matches!(got, Ok(_) | Err(DominoError::Corrupt(_))),
        "neither decoded nor refused as corruption: {got:?}"
    );
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

    /// A damaged item decodes or is refused as corruption.
    #[test]
    fn damaged_item_decodes_or_is_refused(item in arb_item(), hurt in arb_damage()) {
        let mut bytes = Vec::new();
        item.encode(&mut bytes);
        damage(&mut bytes, &hurt, usize::MAX);
        let mut pos = 0;
        let got = Item::decode(&bytes, &mut pos);
        decoded_or_corrupt(&got);
        prop_assert!(pos <= bytes.len());
    }

    /// A damaged deletion stub decodes or is refused as corruption.
    #[test]
    fn damaged_deletion_stub_decodes_or_is_refused(
        unid in any::<u128>(),
        seq in any::<u32>(),
        deleted_at in any::<u64>(),
        hurt in arb_damage(),
    ) {
        let stub = DeletionStub {
            id: NoteId(1),
            oid: Oid { unid: Unid(unid), seq, seq_time: Timestamp(deleted_at / 2) },
            deleted_at: Timestamp(deleted_at),
        };
        let mut bytes = stub.encode();
        damage(&mut bytes, &hurt, usize::MAX);
        decoded_or_corrupt(&DeletionStub::decode(NoteId(1), &bytes));
    }

    /// A superblock damaged in its meaningful bytes decodes or is refused
    /// as corruption, with its checksum recomputed (`fix`) or not.
    #[test]
    fn damaged_superblock_decodes_or_is_refused(hurt in arb_damage(), fix in any::<bool>()) {
        let block = SuperBlock { version: 1, flags: 0, page_size: PAGE_SIZE as u32 };
        let mut bytes = block.encode().to_vec();
        damage(&mut bytes, &hurt, 64);
        if fix && bytes.len() >= 64 {
            let sum = fnv1a64(&bytes[..56]);
            bytes[56..64].copy_from_slice(&sum.to_le_bytes());
        }
        decoded_or_corrupt(&SuperBlock::decode(&bytes));
    }

    /// A transaction log whose 20-byte header is damaged opens or is
    /// refused as corruption, with its checksum recomputed (`fix`) or not.
    #[test]
    fn damaged_log_header_opens_or_is_refused(hurt in arb_damage(), fix in any::<bool>()) {
        let dir = std::env::temp_dir().join(format!("domino-log-header-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.txn");
        drop(FileLogStore::open(&path).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes, &hurt, 20);
        if fix && bytes.len() >= 20 {
            let sum = fnv1a(&bytes[..16]);
            bytes[16..20].copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        decoded_or_corrupt(&FileLogStore::open(&path).map(drop));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A damaged stream of wire frames, fed at any split, yields frames
    /// until it ends or is refused as corruption. The damaged frame's
    /// checksum is recomputed when `fix` is set and its length still fits.
    #[test]
    fn damaged_frames_decode_or_are_refused(
        notes in any::<u64>(),
        reason in ".{0,20}",
        hurt in arb_damage(),
        fix in any::<bool>(),
        split in 1usize..16,
    ) {
        let frames = [Frame::hello(), Frame::deliver(notes), Frame::nack(&reason)];
        let mut bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        damage(&mut bytes, &hurt, usize::MAX);
        if fix && bytes.len() >= 8 {
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            if let Some(body) = bytes.get(8..8 + len) {
                let sum = fnv1a(body);
                bytes[4..8].copy_from_slice(&sum.to_le_bytes());
            }
        }
        let mut dec = FrameDecoder::new();
        'feed: for chunk in bytes.chunks(split) {
            dec.feed(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) if frame.opcode == Opcode::Deliver => {
                        decoded_or_corrupt(&frame.deliver_notes());
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    got => {
                        decoded_or_corrupt(&got);
                        break 'feed;
                    }
                }
            }
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
