//! Log sequence numbers, transaction ids, and log records.

use domino_types::{fnv1a32, DominoError, Reader, Result};

/// A log sequence number: the byte offset of a record in the log. LSN 0 is
/// "nil" (before everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    pub const NIL: Lsn = Lsn(0);

    pub fn is_nil(self) -> bool {
        self == Lsn::NIL
    }
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx:{}", self.0)
    }
}

/// One record of the write-ahead log.
///
/// `Update` carries both images of the changed byte range (physical
/// undo/redo); `Clr` is a *compensation log record* written while undoing,
/// carrying only the redo image plus the `undo_next` pointer so an undo
/// interrupted by a second crash never repeats work.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    Begin {
        tx: TxId,
    },
    Update {
        tx: TxId,
        /// Previous log record of the same transaction (undo chain).
        prev: Lsn,
        page: u32,
        offset: u16,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    Clr {
        tx: TxId,
        page: u32,
        offset: u16,
        /// The restored (pre-update) image being re-applied.
        after: Vec<u8>,
        /// Next record of this transaction still to undo.
        undo_next: Lsn,
    },
    Commit {
        tx: TxId,
    },
    Abort {
        tx: TxId,
    },
}

/// Tag of an `Update` whose before-image is all zero bytes: the image is
/// logged as its length. Tag 6 is reserved: it was the retired
/// fuzzy-checkpoint record.
const TAG_UPDATE_ZERO_BEFORE: u8 = 7;

impl LogRecord {
    /// Serialize as `[len:u32][checksum:u32][tag:u8][payload]`. `len` covers
    /// tag+payload. The log manager encodes straight into its buffer with
    /// [`LogRecord::encode_into`]; this copy is for tests and tools.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the framed record to `out`. The payload is written in place
    /// and checksummed there; `len` and `checksum` are filled in last.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 8]);
        match self {
            LogRecord::Begin { tx } => put_tx(out, 1, *tx),
            LogRecord::Commit { tx } => put_tx(out, 4, *tx),
            LogRecord::Abort { tx } => put_tx(out, 5, *tx),
            LogRecord::Update {
                tx,
                prev,
                page,
                offset,
                before,
                after,
            } => {
                // Fresh heap and page space is zero, and its undo is "write
                // zeros back": such a before-image is logged as its length.
                // Only one no longer than the after-image qualifies, which
                // bounds what decoding allocates by the bytes present.
                let zero = before.len() <= after.len() && before.iter().all(|b| *b == 0);
                put_tx(out, if zero { TAG_UPDATE_ZERO_BEFORE } else { 2 }, *tx);
                out.extend_from_slice(&prev.0.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(before.len() as u32).to_le_bytes());
                if !zero {
                    out.extend_from_slice(before);
                }
                out.extend_from_slice(&(after.len() as u32).to_le_bytes());
                out.extend_from_slice(after);
            }
            LogRecord::Clr {
                tx,
                page,
                offset,
                after,
                undo_next,
            } => {
                put_tx(out, 3, *tx);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&(after.len() as u32).to_le_bytes());
                out.extend_from_slice(after);
                out.extend_from_slice(&undo_next.0.to_le_bytes());
            }
        }
        let len = (out.len() - start - 8) as u32;
        let sum = fnv1a32(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Decode one record starting at `buf[*pos]`.
    ///
    /// Returns `Ok(None)` for a *cleanly torn tail* — too few bytes left for
    /// a header, or a record whose declared length runs past the buffer, or
    /// a checksum mismatch (an interrupted final write). Mid-buffer garbage
    /// is indistinguishable from a torn tail, so recovery treats the first
    /// bad record as end-of-log, exactly like ARIES.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Option<LogRecord>> {
        let mut r = Reader::at(buf, *pos);
        let Some(payload) = framed(&mut r) else {
            return Ok(None);
        };
        *pos = r.pos();
        let mut r = Reader::new(payload);
        let rec = match r.u8("log record tag")? {
            1 => LogRecord::Begin {
                tx: get_tx(&mut r)?,
            },
            4 => LogRecord::Commit {
                tx: get_tx(&mut r)?,
            },
            5 => LogRecord::Abort {
                tx: get_tx(&mut r)?,
            },
            tag @ (2 | TAG_UPDATE_ZERO_BEFORE) => {
                let tx = get_tx(&mut r)?;
                let prev = Lsn(r.u64("log record prev lsn")?);
                let page = r.u32("log record page")?;
                let offset = r.u16("log record offset")?;
                let blen = r.u32("before-image length")? as usize;
                let stored = match tag {
                    2 => Some(r.bytes(blen, "before-image")?.to_vec()),
                    _ => None,
                };
                let alen = r.u32("after-image length")? as usize;
                let after = r.bytes(alen, "after-image")?.to_vec();
                let before = match stored {
                    Some(before) => before,
                    None if blen <= alen => vec![0; blen],
                    None => {
                        return Err(DominoError::Corrupt(
                            "zero before-image longer than its after-image".into(),
                        ))
                    }
                };
                LogRecord::Update {
                    tx,
                    prev,
                    page,
                    offset,
                    before,
                    after,
                }
            }
            3 => {
                let tx = get_tx(&mut r)?;
                let page = r.u32("log record page")?;
                let offset = r.u16("log record offset")?;
                let alen = r.u32("after-image length")? as usize;
                let after = r.bytes(alen, "after-image")?.to_vec();
                let undo_next = Lsn(r.u64("log record undo-next lsn")?);
                LogRecord::Clr {
                    tx,
                    page,
                    offset,
                    after,
                    undo_next,
                }
            }
            t => return Err(DominoError::Corrupt(format!("unknown log record tag {t}"))),
        };
        Ok(Some(rec))
    }
}

/// The payload of the framed record at the cursor, or `None` for a torn
/// tail: a header or payload cut short, a zero length, or a checksum that
/// does not match.
fn framed<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32("log record length").ok()?;
    let sum = r.u32("log record checksum").ok()?;
    let payload = r.bytes(len as usize, "log record").ok()?;
    (len != 0 && fnv1a32(payload) == sum).then_some(payload)
}

fn put_tx(out: &mut Vec<u8>, tag: u8, tx: TxId) {
    out.push(tag);
    out.extend_from_slice(&tx.0.to_le_bytes());
}

fn get_tx(r: &mut Reader<'_>) -> Result<TxId> {
    r.u64("log record tx").map(TxId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { tx: TxId(7) },
            LogRecord::Update {
                tx: TxId(7),
                prev: Lsn(12),
                page: 3,
                offset: 100,
                before: vec![1, 2, 3],
                after: vec![4, 5, 6, 7],
            },
            LogRecord::Update {
                tx: TxId(7),
                prev: Lsn(30),
                page: 4,
                offset: 0,
                before: vec![0; 16],
                after: vec![8; 16],
            },
            LogRecord::Clr {
                tx: TxId(7),
                page: 3,
                offset: 100,
                after: vec![1, 2, 3],
                undo_next: Lsn(12),
            },
            LogRecord::Commit { tx: TxId(7) },
            LogRecord::Abort { tx: TxId(8) },
        ]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        for rec in samples() {
            let bytes = rec.encode();
            let mut pos = 0;
            let back = LogRecord::decode(&bytes, &mut pos).unwrap().unwrap();
            assert_eq!(back, rec);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn stream_of_records_decodes_in_order() {
        let mut buf = Vec::new();
        for rec in samples() {
            buf.extend_from_slice(&rec.encode());
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some(rec) = LogRecord::decode(&buf, &mut pos).unwrap() {
            out.push(rec);
        }
        assert_eq!(out, samples());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn torn_tail_reads_as_end_of_log() {
        let rec = LogRecord::Commit { tx: TxId(1) };
        let full = rec.encode();
        for cut in 0..full.len() {
            let mut pos = 0;
            assert_eq!(LogRecord::decode(&full[..cut], &mut pos).unwrap(), None);
            assert_eq!(pos, 0);
        }
    }

    #[test]
    fn corrupted_checksum_reads_as_end_of_log() {
        let mut bytes = LogRecord::Commit { tx: TxId(1) }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut pos = 0;
        assert_eq!(LogRecord::decode(&bytes, &mut pos).unwrap(), None);
    }

    #[test]
    fn reserved_tag_is_refused() {
        // Tag 6, the retired checkpoint record, decodes as corruption.
        let mut bytes = LogRecord::Commit { tx: TxId(1) }.encode();
        bytes[8] = 6;
        let sum = fnv1a32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            LogRecord::decode(&bytes, &mut pos),
            Err(DominoError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_before_image_is_logged_as_its_length() {
        let update = |before: Vec<u8>| LogRecord::Update {
            tx: TxId(7),
            prev: Lsn(12),
            page: 3,
            offset: 100,
            before,
            after: vec![9; 64],
        };
        let zero = update(vec![0; 64]).encode();
        let stored = update(vec![1; 64]).encode();
        assert_eq!(zero[8], TAG_UPDATE_ZERO_BEFORE);
        assert_eq!(stored[8], 2);
        assert_eq!(stored.len() - zero.len(), 64, "only the image itself goes");
        // A zero image longer than the after-image keeps tag 2.
        assert_eq!(update(vec![0; 65]).encode()[8], 2);
    }

    #[test]
    fn zero_before_image_longer_than_its_after_image_is_refused() {
        let mut bytes = LogRecord::Update {
            tx: TxId(1),
            prev: Lsn::NIL,
            page: 1,
            offset: 0,
            before: vec![0; 4],
            after: vec![1; 4],
        }
        .encode();
        // before_len sits after tag, tx, prev, page and offset.
        let at = 8 + 1 + 8 + 8 + 4 + 2;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = fnv1a32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            LogRecord::decode(&bytes, &mut pos),
            Err(DominoError::Corrupt(_))
        ));
    }

    fn before_image() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(Vec::new()),
            (1usize..300).prop_map(|n| vec![0u8; n]),
            prop::collection::vec(any::<u8>(), 1..300),
        ]
    }

    proptest! {
        /// An update decodes to itself whether its before-image is zero,
        /// non-zero or empty, and every strict prefix of its encoding
        /// (a tag-7 record's included) reads as a cleanly torn tail.
        #[test]
        fn update_roundtrips_and_every_prefix_is_a_torn_tail(
            before in before_image(),
            after in prop::collection::vec(any::<u8>(), 0..300),
            page in any::<u32>(),
            offset in any::<u16>(),
        ) {
            let rec = LogRecord::Update {
                tx: TxId(3),
                prev: Lsn(40),
                page,
                offset,
                before,
                after,
            };
            let bytes = rec.encode();
            let mut pos = 0;
            prop_assert_eq!(LogRecord::decode(&bytes, &mut pos).unwrap(), Some(rec));
            prop_assert_eq!(pos, bytes.len());
            for cut in 0..bytes.len() {
                let mut pos = 0;
                prop_assert_eq!(LogRecord::decode(&bytes[..cut], &mut pos).unwrap(), None);
                prop_assert_eq!(pos, 0);
            }
        }
    }

    #[test]
    fn lsn_nil() {
        assert!(Lsn::NIL.is_nil());
        assert!(!Lsn(1).is_nil());
        assert!(Lsn(2) > Lsn(1));
    }
}
