//! Log sequence numbers, transaction ids, and log records.

use domino_types::{DominoError, Result};

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

impl LogRecord {
    /// Tag 6 is reserved: it was the retired fuzzy-checkpoint record.
    fn tag(&self) -> u8 {
        match self {
            LogRecord::Begin { .. } => 1,
            LogRecord::Update { .. } => 2,
            LogRecord::Clr { .. } => 3,
            LogRecord::Commit { .. } => 4,
            LogRecord::Abort { .. } => 5,
        }
    }

    /// Serialize as `[len:u32][checksum:u32][tag:u8][payload]`. `len` covers
    /// tag+payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = vec![self.tag()];
        match self {
            LogRecord::Begin { tx } | LogRecord::Commit { tx } | LogRecord::Abort { tx } => {
                payload.extend_from_slice(&tx.0.to_le_bytes());
            }
            LogRecord::Update {
                tx,
                prev,
                page,
                offset,
                before,
                after,
            } => {
                payload.extend_from_slice(&tx.0.to_le_bytes());
                payload.extend_from_slice(&prev.0.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(&offset.to_le_bytes());
                payload.extend_from_slice(&(before.len() as u32).to_le_bytes());
                payload.extend_from_slice(before);
                payload.extend_from_slice(&(after.len() as u32).to_le_bytes());
                payload.extend_from_slice(after);
            }
            LogRecord::Clr {
                tx,
                page,
                offset,
                after,
                undo_next,
            } => {
                payload.extend_from_slice(&tx.0.to_le_bytes());
                payload.extend_from_slice(&page.to_le_bytes());
                payload.extend_from_slice(&offset.to_le_bytes());
                payload.extend_from_slice(&(after.len() as u32).to_le_bytes());
                payload.extend_from_slice(after);
                payload.extend_from_slice(&undo_next.0.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one record starting at `buf[*pos]`.
    ///
    /// Returns `Ok(None)` for a *cleanly torn tail* — too few bytes left for
    /// a header, or a record whose declared length runs past the buffer, or
    /// a checksum mismatch (an interrupted final write). Mid-buffer garbage
    /// is indistinguishable from a torn tail, so recovery treats the first
    /// bad record as end-of-log, exactly like ARIES.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Option<LogRecord>> {
        if *pos + 8 > buf.len() {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4")) as usize;
        let want_sum = u32::from_le_bytes(buf[*pos + 4..*pos + 8].try_into().expect("4"));
        if len == 0 || *pos + 8 + len > buf.len() {
            return Ok(None);
        }
        let payload = &buf[*pos + 8..*pos + 8 + len];
        if checksum(payload) != want_sum {
            return Ok(None);
        }
        *pos += 8 + len;
        let mut p = 1;
        let rec = match payload[0] {
            1 => LogRecord::Begin {
                tx: TxId(get_u64(payload, &mut p)?),
            },
            4 => LogRecord::Commit {
                tx: TxId(get_u64(payload, &mut p)?),
            },
            5 => LogRecord::Abort {
                tx: TxId(get_u64(payload, &mut p)?),
            },
            2 => {
                let tx = TxId(get_u64(payload, &mut p)?);
                let prev = Lsn(get_u64(payload, &mut p)?);
                let page = get_u32(payload, &mut p)?;
                let offset = get_u16(payload, &mut p)?;
                let blen = get_u32(payload, &mut p)? as usize;
                let before = get_bytes(payload, &mut p, blen)?;
                let alen = get_u32(payload, &mut p)? as usize;
                let after = get_bytes(payload, &mut p, alen)?;
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
                let tx = TxId(get_u64(payload, &mut p)?);
                let page = get_u32(payload, &mut p)?;
                let offset = get_u16(payload, &mut p)?;
                let alen = get_u32(payload, &mut p)? as usize;
                let after = get_bytes(payload, &mut p, alen)?;
                let undo_next = Lsn(get_u64(payload, &mut p)?);
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

/// FNV-1a, enough to detect torn writes (not adversarial corruption).
pub(crate) fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in bytes {
        h ^= *b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let b = get_bytes(buf, pos, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8")))
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let b = get_bytes(buf, pos, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4")))
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16> {
    let b = get_bytes(buf, pos, 2)?;
    Ok(u16::from_le_bytes(b.try_into().expect("2")))
}

fn get_bytes(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u8>> {
    if *pos + n > buf.len() {
        return Err(DominoError::Corrupt("truncated log record payload".into()));
    }
    let out = buf[*pos..*pos + n].to_vec();
    *pos += n;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let sum = checksum(&bytes[8..]);
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            LogRecord::decode(&bytes, &mut pos),
            Err(DominoError::Corrupt(_))
        ));
    }

    #[test]
    fn lsn_nil() {
        assert!(Lsn::NIL.is_nil());
        assert!(!Lsn(1).is_nil());
        assert!(Lsn(2) > Lsn(1));
    }
}
