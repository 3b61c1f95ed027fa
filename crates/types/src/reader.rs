//! The one byte reader: a bounds-checked cursor over stored or received
//! bytes.
//!
//! Every decoder of bytes that come back from a file (NSF records and the
//! superblock, the transaction log) or arrive from a socket (wire frames)
//! reads through a [`Reader`]. Each read checks its bounds once and, when
//! the bytes run out, returns [`DominoError::Corrupt`] naming the field
//! that was cut short, so hostile or damaged input is an error, never a
//! panic. Integers are little-endian, as FORMAT.md specifies.

use crate::error::{DominoError, Result};

/// A cursor over `buf`, at byte `pos`.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[cold]
fn cut_short(what: &str) -> DominoError {
    DominoError::Corrupt(format!("truncated {what}"))
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader::at(buf, 0)
    }

    /// A reader at byte `pos` of `buf` (past the end reads nothing).
    pub fn at(buf: &'a [u8], pos: usize) -> Reader<'a> {
        Reader { buf, pos }
    }

    /// The offset of the next byte to read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| cut_short(what))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| cut_short(what))?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let a = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or_else(|| cut_short(what))?;
        self.pos += N;
        Ok(*a)
    }

    /// The next `n` bytes as UTF-8 text.
    #[inline]
    pub fn text(&mut self, n: usize, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.bytes(n, what)?)
            .map_err(|_| DominoError::Corrupt(format!("invalid utf-8 in {what}")))
    }

    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }
}

/// The little-endian reads: `u16`, `u32`, `u64`, `i64` and `f64`.
macro_rules! le_reads {
    ($($name:ident),*) => {
        impl Reader<'_> {
            $(
                #[inline]
                pub fn $name(&mut self, what: &str) -> Result<$name> {
                    self.array(what).map($name::from_le_bytes)
                }
            )*
        }
    };
}

le_reads!(u16, u32, u64, i64, f64);

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each read, in order: 1 + 2 + 4 + 8 + 8 + 8 + 3 + 2 + 2 bytes.
    fn read_all(buf: &[u8]) -> Result<()> {
        let mut r = Reader::new(buf);
        assert_eq!(r.u8("a")?, 1);
        assert_eq!(r.u16("b")?, 2);
        assert_eq!(r.u32("c")?, 3);
        assert_eq!(r.u64("d")?, 4);
        assert_eq!(r.i64("e")?, -5);
        assert_eq!(r.f64("f")?, 6.5);
        assert_eq!(r.array::<3>("g")?, [7, 8, 9]);
        assert_eq!(r.bytes(2, "h")?, &[10, 11]);
        assert_eq!(r.text(2, "i")?, "hi");
        assert_eq!(r.remaining(), 0);
        Ok(())
    }

    fn sample() -> Vec<u8> {
        let mut buf = vec![1];
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&(-5i64).to_le_bytes());
        buf.extend_from_slice(&6.5f64.to_le_bytes());
        buf.extend_from_slice(&[7, 8, 9, 10, 11]);
        buf.extend_from_slice(b"hi");
        buf
    }

    #[test]
    fn every_read_returns_what_was_written() {
        read_all(&sample()).unwrap();
    }

    #[test]
    fn every_truncation_point_is_corrupt_and_names_the_field() {
        let buf = sample();
        // Field boundaries: a cut inside field k names field k.
        let ends = [1, 3, 7, 15, 23, 31, 34, 36, 38];
        for cut in 0..buf.len() {
            let err = read_all(&buf[..cut]).unwrap_err();
            let field = ends.iter().position(|end| cut < *end).unwrap();
            let name = ["a", "b", "c", "d", "e", "f", "g", "h", "i"][field];
            assert_eq!(
                err,
                DominoError::Corrupt(format!("truncated {name}")),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn a_failed_read_does_not_move_the_cursor() {
        let mut r = Reader::at(&[1, 2, 3], 1);
        assert!(r.u32("x").is_err());
        assert!(r.bytes(3, "x").is_err());
        assert!(r.bytes(usize::MAX, "x").is_err());
        assert_eq!(r.pos(), 1);
        assert_eq!(r.u16("x").unwrap(), 0x0302);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn a_reader_past_the_end_reads_nothing() {
        let mut r = Reader::at(&[1, 2], 5);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8("x"), Err(DominoError::Corrupt(_))));
        assert!(matches!(r.bytes(0, "x"), Err(DominoError::Corrupt(_))));
        assert!(matches!(r.array::<0>("x"), Err(DominoError::Corrupt(_))));
    }

    #[test]
    fn text_refuses_invalid_utf8() {
        let mut r = Reader::new(&[b'o', b'k', 0xFF, 0xFE]);
        assert_eq!(r.text(2, "name").unwrap(), "ok");
        assert_eq!(
            r.text(2, "name"),
            Err(DominoError::Corrupt("invalid utf-8 in name".into()))
        );
    }
}
