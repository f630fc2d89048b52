//! Bounds-checked little-endian reads over a byte slice — the one decoder
//! primitive behind the runtime's wire frames and the checkpoint format.
//!
//! Every read checks the bytes left before touching them, so a short or
//! hostile buffer comes back as a [`ShortRead`] instead of a panic, and a
//! length field is held against the bytes actually present before
//! anything it sizes is allocated. Reads borrow from the input: nothing
//! is copied until a caller keeps a slice.

use std::fmt;

/// A read past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead {
    /// Bytes the read asked for (`usize::MAX` for a length that
    /// overflowed).
    pub need: usize,
    /// Bytes that were left.
    pub left: usize,
}

impl fmt::Display for ShortRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "need {} more bytes, {} left", self.need, self.left)
    }
}

/// A read position in a little-endian byte buffer.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than `n` bytes remain; nothing is consumed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        let (head, rest) =
            self.rest.split_at_checked(n).ok_or(ShortRead { need: n, left: self.rest.len() })?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ShortRead> {
        let (head, rest) =
            self.rest.split_first_chunk().ok_or(ShortRead { need: N, left: self.rest.len() })?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] at the end of the buffer.
    pub fn u8(&mut self) -> Result<u8, ShortRead> {
        self.array().map(|[b]| b)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, ShortRead> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, ShortRead> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads `n` little-endian `f32`s. The claim is checked against the
    /// bytes present before the vector is allocated, so an untrusted `n`
    /// can never size an allocation larger than the buffer.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] when fewer than `4·n` bytes remain (or `4·n`
    /// overflows); nothing is consumed.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ShortRead> {
        let len = n.checked_mul(4).ok_or(ShortRead { need: usize::MAX, left: self.remaining() })?;
        let bytes = self.take(len)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&513u16.to_le_bytes());
        buf.extend_from_slice(&70_000u32.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&(-1.5f32).to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = Cursor::new(&buf);
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 4 + 3);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(513));
        assert_eq!(r.u32(), Ok(70_000));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.f32(), Ok(-1.5));
        assert_eq!(r.take(3), Ok(&[1, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn a_short_read_is_an_error_and_consumes_nothing() {
        let bytes = [1u8, 2, 3];
        let mut r = Cursor::new(&bytes);
        assert_eq!(r.u32(), Err(ShortRead { need: 4, left: 3 }));
        assert_eq!(r.u64(), Err(ShortRead { need: 8, left: 3 }));
        assert_eq!(r.f32(), Err(ShortRead { need: 4, left: 3 }));
        assert_eq!(r.take(4), Err(ShortRead { need: 4, left: 3 }));
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u16(), Err(ShortRead { need: 2, left: 1 }));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(ShortRead { need: 1, left: 0 }));
    }

    #[test]
    fn f32s_bound_the_claim_before_allocating() {
        let bytes: Vec<u8> = [0.5f32, -2.0].iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut r = Cursor::new(&bytes);
        assert!(r.clone().f32s(3).is_err());
        assert_eq!(r.clone().f32s(usize::MAX).unwrap_err().need, usize::MAX);
        assert_eq!(r.f32s(2), Ok(vec![0.5, -2.0]));
        assert_eq!(r.remaining(), 0);
    }
}
