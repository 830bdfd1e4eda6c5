//! Little-endian byte codec used inside artifact sections.
//!
//! The writer appends fixed-width primitives and length-prefixed
//! buffers; the reader is the mirror image with every read bounds-
//! checked — a truncated or hostile byte stream surfaces as a typed
//! [`ArtifactError`], never a panic or an out-of-bounds access.
//!
//! Bulk `u32` arrays (the CSR link tables) are written as a length
//! prefix, zero padding up to 8-byte alignment, then the raw
//! little-endian bytes. Because every section starts on a 32-byte file
//! offset (see [`crate::format`]), in-section alignment is file
//! alignment. Both sides lean on that: the encoder's one
//! [`Writer`] *is* the file image — sections are appended to it in
//! place, aligned by its own length, each array after one reservation —
//! and the loader reconstructs each array with one allocation and a
//! straight chunked copy. That is the "near-zero-copy" path: every byte
//! is written once on the way out and copied once on the way in.

use crate::ArtifactError;

/// Appends primitives to a growing buffer: a whole file image, so that
/// alignment by its length is file alignment.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Makes room for `additional` more bytes in one step.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far: the offset the next write lands on.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written so far.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// `n` zero bytes (room for fields patched in later).
    pub fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Zero-pads to the next multiple of `to` bytes.
    pub fn align(&mut self, to: usize) {
        self.zeros(self.buf.len().next_multiple_of(to) - self.buf.len());
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` by bit pattern (exact round-trip, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed, 8-aligned raw `u32` array: the length, padding
    /// to 8-byte alignment, then each value's little-endian bytes.
    pub fn u32_slice(&mut self, vals: &[u32]) {
        self.u64(vals.len() as u64);
        self.align(8);
        self.reserve(4 * vals.len());
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked mirror of [`Writer`] over one section's bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                detail: format!("needed {n} bytes, {} left in section", self.remaining()),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Skips the zero padding `Writer::align(8)` wrote.
    pub fn align8(&mut self) -> Result<(), ArtifactError> {
        let pad = (8 - self.pos % 8) % 8;
        self.take(pad).map(|_| ())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ArtifactError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Malformed {
            reason: "string is not valid UTF-8".to_string(),
        })
    }

    /// Length-prefixed, 8-aligned raw `u32` array (see
    /// [`Writer::u32_slice`]), reconstructed with one allocation and a
    /// chunked copy. The length prefix is checked against the remaining
    /// bytes *before* allocating, so a corrupt length cannot trigger an
    /// absurd allocation.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let len = self.u64()? as usize;
        self.align8()?;
        let bytes = self.take(len.checked_mul(4).ok_or_else(length_overflow)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Asserts the section was consumed exactly (trailing garbage in a
    /// checksummed section means the encoder and decoder disagree).
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::Malformed {
                reason: format!("{} unread bytes at end of section", self.remaining()),
            });
        }
        Ok(())
    }
}

fn length_overflow() -> ArtifactError {
    ArtifactError::Truncated {
        detail: "array length prefix overflows".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(-0.0);
        w.str("naïve");
        w.u32_slice(&[1, 2, 3]);
        let bytes = w.into_inner();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "naïve");
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_not_panics() {
        let mut w = Writer::new();
        w.u32_slice(&[1, 2, 3, 4]);
        let bytes = w.into_inner();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            match r.u32_vec() {
                Ok(v) => panic!("cut at {cut} produced {v:?}"),
                Err(ArtifactError::Truncated { .. }) => {}
                Err(e) => panic!("cut at {cut}: wrong error {e}"),
            }
        }
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        // A length prefix of u64::MAX must fail the bounds check, not
        // attempt a 2^66-byte allocation.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        w.align(8);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.u32_vec(), Err(ArtifactError::Truncated { .. })));
    }

    #[test]
    fn leftover_bytes_fail_finish() {
        let mut w = Writer::new();
        w.u32(1);
        w.u32(2);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(ArtifactError::Malformed { .. })));
    }

    #[test]
    fn aligned_arrays_start_on_multiples_of_eight() {
        let mut w = Writer::new();
        w.u8(1); // knock alignment off
        w.u32_slice(&[9, 9]);
        let bytes = w.into_inner();
        // 1 byte tag + 8 byte len = 9, padded to 16 before payload.
        assert_eq!(&bytes[16..20], &9u32.to_le_bytes());
    }
}
