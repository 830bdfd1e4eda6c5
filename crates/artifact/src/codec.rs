//! Little-endian byte codec used inside artifact sections.
//!
//! The writer appends fixed-width primitives and length-prefixed
//! strings; the reader is the mirror image with every read bounds-
//! checked — a truncated or hostile byte stream surfaces as a typed
//! [`ArtifactError`], never a panic or an out-of-bounds access. The
//! encoder's one [`Writer`] *is* the file image: sections are appended
//! to it in place, each aligned by its own length (see
//! [`crate::format`]), so every byte is written once on the way out.

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
        let bytes = w.into_inner();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "naïve");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_not_panics() {
        let mut w = Writer::new();
        w.u64(7);
        w.str("naïve");
        let bytes = w.into_inner();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            match r.u64().and_then(|_| r.str()) {
                Ok(v) => panic!("cut at {cut} produced {v:?}"),
                Err(ArtifactError::Truncated { .. }) => {}
                Err(e) => panic!("cut at {cut}: wrong error {e}"),
            }
        }
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        // A string length prefix of u32::MAX must fail the bounds check,
        // not attempt a 4 GiB allocation.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(ArtifactError::Truncated { .. })));
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
}
