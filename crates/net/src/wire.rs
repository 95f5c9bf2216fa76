//! Primitive value encoding used inside frame payloads.
//!
//! Fixed-width integers travel little-endian (matching the frame header);
//! variable-length byte strings are `u32` length-prefixed. The reader is
//! strict: running off the end of the payload or reading an out-of-range
//! discriminant is a decode failure, never a panic — a hostile peer can at
//! worst get its connection dropped.

use cdstore_crypto::Fingerprint;

/// Serialises primitives onto the end of a buffer: an empty one for a bare
/// payload, or a frame opened with its prefix left blank, so the payload is
/// written where it will be sent from.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Continues `buf`: everything is appended after what it holds.
    pub fn append_to(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Consumes the writer, yielding the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for `additional` more bytes in one allocation. The bulk
    /// encoders call this with their exact size, so a batch of shares is
    /// never moved by a growing buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a fingerprint (fixed 32 bytes, no length prefix).
    pub fn fingerprint(&mut self, fp: &Fingerprint) {
        self.buf.extend_from_slice(fp.as_bytes());
    }
}

/// Deserialises primitives from a payload buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Whether every byte has been consumed (trailing garbage is a protocol
    /// violation the message decoders check for).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes not yet consumed: the most any count read from here can
    /// describe, so decoders size pre-allocations by it.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `bool`; any byte other than 0/1 is a decode failure.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    /// Reads a fingerprint.
    pub fn fingerprint(&mut self) -> Option<Fingerprint> {
        let raw: [u8; 32] = self.take(Fingerprint::SIZE)?.try_into().ok()?;
        Some(Fingerprint::from_bytes(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.bytes(b"variable");
        w.fingerprint(&Fingerprint::of(b"fp"));
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.bytes().as_deref(), Some(&b"variable"[..]));
        assert_eq!(r.fingerprint(), Some(Fingerprint::of(b"fp")));
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_fail_cleanly() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), None);
        let mut r = WireReader::new(&[255, 255, 255, 255, 0]);
        assert_eq!(r.bytes(), None, "length prefix beyond buffer");
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), None, "out-of-range bool");
    }
}
