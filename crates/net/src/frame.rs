//! The framed codec: `len | crc32 | version | msg_type | payload`.
//!
//! Every message on a CDStore connection travels in one frame:
//!
//! ```text
//! ┌────────────┬────────────┬─────────┬──────────┬────────────────┐
//! │ len: u32   │ crc: u32   │ ver: u8 │ type: u8 │ payload        │
//! │ LE         │ LE         │         │          │ len − 2 bytes  │
//! └────────────┴────────────┴─────────┴──────────┴────────────────┘
//! ```
//!
//! `len` counts everything after the two header words (version byte, type
//! byte, and payload), and `crc` is the IEEE CRC-32 of those same bytes —
//! the exact framing discipline of the metadata journal
//! ([`cdstore_storage::journal`]), whose `crc32` this module reuses. A
//! receiver therefore never acts on a corrupted or torn frame: anything
//! that fails the length sanity check, the version check, or the checksum
//! is rejected as [`FrameError::Corrupt`]/[`FrameError::Version`], and a
//! prefix of a frame simply waits for more bytes.

use std::io::{self, Read, Write};

use cdstore_storage::journal::crc32;

/// Version byte carried by every frame. Receivers reject frames with a
/// different version outright (see `docs/protocol.md` for the policy).
/// Version 2 retired the v1 share stream (message types 0x0a, 0x0b, 0x88,
/// 0x89): a v1 peer is refused at its first frame, the `Ping`, not at its
/// first restore.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on `len`. Shares are ≤ a few MB, upload batches are capped by
/// the client at [`cdstore_core::client::UPLOAD_BATCH_BYTES`] (4 MB) and
/// restore windows at [`cdstore_core::client::RESTORE_WINDOW_BYTES`], so a
/// well-formed frame is far below this; anything larger is a corrupt or
/// hostile length word and must not drive allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Bytes preceding the versioned content: the length and checksum words.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Decode-side failures of the codec.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// A length or checksum violation: the bytes are not a valid frame.
    Corrupt(String),
    /// The peer speaks a different protocol version.
    Version(u8),
    /// The stream ended in the middle of a frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            FrameError::Version(v) => {
                write!(
                    f,
                    "protocol version mismatch: got {v}, want {PROTOCOL_VERSION}"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame: header, version byte, message type, payload.
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() + 2;
    assert!(len <= MAX_FRAME_BYTES, "frame exceeds MAX_FRAME_BYTES");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    // Checksum placeholder; filled in below once the content is in place.
    out.extend_from_slice(&[0u8; 4]);
    out.push(PROTOCOL_VERSION);
    out.push(msg_type);
    out.extend_from_slice(payload);
    let crc = crc32(&out[FRAME_HEADER_BYTES..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Writes one frame to a stream as a single `write_all` (one syscall in the
/// common case, which is what makes batched RPCs cheap).
pub fn write_frame(w: &mut impl Write, msg_type: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(msg_type, payload))
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(Some((msg_type, payload, consumed)))` — a complete, checksum-valid
///   frame; the caller drains `consumed` bytes.
/// * `Ok(None)` — `buf` holds only a prefix of a frame; read more bytes.
/// * `Err(_)` — the bytes can never become a valid frame (bad length, bad
///   version, checksum failure); the connection must be dropped.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(u8, Vec<u8>, usize)>, FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len < 2 {
        return Err(FrameError::Corrupt(format!("length {len} below minimum 2")));
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Corrupt(format!(
            "length {len} exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    if buf.len() < FRAME_HEADER_BYTES + len {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let content = &buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
    if crc32(content) != crc {
        return Err(FrameError::Corrupt("checksum mismatch".into()));
    }
    if content[0] != PROTOCOL_VERSION {
        return Err(FrameError::Version(content[0]));
    }
    Ok(Some((
        content[1],
        content[2..].to_vec(),
        FRAME_HEADER_BYTES + len,
    )))
}

/// An accumulating frame reader over a byte stream.
///
/// Socket reads deliver arbitrary byte runs, and a read timeout can fire
/// with half a frame already buffered — so the reader owns an accumulation
/// buffer that survives `WouldBlock`/`TimedOut`, and [`FrameReader::poll`]
/// distinguishes "no complete frame yet" from "frame ready" without ever
/// losing bytes.
pub struct FrameReader {
    buf: Vec<u8>,
}

/// One [`FrameReader::poll`] outcome.
pub enum Polled {
    /// A complete frame: `(msg_type, payload)`.
    Frame(u8, Vec<u8>),
    /// The read timed out (or would block) before a frame completed;
    /// buffered bytes are retained for the next poll.
    Idle,
    /// The peer closed the stream cleanly (at a frame boundary).
    Closed,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    /// Reads until one complete frame, a clean EOF, a timeout, or an error.
    ///
    /// Timeouts (`WouldBlock`/`TimedOut`) yield [`Polled::Idle`] so callers
    /// can check a shutdown flag and poll again; an EOF mid-frame is
    /// [`FrameError::Truncated`].
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Polled, FrameError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((msg_type, payload, consumed)) = decode_frame(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(Polled::Frame(msg_type, payload));
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(Polled::Closed)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Polled::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_codec() {
        let frame = encode_frame(0x42, b"hello shares");
        let (msg_type, payload, consumed) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(msg_type, 0x42);
        assert_eq!(payload, b"hello shares");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn prefixes_are_incomplete_not_errors() {
        let frame = encode_frame(7, b"payload bytes");
        for cut in 0..frame.len() {
            assert!(
                matches!(decode_frame(&frame[..cut]), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_by_the_checksum() {
        let frame = encode_frame(7, b"payload bytes");
        // Flip one bit anywhere in the content: the CRC (or the version /
        // length checks) must reject it.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            if let Ok(Some((t, p, _))) = decode_frame(&bad) {
                assert!(
                    t != 7 || p != b"payload bytes",
                    "corruption at byte {i} decoded to the original"
                );
                unreachable!("a single bit flip cannot pass the CRC");
            }
        }
    }

    #[test]
    fn a_frame_of_another_version_is_refused_as_such() {
        // A well-formed version-1 frame: valid length and checksum, so the
        // refusal names the version rather than passing for line noise.
        let mut frame = encode_frame(0x01, &7u64.to_le_bytes());
        frame[FRAME_HEADER_BYTES] = 1;
        let crc = crc32(&frame[FRAME_HEADER_BYTES..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(FrameError::Version(1))));
    }

    #[test]
    fn reader_reassembles_frames_from_dribbled_bytes() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(1, b"first"));
        wire.extend_from_slice(&encode_frame(2, b"second"));
        // Deliver one byte per read.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut reader = FrameReader::new();
        let mut src = Dribble(&wire);
        match reader.poll(&mut src).unwrap() {
            Polled::Frame(t, p) => {
                assert_eq!((t, p.as_slice()), (1, &b"first"[..]));
            }
            _ => panic!("expected first frame"),
        }
        match reader.poll(&mut src).unwrap() {
            Polled::Frame(t, p) => {
                assert_eq!((t, p.as_slice()), (2, &b"second"[..]));
            }
            _ => panic!("expected second frame"),
        }
        assert!(matches!(reader.poll(&mut src).unwrap(), Polled::Closed));
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let frame = encode_frame(9, b"will be cut");
        let cut = &frame[..frame.len() - 3];
        let mut reader = FrameReader::new();
        let mut src = io::Cursor::new(cut.to_vec());
        assert!(matches!(reader.poll(&mut src), Err(FrameError::Truncated)));
    }
}
