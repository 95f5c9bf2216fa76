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
//! byte, and payload), and `crc` is the IEEE CRC-32 of those same bytes
//! ([`cdstore_crypto::crc32`], the checksum the metadata journal and the
//! index runs frame their records with). A receiver therefore never acts on
//! a corrupted or torn frame: anything that fails the length sanity check,
//! the version check, or the checksum is rejected as
//! [`FrameError::Corrupt`]/[`FrameError::Version`], and a prefix of a frame
//! simply waits for more bytes.
//!
//! # One copy per side
//!
//! A frame is built and taken apart where its bytes lie:
//!
//! * **Send.** A message encoder appends its payload to a buffer that
//!   `begin_frame` opened with the ten prefix bytes left blank (the bulk
//!   encoders reserve their exact size first); `seal_frame` then writes
//!   length, checksum, version and type into the gap and the whole frame
//!   leaves in one `write_all`. Share bytes are copied once: from the
//!   caller's slice into the frame.
//! * **Receive.** [`FrameReader::poll`] reads the socket straight into the
//!   reader's own buffer, checks the CRC there and lends the payload to the
//!   message decoder, which copies each share once into the `Vec` it hands
//!   on; the next `poll` reuses the buffer. (At most [`READ_AHEAD`] bytes
//!   of a following frame, read along with a small one, are moved to the
//!   front first.)
//!
//! So a `StoreShares` request and a `Shares` reply are each copied in user
//! space once per side. [`encode_frame`] and [`decode_frame`] are the
//! one-shot forms of the same code for callers that hold a bare payload or
//! want an owned one.

use std::io::{self, Read};

use cdstore_crypto::crc32::crc32;

/// Version byte carried by every frame. Receivers reject frames with a
/// different version outright (see `docs/protocol.md` for the policy).
/// Version 2 retired the v1 share stream (message types 0x0a, 0x0b, 0x88,
/// 0x89): a v1 peer is refused at its first frame, the `Ping`, not at its
/// first restore. Version 3 re-shaped `PutFile` (it carries the last batch
/// and is answered by a `Receipt`), `GetRecipe` (it names a first window)
/// and `Recipe` (it carries that window's shares). Version 4 retired
/// `HasFile` (0x06): a client asks for a file's recipe alone instead.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound on `len`. Shares are ≤ a few MB, upload batches are capped by
/// the client at [`cdstore_core::client::UPLOAD_BATCH_BYTES`] (4 MB) and
/// restore windows near [`cdstore_core::client::RESTORE_WINDOW_BYTES`], so a
/// well-formed frame is far below this; anything larger is a corrupt or
/// hostile length word and must not drive allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Bytes preceding the versioned content: the length and checksum words.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Bytes preceding the payload: the header words, version and type.
const FRAME_PREFIX_BYTES: usize = FRAME_HEADER_BYTES + 2;

/// How far past the frame it is waiting for a [`FrameReader`] may read: a
/// small frame and its header arrive in one `read`, and no more than this
/// many bytes of the next frame ever have to be moved to the buffer's front.
/// A frame longer than this is read to its last byte exactly.
pub const READ_AHEAD: usize = 16 * 1024;

/// The most a [`FrameReader`] allocates on the word of a length field alone,
/// and the most it keeps between frames. A header announcing a longer frame
/// (up to [`MAX_FRAME_BYTES`]) grows the buffer only as bytes actually
/// arrive — to at most twice what has been received — and once such a frame
/// has been handed out the buffer shrinks back to this. Every frame the
/// client's batching produces fits without either.
pub const READER_RETAINED_BYTES: usize = 8 * 1024 * 1024;

/// Failures of the codec.
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
    /// Send side: the message would need `len` above [`MAX_FRAME_BYTES`]
    /// (carried here); nothing was written.
    TooLarge(usize),
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
            FrameError::TooLarge(len) => {
                write!(
                    f,
                    "message of {len} bytes exceeds frame cap {MAX_FRAME_BYTES}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Opens a frame: the blank prefix a payload is appended after.
pub(crate) fn begin_frame() -> Vec<u8> {
    let mut frame = Vec::with_capacity(128);
    frame.resize(FRAME_PREFIX_BYTES, 0);
    frame
}

/// Closes a frame opened by [`begin_frame`]: writes length, checksum,
/// version and `msg_type` into the prefix, or refuses a frame no receiver
/// would accept.
pub(crate) fn seal_frame(frame: &mut [u8], msg_type: u8) -> Result<(), FrameError> {
    let len = frame.len() - FRAME_HEADER_BYTES;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    frame[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame[FRAME_HEADER_BYTES] = PROTOCOL_VERSION;
    frame[FRAME_HEADER_BYTES + 1] = msg_type;
    let crc = crc32(&frame[FRAME_HEADER_BYTES..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Encodes one frame around a bare payload.
///
/// # Panics
///
/// Panics if the payload does not fit [`MAX_FRAME_BYTES`].
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = begin_frame();
    frame.extend_from_slice(payload);
    seal_frame(&mut frame, msg_type).expect("frame exceeds MAX_FRAME_BYTES");
    frame
}

/// The whole length (header included) of the frame `buf` starts with, once
/// its header is there; a length word no valid frame carries is an error.
fn announced_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("four bytes")) as usize;
    if len < 2 {
        return Err(FrameError::Corrupt(format!("length {len} below minimum 2")));
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Corrupt(format!(
            "length {len} exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    Ok(Some(FRAME_HEADER_BYTES + len))
}

/// Verifies the complete frame `frame` (exactly [`announced_len`] bytes) and
/// lends out its `(msg_type, payload)`.
fn open_frame(frame: &[u8]) -> Result<(u8, &[u8]), FrameError> {
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("four bytes"));
    let content = &frame[FRAME_HEADER_BYTES..];
    if crc32(content) != crc {
        return Err(FrameError::Corrupt("checksum mismatch".into()));
    }
    if content[0] != PROTOCOL_VERSION {
        return Err(FrameError::Version(content[0]));
    }
    Ok((content[1], &content[2..]))
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(Some((msg_type, payload, consumed)))` — a complete, checksum-valid
///   frame; the caller drains `consumed` bytes.
/// * `Ok(None)` — `buf` holds only a prefix of a frame; read more bytes.
/// * `Err(_)` — the bytes can never become a valid frame (bad length, bad
///   version, checksum failure); the connection must be dropped.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(u8, Vec<u8>, usize)>, FrameError> {
    match announced_len(buf)? {
        Some(total) if buf.len() >= total => {
            let (msg_type, payload) = open_frame(&buf[..total])?;
            Ok(Some((msg_type, payload.to_vec(), total)))
        }
        _ => Ok(None),
    }
}

/// An accumulating frame reader over a byte stream.
///
/// Socket reads deliver arbitrary byte runs, so the reader owns the buffer
/// the socket is read into and [`FrameReader::poll`] blocks in `read` until
/// a whole frame is there. The buffer is reused from frame to frame;
/// [`READER_RETAINED_BYTES`] bounds it.
pub struct FrameReader {
    /// Initialised storage: `buf[..filled]` is received, the rest is where
    /// the next `read` lands.
    buf: Vec<u8>,
    filled: usize,
    /// Length of the frame at the front that the last `poll` lent out.
    lent: usize,
}

/// One [`FrameReader::poll`] outcome.
pub enum Polled<'a> {
    /// A complete frame: `(msg_type, payload)`, the payload borrowed from
    /// the reader until its next `poll`.
    Frame(u8, &'a [u8]),
    /// The peer closed the stream cleanly (at a frame boundary).
    Closed,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            filled: 0,
            lent: 0,
        }
    }

    /// Drops the frame the last `poll` lent out, moving what was read past
    /// it (less than [`READ_AHEAD`]) to the front.
    fn reclaim(&mut self) {
        if self.lent == 0 {
            return; // still assembling: every buffered byte is live
        }
        self.buf.copy_within(self.lent..self.filled, 0);
        self.filled -= self.lent;
        self.lent = 0;
        if self.buf.len() > READER_RETAINED_BYTES {
            self.buf.truncate(READER_RETAINED_BYTES);
            self.buf.shrink_to_fit();
        }
    }

    /// Reads until one complete frame, a clean EOF, or an error; an EOF
    /// mid-frame is [`FrameError::Truncated`]. Whoever wants a blocked reader
    /// to return shuts the socket down.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Polled<'_>, FrameError> {
        self.reclaim();
        let total = loop {
            let wanted = match announced_len(&self.buf[..self.filled])? {
                Some(total) if self.filled >= total => break total,
                // A long frame is read to its last byte and no further; its
                // length is taken on trust only up to the retained size.
                Some(total) => total.min(READER_RETAINED_BYTES.max(2 * self.filled)),
                None => FRAME_HEADER_BYTES,
            };
            let end = wanted.max(READ_AHEAD);
            if self.buf.len() < end {
                // Exact, so the documented bound is the allocation's size.
                self.buf.reserve_exact(end - self.buf.len());
                self.buf.resize(end, 0);
            }
            match r.read(&mut self.buf[self.filled..end]) {
                Ok(0) if self.filled == 0 => return Ok(Polled::Closed),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        };
        self.lent = total;
        let (msg_type, payload) = open_frame(&self.buf[..total])?;
        Ok(Polled::Frame(msg_type, payload))
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
        // Well-formed frames of the earlier versions: valid length and
        // checksum, so the refusal names the version rather than passing for
        // line noise.
        for version in [1, 2] {
            let mut frame = encode_frame(0x01, &7u64.to_le_bytes());
            frame[FRAME_HEADER_BYTES] = version;
            let crc = crc32(&frame[FRAME_HEADER_BYTES..]);
            frame[4..8].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(decode_frame(&frame), Err(FrameError::Version(v)) if v == version));
        }
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
                assert_eq!((t, p), (1, &b"first"[..]));
            }
            _ => panic!("expected first frame"),
        }
        match reader.poll(&mut src).unwrap() {
            Polled::Frame(t, p) => {
                assert_eq!((t, p), (2, &b"second"[..]));
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
    /// A `Read` that hands out `data` in the run lengths a script dictates,
    /// with the transient error a blocking socket produces in between (never
    /// twice in a row, so a script of errors alone still ends); `Ok(0)` once
    /// the data is spent.
    struct Scripted<'a> {
        data: &'a [u8],
        script: &'a [u16],
        step: usize,
    }

    impl<'a> Scripted<'a> {
        fn new(data: &'a [u8], script: &'a [u16]) -> Self {
            Scripted {
                data,
                script,
                step: 0,
            }
        }
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            assert!(!out.is_empty(), "a reader must never ask for zero bytes");
            if self.data.is_empty() {
                return Ok(0);
            }
            // Each script entry is used twice: it may fail the first time,
            // the second time it delivers.
            let op = self.script[self.step / 2 % self.script.len()];
            let may_fail = self.step.is_multiple_of(2);
            self.step += 1;
            match op % 8 {
                2 if may_fail => Err(io::ErrorKind::Interrupted.into()),
                _ => {
                    let n = (op as usize / 8 + 1).min(out.len()).min(self.data.len());
                    out[..n].copy_from_slice(&self.data[..n]);
                    self.data = &self.data[n..];
                    Ok(n)
                }
            }
        }
    }

    /// `(msg_type, payload)` of each frame in a stream.
    type Frames = Vec<(u8, Vec<u8>)>;

    /// Polls `src` dry: the frames it yields, and how the stream ended.
    fn drain(src: &mut impl Read) -> (Frames, Result<(), FrameError>) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.poll(src) {
                Ok(Polled::Frame(t, p)) => frames.push((t, p.to_vec())),
                Ok(Polled::Closed) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    /// Frames of 0 B to > 64 KiB (past one `READ_AHEAD`, past one socket
    /// buffer), their wire bytes, and where each frame ends on the wire.
    fn build_stream(shapes: &[(u8, u32)]) -> (Frames, Vec<u8>, Vec<usize>) {
        let mut frames = Vec::new();
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for &(msg_type, shape) in shapes {
            let len = match shape % 4 {
                0 => 0,
                1 => shape as usize / 4 % 300,
                2 => shape as usize / 4 % 20_000,
                _ => 65_537 + shape as usize / 4 % 40_000,
            };
            let payload: Vec<u8> = (0..len).map(|i| (i as u32 ^ shape) as u8).collect();
            wire.extend_from_slice(&encode_frame(msg_type, &payload));
            ends.push(wire.len());
            frames.push((msg_type, payload));
        }
        (frames, wire, ends)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn reader_yields_exactly_the_frames_sent_however_the_bytes_arrive(
            shapes in proptest::collection::vec((proptest::any::<u8>(), proptest::any::<u32>()), 1..6),
            script in proptest::collection::vec(proptest::any::<u16>(), 1..40),
            cut in proptest::any::<u32>(),
            flip in 1u8..=255,
        ) {
            let (frames, wire, ends) = build_stream(&shapes);

            // Whole stream: the same frames in order, then a clean close.
            let (got, end) = drain(&mut Scripted::new(&wire, &script));
            proptest::prop_assert!(end.is_ok());
            proptest::prop_assert_eq!(&got, &frames);

            // EOF anywhere but a frame boundary: the complete frames, then
            // `Truncated`.
            let cut = cut as usize % wire.len();
            if !ends.contains(&cut) && cut != 0 {
                let (got, end) = drain(&mut Scripted::new(&wire[..cut], &script));
                proptest::prop_assert!(matches!(end, Err(FrameError::Truncated)));
                let whole = ends.iter().filter(|&&e| e <= cut).count();
                proptest::prop_assert_eq!(&got, &frames[..whole]);
            }

            // One flipped byte: the frames before the damaged one, then an
            // error — never the damaged frame, never a clean close. (A length
            // word that grew past the end of the stream reads as truncation.)
            let mut bad = wire.clone();
            bad[cut] ^= flip;
            let (got, end) = drain(&mut Scripted::new(&bad, &script));
            proptest::prop_assert!(matches!(
                end,
                Err(FrameError::Corrupt(_)) | Err(FrameError::Truncated)
            ));
            let intact = ends.iter().filter(|&&e| e <= cut).count();
            proptest::prop_assert_eq!(&got, &frames[..intact]);
        }
    }

    #[test]
    fn a_header_alone_cannot_make_the_reader_allocate_past_its_bound() {
        // A peer announces the largest frame there is and sends nothing
        // more: its connection is reset, or it just closes.
        let mut header = encode_frame(1, b"");
        header[0..4].copy_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
        header.truncate(FRAME_HEADER_BYTES);
        struct ThenReset<'a>(&'a [u8]);
        impl Read for ThenReset<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::ErrorKind::ConnectionReset.into());
                }
                let n = out.len().min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut ThenReset(&header)),
            Err(FrameError::Io(_))
        ));
        assert!(reader.buf.capacity() <= READER_RETAINED_BYTES);
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut io::Cursor::new(&header)),
            Err(FrameError::Truncated)
        ));
        assert!(reader.buf.capacity() <= READER_RETAINED_BYTES);
    }

    #[test]
    fn the_buffer_kept_between_frames_is_bounded() {
        // A frame larger than the retained size, delivered in pieces, then a
        // small one.
        let big = vec![0x5au8; READER_RETAINED_BYTES + READER_RETAINED_BYTES / 2];
        let mut wire = encode_frame(3, &big);
        wire.extend_from_slice(&encode_frame(4, b"after"));
        /// Mid-frame the buffer holds at most twice what has arrived: seen
        /// from the socket's side, the reader never offers `read` more room
        /// than that.
        struct Watched<'a> {
            src: Scripted<'a>,
            arrived: usize,
            grown: usize,
        }
        impl Read for Watched<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let offered = self.arrived + out.len();
                assert!(offered <= READER_RETAINED_BYTES.max(2 * self.arrived));
                self.grown = self.grown.max(offered);
                let n = self.src.read(out)?;
                self.arrived += n;
                Ok(n)
            }
        }
        let script = [u16::MAX, 2, u16::MAX, u16::MAX, 1];
        let mut src = Watched {
            src: Scripted::new(&wire, &script),
            arrived: 0,
            grown: 0,
        };
        let mut reader = FrameReader::new();
        match reader.poll(&mut src).unwrap() {
            Polled::Frame(t, p) => assert_eq!((t, p), (3, &big[..])),
            Polled::Closed => panic!("closed before the frame completed"),
        }
        assert!(
            src.grown > READER_RETAINED_BYTES,
            "the large frame must outgrow the retained size"
        );
        match reader.poll(&mut src.src).unwrap() {
            Polled::Frame(t, p) => assert_eq!((t, p), (4, &b"after"[..])),
            Polled::Closed => panic!("closed before the second frame"),
        }
        assert!(reader.buf.capacity() <= READER_RETAINED_BYTES);
    }
}
