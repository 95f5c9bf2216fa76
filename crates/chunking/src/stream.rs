//! Incremental chunking of an [`std::io::BufRead`] source.
//!
//! [`ChunkStream`] drives a [`ChunkCutter`] over the reader's own buffer
//! (`fill_buf`/`consume`) and emits chunks as they are cut, so memory stays
//! bounded by `reader buffer + one max-size chunk` regardless of input
//! length, and each byte is copied once: from the reader's buffer into the
//! chunk. An in-memory `&[u8]` is its own buffer, so a slice is cut in
//! place; wrap a file or socket in a [`std::io::BufReader`]. Because the
//! cutter's boundary decisions are invariant under input slicing, the chunks
//! are byte-identical to what [`Chunker::chunk`] produces on the whole input
//! in memory, whatever the reader's buffer size.

use std::io::{BufRead, ErrorKind};

use crate::chunker::{Chunk, ChunkCutter, Chunker};

/// Streams chunks out of a buffered reader, one [`ChunkCutter`] boundary at
/// a time.
///
/// Use [`next_chunk_into`](ChunkStream::next_chunk_into) to cut into a
/// caller-owned (poolable) buffer, or the [`Iterator`] impl for owned
/// [`Chunk`]s.
pub struct ChunkStream<R> {
    reader: R,
    cutter: Box<dyn ChunkCutter>,
    /// Absolute offset of the next chunk's first byte.
    offset: usize,
}

impl<R: BufRead> ChunkStream<R> {
    /// Starts streaming `reader` through `chunker`'s algorithm.
    pub fn new(chunker: &dyn Chunker, reader: R) -> Self {
        ChunkStream {
            reader,
            cutter: chunker.cutter(),
            offset: 0,
        }
    }

    /// Absolute byte offset of the next chunk to be emitted (equivalently,
    /// total bytes emitted so far).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Cuts the next chunk into `out` (cleared first), returning `false` at
    /// end of input. `out`'s capacity is reused across calls, which is the
    /// allocation-free path the encode pipeline runs on.
    pub fn next_chunk_into(&mut self, out: &mut Vec<u8>) -> std::io::Result<bool> {
        out.clear();
        loop {
            let pending = match self.reader.fill_buf() {
                Ok([]) => break,
                Ok(pending) => pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let boundary = self.cutter.find_boundary(pending);
            let consumed = boundary.unwrap_or(pending.len());
            out.extend_from_slice(&pending[..consumed]);
            self.reader.consume(consumed);
            if boundary.is_some() {
                self.offset += out.len();
                return Ok(true);
            }
        }
        if out.is_empty() {
            Ok(false)
        } else {
            // Trailing partial chunk at end of input.
            self.cutter.reset();
            self.offset += out.len();
            Ok(true)
        }
    }
}

impl<R: BufRead> Iterator for ChunkStream<R> {
    type Item = std::io::Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        let offset = self.offset;
        let mut data = Vec::new();
        match self.next_chunk_into(&mut data) {
            Ok(true) => Some(Ok(Chunk { offset, data })),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::{ChunkerConfig, ChunkerKind};
    use rand::{Rng, SeedableRng};
    use std::io::{BufReader, Read};

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    /// A reader that returns at most `cap` bytes per call, exercising
    /// short-read resilience.
    struct DribbleReader<'a> {
        data: &'a [u8],
        pos: usize,
        cap: usize,
    }

    impl Read for DribbleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.cap).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn stream_matches_buffered_for_all_kinds() {
        let config = ChunkerConfig::new(256, 1024, 4096);
        let data = random_data(150_000, 8);
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(config);
            let buffered = chunker.chunk(&data);
            let streamed: Vec<Chunk> = ChunkStream::new(chunker.as_ref(), &data[..])
                .map(|c| c.expect("in-memory read"))
                .collect();
            assert_eq!(streamed, buffered, "{}", kind.name());
        }
    }

    #[test]
    fn stream_is_invariant_under_read_granularity_and_buffer_size() {
        let config = ChunkerConfig::new(256, 1024, 4096);
        let data = random_data(100_000, 9);
        let chunker = ChunkerKind::FastCdc.build(config);
        let expected = chunker.chunk(&data);
        for cap in [1usize, 13, 512, 100_000] {
            for buffer_size in [64usize, 4096, 1 << 20] {
                let reader = DribbleReader {
                    data: &data,
                    pos: 0,
                    cap,
                };
                let reader = BufReader::with_capacity(buffer_size, reader);
                let streamed: Vec<Chunk> = ChunkStream::new(chunker.as_ref(), reader)
                    .map(|c| c.expect("dribble read"))
                    .collect();
                assert_eq!(streamed, expected, "cap {cap} buffer {buffer_size}");
            }
        }
    }

    #[test]
    fn next_chunk_into_reuses_the_buffer() {
        let data = random_data(50_000, 10);
        let chunker = ChunkerKind::Rabin.build(ChunkerConfig::new(256, 1024, 4096));
        let mut stream = ChunkStream::new(chunker.as_ref(), &data[..]);
        let mut buf = Vec::new();
        let mut rebuilt = Vec::new();
        let mut chunks = 0usize;
        while stream.next_chunk_into(&mut buf).expect("read") {
            rebuilt.extend_from_slice(&buf);
            chunks += 1;
        }
        assert_eq!(rebuilt, data);
        assert!(chunks > 5);
        assert_eq!(stream.offset(), data.len());
        // Exhausted stream keeps reporting end-of-input.
        assert!(!stream.next_chunk_into(&mut buf).expect("read"));
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let chunker = ChunkerKind::Rabin.build(ChunkerConfig::default());
        assert_eq!(ChunkStream::new(chunker.as_ref(), &[][..]).count(), 0);
    }

    #[test]
    fn read_errors_propagate() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let chunker = ChunkerKind::FastCdc.build(ChunkerConfig::default());
        let mut stream = ChunkStream::new(chunker.as_ref(), BufReader::new(FailingReader));
        let err = stream.next().expect("one item").expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::Other);
    }
}
