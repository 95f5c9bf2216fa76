//! Property tests for the FastCDC chunker and the incremental cutter API:
//! boundaries must not depend on how the input is sliced across `Read`
//! calls, and configured size bounds must always hold.

use std::io::{BufReader, Read};

use cdstore_chunking::{Chunk, ChunkStream, Chunker, ChunkerConfig, ChunkerKind, FastCdcChunker};
use proptest::prelude::*;

/// Yields the input in segments of the given lengths (then the remainder),
/// modelling arbitrary short reads from a file or socket.
struct SegmentedReader {
    data: Vec<u8>,
    segments: Vec<usize>,
    pos: usize,
    next_segment: usize,
}

impl Read for SegmentedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.data.len() - self.pos;
        let segment = if self.next_segment < self.segments.len() {
            let s = self.segments[self.next_segment].max(1);
            self.next_segment += 1;
            s
        } else {
            remaining
        };
        let n = remaining.min(segment).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn kind_from_index(i: usize) -> ChunkerKind {
    ChunkerKind::ALL[i % ChunkerKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn boundaries_invariant_under_read_slicing(
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
        segments in proptest::collection::vec(1usize..5000, 0..40),
        buffer_size in 1usize..20_000,
        kind_index in 0usize..3,
    ) {
        let kind = kind_from_index(kind_index);
        let config = ChunkerConfig::new(128, 1024, 4096);
        let chunker = kind.build(config);
        let buffered = chunker.chunk(&data);

        let reader = SegmentedReader {
            data: data.clone(),
            segments,
            pos: 0,
            next_segment: 0,
        };
        let reader = BufReader::with_capacity(buffer_size, reader);
        let streamed: Result<Vec<Chunk>, _> = ChunkStream::new(chunker.as_ref(), reader).collect();
        let streamed = streamed.expect("in-memory reads cannot fail");
        prop_assert_eq!(streamed, buffered);
    }

    #[test]
    fn fastcdc_respects_configured_bounds(
        data in proptest::collection::vec(any::<u8>(), 0..120_000),
        min_exp in 5u32..10,
        spread in 1u32..4,
    ) {
        // min = 2^min_exp, avg = min * 2^spread, max = 4 * avg: a lattice of
        // valid configurations covering small and large chunk regimes.
        let min = 1usize << min_exp;
        let avg = min << spread;
        let max = avg * 4;
        let config = ChunkerConfig::new(min, avg, max);
        let chunks = FastCdcChunker::new(config).chunk(&data);

        let total: usize = chunks.iter().map(Chunk::len).sum();
        prop_assert_eq!(total, data.len());
        let mut offset = 0usize;
        for (i, c) in chunks.iter().enumerate() {
            prop_assert_eq!(c.offset, offset);
            offset += c.len();
            prop_assert!(c.len() <= max, "chunk {} of {} exceeds max", i, c.len());
            if i + 1 < chunks.len() {
                prop_assert!(c.len() >= min, "chunk {} of {} below min", i, c.len());
            } else {
                prop_assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn fastcdc_is_slicing_invariant_at_the_cutter_level(
        data in proptest::collection::vec(any::<u8>(), 0..40_000),
        split in 0usize..40_000,
    ) {
        // Feed the input as two arbitrary slices directly through a cutter
        // and compare against the whole-buffer result.
        let config = ChunkerConfig::new(128, 1024, 4096);
        let chunker = FastCdcChunker::new(config);
        let expected: Vec<usize> = chunker.chunk(&data).iter().map(Chunk::len).collect();

        let split = split.min(data.len());
        let mut cutter = chunker.cutter();
        let mut lens = Vec::new();
        let mut open = 0usize;
        for piece in [&data[..split], &data[split..]] {
            let mut rest = piece;
            while !rest.is_empty() {
                match cutter.find_boundary(rest) {
                    Some(consumed) => {
                        lens.push(open + consumed);
                        open = 0;
                        rest = &rest[consumed..];
                    }
                    None => {
                        open += rest.len();
                        rest = &[];
                    }
                }
            }
        }
        if open > 0 {
            lens.push(open);
        }
        prop_assert_eq!(lens, expected);
    }
}
