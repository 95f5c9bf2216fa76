//! Differential suite for the FastCDC cutter: the phase-split cutter and
//! its four-positions-a-step gear scan must cut exactly where the
//! byte-at-a-time cutter they replaced cut, for any content, size bounds
//! and read slicing.
//!
//! The oracle is that cutter, kept verbatim below. Content comes in four
//! kinds: uniform random bytes, low-entropy bytes, zero runs (whose hash
//! settles on one value; at realistic sizes it clears neither mask, so
//! every chunk is cut at `max`), and a mix of the three. A golden vector pins the cut offsets of
//! a seeded 4 MiB input at the default configuration.
//!
//! ```text
//! cargo test --release -p cdstore_chunking --test fastcdc_differential
//! ```

use std::io::{BufReader, Read};

use cdstore_chunking::{Chunk, ChunkStream, Chunker, ChunkerConfig, FastCdcChunker};
use cdstore_crypto::sha256;
use proptest::prelude::*;

/// The FastCDC cutter before the phase split, unchanged.
mod oracle {
    use std::sync::OnceLock;

    use cdstore_chunking::{ChunkCutter, Chunker, ChunkerConfig};

    pub struct FastCdcChunker {
        pub config: ChunkerConfig,
    }

    /// Number of trailing bytes that influence the gear hash: the hash shifts
    /// left one bit per byte, so a byte's contribution is gone after 64 steps.
    pub const GEAR_WINDOW: usize = 64;

    /// Seed for the deterministic gear table (the splitmix64 increment constant).
    const GEAR_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The 256-entry random table mapping each byte value to a 64-bit gear.
    /// Fixed seed: chunk boundaries must be identical across runs and machines
    /// for deduplication to work.
    fn gear_table() -> &'static [u64; 256] {
        static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut state = GEAR_SEED;
            let mut table = [0u64; 256];
            for entry in table.iter_mut() {
                *entry = splitmix64(&mut state);
            }
            table
        })
    }

    /// Builds the two normalized-chunking masks for a target average size.
    ///
    /// `avg_size = 2^bits` gives a base mask of `bits` set bits; the harder mask
    /// (used below the target) has `bits + 2`, the easier mask (above) has
    /// `bits - 2`. Masks occupy the *high* bits of the hash, which the gear hash
    /// distributes best (low bits only see the most recent few bytes).
    fn normalized_masks(avg_size: usize) -> (u64, u64) {
        let bits = avg_size.trailing_zeros() as u64;
        let hard_bits = (bits + 2).min(63);
        let easy_bits = bits.saturating_sub(2).max(1);
        let high_mask = |b: u64| ((1u64 << b) - 1) << (64 - b);
        (high_mask(hard_bits), high_mask(easy_bits))
    }

    struct FastCdcCutter {
        gear: &'static [u64; 256],
        mask_hard: u64,
        mask_easy: u64,
        min: usize,
        avg: usize,
        max: usize,
        hash: u64,
        in_chunk: usize,
    }

    impl ChunkCutter for FastCdcCutter {
        fn find_boundary(&mut self, input: &[u8]) -> Option<usize> {
            let mut i = 0usize;
            // Bytes before (min - GEAR_WINDOW) cannot influence any eligible
            // boundary's hash: skip them without hashing. This is where FastCDC
            // gains over Rabin even before the cheaper per-byte update.
            let hash_start = self.min.saturating_sub(GEAR_WINDOW);
            if self.in_chunk < hash_start {
                let skip = (hash_start - self.in_chunk).min(input.len());
                self.in_chunk += skip;
                i = skip;
            }
            while i < input.len() {
                self.hash = (self.hash << 1).wrapping_add(self.gear[input[i] as usize]);
                let len = self.in_chunk + 1;
                i += 1;
                self.in_chunk = len;
                if len < self.min {
                    continue;
                }
                let mask = if len < self.avg {
                    self.mask_hard
                } else {
                    self.mask_easy
                };
                if (self.hash & mask) == 0 || len >= self.max {
                    self.reset();
                    return Some(i);
                }
            }
            None
        }

        fn reset(&mut self) {
            self.hash = 0;
            self.in_chunk = 0;
        }
    }

    impl Chunker for FastCdcChunker {
        fn cutter(&self) -> Box<dyn ChunkCutter> {
            let (mask_hard, mask_easy) = normalized_masks(self.config.avg_size);
            Box::new(FastCdcCutter {
                gear: gear_table(),
                mask_hard,
                mask_easy,
                min: self.config.min_size,
                avg: self.config.avg_size,
                max: self.config.max_size,
                hash: 0,
                in_chunk: 0,
            })
        }

        fn name(&self) -> &'static str {
            "fastcdc"
        }
    }
}

/// splitmix64: the content generator, independent of the `rand` shim so
/// the golden vector's input is fixed by this file alone.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out: Vec<u8> = (0..len.div_ceil(8))
        .flat_map(|_| next(&mut state).to_le_bytes())
        .collect();
    out.truncate(len);
    out
}

/// Bytes from a four-letter alphabet in runs: far fewer distinct 64-byte
/// windows than random data.
fn low_entropy_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = next(&mut state);
        let run = 1 + (word % 24) as usize;
        let byte = b"ACGT"[(word >> 8) as usize % 4];
        out.extend(std::iter::repeat_n(byte, run.min(len - out.len())));
    }
    out
}

fn content(kind: usize, len: usize, seed: u64) -> Vec<u8> {
    match kind {
        0 => random_bytes(len, seed),
        1 => low_entropy_bytes(len, seed),
        2 => vec![0u8; len],
        _ => {
            // Alternating pieces of the other three kinds.
            let mut state = seed;
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let word = next(&mut state);
                let piece = (1 + (word % 40_000) as usize).min(len - out.len());
                out.extend(content((word >> 32) as usize % 3, piece, word));
            }
            out
        }
    }
}

/// Yields the input in segments of the given lengths, then the remainder:
/// short reads from a file or socket.
struct SegmentedReader<'a> {
    data: &'a [u8],
    segments: &'a [usize],
}

impl Read for SegmentedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let segment = match self.segments.split_first() {
            Some((&s, rest)) => {
                self.segments = rest;
                s.max(1)
            }
            None => self.data.len(),
        };
        let n = self.data.len().min(segment).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn lengths(chunks: &[Chunk]) -> Vec<usize> {
    chunks.iter().map(Chunk::len).collect()
}

/// Chunk lengths from one cutter fed `data` in the given slices.
fn cut_in_slices(chunker: &dyn Chunker, data: &[u8], slices: &[usize]) -> Vec<usize> {
    let mut cutter = chunker.cutter();
    let mut lens = Vec::new();
    let mut open = 0usize;
    let mut rest = data;
    let mut slices = slices.iter().map(|&s| s.max(1));
    while !rest.is_empty() {
        let take = slices.next().unwrap_or(rest.len()).min(rest.len());
        let mut piece = &rest[..take];
        rest = &rest[take..];
        while !piece.is_empty() {
            match cutter.find_boundary(piece) {
                Some(consumed) => {
                    lens.push(open + consumed);
                    open = 0;
                    piece = &piece[consumed..];
                }
                None => {
                    open += piece.len();
                    piece = &[];
                }
            }
        }
    }
    if open > 0 {
        lens.push(open);
    }
    lens
}

/// Where two lists of chunk lengths first part.
fn mismatch(got: &[usize], want: &[usize]) -> String {
    let at = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    format!(
        "chunk {at} is {:?}, the oracle's {:?} ({} chunks against {})",
        got.get(at),
        want.get(at),
        got.len(),
        want.len()
    )
}

/// The configurations the suite draws from: `min` from the edges of the
/// 64-byte hash window, `avg` a power of two from `min` up to 64 KiB, and
/// `max` equal to `avg`, just above it, or well above it.
fn config(min_index: usize, avg_exp: u32, max_kind: usize) -> ChunkerConfig {
    let min = [1usize, 2, 63, 64, 65, 2048][min_index % 6];
    let avg = (1usize << avg_exp.min(16)).max(min.next_power_of_two());
    let max = match max_kind % 3 {
        0 => avg,
        1 => avg + 1 + avg / 3,
        _ => 4 * avg,
    };
    ChunkerConfig::new(min, avg, max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cut_points_match_the_oracle(
        seed in any::<u64>(),
        kind in 0usize..4,
        len in 0usize..200_000,
        min_index in 0usize..6,
        avg_exp in 0u32..17,
        max_kind in 0usize..3,
        segments in proptest::collection::vec(1usize..70_000, 0..8),
        buffer in 1usize..70_000,
    ) {
        let config = config(min_index, avg_exp, max_kind);
        let data = content(kind, len, seed);
        let want = lengths(&oracle::FastCdcChunker { config }.chunk(&data));
        let chunker = FastCdcChunker::new(config);
        let whole = lengths(&chunker.chunk(&data));
        prop_assert!(whole == want, "whole, {config:?}: {}", mismatch(&whole, &want));
        let sliced = cut_in_slices(&chunker, &data, &segments);
        prop_assert!(
            sliced == want,
            "in slices {segments:?}, {config:?}: {}",
            mismatch(&sliced, &want)
        );
        let reader = BufReader::with_capacity(
            buffer,
            SegmentedReader { data: &data, segments: &segments },
        );
        let streamed: Vec<Chunk> = ChunkStream::new(&chunker, reader)
            .collect::<Result<_, _>>()
            .expect("in-memory reads cannot fail");
        let streamed = lengths(&streamed);
        prop_assert!(
            streamed == want,
            "streamed through {buffer} bytes, {config:?}: {}",
            mismatch(&streamed, &want)
        );
    }
}

#[test]
fn zero_runs_never_clear_a_mask_and_cut_at_max() {
    let data = vec![0u8; 300_000];
    for (min_index, avg_exp, max_kind) in [(5, 13, 1), (4, 10, 2), (3, 6, 0), (0, 12, 2)] {
        let config = config(min_index, avg_exp, max_kind);
        let want = lengths(&oracle::FastCdcChunker { config }.chunk(&data));
        let (full, last) = want.split_at(want.len() - 1);
        assert!(
            full.iter().all(|&l| l == config.max_size) && last[0] <= config.max_size,
            "zeros cleared a mask under {config:?}"
        );
        let chunker = FastCdcChunker::new(config);
        assert_eq!(lengths(&chunker.chunk(&data)), want, "{config:?}");
    }
}

/// The cut offsets of a seeded 4 MiB input at `ChunkerConfig::default()`:
/// their count, the first eight, and SHA-256 over all of them as
/// little-endian `u64`s.
#[test]
fn golden_cut_offsets_at_the_default_config() {
    let data = random_bytes(4 << 20, 0x0c0f_fee0_c0ff_ee00);
    let config = ChunkerConfig::default();
    let offsets = |lens: Vec<usize>| -> Vec<u64> {
        lens.iter()
            .scan(0u64, |end, &l| {
                *end += l as u64;
                Some(*end)
            })
            .collect()
    };
    let digest = |offsets: &[u64]| -> String {
        let bytes: Vec<u8> = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        sha256::hash(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    };
    let want = offsets(lengths(&oracle::FastCdcChunker { config }.chunk(&data)));
    assert_eq!(want.len(), GOLDEN_COUNT);
    assert_eq!(want[..8], GOLDEN_FIRST);
    assert_eq!(digest(&want), GOLDEN_SHA256);
    let got = offsets(lengths(&FastCdcChunker::new(config).chunk(&data)));
    assert_eq!(got.len(), GOLDEN_COUNT);
    assert_eq!(got[..8], GOLDEN_FIRST);
    assert_eq!(digest(&got), GOLDEN_SHA256);
}

const GOLDEN_COUNT: usize = 449;
const GOLDEN_FIRST: [u64; 8] = [9172, 19995, 29142, 40296, 53309, 61616, 70754, 82173];
const GOLDEN_SHA256: &str = "c11105f6c39e6f6bac11f4e2ec58f6b2523d0975818bf69e493c1120a411715e";
