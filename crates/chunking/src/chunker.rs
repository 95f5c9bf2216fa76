//! Chunker trait, incremental cutters, and the fixed-size and Rabin
//! content-defined chunkers.

use cdstore_crypto::Fingerprint;

use crate::fastcdc::FastCdcChunker;
use crate::rabin::{RabinHasher, WINDOW_SIZE};

/// One chunk ("secret" in the paper's terminology) cut from an input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk within the input.
    pub offset: usize,
    /// The chunk content.
    pub data: Vec<u8>,
}

impl Chunk {
    /// Length of the chunk in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// SHA-256 fingerprint of the chunk content.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.data)
    }
}

/// Configuration of chunk-size bounds.
///
/// Defaults follow §4.2: 8 KB average, 2 KB minimum, 16 KB maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Minimum chunk size in bytes (boundaries are not considered earlier).
    pub min_size: usize,
    /// Average (target) chunk size in bytes; must be a power of two for the
    /// Rabin boundary mask.
    pub avg_size: usize,
    /// Maximum chunk size in bytes (a boundary is forced at this size).
    pub max_size: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig {
            min_size: 2 * 1024,
            avg_size: 8 * 1024,
            max_size: 16 * 1024,
        }
    }
}

impl ChunkerConfig {
    /// Creates a configuration, validating the size relationships.
    ///
    /// # Panics
    ///
    /// Panics if `min_size > avg_size`, `avg_size > max_size`, or `avg_size`
    /// is not a power of two.
    pub fn new(min_size: usize, avg_size: usize, max_size: usize) -> Self {
        ChunkerConfig {
            min_size,
            avg_size,
            max_size,
        }
        .validated()
    }

    /// Returns the configuration after the checks [`ChunkerConfig::new`]
    /// makes: the fields are public, so a struct literal skips them.
    ///
    /// # Panics
    ///
    /// As [`ChunkerConfig::new`].
    pub(crate) fn validated(self) -> Self {
        assert!(self.min_size >= 1, "min_size must be at least 1");
        assert!(
            self.min_size <= self.avg_size,
            "min_size must not exceed avg_size"
        );
        assert!(
            self.avg_size <= self.max_size,
            "avg_size must not exceed max_size"
        );
        assert!(
            self.avg_size.is_power_of_two(),
            "avg_size must be a power of two"
        );
        self
    }

    /// The bit mask applied to the Rabin fingerprint: a boundary is declared
    /// when `fingerprint & mask == mask`, which happens with probability
    /// `1/avg_size` per byte for a uniform fingerprint.
    pub fn boundary_mask(&self) -> u64 {
        (self.avg_size as u64) - 1
    }
}

/// The incremental core of a chunking algorithm: a resumable boundary
/// scanner that can be fed the input in arbitrary slices.
///
/// A cutter carries the state of the chunk currently being cut (rolling-hash
/// window, bytes consumed so far), so boundary decisions depend only on the
/// byte stream, never on how callers slice it across calls. This is the
/// contract that makes the streamed and buffered data paths cut identical
/// chunks.
pub trait ChunkCutter: Send {
    /// Scans `input` — the bytes immediately following everything this cutter
    /// has already consumed for the current chunk — and returns
    /// `Some(consumed)` where `consumed` counts bytes up to and including the
    /// chunk's final byte, or `None` if the whole slice was consumed with the
    /// chunk still open.
    ///
    /// After `Some` the cutter is ready for the next chunk; the caller
    /// resubmits `input[consumed..]` (and subsequent reads) to continue.
    fn find_boundary(&mut self, input: &[u8]) -> Option<usize>;

    /// Discards any partial-chunk state, returning to the start-of-chunk
    /// state (as if freshly created).
    fn reset(&mut self);
}

/// A chunking algorithm: splits a byte stream into contiguous chunks.
///
/// Implementors provide a stateful [`ChunkCutter`]; the buffer-at-once
/// [`chunk`](Chunker::chunk) method is derived from it, so both entry points
/// share one boundary decision per algorithm.
pub trait Chunker {
    /// Creates a fresh incremental cutter for this algorithm.
    fn cutter(&self) -> Box<dyn ChunkCutter>;

    /// Human-readable name of the algorithm.
    fn name(&self) -> &'static str;

    /// Splits `data` into chunks that concatenate back to `data`.
    fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        let mut cutter = self.cutter();
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < data.len() {
            let end = match cutter.find_boundary(&data[start..]) {
                Some(consumed) => start + consumed,
                None => data.len(),
            };
            chunks.push(Chunk {
                offset: start,
                data: data[start..end].to_vec(),
            });
            start = end;
        }
        chunks
    }
}

/// Fixed-size chunking: every chunk is exactly `size` bytes except the last.
#[derive(Debug, Clone)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a fixed-size chunker.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        FixedChunker { size }
    }
}

struct FixedCutter {
    size: usize,
    in_chunk: usize,
}

impl ChunkCutter for FixedCutter {
    fn find_boundary(&mut self, input: &[u8]) -> Option<usize> {
        let remaining = self.size - self.in_chunk;
        if input.len() >= remaining {
            self.in_chunk = 0;
            Some(remaining)
        } else {
            self.in_chunk += input.len();
            None
        }
    }

    fn reset(&mut self) {
        self.in_chunk = 0;
    }
}

impl Chunker for FixedChunker {
    fn cutter(&self) -> Box<dyn ChunkCutter> {
        Box::new(FixedCutter {
            size: self.size,
            in_chunk: 0,
        })
    }

    fn name(&self) -> &'static str {
        "fixed-size"
    }
}

/// Rabin-fingerprint content-defined chunking (the paper's default).
#[derive(Debug, Clone)]
pub struct RabinChunker {
    config: ChunkerConfig,
}

impl RabinChunker {
    /// Creates a content-defined chunker with the given size bounds.
    pub fn new(config: ChunkerConfig) -> Self {
        RabinChunker { config }
    }

    /// Returns the configuration in use.
    pub fn config(&self) -> ChunkerConfig {
        self.config
    }
}

impl Default for RabinChunker {
    fn default() -> Self {
        RabinChunker::new(ChunkerConfig::default())
    }
}

struct RabinCutter {
    config: ChunkerConfig,
    mask: u64,
    hasher: RabinHasher,
    in_chunk: usize,
}

impl ChunkCutter for RabinCutter {
    fn find_boundary(&mut self, input: &[u8]) -> Option<usize> {
        let min = self.config.min_size;
        let max = self.config.max_size;
        for (i, &byte) in input.iter().enumerate() {
            // Skip hashing below min_size - WINDOW_SIZE: the window must be
            // warm by the time boundaries become eligible.
            if self.in_chunk + WINDOW_SIZE >= min {
                let fp = self.hasher.roll(byte);
                let eligible = self.in_chunk + 1 >= min;
                let is_boundary = eligible && (fp & self.mask) == self.mask;
                let at_max = self.in_chunk + 1 >= max;
                if is_boundary || at_max {
                    self.reset();
                    return Some(i + 1);
                }
            }
            self.in_chunk += 1;
        }
        None
    }

    fn reset(&mut self) {
        self.hasher.reset();
        self.in_chunk = 0;
    }
}

impl Chunker for RabinChunker {
    fn cutter(&self) -> Box<dyn ChunkCutter> {
        Box::new(RabinCutter {
            config: self.config,
            mask: self.config.boundary_mask(),
            // Built once per cutter: RabinHasher::new() computes the mod/out
            // tables, which is far too expensive per chunk.
            hasher: RabinHasher::new(),
            in_chunk: 0,
        })
    }

    fn name(&self) -> &'static str {
        "rabin"
    }
}

/// Selects one of the built-in chunking algorithms by name — the
/// configuration surface clients expose for the chunking stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkerKind {
    /// Fixed-size chunks of `avg_size` bytes (the paper's VM-image mode).
    Fixed,
    /// Rabin-fingerprint content-defined chunking (the paper's default).
    Rabin,
    /// FastCDC gear-hash content-defined chunking (several times faster than
    /// Rabin at equivalent dedup behaviour).
    FastCdc,
}

impl ChunkerKind {
    /// All built-in kinds, in display order.
    pub const ALL: [ChunkerKind; 3] =
        [ChunkerKind::Fixed, ChunkerKind::Rabin, ChunkerKind::FastCdc];

    /// Instantiates the chosen algorithm with `config` size bounds.
    pub fn build(self, config: ChunkerConfig) -> Box<dyn Chunker + Send + Sync> {
        match self {
            ChunkerKind::Fixed => Box::new(FixedChunker::new(config.avg_size)),
            ChunkerKind::Rabin => Box::new(RabinChunker::new(config)),
            ChunkerKind::FastCdc => Box::new(FastCdcChunker::new(config)),
        }
    }

    /// The algorithm's display name (matches [`Chunker::name`]).
    pub fn name(self) -> &'static str {
        match self {
            ChunkerKind::Fixed => "fixed-size",
            ChunkerKind::Rabin => "rabin",
            ChunkerKind::FastCdc => "fastcdc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    fn check_reassembly(chunks: &[Chunk], data: &[u8]) {
        let mut rebuilt = Vec::with_capacity(data.len());
        let mut expected_offset = 0usize;
        for c in chunks {
            assert_eq!(c.offset, expected_offset);
            rebuilt.extend_from_slice(&c.data);
            expected_offset += c.data.len();
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn fixed_chunker_splits_exactly() {
        let data: Vec<u8> = (0..100).collect();
        let chunks = FixedChunker::new(32).chunk(&data);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 32);
        assert_eq!(chunks[3].len(), 4);
        check_reassembly(&chunks, &data);
    }

    #[test]
    fn fixed_chunker_handles_empty_and_small_inputs() {
        assert!(FixedChunker::new(4096).chunk(&[]).is_empty());
        let chunks = FixedChunker::new(4096).chunk(&[1, 2, 3]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].data, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn fixed_chunker_rejects_zero_size() {
        FixedChunker::new(0);
    }

    #[test]
    fn rabin_chunker_respects_size_bounds() {
        let config = ChunkerConfig::default();
        let data = random_data(1 << 20, 42);
        let chunks = RabinChunker::new(config).chunk(&data);
        check_reassembly(&chunks, &data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= config.max_size, "chunk {i} exceeds max");
            if i + 1 < chunks.len() {
                assert!(c.len() >= config.min_size, "chunk {i} below min");
            }
        }
    }

    #[test]
    fn rabin_average_size_is_near_target() {
        let config = ChunkerConfig::default();
        let data = random_data(8 << 20, 7);
        let chunks = RabinChunker::new(config).chunk(&data);
        let avg = data.len() as f64 / chunks.len() as f64;
        // With min/max clamping the practical average sits between min and
        // max and in the broad vicinity of the 8 KB target.
        assert!(avg > 4.0 * 1024.0 && avg < 14.0 * 1024.0, "average {avg}");
    }

    #[test]
    fn rabin_boundaries_are_content_defined() {
        // Inserting bytes near the start only disturbs chunk boundaries in a
        // localised region; most boundaries (by content) are preserved.
        let config = ChunkerConfig::default();
        let original = random_data(2 << 20, 99);
        let mut shifted = original.clone();
        shifted.splice(1000..1000, [0xaau8; 7]);

        let chunker = RabinChunker::new(config);
        let chunks_a = chunker.chunk(&original);
        let chunks_b = chunker.chunk(&shifted);
        let fps_a: std::collections::HashSet<Fingerprint> =
            chunks_a.iter().map(|c| c.fingerprint()).collect();
        let shared = chunks_b
            .iter()
            .filter(|c| fps_a.contains(&c.fingerprint()))
            .count();
        // The vast majority of chunks must be unchanged.
        assert!(
            shared as f64 > 0.9 * chunks_b.len() as f64,
            "only {shared}/{} chunks shared after a 7-byte insert",
            chunks_b.len()
        );
    }

    #[test]
    fn fixed_chunking_is_fragile_to_shifts_unlike_rabin() {
        // Motivation for content-defined chunking: a small insert destroys
        // almost all fixed-size chunk identities.
        let original = random_data(1 << 20, 5);
        let mut shifted = original.clone();
        shifted.insert(0, 0x42);

        let fixed = FixedChunker::new(4096);
        let fps_a: std::collections::HashSet<Fingerprint> = fixed
            .chunk(&original)
            .iter()
            .map(|c| c.fingerprint())
            .collect();
        let chunks_b = fixed.chunk(&shifted);
        let shared = chunks_b
            .iter()
            .filter(|c| fps_a.contains(&c.fingerprint()))
            .count();
        assert!(
            (shared as f64) < 0.1 * chunks_b.len() as f64,
            "{shared}/{} fixed chunks unexpectedly survived the shift",
            chunks_b.len()
        );
    }

    #[test]
    fn rabin_chunking_is_deterministic() {
        let data = random_data(512 * 1024, 11);
        let chunker = RabinChunker::default();
        assert_eq!(chunker.chunk(&data), chunker.chunk(&data));
    }

    #[test]
    fn identical_regions_produce_identical_chunks() {
        // Two files sharing a large aligned region of content share most
        // chunk fingerprints — the basis of deduplication savings.
        let shared_region = random_data(1 << 20, 3);
        let mut file_a = random_data(64 * 1024, 4);
        file_a.extend_from_slice(&shared_region);
        let mut file_b = random_data(200 * 1024, 6);
        file_b.extend_from_slice(&shared_region);

        let chunker = RabinChunker::default();
        let fps_a: std::collections::HashSet<Fingerprint> = chunker
            .chunk(&file_a)
            .iter()
            .map(|c| c.fingerprint())
            .collect();
        let chunks_b = chunker.chunk(&file_b);
        let shared = chunks_b
            .iter()
            .filter(|c| fps_a.contains(&c.fingerprint()))
            .count();
        assert!(shared as f64 > 0.7 * chunks_b.len() as f64);
    }

    #[test]
    fn chunker_config_validation() {
        let cfg = ChunkerConfig::new(1024, 4096, 8192);
        assert_eq!(cfg.boundary_mask(), 4095);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn chunker_config_rejects_non_power_of_two_average() {
        ChunkerConfig::new(1024, 5000, 8192);
    }

    #[test]
    fn small_inputs_form_a_single_chunk() {
        let chunker = RabinChunker::default();
        assert!(chunker.chunk(&[]).is_empty());
        let chunks = chunker.chunk(&[9u8; 100]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].data.len(), 100);
    }

    #[test]
    fn cutter_boundaries_are_invariant_under_input_slicing() {
        // Feeding the same stream in different slice granularities must cut
        // identical chunks — the core contract of the incremental API.
        let config = ChunkerConfig::new(256, 1024, 4096);
        let data = random_data(200_000, 21);
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(config);
            let whole = chunker.chunk(&data);
            for step in [1usize, 7, 64, 1000, 4096] {
                let mut cutter = chunker.cutter();
                let mut lens = Vec::new();
                let mut open = 0usize; // bytes consumed into the open chunk
                for piece in data.chunks(step) {
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
                let expected: Vec<usize> = whole.iter().map(Chunk::len).collect();
                assert_eq!(lens, expected, "{} step {step}", kind.name());
            }
        }
    }

    #[test]
    fn cutter_reset_discards_partial_chunk_state() {
        let config = ChunkerConfig::new(256, 1024, 4096);
        let data = random_data(50_000, 33);
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(config);
            let mut cutter = chunker.cutter();
            // Pollute the cutter with a partial scan, then reset: results
            // must match a fresh cutter's.
            assert!(cutter.find_boundary(&data[..100]).is_none());
            cutter.reset();
            let a = cutter.find_boundary(&data);
            let b = chunker.cutter().find_boundary(&data);
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn chunker_kind_names_match_instances() {
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(ChunkerConfig::default());
            assert_eq!(chunker.name(), kind.name());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn chunks_always_reassemble(data in proptest::collection::vec(any::<u8>(), 0..100_000)) {
            let chunker = RabinChunker::new(ChunkerConfig::new(256, 1024, 4096));
            let chunks = chunker.chunk(&data);
            check_reassembly(&chunks, &data);
            for (i, c) in chunks.iter().enumerate() {
                prop_assert!(c.len() <= 4096);
                if i + 1 < chunks.len() {
                    prop_assert!(c.len() >= 256);
                }
            }
        }
    }
}
