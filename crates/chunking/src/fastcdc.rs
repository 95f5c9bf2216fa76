//! FastCDC gear-hash content-defined chunking \[Xia et al., ATC'16\].
//!
//! FastCDC replaces the Rabin rolling hash with a *gear* hash — one shift,
//! one table lookup, and one add per byte — and recovers the chunk-size
//! distribution Rabin gets from its uniform fingerprint by *normalized
//! chunking*: below the target size the boundary test uses a mask with more
//! set bits (boundaries rarer), above it a mask with fewer (boundaries more
//! likely). Because the gear hash shifts one bit per byte, only the last 64
//! bytes influence the hash, so boundaries stay content-defined: hashing can
//! start 64 bytes before the minimum chunk size and still be fully warm at
//! the first eligible boundary.
//!
//! The cut points differ from [`RabinChunker`](crate::RabinChunker)'s — the
//! two algorithms do not deduplicate against each other — but the dedup
//! *behaviour* (boundaries survive byte insertions) is equivalent, at several
//! times the throughput.

use std::sync::OnceLock;

use crate::chunker::{ChunkCutter, Chunker, ChunkerConfig};
use crate::gear;

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

/// FastCDC content-defined chunking behind the common [`Chunker`] trait.
#[derive(Debug, Clone)]
pub struct FastCdcChunker {
    config: ChunkerConfig,
}

impl FastCdcChunker {
    /// Creates a FastCDC chunker with the given size bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min_size <= avg_size <= max_size` and `avg_size`
    /// is a power of two, as [`ChunkerConfig::new`] does: the fields are
    /// public, so a struct literal skips those checks, and the cutter's
    /// phase bounds would underflow.
    pub fn new(config: ChunkerConfig) -> Self {
        FastCdcChunker {
            config: config.validated(),
        }
    }

    /// Returns the configuration in use.
    pub fn config(&self) -> ChunkerConfig {
        self.config
    }
}

impl Default for FastCdcChunker {
    fn default() -> Self {
        FastCdcChunker::new(ChunkerConfig::default())
    }
}

/// The cutter: one bounded loop per phase of a chunk, resumable at any
/// byte because `hash` and `in_chunk` carry across calls.
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

impl FastCdcCutter {
    /// Scans, under `mask`, the bytes of `input` from `*i` that end chunks
    /// shorter than `end`, and returns the cut's offset in `input` if the
    /// hash clears the mask on one of them.
    fn phase(&mut self, input: &[u8], i: &mut usize, end: usize, mask: u64) -> Option<usize> {
        if self.in_chunk >= end - 1 {
            return None;
        }
        let n = (end - 1 - self.in_chunk).min(input.len() - *i);
        let span = &input[*i..*i + n];
        if let Some(k) = gear::scan(self.gear, &mut self.hash, span, mask) {
            self.reset();
            return Some(*i + k + 1);
        }
        self.in_chunk += n;
        *i += n;
        None
    }
}

impl ChunkCutter for FastCdcCutter {
    fn find_boundary(&mut self, input: &[u8]) -> Option<usize> {
        let mut i = 0usize;
        // Bytes before (min - GEAR_WINDOW) cannot influence any eligible
        // boundary's hash: skip them without hashing. This is where FastCDC
        // gains over Rabin even before the cheaper per-byte update.
        let hash_start = self.min.saturating_sub(GEAR_WINDOW);
        if self.in_chunk < hash_start {
            i = (hash_start - self.in_chunk).min(input.len());
            self.in_chunk += i;
        }
        // Warm-up: hash the bytes that end chunks shorter than `min`, but
        // never test them.
        if self.in_chunk + 1 < self.min {
            let n = (self.min - 1 - self.in_chunk).min(input.len() - i);
            self.hash = gear::roll(self.gear, self.hash, &input[i..i + n]);
            self.in_chunk += n;
            i += n;
        }
        // Normalized chunking: lengths in [min, avg) under the hard mask,
        // then [avg, max) under the easy one.
        if let Some(cut) = self.phase(input, &mut i, self.avg, self.mask_hard) {
            return Some(cut);
        }
        if let Some(cut) = self.phase(input, &mut i, self.max, self.mask_easy) {
            return Some(cut);
        }
        // Every earlier phase is complete: the next byte ends a chunk of
        // `max` bytes.
        if i < input.len() {
            self.reset();
            return Some(i + 1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::{Chunk, ChunkerKind};
    use cdstore_crypto::Fingerprint;
    use rand::{Rng, SeedableRng};

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn gear_table_is_deterministic_and_spread() {
        let table = gear_table();
        assert_eq!(table, gear_table());
        let distinct: std::collections::HashSet<u64> = table.iter().copied().collect();
        assert_eq!(distinct.len(), 256);
        // High bits (where the masks live) must vary across entries.
        let high: std::collections::HashSet<u64> = table.iter().map(|g| g >> 48).collect();
        assert!(high.len() > 200, "only {} distinct high words", high.len());
    }

    #[test]
    fn masks_bracket_the_base_probability() {
        let (hard, easy) = normalized_masks(8 * 1024);
        assert_eq!(hard.count_ones(), 15); // 13 + 2
        assert_eq!(easy.count_ones(), 11); // 13 - 2
                                           // Both masks sit in the high bits.
        assert_eq!(hard.leading_zeros(), 0);
        assert_eq!(easy.leading_zeros(), 0);
    }

    #[test]
    fn respects_size_bounds() {
        let config = ChunkerConfig::default();
        let data = random_data(1 << 20, 17);
        let chunks = FastCdcChunker::new(config).chunk(&data);
        let total: usize = chunks.iter().map(Chunk::len).sum();
        assert_eq!(total, data.len());
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= config.max_size, "chunk {i} exceeds max");
            if i + 1 < chunks.len() {
                assert!(c.len() >= config.min_size, "chunk {i} below min");
            }
        }
    }

    #[test]
    fn average_size_is_near_target() {
        let config = ChunkerConfig::default();
        let data = random_data(8 << 20, 23);
        let chunks = FastCdcChunker::new(config).chunk(&data);
        let avg = data.len() as f64 / chunks.len() as f64;
        // Normalized chunking concentrates sizes around the target more
        // tightly than Rabin; accept the same broad band.
        assert!(avg > 4.0 * 1024.0 && avg < 14.0 * 1024.0, "average {avg}");
    }

    #[test]
    fn boundaries_are_content_defined() {
        let original = random_data(2 << 20, 31);
        let mut shifted = original.clone();
        shifted.splice(1000..1000, [0x55u8; 7]);

        let chunker = FastCdcChunker::default();
        let fps_a: std::collections::HashSet<Fingerprint> = chunker
            .chunk(&original)
            .iter()
            .map(|c| c.fingerprint())
            .collect();
        let chunks_b = chunker.chunk(&shifted);
        let shared = chunks_b
            .iter()
            .filter(|c| fps_a.contains(&c.fingerprint()))
            .count();
        assert!(
            shared as f64 > 0.9 * chunks_b.len() as f64,
            "only {shared}/{} chunks shared after a 7-byte insert",
            chunks_b.len()
        );
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = random_data(512 * 1024, 41);
        let chunker = FastCdcChunker::default();
        assert_eq!(chunker.chunk(&data), chunker.chunk(&data));
    }

    #[test]
    #[should_panic(expected = "min_size must not exceed avg_size")]
    fn a_config_literal_with_min_above_max_is_refused() {
        // The fields are public, so this skips `ChunkerConfig::new`.
        let config = ChunkerConfig {
            min_size: 4096,
            avg_size: 1024,
            max_size: 2048,
        };
        ChunkerKind::FastCdc.build(config);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn a_config_literal_with_an_odd_average_is_refused() {
        FastCdcChunker::new(ChunkerConfig {
            min_size: 512,
            avg_size: 1000,
            max_size: 4096,
        });
    }

    #[test]
    fn small_inputs_form_a_single_chunk() {
        let chunker = FastCdcChunker::default();
        assert!(chunker.chunk(&[]).is_empty());
        let chunks = chunker.chunk(&[7u8; 100]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].data.len(), 100);
    }
}
