//! A Bloom filter for negative-lookup short-circuiting.
//!
//! LevelDB attaches a Bloom filter to every table file so lookups of absent
//! keys rarely touch the file [18, 26]; the LSM runs in [`crate::KvStore`]
//! do the same. The filter uses double hashing over two SHA-256-derived
//! 64-bit values.

use cdstore_crypto::sha256;

/// Most hash functions a filter uses. [`BloomFilter::new`] never picks more,
/// and [`BloomFilter::from_bytes`] refuses a filter that claims more: each
/// lookup probes that many bits.
const MAX_HASHES: u32 = 30;

/// A fixed-size Bloom filter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_items` with roughly
    /// `bits_per_key` bits per item (LevelDB's default is 10, giving ~1%
    /// false positives).
    pub fn new(expected_items: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected_items.max(1) * bits_per_key.max(1)).max(64);
        // Optimal number of hash functions: ln(2) * bits_per_key.
        let num_hashes = ((bits_per_key as f64 * 0.69).round() as u32).clamp(1, MAX_HASHES);
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64)],
            num_bits,
            num_hashes,
            items: 0,
        }
    }

    /// Number of items inserted so far.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the filter has no items.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Size of the filter in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    fn hash_pair(key: &[u8]) -> (u64, u64) {
        let digest = sha256::hash(key);
        let h1 = u64::from_le_bytes(digest[0..8].try_into().expect("8 bytes"));
        let h2 = u64::from_le_bytes(digest[8..16].try_into().expect("8 bytes"));
        (h1, h2 | 1)
    }

    /// Inserts a key. The item count only grows when the key set at least
    /// one new bit: re-inserting a present key (or a key aliasing one — the
    /// usual Bloom ambiguity) leaves `len()` unchanged, so occupancy-derived
    /// sizing decisions don't drift under duplicate-heavy workloads.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = Self::hash_pair(key);
        let mut new_bit = false;
        for i in 0..self.num_hashes as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits as u64) as usize;
            let word = &mut self.bits[bit / 64];
            let mask = 1u64 << (bit % 64);
            new_bit |= *word & mask == 0;
            *word |= mask;
        }
        if new_bit {
            self.items += 1;
        }
    }

    /// Returns `false` if the key is definitely absent; `true` if it *may*
    /// be present.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hash_pair(key);
        for i in 0..self.num_hashes as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits as u64) as usize;
            if self.bits[bit / 64] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serialises the filter (the persisted form attached to each on-disk
    /// run of [`crate::KvStore`]): `num_bits`, `num_hashes`, `items`, then
    /// the bit words, all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.bits.len() * 8);
        out.extend_from_slice(&(self.num_bits as u64).to_le_bytes());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        out.extend_from_slice(&(self.items as u64).to_le_bytes());
        for word in &self.bits {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Parses a filter serialised by [`BloomFilter::to_bytes`]; `None` if
    /// the buffer is malformed or claims a hash count `new` never picks.
    pub fn from_bytes(bytes: &[u8]) -> Option<BloomFilter> {
        if bytes.len() < 20 {
            return None;
        }
        let num_bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?) as usize;
        let num_hashes = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let items = u64::from_le_bytes(bytes[12..20].try_into().ok()?) as usize;
        let words = num_bits.div_ceil(64);
        if num_bits == 0 || !(1..=MAX_HASHES).contains(&num_hashes) || bytes.len() != 20 + words * 8
        {
            return None;
        }
        let bits = bytes[20..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Some(BloomFilter {
            bits,
            num_bits,
            num_hashes,
            items,
        })
    }

    /// Measures the false-positive rate against a set of absent keys.
    pub fn false_positive_rate(&self, absent_keys: &[Vec<u8>]) -> f64 {
        if absent_keys.is_empty() {
            return 0.0;
        }
        let fp = absent_keys.iter().filter(|k| self.may_contain(k)).count();
        fp as f64 / absent_keys.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let mut filter = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            filter.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(filter.may_contain(&i.to_le_bytes()), "key {i} missing");
        }
        assert_eq!(filter.len(), 1000);
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut filter = BloomFilter::new(10_000, 10);
        for i in 0..10_000u32 {
            filter.insert(format!("present-{i}").as_bytes());
        }
        let absent: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| format!("absent-{i}").into_bytes())
            .collect();
        let rate = filter.false_positive_rate(&absent);
        assert!(rate < 0.03, "false positive rate {rate} too high");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let filter = BloomFilter::new(100, 10);
        assert!(filter.is_empty());
        assert!(!filter.may_contain(b"anything"));
    }

    #[test]
    fn tiny_filters_still_work() {
        let mut filter = BloomFilter::new(0, 0);
        filter.insert(b"x");
        assert!(filter.may_contain(b"x"));
        assert!(filter.num_bits() >= 64);
    }

    #[test]
    fn duplicate_inserts_do_not_inflate_the_item_count() {
        let mut filter = BloomFilter::new(100, 10);
        filter.insert(b"same-key");
        filter.insert(b"same-key");
        filter.insert(b"same-key");
        assert_eq!(filter.len(), 1);
        filter.insert(b"other-key");
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn serialisation_round_trips() {
        let mut filter = BloomFilter::new(500, 10);
        for i in 0..500u32 {
            filter.insert(&i.to_le_bytes());
        }
        let bytes = filter.to_bytes();
        let restored = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), filter.len());
        assert_eq!(restored.num_bits(), filter.num_bits());
        for i in 0..500u32 {
            assert!(restored.may_contain(&i.to_le_bytes()));
        }
        // The restored filter answers identically on absent keys too.
        for i in 1000..1500u32 {
            assert_eq!(
                restored.may_contain(&i.to_le_bytes()),
                filter.may_contain(&i.to_le_bytes())
            );
        }
        // Malformed buffers are rejected.
        assert!(BloomFilter::from_bytes(&[]).is_none());
        assert!(BloomFilter::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 20]).is_none());
    }

    /// A stored filter claiming more hashes than `new` ever picks would make
    /// every lookup probe that many bits: it is refused.
    #[test]
    fn a_hash_count_new_never_writes_is_refused() {
        let mut filter = BloomFilter::new(100, 10);
        filter.insert(b"key");
        let with_hashes = |count: u32| {
            let mut bytes = filter.to_bytes();
            bytes[8..12].copy_from_slice(&count.to_le_bytes());
            BloomFilter::from_bytes(&bytes)
        };
        assert!(with_hashes(MAX_HASHES).is_some());
        assert!(with_hashes(MAX_HASHES + 1).is_none());
        assert!(with_hashes(u32::MAX).is_none());
    }

    #[test]
    fn fewer_bits_per_key_raise_the_false_positive_rate() {
        let keys: Vec<Vec<u8>> = (0..5000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let absent: Vec<Vec<u8>> = (5000..10_000u32)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        let mut small = BloomFilter::new(keys.len(), 4);
        let mut large = BloomFilter::new(keys.len(), 16);
        for k in &keys {
            small.insert(k);
            large.insert(k);
        }
        assert!(large.false_positive_rate(&absent) <= small.false_positive_rate(&absent));
    }
}
