//! The gear-hash boundary scan under FastCDC content-defined chunking
//! (Xia et al., ATC'16).
//!
//! The gear hash rolls one byte at a time, `H(i) = (H(i−1) << 1) + G[b_i]`
//! (mod 2⁶⁴), over a 256-entry table `G` of random words. A scan rolls it
//! over a slice and stops at the first byte after which `H & mask == 0`:
//! the chunker's boundary test. [`scan`] is that loop and [`roll`] the same
//! without the test (the chunker's warm-up before its minimum size). The
//! table is the caller's: the chunker owns its definition.
//!
//! # The prefix identity
//!
//! Unrolling the recurrence `k + 1` steps from position `p` gives, exactly
//! (every step is a shift and an add mod 2⁶⁴, and both distribute):
//!
//! ```text
//! H(p+k) = Σ_{j≤k} G[b_{p+j}] << (k−j)  +  H(p−1) << (k+1)
//! ```
//!
//! The sum does not depend on `H(p−1)`, so the hashes at `k + 1` consecutive
//! positions can be built from the table words alone and the incoming hash
//! added last: the loop-carried chain is one shift and one add per block of
//! positions instead of per byte.
//!
//! [`scan`] takes four positions per iteration from the identity above and
//! tests the four hashes with one combined branch.
//! `crates/chunking/tests/fastcdc_differential.rs` holds it, through the
//! chunker, to the byte-at-a-time FastCDC cutter it replaced.

/// Rolls `hash` over every byte of `data` without testing it.
pub fn roll(table: &[u64; 256], hash: u64, data: &[u8]) -> u64 {
    data.iter()
        .fold(hash, |h, &b| (h << 1).wrapping_add(table[b as usize]))
}

/// Rolls `*hash` over `data` and returns the index of the first byte after
/// which `*hash & mask == 0`, leaving `*hash` the hash through that byte;
/// or `None`, with `*hash` rolled over all of `data`.
///
/// Four positions per iteration from the prefix identity, one branch for
/// all four tests.
pub fn scan(table: &[u64; 256], hash: &mut u64, data: &[u8], mask: u64) -> Option<usize> {
    let g = |b: u8| table[b as usize];
    let mut h = *hash;
    let mut quads = data.chunks_exact(4);
    let mut base = 0usize;
    for quad in &mut quads {
        // Prefix sums of the table words; none depends on `h`.
        let s1 = g(quad[0]);
        let s2 = (s1 << 1).wrapping_add(g(quad[1]));
        let s3 = (s2 << 1).wrapping_add(g(quad[2]));
        let s4 = (s3 << 1).wrapping_add(g(quad[3]));
        let hashes = [
            (h << 1).wrapping_add(s1),
            (h << 2).wrapping_add(s2),
            (h << 3).wrapping_add(s3),
            (h << 4).wrapping_add(s4),
        ];
        if (hashes[0] & mask == 0)
            | (hashes[1] & mask == 0)
            | (hashes[2] & mask == 0)
            | (hashes[3] & mask == 0)
        {
            let k = hashes
                .iter()
                .position(|&hk| hk & mask == 0)
                .expect("one of the four cleared the mask");
            *hash = hashes[k];
            return Some(base + k);
        }
        h = hashes[3];
        base += 4;
    }
    for (k, &b) in quads.remainder().iter().enumerate() {
        h = (h << 1).wrapping_add(g(b));
        if h & mask == 0 {
            *hash = h;
            return Some(base + k);
        }
    }
    *hash = h;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> [u64; 256] {
        let mut state = 0x1234_5678_9abc_def0u64;
        std::array::from_fn(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        })
    }

    /// One byte at a time: the definition.
    fn reference(table: &[u64; 256], hash: &mut u64, data: &[u8], mask: u64) -> Option<usize> {
        for (i, &b) in data.iter().enumerate() {
            *hash = (*hash << 1).wrapping_add(table[b as usize]);
            if *hash & mask == 0 {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn scan_matches_the_definition_at_every_offset() {
        let table = table();
        let data: Vec<u8> = (0..4099u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for mask in [0u64, 0xf000_0000_0000_0000, 0xfff0_0000_0000_0000, !0] {
            for start in [0usize, 1, 7, 15, 16, 17, 1000] {
                for len in (0..=33).chain([data.len() - start]) {
                    let span = &data[start..start + len];
                    for seed in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
                        let mut want_hash = seed;
                        let want = reference(&table, &mut want_hash, span, mask);
                        let mut hash = seed;
                        let got = scan(&table, &mut hash, span, mask);
                        assert_eq!(
                            (got, hash),
                            (want, want_hash),
                            "mask {mask:x} start {start} len {len} seed {seed:x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roll_is_scan_without_a_test() {
        let table = table();
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut hash = 99;
        assert_eq!(scan(&table, &mut hash, &data, 0), Some(0));
        let mut hash = 99;
        // A mask of all ones clears only on a zero hash: none here.
        assert_eq!(scan(&table, &mut hash, &data, !0), None);
        assert_eq!(hash, roll(&table, 99, &data));
    }
}
