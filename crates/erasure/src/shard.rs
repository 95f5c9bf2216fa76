//! Splitting byte buffers into equal-size shards.
//!
//! CAONT-RS divides the CAONT package into `k` equal-size shares, padding
//! with zeroes when the package length is not a multiple of `k` (§3.2). The
//! original length is carried in the share metadata so padding can be removed
//! on decode.

/// Returns the shard size used when splitting `data_len` bytes into `k`
/// equal-size shards (the ceiling division of the two).
pub fn shard_size(data_len: usize, k: usize) -> usize {
    assert!(k > 0, "k must be positive");
    data_len.div_ceil(k)
}

/// Splits `data` into exactly `k` shards of equal size, zero-padding the
/// final shard as needed.
///
/// An empty input yields `k` empty shards.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn pad_and_split(data: &[u8], k: usize) -> Vec<Vec<u8>> {
    assert!(k > 0, "k must be positive");
    let size = shard_size(data.len(), k);
    let mut shards = Vec::with_capacity(k);
    for i in 0..k {
        let start = (i * size).min(data.len());
        let end = ((i + 1) * size).min(data.len());
        let mut shard = vec![0u8; size];
        shard[..end - start].copy_from_slice(&data[start..end]);
        shards.push(shard);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shard_size_is_ceiling_division() {
        assert_eq!(shard_size(0, 3), 0);
        assert_eq!(shard_size(1, 3), 1);
        assert_eq!(shard_size(3, 3), 1);
        assert_eq!(shard_size(4, 3), 2);
        assert_eq!(shard_size(9, 3), 3);
        assert_eq!(shard_size(10, 3), 4);
    }

    #[test]
    fn split_produces_equal_sized_shards() {
        let data: Vec<u8> = (0..10).collect();
        let shards = pad_and_split(&data, 3);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.len() == 4));
        assert_eq!(shards[0], vec![0, 1, 2, 3]);
        assert_eq!(shards[1], vec![4, 5, 6, 7]);
        assert_eq!(shards[2], vec![8, 9, 0, 0]);
    }

    #[test]
    fn empty_input_gives_empty_shards() {
        let shards = pad_and_split(&[], 4);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn exact_multiple_needs_no_padding() {
        let data: Vec<u8> = (0..12).collect();
        let shards = pad_and_split(&data, 4);
        assert!(shards.iter().all(|s| s.len() == 3));
        assert_eq!(shards.concat(), data);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        pad_and_split(b"abc", 0);
    }

    proptest! {
        #[test]
        fn split_reassemble_round_trips(data in proptest::collection::vec(any::<u8>(), 0..500),
                                        k in 1usize..12) {
            let shards = pad_and_split(&data, k);
            prop_assert_eq!(shards.len(), k);
            let size = shard_size(data.len(), k);
            prop_assert!(shards.iter().all(|s| s.len() == size));
            let flat = shards.concat();
            prop_assert_eq!(&flat[..data.len()], &data[..]);
            prop_assert!(flat[data.len()..].iter().all(|&b| b == 0));
        }
    }
}
