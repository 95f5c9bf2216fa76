//! File and share metadata (§4.3).
//!
//! When uploading a file, a CDStore client collects *file metadata* (the
//! pathname, file size, and number of secrets) and *share metadata* per share
//! (share size, fingerprint for intra-user dedup, sequence number of the
//! input secret, and the secret size needed to strip CAONT padding on
//! decode). The client offloads all of it to the CDStore servers, which use
//! it to build their indices and the per-file *file recipes*.

use std::ops::Range;

use cdstore_crypto::Fingerprint;

/// Metadata the client attaches to each uploaded share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareMetadata {
    /// Client-computed fingerprint of the share content (intra-user dedup).
    pub fingerprint: Fingerprint,
    /// Size of the share in bytes.
    pub share_size: u32,
    /// Sequence number of the secret within the file.
    pub secret_seq: u64,
    /// Size of the original secret in bytes (to remove padded zeroes).
    pub secret_size: u32,
}

/// One entry of a file recipe: how to retrieve and decode one secret's share
/// on this server's cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeEntry {
    /// Fingerprint of this cloud's share of the secret.
    pub share_fingerprint: Fingerprint,
    /// Size of the original secret in bytes.
    pub secret_size: u32,
}

/// The complete recipe of a file as stored on one server: the ordered list of
/// share references plus summary metadata (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecipe {
    /// Logical size of the file in bytes.
    pub file_size: u64,
    /// Ordered per-secret entries.
    pub entries: Vec<RecipeEntry>,
}

impl FileRecipe {
    /// Number of secrets in the file.
    pub fn num_secrets(&self) -> usize {
        self.entries.len()
    }

    /// Serialises the recipe to bytes (the blob written to a recipe container).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&self.file_size.to_be_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_be_bytes());
        for entry in &self.entries {
            out.extend_from_slice(entry.share_fingerprint.as_bytes());
            out.extend_from_slice(&entry.secret_size.to_be_bytes());
        }
        out
    }

    /// Parses a recipe serialised by [`FileRecipe::to_bytes`]: `None` unless
    /// the entry count names exactly the bytes after it. The bytes may be
    /// hostile (a peer's request or reply, a corrupt container), so the count
    /// is checked against them before anything is allocated.
    pub fn from_bytes(bytes: &[u8]) -> Option<FileRecipe> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let (header, body) = bytes.split_at(HEADER_BYTES);
        let file_size = u64::from_be_bytes(header[0..8].try_into().ok()?);
        let count = u64::from_be_bytes(header[8..16].try_into().ok()?);
        if body.len() % ENTRY_BYTES != 0 || (body.len() / ENTRY_BYTES) as u64 != count {
            return None;
        }
        let entries = body
            .chunks_exact(ENTRY_BYTES)
            .map(|entry| RecipeEntry {
                share_fingerprint: Fingerprint::from_bytes(
                    entry[..32].try_into().expect("32-byte slice"),
                ),
                secret_size: u32::from_be_bytes(entry[32..].try_into().expect("4-byte slice")),
            })
            .collect();
        Some(FileRecipe { file_size, entries })
    }

    /// Size of the serialised recipe in bytes — the metadata overhead the
    /// cost analysis charges for (§5.6).
    pub fn serialized_size(&self) -> usize {
        HEADER_BYTES + self.entries.len() * ENTRY_BYTES
    }

    /// How many secrets the restore window starting at secret `from` takes:
    /// up to `max_secrets`, stopping before the secret whose size would take
    /// the window past `max_secret_bytes` — but never before the first. Zero
    /// only when `max_secrets` is zero or `from` is past the last secret.
    ///
    /// The one window rule, over secret sizes alone: a server cuts a file's
    /// first window with it and the client every later one, neither needing
    /// the dispersal scheme.
    pub fn window_len(&self, from: usize, max_secrets: usize, max_secret_bytes: u64) -> usize {
        let mut bytes = 0u64;
        let mut len = 0;
        for entry in self
            .entries
            .get(from..)
            .unwrap_or(&[])
            .iter()
            .take(max_secrets)
        {
            bytes += u64::from(entry.secret_size);
            if len > 0 && bytes > max_secret_bytes {
                break;
            }
            len += 1;
        }
        len
    }

    /// The share fingerprints of the secrets in `window`, in order: what a
    /// restore asks a server for.
    pub fn fingerprints(&self, window: Range<usize>) -> Vec<Fingerprint> {
        self.entries[window]
            .iter()
            .map(|e| e.share_fingerprint)
            .collect()
    }
}

/// Serialised recipe header: file size and entry count.
const HEADER_BYTES: usize = 16;

/// One serialised [`RecipeEntry`]: fingerprint and secret size.
const ENTRY_BYTES: usize = Fingerprint::SIZE + 4;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(&i.to_be_bytes())
    }

    #[test]
    fn recipe_round_trips() {
        let recipe = FileRecipe {
            file_size: 123_456_789,
            entries: (0..100u32)
                .map(|i| RecipeEntry {
                    share_fingerprint: fp(i),
                    secret_size: 8192 - i,
                })
                .collect(),
        };
        let bytes = recipe.to_bytes();
        assert_eq!(bytes.len(), recipe.serialized_size());
        assert_eq!(FileRecipe::from_bytes(&bytes), Some(recipe));
    }

    #[test]
    fn malformed_recipes_are_rejected() {
        assert_eq!(FileRecipe::from_bytes(&[]), None);
        assert_eq!(FileRecipe::from_bytes(&[0u8; 15]), None);
        let recipe = FileRecipe {
            file_size: 1,
            entries: vec![RecipeEntry {
                share_fingerprint: fp(1),
                secret_size: 2,
            }],
        };
        let bytes = recipe.to_bytes();
        assert_eq!(FileRecipe::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    /// 16 bytes announcing 2^62 entries: `count * 36` wraps to 0, which must
    /// neither overflow, pass the length check, nor size an allocation.
    #[test]
    fn a_count_no_bytes_back_is_rejected_without_allocating() {
        let mut blob = [0u8; 16];
        blob[8..16].copy_from_slice(&(1u64 << 62).to_be_bytes());
        assert_eq!(FileRecipe::from_bytes(&blob), None);
        blob[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(FileRecipe::from_bytes(&blob), None);
    }

    fn sized(sizes: &[u32]) -> FileRecipe {
        FileRecipe {
            file_size: sizes.iter().map(|&s| u64::from(s)).sum(),
            entries: sizes
                .iter()
                .enumerate()
                .map(|(i, &secret_size)| RecipeEntry {
                    share_fingerprint: fp(i as u32),
                    secret_size,
                })
                .collect(),
        }
    }

    #[test]
    fn windows_stop_at_either_bound_but_hold_at_least_one_secret() {
        let recipe = sized(&[10, 10, 10, 100, 10]);
        assert_eq!(recipe.window_len(0, 8, 30), 3);
        assert_eq!(recipe.window_len(0, 2, 1000), 2);
        assert_eq!(recipe.window_len(3, 8, 30), 1, "one secret past the budget");
        assert_eq!(recipe.window_len(4, 8, 30), 1);
        assert_eq!(recipe.window_len(0, 0, 1000), 0, "the zero window");
        assert_eq!(recipe.window_len(5, 8, 1000), 0);
        assert_eq!(recipe.window_len(99, 8, 1000), 0);
        assert_eq!(recipe.fingerprints(1..3), vec![fp(1), fp(2)]);
    }

    #[test]
    fn empty_recipe_is_valid() {
        let recipe = FileRecipe {
            file_size: 0,
            entries: vec![],
        };
        assert_eq!(FileRecipe::from_bytes(&recipe.to_bytes()), Some(recipe));
    }

    proptest! {
        #[test]
        fn recipe_round_trips_for_arbitrary_entries(
            file_size: u64,
            sizes in proptest::collection::vec(any::<u32>(), 0..50)) {
            let recipe = FileRecipe {
                file_size,
                entries: sizes.iter().enumerate().map(|(i, &s)| RecipeEntry {
                    share_fingerprint: fp(i as u32),
                    secret_size: s,
                }).collect(),
            };
            prop_assert_eq!(FileRecipe::from_bytes(&recipe.to_bytes()), Some(recipe));
        }

        /// Arbitrary bytes parse or not, but never panic — and what parses
        /// serialises back to exactly those bytes.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            if let Some(recipe) = FileRecipe::from_bytes(&bytes) {
                prop_assert_eq!(recipe.to_bytes(), bytes);
            }
        }

        /// A valid recipe whose count field says anything else is rejected —
        /// including the counts whose `× 36` wraps around to the true length.
        #[test]
        fn a_mutated_count_is_rejected(
            sizes in proptest::collection::vec(any::<u32>(), 0..20),
            count: u64,
            wrap in 0u64..4,
        ) {
            let recipe = sized(&sizes);
            let count = match wrap {
                0 => count,
                _ => sizes.len() as u64 + (wrap << 62),
            };
            prop_assume!(count != sizes.len() as u64);
            let mut bytes = recipe.to_bytes();
            bytes[8..16].copy_from_slice(&count.to_be_bytes());
            prop_assert_eq!(FileRecipe::from_bytes(&bytes), None);
        }
    }
}
