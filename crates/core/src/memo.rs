//! The client's share-fingerprint memo: a bounded cache of the pure function
//! `h = H(X) ↦ (fp₀ … fpₙ₋₁)`.
//!
//! Convergent dispersal makes a secret's `n` shares — and so their
//! fingerprints — a function of the secret alone (§3.2), keyed by the hash
//! [`SecretSharing::convergent_key`] returns. A client that has encoded a
//! chunk once can therefore name its shares again for the price of that one
//! hash: the encode stage looks the key up, and on a hit hands the commit
//! stage the fingerprints with the chunk itself instead of its shares. The
//! shares are produced only if a server answers the (unchanged) intra-user
//! dedup query with "not owned".
//!
//! The memo is *not* a dedup decision: it knows nothing of users, files or
//! ownership, every query is still sent, and the server's answer is the only
//! thing that suppresses an upload. It is not persisted either — the key is
//! as sensitive as an encryption key, so the memo is never serialised or
//! logged and dies with the handle that owns it.
//!
//! [`SecretSharing::convergent_key`]: cdstore_secretsharing::SecretSharing::convergent_key

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cdstore_crypto::Fingerprint;

/// Most entries a [`ShareMemo`] holds: 2¹⁸ secrets ≈ 2 GiB of unique 8 KiB
/// chunks, ≈ 45 MB of fingerprints at `n = 4` when full.
pub const SHARE_MEMO_ENTRIES: usize = 1 << 18;

/// One generation: keys map to a slot of `n` fingerprints in a flat arena,
/// so an entry costs no allocation of its own.
#[derive(Default)]
struct Generation {
    slots: HashMap<[u8; 32], u32>,
    fingerprints: Vec<Fingerprint>,
}

impl Generation {
    fn get(&self, n: usize, key: &[u8; 32]) -> Option<&[Fingerprint]> {
        let start = *self.slots.get(key)? as usize * n;
        Some(&self.fingerprints[start..start + n])
    }
}

#[derive(Default)]
struct Generations {
    current: Generation,
    previous: Generation,
}

/// A bounded, thread-safe map from a secret's convergent key to the
/// fingerprints of its `n` shares. One memo serves one scheme instance's
/// parameters (`n`, `k`, salt): keys of differently parameterised schemes
/// must not meet in one memo.
///
/// Eviction is by generation: inserts fill `current`; when it reaches half
/// the capacity the `previous` generation is dropped and `current` takes its
/// place. A hit in `previous` re-inserts the entry, so what keeps being seen
/// survives and what is not seen for a whole generation goes.
pub struct ShareMemo {
    n: usize,
    generation_entries: usize,
    generations: Mutex<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
    materialised: AtomicU64,
}

impl ShareMemo {
    /// An empty memo for a scheme producing `n` shares per secret, bounded
    /// by [`SHARE_MEMO_ENTRIES`].
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, SHARE_MEMO_ENTRIES)
    }

    pub(crate) fn with_capacity(n: usize, capacity: usize) -> Self {
        ShareMemo {
            n,
            generation_entries: (capacity / 2).max(1),
            generations: Mutex::new(Generations::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            materialised: AtomicU64::new(0),
        }
    }

    /// The fingerprints memoised for `key`, counting a hit or a miss.
    pub fn lookup(&self, key: &[u8; 32]) -> Option<Vec<Fingerprint>> {
        let mut generations = self.generations.lock().expect("memo lock");
        let found = match generations.current.get(self.n, key) {
            Some(fingerprints) => Some(fingerprints.to_vec()),
            None => {
                let promoted = generations
                    .previous
                    .get(self.n, key)
                    .map(<[Fingerprint]>::to_vec);
                if let Some(fingerprints) = &promoted {
                    self.insert_locked(&mut generations, key, fingerprints);
                }
                promoted
            }
        };
        drop(generations);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoises the `n` share fingerprints of the secret whose key is `key`.
    pub fn insert(&self, key: &[u8; 32], fingerprints: &[Fingerprint]) {
        let mut generations = self.generations.lock().expect("memo lock");
        self.insert_locked(&mut generations, key, fingerprints);
    }

    fn insert_locked(
        &self,
        generations: &mut Generations,
        key: &[u8; 32],
        fingerprints: &[Fingerprint],
    ) {
        assert_eq!(
            fingerprints.len(),
            self.n,
            "a memo serves one scheme's share count"
        );
        if generations.current.slots.len() >= self.generation_entries {
            generations.previous = std::mem::take(&mut generations.current);
        }
        let current = &mut generations.current;
        let slot = current.slots.len() as u32;
        // Two workers racing on one new secret insert equal values; the
        // first slot stands.
        if let Entry::Vacant(entry) = current.slots.entry(*key) {
            entry.insert(slot);
            current.fingerprints.extend_from_slice(fingerprints);
        }
    }

    /// Records that a memoised secret's shares had to be produced after all
    /// (some server did not own one of them).
    pub(crate) fn note_materialised(&self) {
        self.materialised.fetch_add(1, Ordering::Relaxed);
    }

    /// Lookups that found the key.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that did not.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits whose shares were encoded anyway because a server did not own
    /// them (another user's content, or content deleted since).
    pub fn materialised(&self) -> u64 {
        self.materialised.load(Ordering::Relaxed)
    }

    /// Entries currently held, never more than the capacity.
    pub fn entries(&self) -> usize {
        let generations = self.generations.lock().expect("memo lock");
        generations.current.slots.len() + generations.previous.slots.len()
    }
}

/// Counts only: the keys are key material and the values name a user's data.
impl fmt::Debug for ShareMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShareMemo")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("materialised", &self.materialised())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 32] {
        cdstore_crypto::sha256::hash(&i.to_le_bytes())
    }

    fn fingerprints(i: u64) -> Vec<Fingerprint> {
        (0..4u8)
            .map(|cloud| Fingerprint::of(&[i.to_le_bytes().as_slice(), &[cloud]].concat()))
            .collect()
    }

    #[test]
    fn lookup_returns_what_was_inserted_and_counts() {
        let memo = ShareMemo::new(4);
        assert_eq!(memo.lookup(&key(1)), None);
        memo.insert(&key(1), &fingerprints(1));
        memo.insert(&key(2), &fingerprints(2));
        // A racing duplicate insert keeps the first slot.
        memo.insert(&key(1), &fingerprints(1));
        assert_eq!(memo.lookup(&key(1)), Some(fingerprints(1)));
        assert_eq!(memo.lookup(&key(2)), Some(fingerprints(2)));
        assert_eq!((memo.hits(), memo.misses(), memo.entries()), (2, 1, 2));
    }

    #[test]
    fn three_times_capacity_inserts_leave_at_most_capacity_entries() {
        let capacity = 64;
        let memo = ShareMemo::with_capacity(4, capacity);
        for i in 0..3 * capacity as u64 {
            memo.insert(&key(i), &fingerprints(i));
            assert!(memo.entries() <= capacity);
        }
        // The newest generation and a half are still there, the oldest gone.
        let last = 3 * capacity as u64 - 1;
        assert_eq!(memo.lookup(&key(last)), Some(fingerprints(last)));
        assert_eq!(memo.lookup(&key(0)), None);
    }

    #[test]
    fn an_entry_that_keeps_being_seen_outlives_its_generation() {
        let capacity = 64;
        let memo = ShareMemo::with_capacity(4, capacity);
        memo.insert(&key(0), &fingerprints(0));
        for i in 1..10 * capacity as u64 {
            memo.insert(&key(i), &fingerprints(i));
            if i % 8 == 0 {
                assert_eq!(memo.lookup(&key(0)), Some(fingerprints(0)), "at {i}");
            }
            assert!(memo.entries() <= capacity);
        }
    }

    #[test]
    fn debug_prints_counts_and_no_key_material() {
        let memo = ShareMemo::new(4);
        memo.insert(&key(7), &fingerprints(7));
        assert_eq!(
            format!("{memo:?}"),
            "ShareMemo { entries: 1, hits: 0, misses: 0, materialised: 0 }"
        );
    }
}
