//! AES-256 counter (CTR) mode and the CAONT-RS mask generator.
//!
//! CAONT-RS builds its OAEP-style all-or-nothing transform around a
//! generator function `G(h) = E(h, C)` (Equation (3)): a constant-value
//! block `C` with the same size as the secret is encrypted under the hash
//! key `h`. Implementing `E` as AES-256 in CTR mode makes `G` a single bulk
//! encryption over the whole secret — the performance advantage of CAONT-RS
//! over Rivest's word-by-word AONT that §5.3 measures. The pass itself is
//! [`crate::aes`]'s CTR kernel (sixteen counter blocks per VAES-512 step or
//! eight per AES-NI batch where the CPU has them, the portable byte-wise
//! cipher otherwise).

use crate::aes::{Aes256, Backend, KEY_SIZE};

/// AES-256 CTR-mode keystream generator / encryptor.
///
/// The counter block is a 16-byte big-endian value formed from an 8-byte
/// nonce followed by an 8-byte block counter.
pub struct Aes256Ctr {
    cipher: Aes256,
    nonce: u64,
}

impl Aes256Ctr {
    /// Creates a CTR encryptor from a 32-byte key and an 8-byte nonce, on
    /// the process-wide [`Backend::active`].
    pub fn new(key: &[u8; KEY_SIZE], nonce: u64) -> Self {
        Self::with_backend(Backend::active(), key, nonce)
    }

    /// As [`Aes256Ctr::new`], on an explicit backend (differential tests and
    /// the kernel bench run every available one side by side).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not in [`Backend::available`] on this CPU.
    pub fn with_backend(backend: Backend, key: &[u8; KEY_SIZE], nonce: u64) -> Self {
        Aes256Ctr {
            cipher: Aes256::with_backend(backend, key),
            nonce,
        }
    }

    /// XORs the keystream starting at block `start_block` into `buf`
    /// (encrypt and decrypt are the same operation). The block counter wraps
    /// at `u64::MAX` without carrying into the nonce.
    pub fn apply_keystream(&self, buf: &mut [u8], start_block: u64) {
        self.cipher.ctr_xor(self.nonce, start_block, 0, buf);
    }

    /// Encrypts `data`, returning a new buffer.
    pub fn encrypt(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(&mut out, 0);
        out
    }
}

/// The byte value of the constant block `C` used by the CAONT-RS generator.
///
/// Any fixed public constant works; the security of the AONT rests on the
/// secrecy of the key `h`, not of `C`.
pub const CONSTANT_BLOCK_BYTE: u8 = 0x43;

/// Computes the CAONT-RS mask `G(h) = E(h, C)` of the given length.
///
/// `h` is the 32-byte convergent hash key; `len` is the secret size. The
/// result has exactly `len` bytes. Because `C` is constant and public, two
/// identical secrets always produce identical masks — the property that makes
/// convergent dispersal deduplicable.
pub fn generator_mask(h: &[u8; 32], len: usize) -> Vec<u8> {
    let mut mask = vec![0u8; len];
    apply_generator_mask(h, &mut mask);
    mask
}

/// Applies the mask `G(h)` to `data` in place: `data[i] ^= G(h)[i]`.
///
/// This computes `Y = X ⊕ G(h)` (encoding) or `X = Y ⊕ G(h)` (decoding) in
/// one pass over `data`: the CTR kernel XORs `keystream ⊕ C` straight into
/// the buffer, so the mask is never materialised.
pub fn apply_generator_mask(h: &[u8; 32], data: &mut [u8]) {
    apply_generator_mask_with(Backend::active(), h, data);
}

/// As [`apply_generator_mask`], on an explicit backend.
///
/// # Panics
///
/// Panics if `backend` is not in [`Backend::available`] on this CPU.
pub fn apply_generator_mask_with(backend: Backend, h: &[u8; 32], data: &mut [u8]) {
    Aes256::with_backend(backend, h).ctr_xor(0, 0, CONSTANT_BLOCK_BYTE, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt), adapted: the standard
    /// vector uses the full 16-byte initial counter
    /// f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff, which we reproduce by passing its
    /// upper half as the nonce and its lower half as the starting block.
    #[test]
    fn sp800_38a_ctr_vector() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let nonce = u64::from_be_bytes(parse_hex("f0f1f2f3f4f5f6f7").try_into().unwrap());
        let start = u64::from_be_bytes(parse_hex("f8f9fafbfcfdfeff").try_into().unwrap());
        let ctr = Aes256Ctr::new(&key, nonce);
        let mut data = parse_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        ctr.apply_keystream(&mut data, start);
        let expected = parse_hex(concat!(
            "601ec313775789a5b7a7f504bbf3d228",
            "f443e3ca4d62b59aca84e990cacaf5c5",
            "2b0930daa23de94ce87017ba2d84988d",
            "dfc9c58db67aada613c2dd08457941a6"
        ));
        assert_eq!(data, expected);
    }

    #[test]
    fn ctr_round_trips() {
        let key = [7u8; 32];
        let ctr = Aes256Ctr::new(&key, 99);
        let data = b"all-or-nothing transforms need bulk encryption".to_vec();
        let ct = ctr.encrypt(&data);
        assert_ne!(ct, data);
        let pt = ctr.encrypt(&ct);
        assert_eq!(pt, data);
    }

    #[test]
    fn generator_mask_is_deterministic_and_key_sensitive() {
        let h1 = [1u8; 32];
        let h2 = [2u8; 32];
        let m1 = generator_mask(&h1, 100);
        let m1b = generator_mask(&h1, 100);
        let m2 = generator_mask(&h2, 100);
        assert_eq!(m1, m1b);
        assert_ne!(m1, m2);
        assert_eq!(m1.len(), 100);
    }

    #[test]
    fn generator_mask_prefix_property() {
        // The mask for a shorter length is a prefix of the mask for a longer
        // length (CTR keystream is position-based).
        let h = [0xaau8; 32];
        let long = generator_mask(&h, 333);
        let short = generator_mask(&h, 100);
        assert_eq!(&long[..100], &short[..]);
    }

    #[test]
    fn apply_generator_mask_matches_explicit_xor() {
        let h = [0x11u8; 32];
        let data: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let mask = generator_mask(&h, data.len());
        let mut masked = data.clone();
        apply_generator_mask(&h, &mut masked);
        for i in 0..data.len() {
            assert_eq!(masked[i], data[i] ^ mask[i]);
        }
    }

    proptest! {
        #[test]
        fn apply_generator_mask_is_involutive(h in proptest::array::uniform32(any::<u8>()),
                                              data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut work = data.clone();
            apply_generator_mask(&h, &mut work);
            apply_generator_mask(&h, &mut work);
            prop_assert_eq!(work, data);
        }

        #[test]
        fn keystream_segments_are_consistent(key in proptest::array::uniform32(any::<u8>()),
                                             len in 1usize..200) {
            // Applying the keystream to a whole buffer equals applying it
            // block-by-block with matching start offsets.
            let ctr = Aes256Ctr::new(&key, 5);
            let mut whole = vec![0u8; len * 16];
            ctr.apply_keystream(&mut whole, 0);
            let mut pieces = vec![0u8; len * 16];
            for (i, chunk) in pieces.chunks_mut(16).enumerate() {
                ctr.apply_keystream(chunk, i as u64);
            }
            prop_assert_eq!(whole, pieces);
        }
    }
}
