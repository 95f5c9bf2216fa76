//! Systematic Reed-Solomon erasure coding over GF(2^8).
//!
//! This crate reproduces the Reed-Solomon substrate of CAONT-RS: a `(n, k)`
//! code that turns `k` equal-size data shards into `n` shards such that any
//! `k` of them reconstruct the originals. The code is *systematic* — the
//! first `k` output shards are the data shards themselves — matching the
//! AONT-RS construction in the paper (§2) and Plank's tutorial construction
//! [46, 47].
//!
//! # Examples
//!
//! ```
//! use cdstore_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 3).unwrap();
//! let shards = rs.encode_data(b"hello, reed-solomon world!").unwrap();
//! assert_eq!(shards.len(), 4);
//!
//! // Lose one shard and reconstruct.
//! let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! received[1] = None;
//! let recovered = rs.reconstruct_data(&received, b"hello, reed-solomon world!".len()).unwrap();
//! assert_eq!(recovered, b"hello, reed-solomon world!");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod code;
pub mod shard;

pub use code::{ErasureError, ReedSolomon};
pub use shard::{pad_and_split, shard_size};
