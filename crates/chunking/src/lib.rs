//! Content-defined and fixed-size chunking for CDStore (§4.2).
//!
//! A CDStore client splits every backup file into *secrets* (chunks) before
//! convergent dispersal. The paper uses Rabin-fingerprint variable-size
//! chunking with an 8 KB average, 2 KB minimum, and 16 KB maximum chunk size
//! by default, and also supports fixed-size chunking (used for the VM image
//! dataset) and the faster FastCDC gear chunker. Deduplication effectiveness
//! depends on chunk boundaries being content-defined so insertions do not
//! shift every subsequent chunk.
//!
//! Every algorithm is exposed two ways: the buffer-at-once
//! [`Chunker::chunk`], and the incremental [`ChunkCutter`] /
//! [`ChunkStream`] pair that cuts chunks out of any [`std::io::BufRead`]
//! source in place, with bounded memory. Both produce identical boundaries.
//!
//! # Examples
//!
//! ```
//! use cdstore_chunking::{Chunker, ChunkerConfig, RabinChunker};
//!
//! let data = vec![7u8; 100_000];
//! let chunker = RabinChunker::new(ChunkerConfig::default());
//! let chunks = chunker.chunk(&data);
//! let total: usize = chunks.iter().map(|c| c.data.len()).sum();
//! assert_eq!(total, data.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunker;
pub mod fastcdc;
mod gear;
pub mod rabin;
pub mod stream;

pub use chunker::{
    Chunk, ChunkCutter, Chunker, ChunkerConfig, ChunkerKind, FixedChunker, RabinChunker,
};
pub use fastcdc::FastCdcChunker;
pub use rabin::RabinHasher;
pub use stream::ChunkStream;
