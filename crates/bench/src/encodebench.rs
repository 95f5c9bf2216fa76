//! Measurement helpers for the client-side data path: chunking throughput
//! per algorithm, and chunk+encode throughput through the client's pipeline
//! with the buffer-reuse counters that serve as a peak-RSS proxy.
//!
//! Used by the `bench_encode` binary (perf trajectory `BENCH_encode.json`)
//! and by the fig5a harness for its chunk+encode rows.

use std::io::Read;
use std::sync::Arc;
use std::time::Instant;

use cdstore_chunking::{ChunkStream, ChunkerConfig, ChunkerKind};
use cdstore_core::{encode_stream, PipelineConfig, ShareMemo};
use cdstore_secretsharing::{BufferPool, PoolStats, SecretSharing};

use crate::MB;

/// Chunking throughput (MB/s) of one algorithm over `data`, measured through
/// the streaming cutter with a single reused chunk buffer — the allocation
/// pattern of the real data path, so Rabin vs FastCDC compares hash cost,
/// not allocator traffic.
pub fn chunking_speed(kind: ChunkerKind, config: ChunkerConfig, data: &[u8]) -> f64 {
    let chunker = kind.build(config);
    let start = Instant::now();
    let mut stream = ChunkStream::new(chunker.as_ref(), data);
    let mut buf = Vec::new();
    let mut chunks = 0usize;
    let mut bytes = 0usize;
    while stream.next_chunk_into(&mut buf).expect("in-memory read") {
        chunks += 1;
        bytes += buf.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(bytes, data.len(), "chunks must cover the input");
    assert!(chunks > 0 || data.is_empty());
    data.len() as f64 / MB / elapsed
}

/// The result of one streamed encode run: throughput plus the buffer-pool
/// counters that bound its memory.
pub struct StreamedEncodeRun {
    /// Chunk+encode throughput, MB/s of original data.
    pub mbps: f64,
    /// Number of secrets encoded.
    pub num_secrets: u64,
    /// Pool counters; `peak_outstanding` is the peak-RSS proxy (live pooled
    /// buffers at the worst instant).
    pub pool: PoolStats,
}

/// Streamed chunk+encode throughput over the staged pipeline, shares
/// discarded back into the pool at the sink (isolates the encode path from
/// any store backend). With a `memo`, secrets it already holds come through
/// un-encoded — a second run over the same data measures the hit path.
pub fn streamed_encode_speed(
    scheme: &(dyn SecretSharing + Sync),
    kind: ChunkerKind,
    config: ChunkerConfig,
    data: &[u8],
    threads: usize,
    memo: Option<&Arc<ShareMemo>>,
) -> StreamedEncodeRun {
    let chunker = kind.build(config);
    let pool = Arc::new(BufferPool::new());
    let pipeline = PipelineConfig {
        encode_threads: threads,
        pool: Some(Arc::clone(&pool)),
        memo: memo.cloned(),
        ..PipelineConfig::default()
    };
    let start = Instant::now();
    let report = encode_stream(scheme, chunker.as_ref(), data, &pipeline, |enc, pool| {
        enc.recycle(pool);
        Ok(())
    })
    .expect("streamed encoding failed");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.logical_bytes, data.len() as u64);
    StreamedEncodeRun {
        mbps: data.len() as f64 / MB / elapsed,
        num_secrets: report.num_secrets,
        pool: pool.stats(),
    }
}

/// A reader that synthesises `total` pseudo-random bytes on the fly without
/// ever materialising them — lets the harness push inputs larger than RAM
/// through `backup_stream` to demonstrate the bounded-memory property.
pub struct SyntheticReader {
    remaining: usize,
    state: u64,
}

impl SyntheticReader {
    /// Creates a reader yielding `total` bytes from `seed`.
    pub fn new(total: usize, seed: u64) -> Self {
        SyntheticReader {
            remaining: total,
            state: seed | 1,
        }
    }
}

impl Read for SyntheticReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = buf.len().min(self.remaining);
        for b in &mut buf[..take] {
            // xorshift64*: cheap enough that the reader never bottlenecks.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            *b = (self.state >> 32) as u8;
        }
        self.remaining -= take;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_secrets;
    use cdstore_secretsharing::CaontRs;

    fn test_data(len: usize) -> Vec<u8> {
        random_secrets(len, 8 * 1024, 11).concat()
    }

    #[test]
    fn chunking_speeds_are_positive_for_all_kinds() {
        let data = test_data(512 * 1024);
        for kind in ChunkerKind::ALL {
            assert!(chunking_speed(kind, ChunkerConfig::default(), &data) > 0.0);
        }
    }

    #[test]
    fn streamed_encode_speed_is_positive_and_counted() {
        let scheme = CaontRs::new(4, 3).unwrap();
        let data = test_data(512 * 1024);
        let streamed = streamed_encode_speed(
            &scheme,
            ChunkerKind::Rabin,
            ChunkerConfig::default(),
            &data,
            2,
            None,
        );
        assert!(streamed.mbps > 0.0);
        assert!(streamed.num_secrets > 0);
        assert_eq!(streamed.pool.outstanding, 0);
        // The pool bound is structural, so it holds even in debug builds:
        // far fewer live buffers than one per share.
        assert!(
            (streamed.pool.peak_outstanding as u64) < streamed.num_secrets * 5,
            "peak {} vs {} secrets",
            streamed.pool.peak_outstanding,
            streamed.num_secrets
        );
    }

    #[test]
    fn synthetic_reader_yields_exactly_the_requested_bytes() {
        let mut r = SyntheticReader::new(100_000, 42);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf.len(), 100_000);
        // Content-defined chunking needs entropy; all-zero output would be a
        // bug that silently skews every measurement.
        assert!(buf.iter().filter(|&&b| b != 0).count() > 90_000);
    }

    // The FastCDC-vs-Rabin comparison is only meaningful with optimisations
    // on; `bench_encode` asserts it in release mode.
}
