//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used for the convergent hash key `h = H(X)` of CAONT-RS, for share
//! fingerprints in two-stage deduplication, and for the integrity hash inside
//! the CAONT package tail.
//!
//! # Kernel dispatch
//!
//! The compression function has two implementations: the portable scalar
//! schedule, and an x86 SHA-NI path (`sha256rnds2`/`sha256msg1`/`sha256msg2`)
//! selected once per process by runtime feature detection (see
//! [`Backend::active`]). Setting `CDSTORE_FORCE_SCALAR` (to anything but
//! `0`) before first use forces the scalar path — the same override the
//! GF(2^8) region kernels honour, so CI can pin golden vectors under both
//! dispatch modes.
//!
//! [`hash_batch`] and [`hash_batch_prefixed`] hash many independent
//! messages, each behind one shared prefix (a server's fingerprint tag, an
//! organisation salt). [`BatchKernel::for_batch`] picks how:
//!
//! * a batch of at least 16 messages takes the **16-lane AVX-512 kernel**
//!   on a host where it measured faster than the single-stream backend (one
//!   yes/no timing at first use; a double-pumped AVX-512 core keeps its
//!   SHA-NI);
//! * otherwise a SHA-NI host hashes one message after another, and a scalar
//!   host compresses four messages in lockstep with SSE2 (portable lane
//!   arrays off x86_64).
//!
//! Both lane kernels run under one scheduler (`multilane`): a kernel call
//! steps until some lane's run of blocks ends, a lane is refilled as its
//! message ends, and once fewer than half the lanes are live, each remaining
//! message finishes on [`Backend::active`] from its mid-state.

/// Output size of SHA-256 in bytes.
pub const DIGEST_SIZE: usize = 32;
/// Internal block size of SHA-256 in bytes.
pub const BLOCK_SIZE: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A SHA-256 compression implementation selected by runtime CPU detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar schedule; always available. Batches that do not take
    /// sixteen lanes take four.
    Scalar,
    /// x86 SHA extensions (`sha256rnds2` et al.).
    ShaNi,
}

static ACTIVE: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();

/// `CDSTORE_FORCE_SCALAR` set (to anything but `0`): every dispatch takes
/// the portable path.
fn force_scalar() -> bool {
    std::env::var_os("CDSTORE_FORCE_SCALAR").is_some_and(|v| v != "0")
}

impl Backend {
    /// Every backend runnable on this CPU, scalar first (for the
    /// differential test suite).
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            if is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
            {
                v.push(Backend::ShaNi);
            }
        }
        v
    }

    /// The backend hashing dispatches to, chosen once per process: SHA-NI
    /// where detected, unless `CDSTORE_FORCE_SCALAR` is set at first use.
    pub fn active() -> Backend {
        *ACTIVE.get_or_init(|| {
            if force_scalar() {
                Backend::Scalar
            } else {
                *Self::available().last().expect("scalar always available")
            }
        })
    }

    /// Human-readable backend name (used by benches and logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::ShaNi => "sha-ni",
        }
    }
}

/// Runs the compression function over `data` (a whole number of 64-byte
/// blocks) with the given backend.
#[allow(unsafe_code)] // the ShaNi arm runs only on a detected backend
fn compress_blocks_with(backend: Backend, state: &mut [u32; 8], data: &[u8]) {
    debug_assert!(data.len().is_multiple_of(BLOCK_SIZE));
    match backend {
        Backend::Scalar => {
            for block in data.chunks_exact(BLOCK_SIZE) {
                compress_scalar(state, block.try_into().expect("block is 64 bytes"));
            }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        // SAFETY: `ShaNi` comes from `Backend::active`, which detected it, or
        // from `hash_with`, which asserts so; `data` is whole blocks (above).
        Backend::ShaNi => unsafe { ni::compress_blocks(state, data) },
        #[allow(unreachable_patterns)]
        _ => {
            for block in data.chunks_exact(BLOCK_SIZE) {
                compress_scalar(state, block.try_into().expect("block is 64 bytes"));
            }
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs more input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        let backend = Backend::active();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_SIZE - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_SIZE {
                let block = self.buffer;
                compress_blocks_with(backend, &mut self.state, &block);
                self.buffer_len = 0;
            }
        }
        // Process all full blocks directly from the input in one dispatch.
        let full = data.len() - data.len() % BLOCK_SIZE;
        if full > 0 {
            compress_blocks_with(backend, &mut self.state, &data[..full]);
            data = &data[full..];
        }
        // Stash the remainder.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    ///
    /// The FIPS 180-4 padding (0x80 terminator, zero fill, 64-bit big-endian
    /// message length) is laid out directly in a tail buffer and compressed
    /// in a single pass — the buffered bytes are copied exactly once.
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        let mut state = self.state;
        let mut tail = [0u8; BLOCK_SIZE * 2];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        let tail_len = padded_tail(&mut tail, self.buffer_len, self.total_len);
        compress_blocks_with(Backend::active(), &mut state, &tail[..tail_len]);
        digest_bytes(&state)
    }
}

/// Writes the 0x80 terminator and the big-endian bit length into `tail`
/// (which already holds `rem` leftover message bytes), returning the padded
/// tail length (one or two blocks).
fn padded_tail(tail: &mut [u8; BLOCK_SIZE * 2], rem: usize, total_len: u64) -> usize {
    tail[rem] = 0x80;
    let tail_len = if rem < 56 { BLOCK_SIZE } else { BLOCK_SIZE * 2 };
    let bit_len = total_len.wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    tail_len
}

fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_SIZE] {
    let mut out = [0u8; DIGEST_SIZE];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[allow(unsafe_code)]
mod ni {
    //! x86 SHA-NI compression: two rounds per `sha256rnds2`, message
    //! schedule via `sha256msg1`/`sha256msg2`, state held as the ABEF/CDGH
    //! register pair the instructions expect.

    use super::{BLOCK_SIZE, K};
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $g:expr) => {{
            let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add($g * 4).cast()));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let t = _mm_sha256msg1_epu32($w0, $w1);
            let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
            _mm_sha256msg2_epu32(t, $w3)
        }};
    }

    /// # Safety
    ///
    /// Caller must ensure the `sha`, `ssse3`, and `sse4.1` features are
    /// available. `data.len()` must be a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Big-endian dword loads: byte-reverse each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d0e0f08090a0b_u64 as i64, 0x0405060700010203_u64 as i64);
        let mut abef = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[4] as i32,
            state[5] as i32,
        );
        let mut cdgh = _mm_set_epi32(
            state[2] as i32,
            state[3] as i32,
            state[6] as i32,
            state[7] as i32,
        );
        for block in data.chunks_exact(BLOCK_SIZE) {
            let abef_save = abef;
            let cdgh_save = cdgh;
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            let mut g = 4;
            for _ in 0..3 {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, g + 3);
                g += 4;
            }
            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }
        let mut fe_ba = [0u32; 4];
        let mut hg_dc = [0u32; 4];
        _mm_storeu_si128(fe_ba.as_mut_ptr().cast(), abef);
        _mm_storeu_si128(hg_dc.as_mut_ptr().cast(), cdgh);
        state[0] = fe_ba[3];
        state[1] = fe_ba[2];
        state[4] = fe_ba[1];
        state[5] = fe_ba[0];
        state[2] = hg_dc[3];
        state[3] = hg_dc[2];
        state[6] = hg_dc[1];
        state[7] = hg_dc[0];
    }
}

/// One-shot SHA-256 of a byte buffer.
pub fn hash(data: &[u8]) -> [u8; DIGEST_SIZE] {
    hash_with(Backend::active(), data)
}

/// One-shot SHA-256 with an explicit backend (differential tests and
/// benches; production code uses [`hash`]). Panics if this CPU does not run
/// `backend`.
pub fn hash_with(backend: Backend, data: &[u8]) -> [u8; DIGEST_SIZE] {
    let runs = backend == Backend::active() || Backend::available().contains(&backend);
    assert!(
        runs,
        "SHA-256 backend {} is not on this CPU",
        backend.name()
    );
    let mut state = H0;
    let full = data.len() - data.len() % BLOCK_SIZE;
    compress_blocks_with(backend, &mut state, &data[..full]);
    let mut tail = [0u8; BLOCK_SIZE * 2];
    let rem = data.len() - full;
    tail[..rem].copy_from_slice(&data[full..]);
    let tail_len = padded_tail(&mut tail, rem, data.len() as u64);
    compress_blocks_with(backend, &mut state, &tail[..tail_len]);
    digest_bytes(&state)
}

/// One-shot SHA-256 over the concatenation of several buffers.
pub fn hash_parts(parts: &[&[u8]]) -> [u8; DIGEST_SIZE] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Hashes many independent messages, returning one digest per input in
/// order, with the kernel [`BatchKernel::for_batch`] picks for the batch.
/// The client's encode groups and the restore's decode groups batch
/// through it.
pub fn hash_batch(inputs: &[&[u8]]) -> Vec<[u8; DIGEST_SIZE]> {
    hash_batch_prefixed(&[], inputs)
}

/// Hashes `prefix ‖ m` for every message `m` of `inputs`, returning one
/// digest per input in order — each equal to `hash_parts(&[prefix, m])` —
/// with the kernel [`BatchKernel::for_batch`] picks. The prefix's whole
/// blocks are compressed once for the batch; the block it ends in is staged
/// per message, and every later whole block is read from the message in
/// place. The prefix is a server's `len ‖ tag` or an organisation salt.
pub fn hash_batch_prefixed(prefix: &[u8], inputs: &[&[u8]]) -> Vec<[u8; DIGEST_SIZE]> {
    hash_batch_with(BatchKernel::for_batch(inputs.len()), prefix, inputs)
}

/// [`hash_batch_prefixed`] with an explicit kernel (differential tests and
/// benches).
///
/// # Panics
///
/// Panics if `kernel` is one this CPU cannot run (see
/// [`BatchKernel::available`]).
pub fn hash_batch_with(
    kernel: BatchKernel,
    prefix: &[u8],
    inputs: &[&[u8]],
) -> Vec<[u8; DIGEST_SIZE]> {
    let mut out = vec![[0u8; DIGEST_SIZE]; inputs.len()];
    match kernel {
        BatchKernel::Single(backend) => {
            multilane::Batch::new(backend, prefix, inputs).single(&mut out);
        }
        BatchKernel::X4 => {
            multilane::Batch::new(Backend::active(), prefix, inputs).lanes(multilane::x4, &mut out);
        }
        #[cfg(target_arch = "x86_64")]
        BatchKernel::X16 => multilane::Batch::new(Backend::active(), prefix, inputs)
            .lanes(multilane::avx512::x16, &mut out),
        #[cfg(not(target_arch = "x86_64"))]
        BatchKernel::X16 => panic!("the 16-lane kernel needs x86_64 with AVX-512"),
    }
    out
}

/// How a batch of independent messages is hashed.
///
/// The lane kernels compress one message per lane, every lane in lockstep.
/// A lane whose message ends takes the next waiting one; once none waits
/// and fewer than half the lanes are live, each remaining message finishes
/// on [`Backend::active`] from its mid-state. Half is a fixed point, not a
/// tuned one: four SSE2 lanes hash at ≈2.1× one scalar stream, so two live
/// lanes still outrun it, and sixteen AVX-512 lanes hash FastCDC-sized
/// secrets and their shares, in groups and sixteen at a time, at the same
/// rate for every hand-off from 6 to 12 live lanes (`docs/kernels.md`, "The
/// run table and the tail hand-off").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKernel {
    /// One message after another on a single-stream backend.
    Single(Backend),
    /// Four lanes: explicit SSE2 on x86_64 (part of its baseline, so never
    /// detected), portable lane arrays elsewhere.
    X4,
    /// Sixteen lanes in AVX-512F/BW registers (x86_64, detected at run
    /// time).
    X16,
}

impl BatchKernel {
    /// The kernel the production dispatch hashes `messages` messages with:
    ///
    /// * 16 AVX-512 lanes when `messages >= 16` and, timed once per process,
    ///   they outran one [`Backend::active`] stream (never under
    ///   `CDSTORE_FORCE_SCALAR`). Smaller batches would leave lanes idle.
    /// * Otherwise message after message on SHA-NI, which outruns four SSE2
    ///   lanes.
    /// * Otherwise four lanes.
    pub fn for_batch(messages: usize) -> BatchKernel {
        if messages >= 16 && x16_outruns_one_stream() {
            return BatchKernel::X16;
        }
        match Backend::active() {
            Backend::ShaNi => BatchKernel::Single(Backend::ShaNi),
            Backend::Scalar => BatchKernel::X4,
        }
    }

    /// Every kernel runnable on this CPU: each single-stream backend, then
    /// the four lanes, then the sixteen where AVX-512F/BW is detected (also
    /// where production never takes them).
    pub fn available() -> Vec<BatchKernel> {
        let mut v: Vec<BatchKernel> = Backend::available()
            .into_iter()
            .map(BatchKernel::Single)
            .collect();
        v.push(BatchKernel::X4);
        #[cfg(target_arch = "x86_64")]
        {
            if multilane::avx512::detected() {
                v.push(BatchKernel::X16);
            }
        }
        v
    }

    /// Human-readable kernel name (used by benches).
    pub fn name(self) -> &'static str {
        match self {
            BatchKernel::Single(backend) => backend.name(),
            BatchKernel::X4 => "x4",
            BatchKernel::X16 => "avx512x16",
        }
    }
}

/// Whether sixteen AVX-512 lanes hash a full batch faster than one
/// [`Backend::active`] stream on this host, timed once per process. `false`
/// when the CPU lacks AVX-512F/BW, under `CDSTORE_FORCE_SCALAR`, and on a
/// core that splits each 512-bit operation in two, where SHA-NI wins.
///
/// The timing hashes the same sixteen 2 KiB messages both ways, best of
/// five after a warm-up pass that also powers up the 512-bit units, and
/// costs ≈0.3 ms. Only its yes/no answer is used: the hand-off point is
/// fixed, so every process on a host hashes the same way.
fn x16_outruns_one_stream() -> bool {
    static OUTRUNS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OUTRUNS.get_or_init(|| {
        if force_scalar() || !BatchKernel::available().contains(&BatchKernel::X16) {
            return false;
        }
        const LEN: usize = 2048;
        let data: Vec<u8> = (0..16 * LEN).map(|i| (i * 131 + 7) as u8).collect();
        let msgs: Vec<&[u8]> = data.chunks(LEN).collect();
        let kernels = [BatchKernel::Single(Backend::active()), BatchKernel::X16];
        let mut best = [std::time::Duration::MAX; 2];
        for pass in 0..6 {
            for (&kernel, best) in kernels.iter().zip(&mut best) {
                let start = std::time::Instant::now();
                std::hint::black_box(hash_batch_with(kernel, &[], std::hint::black_box(&msgs)));
                if pass > 0 {
                    *best = (*best).min(start.elapsed());
                }
            }
        }
        let [stream, lanes] = best;
        lanes < stream
    })
}

mod multilane {
    //! The lane scheduler both multi-buffer kernels run under, the message
    //! layout it shares with the single-stream batch path, and the kernels.
    //!
    //! One SHA-256 stream is a chain of dependent rounds. Compressing several
    //! independent messages in lockstep — every round variable a vector with
    //! one message per lane — fills the execution ports the chain leaves
    //! idle. Lanes hold `states[word][lane]`. A kernel call reads a [`Runs`]
    //! table and stops when any lane's run of blocks ends; only those lanes
    //! are touched before the next call.

    use std::cell::Cell;
    use std::marker::PhantomData;

    use super::{
        compress_blocks_with, digest_bytes, padded_tail, Backend, BLOCK_SIZE, DIGEST_SIZE, H0,
    };

    /// Bytes staged per message: the head block, then one or two tail blocks.
    const STAGED: usize = 3 * BLOCK_SIZE;

    /// What an idle lane reads, at stride 0.
    static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

    /// A lane kernel: compresses the next `nblocks` blocks of every lane of
    /// the table into that lane's column of `states` (an idle lane's column
    /// comes out meaningless). It panics unless every lane holds them
    /// ([`Runs::check`]).
    pub(super) type Kernel<const W: usize> = fn(&mut [[u32; W]; 8], &Runs<'_, W>, usize);

    /// The run table the kernels read: per lane, the next block of its
    /// current run, the stride to the one after (0 for an idle lane, which
    /// reads [`ZERO_BLOCK`] and counts down from `usize::MAX`), and the whole
    /// blocks left. A live pointer comes from a slice borrowed for `'a` — a
    /// message body, or the lane's staged cells, rewritten only once its run
    /// has ended — that holds `left` more whole blocks; [`Runs::check`] holds
    /// each kernel call to that.
    pub(super) struct Runs<'a, const W: usize> {
        ptr: [*const u8; W],
        stride: [usize; W],
        left: [usize; W],
        borrows: PhantomData<&'a [u8]>,
    }

    impl<'a, const W: usize> Runs<'a, W> {
        pub(super) fn idle() -> Self {
            Runs {
                ptr: [ZERO_BLOCK.as_ptr(); W],
                stride: [0; W],
                left: [usize::MAX; W],
                borrows: PhantomData,
            }
        }

        /// Points lane `l` at `run`, whole blocks of a message read in place.
        pub(super) fn read(&mut self, l: usize, run: &'a [u8]) {
            self.start(l, run.as_ptr(), run.len());
        }

        /// Points lane `l` at staged blocks.
        fn read_staged(&mut self, l: usize, run: &'a [Cell<u8>]) {
            self.start(l, run.as_ptr().cast(), run.len());
        }

        fn start(&mut self, l: usize, ptr: *const u8, len: usize) {
            debug_assert!(len > 0 && len.is_multiple_of(BLOCK_SIZE));
            (self.ptr[l], self.stride[l], self.left[l]) = (ptr, BLOCK_SIZE, len / BLOCK_SIZE);
        }

        fn park(&mut self, l: usize) {
            (self.ptr[l], self.stride[l], self.left[l]) = (ZERO_BLOCK.as_ptr(), 0, usize::MAX);
        }

        /// Where lane `l` reads `b` blocks on.
        fn block(&self, l: usize, b: usize) -> *const u8 {
            self.ptr[l].wrapping_add(b * self.stride[l])
        }

        /// The kernels' safety contract: panics unless every lane holds
        /// `nblocks` more blocks, a byte count that fits a `usize`.
        fn check(&self, nblocks: usize) {
            assert!(
                nblocks.checked_mul(BLOCK_SIZE).is_some()
                    && self.left.iter().all(|&left| nblocks <= left),
                "a kernel call reads {nblocks} blocks of every lane, and some lane holds fewer"
            );
        }

        /// One kernel call: compresses the fewest blocks any live lane has
        /// left and returns the lanes whose run that ended, one bit each.
        fn step(&mut self, kernel: Kernel<W>, states: &mut [[u32; W]; 8]) -> u32 {
            let step = *self.left.iter().min().expect("at least one lane");
            kernel(states, self, step);
            let mut ended = 0;
            for l in 0..W {
                self.ptr[l] = self.block(l, step);
                self.left[l] -= step;
                ended |= u32::from(self.left[l] == 0) << l;
            }
            ended
        }
    }

    /// One run of a message's whole blocks; `Body(&[])` is no run.
    #[derive(Clone, Copy)]
    enum Run<'a> {
        /// Read in place from the message.
        Body(&'a [u8]),
        /// Bytes `from..to` of the message's staged buffer.
        Staged(usize, usize),
    }

    impl<'a> Run<'a> {
        fn bytes(self, staged: &'a [u8; STAGED]) -> &'a [u8] {
            match self {
                Run::Body(body) => body,
                Run::Staged(from, to) => &staged[from..to],
            }
        }
    }

    /// `prefix ‖ m` for every message `m` of a batch. The prefix's whole
    /// blocks are compressed once into `start`; its last `rem` bytes open
    /// every message's own blocks.
    pub(super) struct Batch<'a> {
        /// Compresses the prefix and whatever the lanes hand off.
        backend: Backend,
        start: [u32; 8],
        rem: &'a [u8],
        prefix_len: usize,
        inputs: &'a [&'a [u8]],
    }

    impl<'a> Batch<'a> {
        pub(super) fn new(backend: Backend, prefix: &'a [u8], inputs: &'a [&'a [u8]]) -> Self {
            let whole = prefix.len() - prefix.len() % BLOCK_SIZE;
            let mut start = H0;
            compress_blocks_with(backend, &mut start, &prefix[..whole]);
            Batch {
                backend,
                start,
                rem: &prefix[whole..],
                prefix_len: prefix.len(),
                inputs,
            }
        }

        /// Stages message `i` into `staged` and returns its runs in order:
        /// the head block (when `rem` and the message fill one; otherwise
        /// `rem` opens the tail), the body, and the padded tail. Without a
        /// body, head and tail are one staged run.
        fn stage(&self, i: usize, staged: &mut [u8; STAGED]) -> [Run<'a>; 3] {
            let msg = self.inputs[i];
            let (mut from, mut head) = (BLOCK_SIZE, Run::Body(&[]));
            let (mut carried, mut rest) = (self.rem, msg);
            if !self.rem.is_empty() && self.rem.len() + msg.len() >= BLOCK_SIZE {
                let (first, after) = msg.split_at(BLOCK_SIZE - self.rem.len());
                staged[..self.rem.len()].copy_from_slice(self.rem);
                staged[self.rem.len()..BLOCK_SIZE].copy_from_slice(first);
                (from, head, carried, rest) = (0, Run::Staged(0, BLOCK_SIZE), &[], after);
            }
            let (body, left) = rest.split_at(rest.len() - rest.len() % BLOCK_SIZE);
            let tail: &mut [u8; 2 * BLOCK_SIZE] =
                (&mut staged[BLOCK_SIZE..]).try_into().expect("two blocks");
            tail.fill(0);
            tail[..carried.len()].copy_from_slice(carried);
            tail[carried.len()..carried.len() + left.len()].copy_from_slice(left);
            let total_len = (self.prefix_len + msg.len()) as u64;
            let end = BLOCK_SIZE + padded_tail(tail, carried.len() + left.len(), total_len);
            if body.is_empty() {
                [Run::Staged(from, end), Run::Body(&[]), Run::Body(&[])]
            } else {
                [head, Run::Body(body), Run::Staged(BLOCK_SIZE, end)]
            }
        }

        /// Hashes the messages one after another.
        pub(super) fn single(&self, out: &mut [[u8; DIGEST_SIZE]]) {
            let mut staged = [0; STAGED];
            for (i, digest) in out.iter_mut().enumerate() {
                let runs = self.stage(i, &mut staged);
                let mut state = self.start;
                for run in runs {
                    compress_blocks_with(self.backend, &mut state, run.bytes(&staged));
                }
                *digest = digest_bytes(&state);
            }
        }

        /// Hashes the messages `W` at a time through `kernel`. Once no
        /// message waits and fewer than `W / 2` lanes are live, each
        /// remaining message finishes single-stream from its lane's
        /// mid-state.
        pub(super) fn lanes<const W: usize>(
            &self,
            kernel: Kernel<W>,
            out: &mut [[u8; DIGEST_SIZE]],
        ) {
            // Per lane: staged cells (declared before the table that points
            // into them), the message, its runs and the index after the current.
            let slots: [[Cell<u8>; STAGED]; W] =
                std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(0)));
            let mut table = Runs::idle();
            let mut scratch = [0; STAGED];
            let mut states = [[0u32; W]; 8];
            let mut msg = [0; W];
            let mut runs = [[Run::Body(&[]); 3]; W];
            let mut after = [3; W];
            let (mut live, mut next) = (0u32, 0);
            let mut ended = u32::MAX >> (32 - W);
            loop {
                while ended != 0 {
                    let l = ended.trailing_zeros() as usize;
                    ended &= ended - 1;
                    if let Some(k) = (after[l]..3).find(|&k| !matches!(runs[l][k], Run::Body([]))) {
                        match runs[l][k] {
                            Run::Body(body) => table.read(l, body),
                            Run::Staged(from, to) => table.read_staged(l, &slots[l][from..to]),
                        }
                        after[l] = k + 1;
                        continue;
                    }
                    if live & 1 << l != 0 {
                        out[msg[l]] = digest_bytes(&column(&states, l));
                        live &= !(1 << l);
                    }
                    if next == self.inputs.len() {
                        table.park(l);
                        continue;
                    }
                    // The lane's run has ended, so nothing reads its slot.
                    let message_runs = self.stage(next, &mut scratch);
                    for (cell, byte) in slots[l].iter().zip(scratch) {
                        cell.set(byte);
                    }
                    set_column(&mut states, l, &self.start);
                    (msg[l], runs[l], after[l]) = (next, message_runs, 0);
                    next += 1;
                    live |= 1 << l;
                    ended |= 1 << l;
                }
                if (live.count_ones() as usize) < W / 2 && next == self.inputs.len() {
                    for l in (0..W).filter(|&l| live & 1 << l != 0) {
                        let staged = std::array::from_fn(|i| slots[l][i].get());
                        let current = runs[l][after[l] - 1].bytes(&staged);
                        let mut state = column(&states, l);
                        let done = current.len() - table.left[l] * BLOCK_SIZE;
                        compress_blocks_with(self.backend, &mut state, &current[done..]);
                        for run in &runs[l][after[l]..] {
                            compress_blocks_with(self.backend, &mut state, run.bytes(&staged));
                        }
                        out[msg[l]] = digest_bytes(&state);
                    }
                    return;
                }
                ended = table.step(kernel, &mut states);
            }
        }
    }

    fn column<const W: usize>(states: &[[u32; W]; 8], lane: usize) -> [u32; 8] {
        std::array::from_fn(|i| states[i][lane])
    }

    fn set_column<const W: usize>(states: &mut [[u32; W]; 8], lane: usize, state: &[u32; 8]) {
        for (row, &word) in states.iter_mut().zip(state) {
            row[lane] = word;
        }
    }

    /// The four-lane [`Kernel`]: reads each lane's words big-endian and
    /// compresses them with SSE2 on x86_64, the portable lane arrays
    /// elsewhere.
    #[allow(unsafe_code)]
    pub(super) fn x4(states: &mut [[u32; 4]; 8], runs: &Runs<'_, 4>, nblocks: usize) {
        runs.check(nblocks);
        for b in 0..nblocks {
            let blocks: [[u8; BLOCK_SIZE]; 4] = std::array::from_fn(|l| {
                // SAFETY: `check` passed and `b < nblocks`: a live lane's
                // pointer borrows at least `nblocks` more whole blocks, and
                // an idle lane reads `ZERO_BLOCK` at stride 0.
                unsafe { runs.block(l, b).cast::<[u8; BLOCK_SIZE]>().read() }
            });
            let words: [[u32; 4]; 16] = std::array::from_fn(|t| {
                std::array::from_fn(|l| {
                    u32::from_be_bytes(blocks[l][t * 4..t * 4 + 4].try_into().expect("4 bytes"))
                })
            });
            #[cfg(target_arch = "x86_64")]
            sse2::compress4(states, &words);
            #[cfg(not(target_arch = "x86_64"))]
            portable::compress4(states, &words);
        }
    }

    /// Portable lane-array rounds: every round variable is a `[u32; 4]`, so
    /// the four dependency chains run interleaved and LLVM may vectorise the
    /// element-wise helpers. Kept compiled on every target so it cannot rot,
    /// used on non-x86_64 (x86_64 takes the explicit SSE2 path below —
    /// LLVM's cost model refuses to auto-vectorise the rotate-heavy rounds
    /// there because scalar x86 has single-op rotates).
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    mod portable {
        use super::super::K;

        type V = [u32; 4];

        #[inline(always)]
        fn add(a: V, b: V) -> V {
            std::array::from_fn(|l| a[l].wrapping_add(b[l]))
        }

        #[inline(always)]
        fn xor3(a: V, b: V, c: V) -> V {
            std::array::from_fn(|l| a[l] ^ b[l] ^ c[l])
        }

        #[inline(always)]
        fn rotr(a: V, n: u32) -> V {
            std::array::from_fn(|l| a[l].rotate_right(n))
        }

        #[inline(always)]
        fn shr(a: V, n: u32) -> V {
            std::array::from_fn(|l| a[l] >> n)
        }

        /// SHA-256 `Ch(e, f, g) = (e & f) ^ (!e & g)`, lane-wise.
        #[inline(always)]
        fn ch(e: V, f: V, g: V) -> V {
            std::array::from_fn(|l| (e[l] & f[l]) ^ (!e[l] & g[l]))
        }

        /// SHA-256 `Maj(a, b, c)`, lane-wise.
        #[inline(always)]
        fn maj(a: V, b: V, c: V) -> V {
            std::array::from_fn(|l| (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]))
        }

        /// Compresses one block of message words (`words[t][lane]`) into
        /// each lane's column of `states`.
        pub fn compress4(states: &mut [V; 8], words: &[V; 16]) {
            let mut w = [[0u32; 4]; 64];
            w[..16].copy_from_slice(words);
            for t in 16..64 {
                let s0 = xor3(rotr(w[t - 15], 7), rotr(w[t - 15], 18), shr(w[t - 15], 3));
                let s1 = xor3(rotr(w[t - 2], 17), rotr(w[t - 2], 19), shr(w[t - 2], 10));
                w[t] = add(add(w[t - 16], s0), add(w[t - 7], s1));
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *states;
            for t in 0..64 {
                let s1 = xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25));
                let temp1 = add(add(h, s1), add(ch(e, f, g), add([K[t]; 4], w[t])));
                let s0 = xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22));
                let temp2 = add(s0, maj(a, b, c));
                h = g;
                g = f;
                f = e;
                e = add(d, temp1);
                d = c;
                c = b;
                b = a;
                a = add(temp1, temp2);
            }
            for (row, v) in states.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *row = add(*row, v);
            }
        }
    }

    /// Explicit SSE2 rounds: one 128-bit register holds the same round
    /// variable for all four lanes, so every round costs roughly one lane's
    /// worth of vector ops. SSE2 is part of the x86_64 baseline, so this
    /// needs no runtime detection — it IS the scalar batch path on x86_64.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    mod sse2 {
        use core::arch::x86_64::*;

        use super::super::K;

        /// `rotr!(v, n)`: rotate each 32-bit lane right by the literal `n`
        /// (SSE2 has no vector rotate; shift-shift-or).
        macro_rules! rotr {
            ($v:expr, $n:literal) => {
                _mm_or_si128(_mm_srli_epi32($v, $n), _mm_slli_epi32($v, 32 - $n))
            };
        }

        macro_rules! add {
            ($a:expr, $b:expr) => {
                _mm_add_epi32($a, $b)
            };
        }

        macro_rules! xor3 {
            ($a:expr, $b:expr, $c:expr) => {
                _mm_xor_si128(_mm_xor_si128($a, $b), $c)
            };
        }

        /// Compresses one block of message words (`words[t][lane]`) into
        /// each lane's column of `states`.
        pub fn compress4(states: &mut [[u32; 4]; 8], words: &[[u32; 4]; 16]) {
            // SAFETY: SSE2 is unconditionally available on x86_64 (baseline
            // target feature); every load and store is one `[u32; 4]` row of
            // `states` or `words`, exactly one 128-bit register.
            unsafe {
                let mut w = [_mm_setzero_si128(); 64];
                for (wt, row) in w.iter_mut().zip(words) {
                    *wt = _mm_loadu_si128(row.as_ptr().cast());
                }
                for t in 16..64 {
                    let w15 = w[t - 15];
                    let w2 = w[t - 2];
                    let s0 = xor3!(rotr!(w15, 7), rotr!(w15, 18), _mm_srli_epi32(w15, 3));
                    let s1 = xor3!(rotr!(w2, 17), rotr!(w2, 19), _mm_srli_epi32(w2, 10));
                    w[t] = add!(add!(w[t - 16], s0), add!(w[t - 7], s1));
                }
                let mut init = [_mm_setzero_si128(); 8];
                for (v, row) in init.iter_mut().zip(states.iter()) {
                    *v = _mm_loadu_si128(row.as_ptr().cast());
                }
                let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = init;
                for (&k, &wt) in K.iter().zip(&w) {
                    let s1 = xor3!(rotr!(e, 6), rotr!(e, 11), rotr!(e, 25));
                    let ch = _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
                    let temp1 = add!(add!(h, s1), add!(ch, add!(_mm_set1_epi32(k as i32), wt)));
                    let s0 = xor3!(rotr!(a, 2), rotr!(a, 13), rotr!(a, 22));
                    let maj = xor3!(
                        _mm_and_si128(a, b),
                        _mm_and_si128(a, c),
                        _mm_and_si128(b, c)
                    );
                    let temp2 = add!(s0, maj);
                    h = g;
                    g = f;
                    f = e;
                    e = add!(d, temp1);
                    d = c;
                    c = b;
                    b = a;
                    a = add!(temp1, temp2);
                }
                let out = [a, b, c, d, e, f, g, h];
                for ((row, v), start) in states.iter_mut().zip(out).zip(init) {
                    _mm_storeu_si128(row.as_mut_ptr().cast(), add!(start, v));
                }
            }
        }
    }

    /// Sixteen lanes in AVX-512: one 512-bit register holds a round
    /// variable for sixteen messages. Rotates are single `vprord`s and each
    /// three-input logic step (`Σ` XORs, `Ch`, `Maj`) one `vpternlogd`, so a
    /// round costs about a scalar round's instruction count for sixteen
    /// messages. Each lane's block is one 512-bit load, byte-swapped and
    /// transposed in registers into sixteen word columns; the 64 rounds are
    /// unrolled, so every schedule index is a constant and the ring of
    /// sixteen words stays in registers.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    pub(super) mod avx512 {
        use core::arch::x86_64::*;

        use super::super::K;
        use super::Runs;

        /// Whether this CPU runs the kernel (cached by the standard
        /// library after the first call).
        pub(in super::super) fn detected() -> bool {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
        }

        /// The sixteen-lane [`super::Kernel`].
        ///
        /// # Panics
        ///
        /// Panics unless every lane holds `nblocks` more blocks, or without
        /// AVX-512F/BW.
        pub(in super::super) fn x16(
            states: &mut [[u32; 16]; 8],
            runs: &Runs<'_, 16>,
            nblocks: usize,
        ) {
            runs.check(nblocks);
            assert!(
                detected(),
                "the 16-lane kernel needs AVX-512F and AVX-512BW"
            );
            // SAFETY: both CPU features were detected just above, and
            // `check` passed: every lane holds the blocks the kernel reads.
            unsafe { compress(states, runs, nblocks) }
        }

        /// Round `t` (a constant), the variables renamed rather than moved
        /// (`d += T1`, `h = T1 + T2`). From round 16 it first schedules
        /// `W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16]` into the ring.
        macro_rules! round {
            ($w:ident, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident,
             $e:ident, $f:ident, $g:ident, $h:ident) => {
                if $t >= 16 {
                    let w15 = $w[($t + 1) % 16];
                    let w2 = $w[($t + 14) % 16];
                    let s0 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<7>(w15),
                        _mm512_ror_epi32::<18>(w15),
                        _mm512_srli_epi32::<3>(w15),
                    );
                    let s1 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<17>(w2),
                        _mm512_ror_epi32::<19>(w2),
                        _mm512_srli_epi32::<10>(w2),
                    );
                    $w[$t % 16] = _mm512_add_epi32(
                        _mm512_add_epi32($w[$t % 16], s0),
                        _mm512_add_epi32($w[($t + 9) % 16], s1),
                    );
                }
                let k = _mm512_set1_epi32(K[$t] as i32);
                // Ch(e, f, g) = e ? f : g (0xCA); Maj (0xE8); Σ is a 3-way XOR (0x96).
                let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
                let s1 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<6>($e),
                    _mm512_ror_epi32::<11>($e),
                    _mm512_ror_epi32::<25>($e),
                );
                let t1 = _mm512_add_epi32(
                    _mm512_add_epi32($h, s1),
                    _mm512_add_epi32(ch, _mm512_add_epi32(k, $w[$t % 16])),
                );
                let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
                let s0 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<2>($a),
                    _mm512_ror_epi32::<13>($a),
                    _mm512_ror_epi32::<22>($a),
                );
                $d = _mm512_add_epi32($d, t1);
                $h = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
            };
        }

        /// Rounds `t..t + 8`, after which the names are back in place.
        macro_rules! rounds8 {
            ($w:ident, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident,
             $e:ident, $f:ident, $g:ident, $h:ident) => {
                round!($w, $t, $a, $b, $c, $d, $e, $f, $g, $h);
                round!($w, $t + 1, $h, $a, $b, $c, $d, $e, $f, $g);
                round!($w, $t + 2, $g, $h, $a, $b, $c, $d, $e, $f);
                round!($w, $t + 3, $f, $g, $h, $a, $b, $c, $d, $e);
                round!($w, $t + 4, $e, $f, $g, $h, $a, $b, $c, $d);
                round!($w, $t + 5, $d, $e, $f, $g, $h, $a, $b, $c);
                round!($w, $t + 6, $c, $d, $e, $f, $g, $h, $a, $b);
                round!($w, $t + 7, $b, $c, $d, $e, $f, $g, $h, $a);
            };
        }

        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512BW, and every lane of
        /// `runs` must hold `nblocks` more blocks ([`Runs::check`]).
        #[target_feature(enable = "avx512f,avx512bw")]
        unsafe fn compress(states: &mut [[u32; 16]; 8], runs: &Runs<'_, 16>, nblocks: usize) {
            // Big-endian words: byte-reverse each 32-bit element.
            let bswap = _mm512_broadcast_i32x4(_mm_set_epi8(
                12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
            ));
            let mut state = [_mm512_setzero_si512(); 8];
            for (v, row) in state.iter_mut().zip(states.iter()) {
                // SAFETY: a row is sixteen `u32`s, one 512-bit register.
                *v = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
            }
            for blk in 0..nblocks {
                let mut w = [_mm512_setzero_si512(); 16];
                for (l, row) in w.iter_mut().enumerate() {
                    // SAFETY: `blk < nblocks`, which every lane holds (the
                    // caller's contract); an idle lane reads a zero block.
                    let block = unsafe { _mm512_loadu_si512(runs.block(l, blk).cast()) };
                    // Sixteen streams that restart every few KiB outrun the
                    // hardware prefetcher. A prefetch past the run never faults.
                    _mm_prefetch::<_MM_HINT_T0>(runs.block(l, blk + 2).cast());
                    *row = _mm512_shuffle_epi8(block, bswap);
                }
                transpose(&mut w);
                let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
                rounds8!(w, 0, a, b, c, d, e, f, g, h);
                rounds8!(w, 8, a, b, c, d, e, f, g, h);
                rounds8!(w, 16, a, b, c, d, e, f, g, h);
                rounds8!(w, 24, a, b, c, d, e, f, g, h);
                rounds8!(w, 32, a, b, c, d, e, f, g, h);
                rounds8!(w, 40, a, b, c, d, e, f, g, h);
                rounds8!(w, 48, a, b, c, d, e, f, g, h);
                rounds8!(w, 56, a, b, c, d, e, f, g, h);
                for (v, x) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                    *v = _mm512_add_epi32(*v, x);
                }
            }
            for (row, v) in states.iter_mut().zip(state) {
                // SAFETY: a row is sixteen `u32`s, one 512-bit register.
                unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };
            }
        }

        /// Turns sixteen rows (`w[l]` = lane `l`'s sixteen words) into
        /// sixteen columns (`w[t]` = word `t` of every lane): 32-bit
        /// unpacks pair the lanes, 64-bit unpacks make quads, and two
        /// rounds of 128-bit shuffles gather each word's four quads.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn transpose(w: &mut [__m512i; 16]) {
            let mut pairs = [_mm512_setzero_si512(); 16];
            for p in 0..8 {
                // Chunk q: words 4q, 4q+1 (lo) or 4q+2, 4q+3 (hi) of lanes 2p, 2p+1.
                pairs[2 * p] = _mm512_unpacklo_epi32(w[2 * p], w[2 * p + 1]);
                pairs[2 * p + 1] = _mm512_unpackhi_epi32(w[2 * p], w[2 * p + 1]);
            }
            // quads[4g + j], chunk q: word 4q + j of lanes 4g..4g+3.
            let mut quads = [_mm512_setzero_si512(); 16];
            for g in 0..4 {
                let (lo0, hi0, lo1, hi1) = (
                    pairs[4 * g],
                    pairs[4 * g + 1],
                    pairs[4 * g + 2],
                    pairs[4 * g + 3],
                );
                quads[4 * g] = _mm512_unpacklo_epi64(lo0, lo1);
                quads[4 * g + 1] = _mm512_unpackhi_epi64(lo0, lo1);
                quads[4 * g + 2] = _mm512_unpacklo_epi64(hi0, hi1);
                quads[4 * g + 3] = _mm512_unpackhi_epi64(hi0, hi1);
            }
            for j in 0..4 {
                // Chunks (quad, q): v02 = (0,0) (0,2) (1,0) (1,2),
                // v13 = (0,1) (0,3) (1,1) (1,3), and the same for quads 2, 3.
                let v02 = _mm512_shuffle_i32x4::<0x88>(quads[j], quads[4 + j]);
                let v13 = _mm512_shuffle_i32x4::<0xDD>(quads[j], quads[4 + j]);
                let x02 = _mm512_shuffle_i32x4::<0x88>(quads[8 + j], quads[12 + j]);
                let x13 = _mm512_shuffle_i32x4::<0xDD>(quads[8 + j], quads[12 + j]);
                w[j] = _mm512_shuffle_i32x4::<0x88>(v02, x02);
                w[8 + j] = _mm512_shuffle_i32x4::<0xDD>(v02, x02);
                w[4 + j] = _mm512_shuffle_i32x4::<0x88>(v13, x13);
                w[12 + j] = _mm512_shuffle_i32x4::<0xDD>(v13, x13);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVP test vectors, including the padding-boundary
    /// lengths (empty, 55, 56, 64 bytes) and a multi-block message, run
    /// against every available backend and through the incremental hasher.
    #[test]
    fn nist_test_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                // Empty message: padding-only single block.
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                // 55 bytes: the largest message whose padding fits one block.
                &[0xaau8; 55],
                "a8fb7c3a4d8ea13ca3cbe329d52274d3224c732d4e53e8c90c06bd3089248cf2",
            ),
            (
                // 56 bytes: the first length that forces a second pad block.
                &[0xaau8; 56],
                "d464bb04abbc80a2254cd4ad0f3356f1b70b5b6390085b193edcd291f065b01e",
            ),
            (
                // Exactly one full block: the tail is padding-only.
                &[0xaau8; 64],
                "693e5f0f347a5d70acbb7baaab9beb988301b3e9588e32c73d7dcdfb7b2c4604",
            ),
            (
                // Two-message-block NIST vector (112 bytes).
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                // Multi-block with a partial tail (3 blocks + 8 bytes).
                &[0x42u8; 200],
                "91870890f4d01121c77b099d1360c0287186a45e37f03a3c3fde4e08e1f565be",
            ),
        ];
        for (input, expected) in cases {
            for backend in Backend::available() {
                assert_eq!(
                    hex(&hash_with(backend, input)),
                    *expected,
                    "backend {} len {}",
                    backend.name(),
                    input.len()
                );
            }
            let mut h = Sha256::new();
            h.update(input);
            assert_eq!(
                hex(&h.finalize()),
                *expected,
                "incremental len {}",
                input.len()
            );
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot_at_block_boundaries() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), hash(&data), "split={split}");
        }
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        let a = b"hello ".as_slice();
        let b = b"convergent ".as_slice();
        let c = b"dispersal".as_slice();
        let concat: Vec<u8> = [a, b, c].concat();
        assert_eq!(hash_parts(&[a, b, c]), hash(&concat));
    }

    #[test]
    fn lengths_around_padding_edge_are_all_distinct() {
        // 55, 56, 57, 63, 64, 65 bytes exercise the two padding branches.
        let mut digests = Vec::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            digests.push(hash(&data));
        }
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j]);
            }
        }
    }

    #[test]
    fn backends_agree_on_padding_boundaries() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
            let scalar = hash_with(Backend::Scalar, &data);
            for backend in Backend::available() {
                assert_eq!(
                    hash_with(backend, &data),
                    scalar,
                    "backend {} len {len}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn hash_batch_matches_individual_hashes() {
        // Mixed lengths force lane refills mid-batch in the lane kernels.
        let msgs: Vec<Vec<u8>> = [0usize, 1, 55, 56, 64, 65, 200, 1000, 31, 64, 128, 5]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for count in 0..=refs.len() {
            let batch = hash_batch(&refs[..count]);
            assert_eq!(batch.len(), count);
            for (i, digest) in batch.iter().enumerate() {
                assert_eq!(*digest, hash(refs[i]), "count={count} msg={i}");
            }
            for kernel in BatchKernel::available() {
                let with = hash_batch_with(kernel, &[], &refs[..count]);
                assert_eq!(with, batch, "kernel {} count {count}", kernel.name());
            }
        }
    }

    /// A block count whose byte length overflows is refused before the
    /// kernel reads a block: unchecked, it would read far past the lane's
    /// one block.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "some lane holds fewer")]
    fn the_16_lane_kernel_refuses_a_block_count_whose_bytes_overflow() {
        let block = [0u8; BLOCK_SIZE];
        let mut runs = multilane::Runs::idle();
        runs.read(0, &block);
        multilane::avx512::x16(&mut [[0; 16]; 8], &runs, usize::MAX / 32);
    }

    #[test]
    #[should_panic(expected = "some lane holds fewer")]
    fn the_4_lane_kernel_refuses_more_blocks_than_a_run_holds() {
        let block = [0u8; BLOCK_SIZE];
        let mut runs = multilane::Runs::idle();
        runs.read(1, &block);
        multilane::x4(&mut [[0; 4]; 8], &runs, 2);
    }

    proptest! {
        #[test]
        fn incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                       splits in proptest::collection::vec(any::<usize>(), 0..5)) {
            let mut h = Sha256::new();
            let mut offset = 0usize;
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for cut in cuts {
                if cut > offset {
                    h.update(&data[offset..cut]);
                    offset = cut;
                }
            }
            h.update(&data[offset..]);
            prop_assert_eq!(h.finalize(), hash(&data));
        }

        #[test]
        fn different_inputs_give_different_digests(a in proptest::collection::vec(any::<u8>(), 0..128),
                                                   b in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assume!(a != b);
            prop_assert_ne!(hash(&a), hash(&b));
        }

        #[test]
        fn batch_of_arbitrary_messages_matches_one_shot(
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..12)
        ) {
            let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
            let batch = hash_batch(&refs);
            for (i, digest) in batch.iter().enumerate() {
                prop_assert_eq!(*digest, hash(refs[i]));
            }
        }
    }
}
