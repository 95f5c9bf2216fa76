//! Criterion micro-benchmarks of the substrates: GF(2^8) region operations,
//! Reed-Solomon coding, the cryptographic primitives, and chunking. These
//! back the encoding-speed figures: §5.3 argues that Reed-Solomon coding is
//! cheap relative to the AONT's cryptographic operations, which these
//! benchmarks let us verify directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const BUF_SIZE: usize = 1 << 20;

fn bench_gf_region_ops(c: &mut Criterion) {
    let src: Vec<u8> = (0..BUF_SIZE).map(|i| (i * 31 % 256) as u8).collect();
    let mut dst = vec![0u8; BUF_SIZE];
    let mut group = c.benchmark_group("gf_region");
    group.throughput(Throughput::Bytes(BUF_SIZE as u64));
    group.bench_function("xor_into", |b| {
        b.iter(|| cdstore_gf::region::xor_into(&mut dst, &src))
    });
    group.bench_function("mul_acc", |b| {
        b.iter(|| cdstore_gf::region::mul_acc(&mut dst, &src, 0x57))
    });
    group.finish();
}

fn bench_reed_solomon(c: &mut Criterion) {
    let data: Vec<u8> = (0..BUF_SIZE).map(|i| (i * 7 % 256) as u8).collect();
    let mut group = c.benchmark_group("reed_solomon");
    group.throughput(Throughput::Bytes(BUF_SIZE as u64));
    for &(n, k) in &[(4usize, 3usize), (8, 6), (16, 12)] {
        let rs = cdstore_erasure::ReedSolomon::new(n, k).unwrap();
        group.bench_with_input(
            BenchmarkId::new("encode", format!("n{n}_k{k}")),
            &rs,
            |b, rs| b.iter(|| rs.encode_data(&data).unwrap()),
        );
    }
    let rs = cdstore_erasure::ReedSolomon::new(4, 3).unwrap();
    let shards = rs.encode_data(&data).unwrap();
    let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    received[0] = None;
    group.bench_function("decode_one_erasure_n4_k3", |b| {
        b.iter(|| rs.reconstruct_data(&received, data.len()).unwrap())
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let data: Vec<u8> = (0..BUF_SIZE).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("crypto");
    group.throughput(Throughput::Bytes(BUF_SIZE as u64));
    group.bench_function("sha256", |b| b.iter(|| cdstore_crypto::sha256::hash(&data)));
    let key = [7u8; 32];
    group.bench_function("aes256_ctr", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            cdstore_crypto::ctr::Aes256Ctr::new(&key, 0).apply_keystream(&mut buf, 0);
            buf
        })
    });
    group.bench_function("caont_generator_mask", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            cdstore_crypto::ctr::apply_generator_mask(&key, &mut buf);
            buf
        })
    });
    group.finish();
}

fn bench_chunking(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let data: Vec<u8> = (0..(4 << 20)).map(|_| rng.gen()).collect();
    let mut group = c.benchmark_group("chunking");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(20);
    group.bench_function("rabin_8k", |b| {
        let chunker = cdstore_chunking::RabinChunker::default();
        b.iter(|| cdstore_chunking::Chunker::chunk(&chunker, &data))
    });
    group.bench_function("fixed_4k", |b| {
        let chunker = cdstore_chunking::FixedChunker::new(4096);
        b.iter(|| cdstore_chunking::Chunker::chunk(&chunker, &data))
    });
    group.finish();
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(30);
    targets = bench_gf_region_ops, bench_reed_solomon, bench_crypto, bench_chunking
);
criterion_main!(substrates);
