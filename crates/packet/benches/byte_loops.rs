//! Scalar vs vectorized inner byte loops, at the three frame sizes
//! that matter: a minimum Ethernet frame (64 B), a full MTU frame
//! (1500 B), and a jumbo/GRO superframe (9000 B).
//!
//! * `checksum/scalar` — the two-bytes-per-iteration RFC 1071 walk
//!   ([`sum_words_scalar`]), the auditable reference.
//! * `checksum/folded` — the shipping path ([`sum_words`]): 8 bytes
//!   per iteration into a u64 with end-around carry, SSE2/NEON where
//!   the host has them.
//! * `digest/scalar` — byte-at-a-time [`mix64_scalar`], the spec for
//!   the payload digest that replaced FNV-1a.
//! * `digest/chunked` — the shipping [`mix64`] (four lanes of 8-byte
//!   words, one 32-byte block per iteration).
//!
//! The acceptance bar is folded/chunked ≥ 2× scalar at 1500 B.
//! Throughput is reported in bytes so the gap reads directly as GB/s.
//!
//! [`sum_words`]: falcon_packet::checksum::sum_words
//! [`sum_words_scalar`]: falcon_packet::checksum::sum_words_scalar
//! [`mix64`]: falcon_packet::mix64
//! [`mix64_scalar`]: falcon_packet::mix64_scalar

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use falcon_packet::checksum::{fold, sum_words, sum_words_scalar};
use falcon_packet::{mix64, mix64_scalar};

const SIZES: [usize; 3] = [64, 1500, 9000];
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn frame(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(167)).collect()
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    for len in SIZES {
        let data = frame(len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(&format!("scalar/{len}B"), |b| {
            b.iter(|| fold(sum_words_scalar(black_box(&data), 0)))
        });
        g.bench_function(&format!("folded/{len}B"), |b| {
            b.iter(|| fold(sum_words(black_box(&data), 0)))
        });
    }
    g.finish();
}

fn bench_digest(c: &mut Criterion) {
    let mut g = c.benchmark_group("digest");
    for len in SIZES {
        let data = frame(len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(&format!("scalar/{len}B"), |b| {
            b.iter(|| mix64_scalar(black_box(DIGEST_SEED), black_box(&data)))
        });
        g.bench_function(&format!("chunked/{len}B"), |b| {
            b.iter(|| mix64(black_box(DIGEST_SEED), black_box(&data)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_checksum, bench_digest);
criterion_main!(benches);
