//! A four-lane mixing hash for the wire hot path.
//!
//! Replaces byte-at-a-time FNV-1a in the two places the dataplane
//! hashes payload-sized byte runs per packet: the delivery digest and
//! the flow-verdict cache key. The walk consumes one 32-byte block per
//! iteration as four 64-bit words, each fed to its own lane
//! (multiply-xorshift mix per word). The four lanes are independent
//! multiply chains, so the core overlaps them instead of waiting out
//! one multiply latency per 8 bytes as a single chain does. Every lane
//! is seeded from the seed and the length, so zero-padding the tail
//! cannot alias a longer input. The lanes and the ≤ 31-byte tail then
//! fold through the same per-word mix into one value, which a strong
//! final avalanche finishes. A single-bit flip changes exactly one
//! word of one lane, and every step after it is a bijection, so it
//! always changes the hash: the property the corruption oracles rely
//! on.
//!
//! [`mix64_scalar`] assembles each word byte-by-byte and must produce
//! *identical* output — it is the differential reference the property
//! tests pin the block walk against.

/// Multiplier for the per-word mix (the 64-bit golden-ratio constant).
const M: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier for the final avalanche (from splitmix64).
const A: u64 = 0xD6E8_FEB8_6659_FD93;
/// Bytes per block: one 8-byte word for each of the four lanes.
const BLOCK: usize = 32;
/// Per-lane seed offsets, so four equal words in one block do not leave
/// four equal lanes.
const LANE_SEEDS: [u64; 4] = [
    0,
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
];

#[inline]
fn mix_lane(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(M);
    h ^ (h >> 29)
}

#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 32;
    h = h.wrapping_mul(A);
    h ^ (h >> 32)
}

/// The four lanes' starting states for `len` bytes under `seed`.
#[inline]
fn seed_lanes(seed: u64, len: usize) -> [u64; 4] {
    let h = seed ^ (len as u64).wrapping_mul(M);
    LANE_SEEDS.map(|s| h ^ s)
}

/// Folds the four lanes into one, then the tail's words (the last one
/// zero-padded), then avalanches. `word(i)` is the tail's `i`-th
/// little-endian word, so both walks share this step.
#[inline]
fn finish(lanes: [u64; 4], tail_len: usize, word: impl Fn(usize) -> u64) -> u64 {
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = mix_lane(h, lane);
    }
    for i in 0..tail_len.div_ceil(8) {
        h = mix_lane(h, word(i));
    }
    avalanche(h)
}

/// Hashes `data` one 32-byte block (four independent lanes) per
/// iteration, seeded with `seed`.
pub fn mix64(seed: u64, data: &[u8]) -> u64 {
    let mut lanes = seed_lanes(seed, data.len());
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let v = u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8-byte word"));
            *lane = mix_lane(*lane, v);
        }
    }
    let tail = blocks.remainder();
    finish(lanes, tail.len(), |i| {
        let mut word = [0u8; 8];
        let bytes = &tail[8 * i..tail.len().min(8 * i + 8)];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    })
}

/// Multiply-and-fold: the full 128-bit product of `a` and `b`, its two
/// halves xored together. One multiply mixes every input bit into the
/// middle bits of the product, and the fold brings them down to both
/// ends, so the low bits (a table index) and the high bits (a control
/// tag) are both usable. The key hash of the bridge FDB and the
/// flow-steering table: a fixed-width integer key needs no SipHash.
#[inline]
pub fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Byte-at-a-time reference implementation of [`mix64`]: assembles the
/// same little-endian words one byte at a time and deals them to the
/// same lanes. Output is identical by construction; the proptests
/// assert it stays that way.
pub fn mix64_scalar(seed: u64, data: &[u8]) -> u64 {
    let word_at = |start: usize| {
        let mut v = 0u64;
        for (shift, &b) in data[start..(start + 8).min(data.len())].iter().enumerate() {
            v |= (b as u64) << (8 * shift);
        }
        v
    };
    let mut lanes = seed_lanes(seed, data.len());
    let body = data.len() - data.len() % BLOCK;
    for block in (0..body).step_by(BLOCK) {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = mix_lane(*lane, word_at(block + 8 * k));
        }
    }
    finish(lanes, data.len() - body, |i| word_at(body + 8 * i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_mul_spreads_consecutive_keys_over_low_bits() {
        // Consecutive keys (flow ids, MAC indices) must not cluster in
        // a power-of-two table: 4096 keys into 4096 slots by the low
        // bits should fill well over half of them, as a random hash
        // would (1 - 1/e of the slots).
        let mut used = vec![false; 4096];
        for k in 0..4096u64 {
            used[(fold_mul(k ^ 0x2545_F491_4F6C_DD1D, M) & 4095) as usize] = true;
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > 2400, "only {filled}/4096 slots used");
    }

    #[test]
    fn chunked_equals_scalar_reference() {
        let mut data = vec![0u8; 4096 + BLOCK];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(73).wrapping_add(5);
        }
        // Every alignment within a block, across the block and word
        // boundaries and the tail lengths they leave.
        for start in 0..BLOCK {
            for len in [
                0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1499, 1500, 2048, 4096,
            ] {
                let slice = &data[start..start + len];
                for seed in [0u64, 0xDEAD_BEEF, u64::MAX] {
                    assert_eq!(
                        mix64(seed, slice),
                        mix64_scalar(seed, slice),
                        "start={start} len={len} seed={seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn length_is_part_of_the_hash() {
        // The tail is zero-padded, so the length seed is what keeps a
        // trailing zero byte from aliasing the shorter input.
        assert_ne!(mix64(0, b""), mix64(0, b"\0"));
        assert_ne!(mix64(0, b"abc"), mix64(0, b"abc\0"));
        assert_ne!(mix64(0, &[0u8; 8]), mix64(0, &[0u8; 16]));
    }

    #[test]
    fn single_bit_flips_change_the_hash() {
        let base: Vec<u8> = (0..256u32).map(|i| (i * 31 + 7) as u8).collect();
        let h0 = mix64(7, &base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(h0, mix64(7, &flipped), "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn seed_separates_streams() {
        assert_ne!(mix64(1, b"payload"), mix64(2, b"payload"));
    }
}
