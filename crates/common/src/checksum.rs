//! CRC32 (IEEE 802.3 polynomial) used for page and log-block checksums.
//!
//! Implemented here rather than pulled in as a dependency to keep the
//! workspace's dependency footprint to the pre-approved set. Two paths
//! compute the same value:
//!
//! - on x86-64 with PCLMULQDQ and SSE4.1 (detected at run time), an input
//!   of at least [`clmul::MIN_LEN`] bytes is folded 64 bytes at a time with
//!   carry-less multiplies: about 0.4 µs per 8 KiB page on a 2 vCPU x86-64
//!   cloud VM;
//! - every shorter input, every other target and Miri use the slice-by-4
//!   table, the reference implementation: about 9 µs per 8 KiB page on the
//!   same VM.
//!
//! A remote page read checksums the full page three times (the page
//! server's image read, its reply seal, and the caller's check); on the
//! table path that is about half of a cache miss's CPU.

/// The CRC32 lookup tables (slice-by-4), built at first use.
struct Tables([[u32; 256]; 4]);

impl Tables {
    const fn build() -> Tables {
        let mut t = [[0u32; 256]; 4];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut j = 0;
            while j < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                j += 1;
            }
            t[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 4 {
            let mut i = 0;
            while i < 256 {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        Tables(t)
    }
}

static TABLES: Tables = Tables::build();

/// Compute the CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_with_seed(0, data)
}

/// Compute the CRC32 of `data`, chaining from a previous checksum.
///
/// `crc32_with_seed(crc32(a), b) == crc32(a ++ b)` does *not* hold for plain
/// concatenation with this API (the finalisation xor is applied each call);
/// use this only to checksum logically-separate regions with a distinguishing
/// seed, e.g. a page id, so identical bytes at different addresses produce
/// different checksums.
pub fn crc32_with_seed(seed: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= clmul::MIN_LEN && clmul::detected() {
        // SAFETY: `detected` has just confirmed that this CPU has every
        // feature `clmul::crc32` is compiled for.
        return unsafe { clmul::crc32(seed, data) };
    }
    table_crc32(seed, data)
}

/// The slice-by-4 table walk: the reference every other path must equal.
fn table_crc32(seed: u32, data: &[u8]) -> u32 {
    let t = &TABLES.0;
    let mut crc = !seed;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        crc ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[3][(crc & 0xFF) as usize]
            ^ t[2][((crc >> 8) & 0xFF) as usize]
            ^ t[1][((crc >> 16) & 0xFF) as usize]
            ^ t[0][((crc >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC32 by carry-less multiplication ("Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009), with the
/// bit-reflected IEEE constants that crc32fast, Chrome and Linux use.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: its first step loads four 16-byte
    /// lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// x^(4·128+32) mod P and x^(4·128−32) mod P: fold a lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128−32) mod P: fold 128 bits on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: reduce 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant ⌊x^64 / P(x)⌋, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The CRC32 of `data` chained from `seed`, as `table_crc32` computes it.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 (see [`detected`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(seed: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((first, blocks)) = blocks.split_first_chunk::<4>() else {
            return super::table_crc32(seed, data);
        };
        let mut x = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!seed as i32));

        // Four independent lanes, each folded 512 bits on per step, keep the
        // multiplier busy while each lane's previous fold completes.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = blocks.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in x.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        for block in singles {
            acc = fold(acc, load(block), k3k4);
        }

        // 128 bits to 64: (lo64 · K4) ^ hi64, then (lo32 · K5) ^ the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction, 64 bits to 32; reflected, so the CRC is the
        // upper half of the low 64 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;

        // The last 0–15 bytes go through the table, continuing from `crc`.
        super::table_crc32(!crc, tail)
    }

    /// `acc` carried 128 (or 512) bits on by `keys`, xored into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// 16 little-endian bytes as one lane: one unaligned load, no pointer cast.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn seed_distinguishes_location() {
        let payload = vec![0xAB; 512];
        let a = crc32_with_seed(1, &payload);
        let b = crc32_with_seed(2, &payload);
        assert_ne!(a, b);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 8192];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let good = crc32(&data);
        for bit in [0usize, 1, 7, 8 * 4096 + 3, 8 * 8191 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), good, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), good);
    }

    #[test]
    fn unaligned_tails_match_bytewise() {
        // The slice-by-4 fast path and the byte tail must agree for every
        // length mod 4.
        let data: Vec<u8> = (0..=255u8).cycle().take(1027).collect();
        for len in [0, 1, 2, 3, 4, 5, 1023, 1024, 1025, 1026, 1027] {
            let fast = crc32(&data[..len]);
            // Reference: bit-by-bit implementation.
            let mut crc = !0u32;
            for &b in &data[..len] {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            assert_eq!(fast, !crc, "mismatch at len {len}");
        }
    }

    fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    /// Every length across the kernel's thresholds (64 B to start, 64 B per
    /// four-lane step, 16 B per single fold, a 0–15 B table tail) at every
    /// start offset within a 16-byte block, so no load is aligned by luck.
    #[test]
    fn dispatch_equals_the_table_on_every_short_length_and_offset() {
        let mut rng = Rng::new(43);
        let data = random_bytes(&mut rng, 300 + 16);
        let lens = if cfg!(miri) { 0..=80 } else { 0..=300 };
        for offset in 0..16 {
            for len in lens.clone() {
                let slice = &data[offset..offset + len];
                let seed = rng.next_u64() as u32;
                assert_eq!(
                    crc32_with_seed(seed, slice),
                    table_crc32(seed, slice),
                    "len {len} offset {offset} seed {seed:#x}"
                );
                assert_eq!(crc32(slice), table_crc32(0, slice), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn dispatch_equals_the_table_on_random_long_inputs_and_seeds() {
        let mut rng = Rng::new(8192);
        let (rounds, max) = if cfg!(miri) { (4, 2_000) } else { (200, 70_000) };
        for _ in 0..rounds {
            let len = rng.gen_range(max + 1) as usize;
            let offset = rng.gen_range(16) as usize;
            let data = random_bytes(&mut rng, offset + len);
            let seed = rng.next_u64() as u32;
            let slice = &data[offset..];
            assert_eq!(
                crc32_with_seed(seed, slice),
                table_crc32(seed, slice),
                "len {len} offset {offset} seed {seed:#x}"
            );
        }
        // The extreme seeds, over a page-sized input.
        let page = random_bytes(&mut rng, 8192);
        for seed in [0, 1, u32::MAX, 0x8000_0000] {
            assert_eq!(crc32_with_seed(seed, &page), table_crc32(seed, &page), "seed {seed:#x}");
        }
    }
}
