//! CRC32C (Castagnoli) kernel: slice-by-8 tables with a runtime-dispatched
//! hardware path.
//!
//! This module hosts the raw *state-update* kernel — no initial all-ones
//! seeding, no final inversion — so it composes under any convention. The
//! `tvarak` crate's `checksum` module wraps it with the standard iSCSI
//! convention and the packing helpers; it lives down here so anything in the
//! simulator stack (page digests, line verification, benches) shares one
//! implementation.
//!
//! On x86_64 with SSE 4.2 the kernel uses the `crc32` instruction
//! (`_mm_crc32_u64`, three cycles throughput per 8 bytes); on aarch64 with
//! the CRC extension it uses `__crc32cd`. Both compute the identical
//! reflected-Castagnoli function as the portable slice-by-8 code — the
//! equivalence test below proves it on whatever machine runs the suite —
//! so hardware dispatch can never change a simulated checksum, only
//! wall-clock time. Feature detection happens once per call via `std`'s
//! cached CPU-feature atomics; the portable path is the fallback everywhere
//! else.

/// CRC32C (Castagnoli) polynomial, reflected form.
pub const POLY: u32 = 0x82f6_3b78;

/// 8-bit table for table-driven CRC32C.
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 lookup tables. `TABLES[0]` is the plain 8-bit table; entry
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups advance the CRC by eight input bytes at once.
/// Derived at compile time from the same generator as [`make_table`].
const fn make_tables() -> [[u32; 256]; 8] {
    let t0 = make_table();
    let mut t = [[0u32; 256]; 8];
    t[0] = t0;
    let mut i = 0;
    while i < 256 {
        let mut crc = t0[i];
        let mut k = 1;
        while k < 8 {
            crc = (crc >> 8) ^ t0[(crc & 0xff) as usize];
            t[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Whether this machine offers a hardware CRC32C unit the kernel will use
/// (SSE 4.2 on x86_64, the CRC extension on aarch64). Reported in the
/// benchmark's `info` line (`hw_crc32c`) so checksum timings are
/// interpretable.
pub fn hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("crc")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Advance `crc` over `data` with the portable slice-by-8 kernel: what
/// [`update`] falls back to without a hardware unit, and the path the unit
/// tests pin regardless of the host.
fn update_sw(crc: u32, data: &[u8]) -> u32 {
    let mut crc = crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Advance `crc` over `data` with the x86 `crc32` instruction.
///
/// # Safety
///
/// Caller must ensure SSE 4.2 is available (see [`hw_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[allow(unsafe_code)]
unsafe fn update_x86(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = crc as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        crc = _mm_crc32_u64(crc, w);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Advance `crc` over `data` with the aarch64 CRC extension.
///
/// # Safety
///
/// Caller must ensure the `crc` target feature is available.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "crc")]
#[allow(unsafe_code)]
unsafe fn update_aarch64(crc: u32, data: &[u8]) -> u32 {
    use std::arch::aarch64::{__crc32cb, __crc32cd};
    let mut crc = crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        crc = __crc32cd(crc, w);
    }
    for &b in chunks.remainder() {
        crc = __crc32cb(crc, b);
    }
    crc
}

/// Advance `crc` over `data`: hardware CRC32C where the host has it, the
/// slice-by-8 kernel otherwise. Bit-identical either way.
#[inline]
#[allow(unsafe_code)]
pub fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature presence just checked.
            return unsafe { update_x86(crc, data) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("crc") {
            // SAFETY: feature presence just checked.
            return unsafe { update_aarch64(crc, data) };
        }
    }
    update_sw(crc, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shot(f: fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        !f(u32::MAX, data)
    }

    #[test]
    fn slice_by_8_known_vectors() {
        assert_eq!(one_shot(update_sw, b""), 0);
        assert_eq!(one_shot(update_sw, b"123456789"), 0xe306_9283);
        assert_eq!(one_shot(update_sw, &[0u8; 32]), 0x8a91_36aa);
        assert_eq!(one_shot(update_sw, &[0xffu8; 32]), 0x62a8_ab43);
    }

    #[test]
    fn dispatched_kernel_matches_software_exactly() {
        // Seeded sweep over every length 0..=256 from every 8-byte phase:
        // whatever `update` dispatches to on this host must agree with the
        // portable kernel on heads, bodies, and tails.
        let mut state = 0x74ac_5e1d_0f00_d1e5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..256 + 7).map(|_| next() as u8).collect();
        for len in 0..=256usize {
            for off in 0..8usize {
                let s = &buf[off..off + len];
                assert_eq!(
                    update(0x1234_5678, s),
                    update_sw(0x1234_5678, s),
                    "len {len} offset {off} diverges"
                );
            }
        }
    }

    #[test]
    fn update_composes_across_splits() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = update(u32::MAX, &data);
        for split in [0usize, 1, 7, 64, 1000, 1024] {
            let part = update(update(u32::MAX, &data[..split]), &data[split..]);
            assert_eq!(part, whole, "split at {split}");
        }
    }
}
