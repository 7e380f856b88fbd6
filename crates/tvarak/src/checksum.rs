//! System-checksum primitives: CRC32C (Castagnoli) and the paper's
//! *DAX-CL-checksum* packing (one 4-byte checksum per 64 B cache line,
//! sixteen checksums packed per checksum cache line).
//!
//! The paper stores per-page system-checksums for all data and cache-line
//! granular checksums ("DAX-CL-checksums") only while data is DAX-mapped
//! (§III-C); both use the same checksum function here. The CRC kernel
//! itself (slice-by-8 tables plus the runtime-dispatched hardware `crc32`
//! path) lives in [`memsim::crc`]; this module adds the standard iSCSI
//! convention (all-ones init, final inversion) and the packing helpers.
//! The byte-at-a-time reference below is kept *independent* of that kernel
//! — it derives its own table — so it stays an honest equivalence oracle.

use memsim::addr::{CACHE_LINE, PAGE};
use memsim::crc;

/// CRC32C (Castagnoli) polynomial, reflected form.
const POLY: u32 = 0x82f6_3b78;

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

static TABLE: [u32; 256] = make_table();

/// CRC32C over `data` (initial value all-ones, final inversion — the
/// standard Castagnoli convention used by iSCSI and storage systems).
///
/// Dispatches through [`memsim::crc`]: the hardware `crc32` instruction
/// where the host has one, slice-by-8 otherwise — which is what makes
/// per-line verification cheap enough to run on every simulated NVM fill.
/// Bit-identical to [`crc32c_bytewise`] either way (the tests enforce
/// this).
///
/// ```
/// // Known-answer test vector (RFC 3720 / iSCSI): CRC32C("123456789").
/// assert_eq!(tvarak::checksum::crc32c(b"123456789"), 0xe306_9283);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// The reference byte-at-a-time CRC32C. Kept as the equivalence oracle for
/// the slice-by-8 and hardware kernels in [`memsim::crc`].
pub fn crc32c_bytewise(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Incremental CRC32C: `update` may be called repeatedly over a split input
/// and yields the same digest as one [`crc32c`] call over the concatenation.
/// The controller's page-granular (naive-ablation) paths stream sixteen
/// cache lines through one hasher instead of materializing a 4 KB buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

impl Crc32c {
    /// A fresh hasher (all-ones initial state).
    #[inline]
    pub fn new() -> Self {
        Crc32c { state: u32::MAX }
    }

    /// Fold `data` into the running CRC (hardware path where available).
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc::update(self.state, data);
    }

    /// Final inversion; consumes the hasher.
    #[inline]
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// Checksum of one cache line (a DAX-CL-checksum value).
#[inline]
pub fn line_checksum(data: &[u8; CACHE_LINE]) -> u32 {
    crc32c(data)
}

/// Checksum of one 4 KB page (a per-page system-checksum value).
///
/// # Panics
///
/// Panics if `page` is not exactly 4096 bytes.
pub fn page_checksum(page: &[u8]) -> u32 {
    assert_eq!(page.len(), PAGE, "page checksum requires a full 4KB page");
    crc32c(page)
}

/// Number of 4-byte checksums packed into one 64 B checksum cache line.
pub const CSUMS_PER_LINE: usize = CACHE_LINE / 4;

/// Read checksum slot `slot` out of a packed checksum cache line.
///
/// # Panics
///
/// Panics if `slot >= CSUMS_PER_LINE`.
#[inline]
pub fn csum_slot(line: &[u8; CACHE_LINE], slot: usize) -> u32 {
    assert!(slot < CSUMS_PER_LINE, "checksum slot {slot} out of line");
    let off = slot * 4;
    u32::from_le_bytes([line[off], line[off + 1], line[off + 2], line[off + 3]])
}

/// Write checksum slot `slot` into a packed checksum cache line.
///
/// # Panics
///
/// Panics if `slot >= CSUMS_PER_LINE`.
#[inline]
pub fn set_csum_slot(line: &mut [u8; CACHE_LINE], slot: usize, value: u32) {
    assert!(slot < CSUMS_PER_LINE, "checksum slot {slot} out of line");
    let off = slot * 4;
    line[off..off + 4].copy_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // Standard CRC32C test vectors — both implementations.
        for f in [crc32c, crc32c_bytewise] {
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"123456789"), 0xe306_9283);
            assert_eq!(f(&[0u8; 32]), 0x8a91_36aa);
            assert_eq!(f(&[0xffu8; 32]), 0x62a8_ab43);
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_random_buffers() {
        // Seeded sweep: every length 0..256 from unaligned offsets, so the
        // chunks_exact(8) head/tail handling is fully exercised.
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
                    crc32c(s),
                    crc32c_bytewise(s),
                    "len {len} offset {off} diverges"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        // Split at awkward boundaries, including line-by-line (the
        // controller's page-streaming pattern).
        for splits in [
            vec![0usize],
            vec![1, 7, 9],
            (0..64).map(|i| i * 64).collect(),
        ] {
            let mut h = Crc32c::new();
            let mut prev = 0usize;
            for s in splits.into_iter().chain([data.len()]) {
                h.update(&data[prev..s]);
                prev = s;
            }
            assert_eq!(h.finalize(), crc32c(&data));
        }
    }

    #[test]
    fn line_checksum_sensitive_to_every_byte() {
        let base = [0u8; CACHE_LINE];
        let c0 = line_checksum(&base);
        for i in 0..CACHE_LINE {
            let mut flipped = base;
            flipped[i] ^= 1;
            assert_ne!(line_checksum(&flipped), c0, "byte {i} flip undetected");
        }
    }

    #[test]
    fn page_checksum_differs_from_line() {
        let page = vec![7u8; PAGE];
        let line = [7u8; CACHE_LINE];
        // Not a strong property, but catches accidental length confusion.
        assert_ne!(page_checksum(&page), line_checksum(&line));
    }

    #[test]
    #[should_panic(expected = "full 4KB page")]
    fn page_checksum_rejects_short_input() {
        page_checksum(&[0u8; 100]);
    }

    #[test]
    fn slot_roundtrip_all_slots() {
        let mut line = [0u8; CACHE_LINE];
        for slot in 0..CSUMS_PER_LINE {
            set_csum_slot(&mut line, slot, 0xdead_0000 + slot as u32);
        }
        for slot in 0..CSUMS_PER_LINE {
            assert_eq!(csum_slot(&line, slot), 0xdead_0000 + slot as u32);
        }
    }

    #[test]
    fn slots_do_not_overlap() {
        let mut line = [0u8; CACHE_LINE];
        set_csum_slot(&mut line, 3, u32::MAX);
        assert_eq!(csum_slot(&line, 2), 0);
        assert_eq!(csum_slot(&line, 4), 0);
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn slot_out_of_range_panics() {
        csum_slot(&[0u8; CACHE_LINE], CSUMS_PER_LINE);
    }
}
