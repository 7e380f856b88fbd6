//! GF(2⁸) arithmetic for the firmware shadow-RAID Q syndrome.
//!
//! The device-level RAID model in [`crate::mem`] keeps host-side P/Q
//! syndromes over the striped NVM pages (see `RaidState`). Q is the
//! conventional RAID-6 syndrome Σ 2ˢ·dₛ over this field; the two-erasure
//! solve that uses it is `Memory::reconstruct_line`.

/// The conventional RAID-6 field polynomial x⁸ + x⁴ + x³ + x² + 1.
const POLY: u16 = 0x11d;

/// GF(2⁸) multiply (carry-less multiply with reduction by the field
/// polynomial 0x11d).
#[inline]
pub const fn mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    acc as u8
}

/// GF(2⁸) exponentiation of the generator g = 2 (the per-slot Q weight).
#[inline]
pub const fn pow2(mut e: u32) -> u8 {
    let mut acc: u8 = 1;
    let mut base: u8 = 2;
    while e != 0 {
        if e & 1 != 0 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    acc
}

/// GF(2⁸) multiplicative inverse (a^254).
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
pub const fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse");
    let mut acc: u8 = 1;
    let mut base = a;
    let mut e = 254u32;
    while e != 0 {
        if e & 1 != 0 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    acc
}

/// A 256-entry multiply row for a fixed coefficient: `row[b] = mul(c, b)`.
/// The shadow-Q delta path multiplies 64-byte lines by a per-slot weight on
/// every striped write, so a table lookup replaces the bit loop there.
pub fn mul_row(c: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    for (b, out) in row.iter_mut().enumerate() {
        *out = mul(c, b as u8);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_basics() {
        assert_eq!(mul(0x80, 2), 0x1d); // overflow reduces by 0x11d
        for a in [1u8, 2, 7, 0x53, 0xff] {
            assert_eq!(mul(a, 1), a);
            for b in [1u8, 3, 0x8e, 0xca] {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn generator_powers_distinct() {
        let mut seen = std::collections::HashSet::new();
        for e in 0..255 {
            assert!(seen.insert(pow2(e)), "g^{e} repeats");
        }
    }

    #[test]
    fn mul_row_matches_mul() {
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
            let row = mul_row(c);
            for b in 0..=255u8 {
                assert_eq!(row[b as usize], mul(c, b));
            }
        }
    }
}
