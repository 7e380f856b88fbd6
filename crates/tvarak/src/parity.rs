//! Cross-DIMM parity: RAID-5-style page striping over the NVM DIMMs (Fig. 3).
//!
//! With `d` DIMMs, NVM pages are grouped into *stripes* of `d` consecutive
//! region-relative page indices. Because pages are interleaved page-granularly
//! across DIMMs (page `i` lives on DIMM `i % d`), the pages of a stripe sit
//! on `d` distinct DIMMs. One page per stripe holds parity; the parity slot
//! rotates per stripe (`stripe % d`) so parity writes spread over DIMMs.
//!
//! Parity is maintained at cache-line granularity: the parity line at offset
//! `o` of the parity page is the XOR of the lines at offset `o` of the
//! stripe's data pages. A data-line update applies the delta
//! `parity ^= old_data ^ new_data`, which is why TVARAK wants the old data
//! (the *data diff*) at writeback time.

use memsim::addr::CACHE_LINE;
use memsim::fastdiv::FastDiv;

/// Stripe geometry over `dimms` NVM DIMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeGeometry {
    dimms: usize,
    /// Precomputed divider for `dimms`; stripe/slot math runs per access.
    div: FastDiv,
}

impl StripeGeometry {
    /// Create geometry for `dimms` DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if `dimms < 2` (parity needs at least one data + one parity
    /// device).
    pub fn new(dimms: usize) -> Self {
        assert!(dimms >= 2, "parity striping needs at least 2 DIMMs");
        StripeGeometry {
            dimms,
            div: FastDiv::new(dimms as u64),
        }
    }

    /// Number of DIMMs.
    pub fn dimms(&self) -> usize {
        self.dimms
    }

    /// Data pages per stripe (one page of each stripe is parity).
    pub fn data_pages_per_stripe(&self) -> usize {
        self.dimms - 1
    }

    /// Stripe index containing region-relative NVM page `idx`.
    #[inline]
    pub fn stripe_of(&self, idx: u64) -> u64 {
        self.div.quotient(idx)
    }

    /// Slot of page `idx` within its stripe (`0..dimms`); equals its DIMM.
    #[inline]
    pub fn slot_of(&self, idx: u64) -> usize {
        self.div.remainder(idx) as usize
    }

    /// The slot holding parity in `stripe` (rotates).
    #[inline]
    pub fn parity_slot(&self, stripe: u64) -> usize {
        self.div.remainder(stripe) as usize
    }

    /// Whether region-relative page `idx` is a parity page.
    #[inline]
    pub fn is_parity_page(&self, idx: u64) -> bool {
        self.slot_of(idx) == self.parity_slot(self.stripe_of(idx))
    }

    /// The parity page of the stripe containing page `idx` (which may be
    /// `idx` itself if it is the parity page).
    #[inline]
    pub fn parity_page_of(&self, idx: u64) -> u64 {
        let stripe = self.stripe_of(idx);
        stripe * self.dimms as u64 + self.parity_slot(stripe) as u64
    }

    /// The data pages of `stripe`, in slot order.
    pub fn data_pages_of_stripe(&self, stripe: u64) -> impl Iterator<Item = u64> {
        let base = stripe * self.dimms as u64;
        let parity = base + self.parity_slot(stripe) as u64;
        (base..base + self.dimms as u64).filter(move |&p| p != parity)
    }

    /// The sibling data pages of data page `idx` (the other data pages in
    /// its stripe), in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is a parity page.
    pub fn siblings_of(&self, idx: u64) -> impl Iterator<Item = u64> {
        assert!(!self.is_parity_page(idx), "page {idx} is a parity page");
        self.data_pages_of_stripe(self.stripe_of(idx))
            .filter(move |&p| p != idx)
    }

    /// Number of pages (data + parity) needed to hold `data_pages` data
    /// pages: the page count rounded up to whole stripes.
    pub fn total_pages_for(&self, data_pages: u64) -> u64 {
        let per = self.data_pages_per_stripe() as u64;
        data_pages.div_ceil(per) * self.dimms as u64
    }

    /// Iterate region-relative indices of the first `n` data pages (skipping
    /// parity pages).
    pub fn data_page_iter(&self, n: u64) -> impl Iterator<Item = u64> + '_ {
        (0u64..)
            .filter(|&i| !self.is_parity_page(i))
            .take(n as usize)
    }
}

/// XOR `b` into `a` in place, eight `u64` lanes per line. `CACHE_LINE` is
/// 64 so there is no remainder, and the loop compiles down to wide vector
/// XORs (SSE2/AVX2) without any unsafe or feature detection.
#[inline]
pub fn xor_into(a: &mut [u8; CACHE_LINE], b: &[u8; CACHE_LINE]) {
    let mut i = 0;
    while i < CACHE_LINE {
        let x = u64::from_ne_bytes(a[i..i + 8].try_into().unwrap())
            ^ u64::from_ne_bytes(b[i..i + 8].try_into().unwrap());
        a[i..i + 8].copy_from_slice(&x.to_ne_bytes());
        i += 8;
    }
}

/// Byte-wise reference implementation of [`xor_into`]. The equivalence
/// tests pin the lane kernel to this.
#[inline]
pub fn xor_into_scalar(a: &mut [u8; CACHE_LINE], b: &[u8; CACHE_LINE]) {
    for i in 0..CACHE_LINE {
        a[i] ^= b[i];
    }
}

/// Apply the RAID-5 delta update `parity ^= old ^ new`, eight `u64` lanes
/// per line (see [`xor_into`] for why this shape autovectorizes).
#[inline]
pub fn parity_delta(parity: &mut [u8; CACHE_LINE], old: &[u8; CACHE_LINE], new: &[u8; CACHE_LINE]) {
    let mut i = 0;
    while i < CACHE_LINE {
        let x = u64::from_ne_bytes(parity[i..i + 8].try_into().unwrap())
            ^ u64::from_ne_bytes(old[i..i + 8].try_into().unwrap())
            ^ u64::from_ne_bytes(new[i..i + 8].try_into().unwrap());
        parity[i..i + 8].copy_from_slice(&x.to_ne_bytes());
        i += 8;
    }
}

/// Byte-wise reference implementation of [`parity_delta`].
#[inline]
pub fn parity_delta_scalar(
    parity: &mut [u8; CACHE_LINE],
    old: &[u8; CACHE_LINE],
    new: &[u8; CACHE_LINE],
) {
    for i in 0..CACHE_LINE {
        parity[i] ^= old[i] ^ new[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift_line(state: &mut u64) -> [u8; CACHE_LINE] {
        let mut out = [0u8; CACHE_LINE];
        for chunk in out.chunks_exact_mut(8) {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            chunk.copy_from_slice(&state.to_ne_bytes());
        }
        out
    }

    #[test]
    fn lane_kernels_match_scalar_reference() {
        // Property test over random lines plus the all-zero / all-ones /
        // single-bit edge patterns: the u64-lane kernels must agree with
        // the byte-wise reference exactly.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut cases: Vec<([u8; CACHE_LINE], [u8; CACHE_LINE], [u8; CACHE_LINE])> = Vec::new();
        for _ in 0..500 {
            cases.push((
                xorshift_line(&mut state),
                xorshift_line(&mut state),
                xorshift_line(&mut state),
            ));
        }
        cases.push(([0u8; CACHE_LINE], [0xff; CACHE_LINE], [0u8; CACHE_LINE]));
        let mut bit = [0u8; CACHE_LINE];
        bit[17] = 0x80;
        cases.push((bit, [0u8; CACHE_LINE], bit));
        for (a0, b, c) in cases {
            let mut fast = a0;
            let mut slow = a0;
            xor_into(&mut fast, &b);
            xor_into_scalar(&mut slow, &b);
            assert_eq!(fast, slow);
            let mut fast_p = a0;
            let mut slow_p = a0;
            parity_delta(&mut fast_p, &b, &c);
            parity_delta_scalar(&mut slow_p, &b, &c);
            assert_eq!(fast_p, slow_p);
        }
    }

    #[test]
    fn parity_rotates_across_stripes() {
        let g = StripeGeometry::new(4);
        assert_eq!(g.parity_slot(0), 0);
        assert_eq!(g.parity_slot(1), 1);
        assert_eq!(g.parity_slot(3), 3);
        assert_eq!(g.parity_slot(4), 0);
    }

    #[test]
    fn every_stripe_has_one_parity_page() {
        let g = StripeGeometry::new(4);
        for stripe in 0..16u64 {
            let base = stripe * 4;
            let n_parity = (base..base + 4).filter(|&i| g.is_parity_page(i)).count();
            assert_eq!(n_parity, 1, "stripe {stripe}");
            assert_eq!(g.data_pages_of_stripe(stripe).count(), 3);
        }
    }

    #[test]
    fn parity_page_of_is_in_same_stripe() {
        let g = StripeGeometry::new(4);
        for idx in 0..64u64 {
            let p = g.parity_page_of(idx);
            assert_eq!(g.stripe_of(p), g.stripe_of(idx));
            assert!(g.is_parity_page(p));
        }
    }

    #[test]
    fn siblings_exclude_self_and_parity() {
        let g = StripeGeometry::new(4);
        // Page 5: stripe 1, parity slot 1 => parity page 5? slot_of(5)=1 ==
        // parity_slot(1)=1, so 5 IS parity. Use page 6.
        let sib: Vec<u64> = g.siblings_of(6).collect();
        assert_eq!(sib.len(), 2);
        assert!(!sib.contains(&6));
        assert!(sib.iter().all(|&p| !g.is_parity_page(p)));
    }

    #[test]
    #[should_panic(expected = "parity page")]
    fn siblings_of_parity_page_panics() {
        let _ = StripeGeometry::new(4).siblings_of(0);
    }

    #[test]
    fn total_pages_rounds_to_stripes() {
        let g = StripeGeometry::new(4);
        assert_eq!(g.total_pages_for(0), 0);
        assert_eq!(g.total_pages_for(1), 4);
        assert_eq!(g.total_pages_for(3), 4);
        assert_eq!(g.total_pages_for(4), 8);
    }

    #[test]
    fn data_page_iter_skips_parity() {
        let g = StripeGeometry::new(4);
        let pages: Vec<u64> = g.data_page_iter(6).collect();
        assert_eq!(pages, vec![1, 2, 3, 4, 6, 7]);
        assert!(pages.iter().all(|&p| !g.is_parity_page(p)));
    }

    #[test]
    fn delta_equals_recompute() {
        let g = StripeGeometry::new(4);
        let _ = g;
        let d0 = [1u8; CACHE_LINE];
        let d1 = [2u8; CACHE_LINE];
        let d2 = [4u8; CACHE_LINE];
        // parity of (d0, d1, d2)
        let mut parity = [0u8; CACHE_LINE];
        xor_into(&mut parity, &d0);
        xor_into(&mut parity, &d1);
        xor_into(&mut parity, &d2);
        // update d1 -> d1'
        let d1_new = [9u8; CACHE_LINE];
        parity_delta(&mut parity, &d1, &d1_new);
        // recompute from scratch
        let mut expect = [0u8; CACHE_LINE];
        xor_into(&mut expect, &d0);
        xor_into(&mut expect, &d1_new);
        xor_into(&mut expect, &d2);
        assert_eq!(parity, expect);
    }

    #[test]
    fn xor_recovers_missing_line() {
        let d0 = [0xa5u8; CACHE_LINE];
        let d1 = [0x3cu8; CACHE_LINE];
        let d2 = [0x7eu8; CACHE_LINE];
        let mut parity = [0u8; CACHE_LINE];
        for d in [&d0, &d1, &d2] {
            xor_into(&mut parity, d);
        }
        // Reconstruct d1 from parity + siblings.
        let mut rec = parity;
        xor_into(&mut rec, &d0);
        xor_into(&mut rec, &d2);
        assert_eq!(rec, d1);
    }
}
