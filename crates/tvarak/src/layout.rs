//! Physical layout of data and redundancy in the NVM region.
//!
//! Region-relative NVM page indices are laid out as:
//!
//! ```text
//! [0, striped_pages)            data + rotating parity pages (RAID-5 stripes)
//! [cl_csum_base, ...)           DAX-CL-checksum table: 4 B per data cache
//!                               line, 256 B per page, packed 16 per line
//! [page_csum_base, ...)         per-page system-checksum table: 4 B per page
//! ```
//!
//! Both checksum tables are indexed by raw page index, so locating the
//! redundancy for a data line is pure arithmetic — exactly what TVARAK's
//! per-bank comparators + adders implement in hardware (§III-E).
//!
//! The walks that depend on this format — reconstruct a line from its
//! stripe, gather a page, compare content against the stored checksums —
//! live here too, each over a caller-supplied *line source* closure: an
//! uncharged `Memory::peek_line`, a charged fallible `System::read`, or the
//! controller's redundancy reader. A charged source is called in a fixed
//! order (documented per method) because that order is simulated time.

use crate::checksum::{csum_slot, line_checksum, page_checksum};
use crate::parity::{xor_into, StripeGeometry};
use crate::scrub::{ScrubFindingKind, ScrubGranularity};
use memsim::addr::{nvm_page, LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::engine::{CorruptionDetected, System};
use memsim::fastdiv::FastDiv;
use memsim::mem::Memory;
use std::convert::Infallible;

/// Byte size of the DAX-CL-checksum entries for one page (64 lines × 4 B).
pub const CL_CSUM_BYTES_PER_PAGE: usize = LINES_PER_PAGE * 4;

/// Layout of the NVM region: stripes plus checksum tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmLayout {
    geom: StripeGeometry,
    /// Precomputed divider for `dimms - 1` (data pages per stripe) —
    /// [`nth_data_page`](Self::nth_data_page) runs on every file operation.
    per_div: FastDiv,
    data_pages: u64,
    striped_pages: u64,
    cl_csum_base: u64,
    page_csum_base: u64,
    total_pages: u64,
}

impl NvmLayout {
    /// Lay out a region with `data_pages` usable data pages over `dimms`
    /// NVM DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if `dimms < 2` or `data_pages == 0`.
    pub fn new(dimms: usize, data_pages: u64) -> Self {
        assert!(data_pages > 0, "need at least one data page");
        let geom = StripeGeometry::new(dimms);
        let striped_pages = geom.total_pages_for(data_pages);
        let cl_csum_pages = (striped_pages * CL_CSUM_BYTES_PER_PAGE as u64).div_ceil(PAGE as u64);
        let page_csum_pages = (striped_pages * 4).div_ceil(PAGE as u64);
        let cl_csum_base = striped_pages;
        let page_csum_base = cl_csum_base + cl_csum_pages;
        let total_pages = page_csum_base + page_csum_pages;
        NvmLayout {
            geom,
            per_div: FastDiv::new(geom.data_pages_per_stripe() as u64),
            data_pages,
            striped_pages,
            cl_csum_base,
            page_csum_base,
            total_pages,
        }
    }

    /// The stripe geometry.
    pub fn geometry(&self) -> StripeGeometry {
        self.geom
    }

    /// Number of usable data pages.
    pub fn data_pages(&self) -> u64 {
        self.data_pages
    }

    /// Total NVM pages consumed (stripes + checksum tables).
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// First page of the DAX-CL-checksum table (region-relative).
    pub fn cl_csum_base(&self) -> u64 {
        self.cl_csum_base
    }

    /// The physical page of the `n`-th data page (0-based), skipping parity
    /// pages. Closed form — O(1).
    ///
    /// # Panics
    ///
    /// Panics if `n >= data_pages`.
    pub fn nth_data_page(&self, n: u64) -> PageNum {
        assert!(n < self.data_pages, "data page {n} out of range");
        let d = self.geom.dimms() as u64;
        let stripe = self.per_div.quotient(n);
        let k = self.per_div.remainder(n);
        let pslot = self.geom.parity_slot(stripe) as u64;
        let slot = if k < pslot { k } else { k + 1 };
        nvm_page(stripe * d + slot)
    }

    /// Inverse of [`Self::nth_data_page`]: the data index of a physical data
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is a parity page or outside the striped region.
    pub fn data_index_of(&self, page: PageNum) -> u64 {
        let idx = page.nvm_index();
        assert!(idx < self.striped_pages, "page outside striped region");
        let d = self.geom.dimms() as u64;
        let stripe = self.geom.stripe_of(idx);
        let slot = self.geom.slot_of(idx) as u64;
        let pslot = self.geom.parity_slot(stripe) as u64;
        assert!(slot != pslot, "page {idx} is a parity page");
        let k = if slot > pslot { slot - 1 } else { slot };
        stripe * (d - 1) + k
    }

    /// Whether `line` is an application-data line (striped region, not a
    /// parity page).
    pub fn is_data_line(&self, line: LineAddr) -> bool {
        if !line.is_nvm() {
            return false;
        }
        let idx = line.page().nvm_index();
        idx < self.striped_pages && !self.geom.is_parity_page(idx)
    }

    /// Whether `line` belongs to this layout's region at all.
    pub fn covers(&self, line: LineAddr) -> bool {
        line.is_nvm() && line.page().nvm_index() < self.total_pages
    }

    /// Location of the DAX-CL-checksum for a data line: the checksum cache
    /// line and the 4-byte slot within it.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not in the striped region.
    pub fn cl_csum_loc(&self, line: LineAddr) -> (LineAddr, usize) {
        let idx = line.page().nvm_index();
        assert!(idx < self.striped_pages, "line outside striped region");
        let byte_off = idx * CL_CSUM_BYTES_PER_PAGE as u64 + line.index_in_page() as u64 * 4;
        let page = nvm_page(self.cl_csum_base + byte_off / PAGE as u64);
        let cs_line = page.line(((byte_off as usize) % PAGE) / CACHE_LINE);
        let slot = ((byte_off as usize) % CACHE_LINE) / 4;
        (cs_line, slot)
    }

    /// Location of the per-page system-checksum for a page: the checksum
    /// cache line and the 4-byte slot within it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the striped region.
    pub fn page_csum_loc(&self, page: PageNum) -> (LineAddr, usize) {
        let idx = page.nvm_index();
        assert!(idx < self.striped_pages, "page outside striped region");
        let byte_off = idx * 4;
        let tpage = nvm_page(self.page_csum_base + byte_off / PAGE as u64);
        let cs_line = tpage.line(((byte_off as usize) % PAGE) / CACHE_LINE);
        let slot = ((byte_off as usize) % CACHE_LINE) / 4;
        (cs_line, slot)
    }

    /// The parity line covering a data line (same line offset, parity page
    /// of the stripe).
    ///
    /// # Panics
    ///
    /// Panics if `line` is not a data line.
    pub fn parity_line_of(&self, line: LineAddr) -> LineAddr {
        assert!(self.is_data_line(line), "{line:?} is not a data line");
        let idx = line.page().nvm_index();
        let p = self.geom.parity_page_of(idx);
        nvm_page(p).line(line.index_in_page())
    }

    /// The sibling data lines of a data line (same offset in the stripe's
    /// other data pages), in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not a data line.
    pub fn sibling_lines_of(&self, line: LineAddr) -> impl Iterator<Item = LineAddr> {
        assert!(self.is_data_line(line), "{line:?} is not a data line");
        self.geom
            .siblings_of(line.page().nvm_index())
            .map(move |p| nvm_page(p).line(line.index_in_page()))
    }

    /// The stripe around data page `page`, resolved once for work that walks
    /// the page line by line (TxB-Page's parity recompute).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not a data page.
    pub fn page_stripe(&self, page: PageNum) -> PageStripe {
        PageStripe {
            parity: self.parity_line_of(page.line(0)).page(),
            siblings: self
                .geom
                .siblings_of(page.nvm_index())
                .map(nvm_page)
                .collect(),
        }
    }

    /// `seed` XORed with every sibling of data line `line`, siblings read
    /// through `src` in [`sibling_lines_of`](Self::sibling_lines_of) order.
    /// Seeded with the line's own content this is the parity its stripe
    /// should hold; seeded with the parity line it is the line's content.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `src`.
    pub fn xor_siblings<E>(
        &self,
        line: LineAddr,
        mut seed: [u8; CACHE_LINE],
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<[u8; CACHE_LINE], E> {
        for sib in self.sibling_lines_of(line) {
            xor_into(&mut seed, &src(sib)?);
        }
        Ok(seed)
    }

    /// Reconstruct data line `line` from its stripe: `src` is called for
    /// the parity line first, then for each sibling in
    /// [`sibling_lines_of`](Self::sibling_lines_of) order.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `src`.
    pub fn reconstruct_line<E>(
        &self,
        line: LineAddr,
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<[u8; CACHE_LINE], E> {
        let parity = src(self.parity_line_of(line))?;
        self.xor_siblings(line, parity, src)
    }

    /// Whether data line `line` equals its stripe reconstruction (the
    /// parity audit of one line).
    ///
    /// # Errors
    ///
    /// Propagates the first error of `src`.
    pub fn stripe_consistent<E>(
        &self,
        line: LineAddr,
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<bool, E> {
        Ok(self.reconstruct_line(line, &mut src)? == src(line)?)
    }

    /// Whether `data`, as the content of data line `line`, matches the
    /// line's stored DAX-CL-checksum (its checksum line read through `src`).
    ///
    /// # Errors
    ///
    /// Propagates the error of `src`.
    pub fn line_matches_csum<E>(
        &self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<bool, E> {
        let (cs_line, slot) = self.cl_csum_loc(line);
        Ok(csum_slot(&src(cs_line)?, slot) == line_checksum(data))
    }

    /// Whether `bytes`, as the content of `page`, matches the checksums
    /// stored at `granularity`. Page granularity reads the one checksum
    /// line; cache-line granularity reads a checksum line per data line, in
    /// line order, and stops at the first mismatch.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `src`.
    pub fn page_matches_csums<E>(
        &self,
        page: PageNum,
        granularity: ScrubGranularity,
        bytes: &[u8; PAGE],
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<bool, E> {
        match granularity {
            ScrubGranularity::Page => {
                let (cs_line, slot) = self.page_csum_loc(page);
                Ok(csum_slot(&src(cs_line)?, slot) == page_checksum(bytes))
            }
            ScrubGranularity::CacheLine => {
                for (i, data) in bytes.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
                    if !self.line_matches_csum(page.line(i), data, &mut src)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    /// The media audit of data page `page`: its checksums stored at
    /// `granularity` first ([`Self::media_csums_ok`]), then its stripe's
    /// parity ([`Self::media_parity_ok`]). Returns what disagrees, or
    /// `None` for a consistent page.
    pub fn audit_page(
        &self,
        mem: &Memory,
        page: PageNum,
        granularity: ScrubGranularity,
    ) -> Option<ScrubFindingKind> {
        if !self.media_csums_ok(mem, page, granularity) {
            Some(ScrubFindingKind::Checksum)
        } else if !self.media_parity_ok(mem, page) {
            Some(ScrubFindingKind::Parity)
        } else {
            None
        }
    }

    /// The checksum half of [`Self::audit_page`]: whether `page`'s media
    /// content matches its checksums stored at `granularity`, read with
    /// the uncharged [`peek`]. A lost line (or checksum line) reads back
    /// as poison, so it fails here like any corruption.
    pub fn media_csums_ok(
        &self,
        mem: &Memory,
        page: PageNum,
        granularity: ScrubGranularity,
    ) -> bool {
        let media = peek(mem);
        match granularity {
            ScrubGranularity::CacheLine => (0..LINES_PER_PAGE).all(|i| {
                let line = page.line(i);
                self.line_matches_csum(line, &mem.peek_line(line), media) == Ok(true)
            }),
            ScrubGranularity::Page => {
                let Ok(bytes) = gather_page(page, media);
                self.page_matches_csums(page, granularity, &bytes, media) == Ok(true)
            }
        }
    }

    /// The parity half of [`Self::audit_page`]: whether every line of
    /// `page` equals its stripe reconstruction on the media. Checksums
    /// alone cannot see *redundancy* rot (a parity delta computed from a
    /// misread old value leaves data and checksum agreeing while the stripe
    /// no longer reconstructs). A lost stripe member reads back as poison,
    /// so its stripe fails here.
    pub fn media_parity_ok(&self, mem: &Memory, page: PageNum) -> bool {
        (0..LINES_PER_PAGE).all(|i| self.stripe_consistent(page.line(i), peek(mem)) == Ok(true))
    }
}

/// A data page's stripe, from [`NvmLayout::page_stripe`]: line `o` of the
/// page has its parity at line `o` of the parity page and its siblings at
/// line `o` of the sibling pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageStripe {
    parity: PageNum,
    /// Sibling data pages, in slot order.
    siblings: Vec<PageNum>,
}

impl PageStripe {
    /// The parity line covering line `o` of the page
    /// ([`NvmLayout::parity_line_of`]).
    pub fn parity_line(&self, o: usize) -> LineAddr {
        self.parity.line(o)
    }

    /// [`NvmLayout::xor_siblings`] for line `o` of the page: `seed` XORed
    /// with line `o` of every sibling, read through `src` in slot order.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `src`.
    pub fn xor_siblings<E>(
        &self,
        o: usize,
        mut seed: [u8; CACHE_LINE],
        mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
    ) -> Result<[u8; CACHE_LINE], E> {
        for sib in &self.siblings {
            xor_into(&mut seed, &src(sib.line(o))?);
        }
        Ok(seed)
    }
}

/// The uncharged line source: media content through the fault-bypassing
/// [`Memory::peek_line`].
pub fn peek(mem: &Memory) -> impl Fn(LineAddr) -> Result<[u8; CACHE_LINE], Infallible> + Copy + '_ {
    move |line| Ok(mem.peek_line(line))
}

/// One read of the charged line source: `line` through the cache hierarchy
/// on `core`.
///
/// # Errors
///
/// Propagates [`CorruptionDetected`] from a verified NVM fill.
pub fn read_charged(
    sys: &mut System,
    core: usize,
    line: LineAddr,
) -> Result<[u8; CACHE_LINE], CorruptionDetected> {
    let mut data = [0u8; CACHE_LINE];
    sys.read(core, line.base(), &mut data)?;
    Ok(data)
}

/// The content of `page`, its lines read through `src` in line order.
///
/// # Errors
///
/// Propagates the first error of `src`.
pub fn gather_page<E>(
    page: PageNum,
    mut src: impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], E>,
) -> Result<[u8; PAGE], E> {
    let mut bytes = [0u8; PAGE];
    for (i, chunk) in bytes.as_chunks_mut::<CACHE_LINE>().0.iter_mut().enumerate() {
        *chunk = src(page.line(i))?;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let l = NvmLayout::new(4, 100);
        assert!(l.striped_pages >= 100);
        assert!(l.cl_csum_base >= l.striped_pages);
        assert!(l.page_csum_base > l.cl_csum_base);
        assert!(l.total_pages > l.page_csum_base);
    }

    #[test]
    fn nth_data_page_roundtrip() {
        let l = NvmLayout::new(4, 50);
        for n in 0..50 {
            let p = l.nth_data_page(n);
            assert!(!l.geom.is_parity_page(p.nvm_index()), "data page {n}");
            assert_eq!(l.data_index_of(p), n);
        }
    }

    #[test]
    fn nth_data_page_matches_iterator() {
        let l = NvmLayout::new(4, 40);
        let by_iter: Vec<u64> = l.geom.data_page_iter(40).collect();
        for (n, &idx) in by_iter.iter().enumerate() {
            assert_eq!(l.nth_data_page(n as u64), nvm_page(idx));
        }
    }

    #[test]
    fn cl_csum_locs_are_dense_and_unique() {
        let l = NvmLayout::new(4, 8);
        let mut seen = std::collections::HashSet::new();
        for n in 0..8 {
            let page = l.nth_data_page(n);
            for o in 0..LINES_PER_PAGE {
                let (cs_line, slot) = l.cl_csum_loc(page.line(o));
                assert!(cs_line.page().nvm_index() >= l.cl_csum_base);
                assert!(cs_line.page().nvm_index() < l.page_csum_base);
                assert!(seen.insert((cs_line, slot)), "duplicate csum slot");
            }
        }
        // 16 lines' checksums pack per checksum line.
        let (a, sa) = l.cl_csum_loc(l.nth_data_page(0).line(0));
        let (b, sb) = l.cl_csum_loc(l.nth_data_page(0).line(15));
        assert_eq!(a, b);
        assert_eq!(sa, 0);
        assert_eq!(sb, 15);
        let (c, _) = l.cl_csum_loc(l.nth_data_page(0).line(16));
        assert_ne!(a, c);
    }

    #[test]
    fn page_csum_locs_pack_16_per_line() {
        let l = NvmLayout::new(4, 64);
        let (a, sa) = l.page_csum_loc(nvm_page(0));
        let (b, sb) = l.page_csum_loc(nvm_page(15));
        assert_eq!(a, b);
        assert_eq!((sa, sb), (0, 15));
        let (c, _) = l.page_csum_loc(nvm_page(16));
        assert_ne!(a, c);
    }

    #[test]
    fn parity_line_in_same_stripe_same_offset() {
        let l = NvmLayout::new(4, 20);
        for n in 0..20 {
            let line = l.nth_data_page(n).line(7);
            let p = l.parity_line_of(line);
            assert_eq!(p.index_in_page(), 7);
            let g = l.geometry();
            assert_eq!(
                g.stripe_of(p.page().nvm_index()),
                g.stripe_of(line.page().nvm_index())
            );
            assert!(g.is_parity_page(p.page().nvm_index()));
        }
    }

    #[test]
    fn siblings_cover_stripe() {
        let l = NvmLayout::new(4, 12);
        let line = l.nth_data_page(0).line(3);
        let sibs: Vec<LineAddr> = l.sibling_lines_of(line).collect();
        assert_eq!(sibs.len(), 2);
        for s in &sibs {
            assert_eq!(s.index_in_page(), 3);
            assert!(l.is_data_line(*s));
        }
    }

    #[test]
    fn data_line_classification() {
        let l = NvmLayout::new(4, 10);
        assert!(l.is_data_line(l.nth_data_page(0).line(0)));
        // Parity page of stripe 0 is page 0 (slot 0).
        assert!(!l.is_data_line(nvm_page(0).line(0)));
        // Checksum-table lines are not data lines.
        assert!(!l.is_data_line(nvm_page(l.cl_csum_base).line(0)));
        // DRAM lines are not data lines.
        assert!(!l.is_data_line(memsim::addr::PhysAddr(0).line()));
    }

    /// A failure the property suite once shrank to `dimms = 2, n = 472`,
    /// pinned against both layout properties that take `(dimms, n)`.
    #[test]
    fn regression_layout_properties_at_dimms_2_page_472() {
        let (dimms, n) = (2, 472);
        // data_page_indexing_roundtrips
        let l = NvmLayout::new(dimms, 10_000);
        let page = l.nth_data_page(n);
        assert!(!l.geom.is_parity_page(page.nvm_index()));
        assert_eq!(l.data_index_of(page), n);
        // csum_tables_do_not_overlap_stripes
        let l = NvmLayout::new(dimms, 2_000);
        let page = l.nth_data_page(n);
        let (cs_line, _) = l.cl_csum_loc(page.line((n % 64) as usize));
        assert!(!l.is_data_line(cs_line));
        assert!(cs_line.page().nvm_index() >= l.striped_pages);
        let (pcs_line, _) = l.page_csum_loc(page);
        assert!(!l.is_data_line(pcs_line));
        assert!(pcs_line.page().nvm_index() > cs_line.page().nvm_index());
    }

    #[test]
    fn reconstruct_matches_original_for_every_line() {
        // Two full stripes plus a partial one, at mirror, paper and odd widths.
        for dimms in [2usize, 4, 7] {
            let pages = 2 * (dimms as u64 - 1) + 1;
            let l = NvmLayout::new(dimms, pages);
            let mut mem = Memory::new(dimms);
            let mut state = dimms as u64;
            for n in 0..pages {
                for o in 0..LINES_PER_PAGE {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let content = std::array::from_fn(|k| (state >> (k % 8 * 8)) as u8 ^ k as u8);
                    mem.poke_line(l.nth_data_page(n).line(o), &content);
                }
            }
            crate::init::initialize_region(&l, &mut mem, 0..pages);
            for n in 0..pages {
                let page = l.nth_data_page(n);
                let Ok(bytes) = gather_page(page, peek(&mem));
                for g in [ScrubGranularity::Page, ScrubGranularity::CacheLine] {
                    assert_eq!(l.page_matches_csums(page, g, &bytes, peek(&mem)), Ok(true));
                }
                for o in 0..LINES_PER_PAGE {
                    let line = page.line(o);
                    let Ok(rec) = l.reconstruct_line(line, peek(&mem));
                    assert_eq!(rec, mem.peek_line(line), "{dimms} DIMMs, page {n} line {o}");
                    assert_eq!(l.stripe_consistent(line, peek(&mem)), Ok(true));
                }
            }
        }
    }

    /// The order contract the golden digests depend on: a charged source's
    /// call sequence is simulated time.
    #[test]
    fn sources_are_called_in_the_documented_order() {
        let l = NvmLayout::new(7, 30);
        let page = l.nth_data_page(8);
        let line = page.line(5);
        let calls = std::cell::RefCell::new(Vec::new());
        let record = |a: LineAddr| {
            calls.borrow_mut().push(a);
            Ok::<_, Infallible>([0u8; CACHE_LINE])
        };
        // Reconstruct: parity first, then siblings in `sibling_lines_of` order.
        let Ok(_) = l.reconstruct_line(line, record);
        let mut want = vec![l.parity_line_of(line)];
        want.extend(l.sibling_lines_of(line));
        assert_eq!(want.len(), 6);
        assert_eq!(calls.take(), want);
        // Gather: data lines 0..64. Checksums: one line at page granularity,
        // one per data line (16 slots each) at cache-line granularity,
        // stopping at the first mismatch (all-zero content never matches a
        // zero slot, so that is the first).
        let Ok(bytes) = gather_page(page, record);
        let Ok(_) = l.page_matches_csums(page, ScrubGranularity::Page, &bytes, record);
        let Ok(ok) = l.page_matches_csums(page, ScrubGranularity::CacheLine, &bytes, record);
        assert!(!ok);
        let mut want: Vec<LineAddr> = (0..LINES_PER_PAGE).map(|o| page.line(o)).collect();
        want.push(l.page_csum_loc(page).0);
        want.push(l.cl_csum_loc(page.line(0)).0);
        assert_eq!(calls.take(), want);
    }

    #[test]
    fn page_stripe_agrees_with_the_per_line_walk() {
        for dimms in [2usize, 4, 7] {
            let l = NvmLayout::new(dimms, 3 * (dimms as u64 - 1));
            for n in 0..l.data_pages() {
                let page = l.nth_data_page(n);
                let stripe = l.page_stripe(page);
                for o in [0, 17, LINES_PER_PAGE - 1] {
                    let line = page.line(o);
                    assert_eq!(stripe.parity_line(o), l.parity_line_of(line));
                    let (mut per_line, mut resolved) = (Vec::new(), Vec::new());
                    let seed = [o as u8; CACHE_LINE];
                    let src = |calls: &mut Vec<LineAddr>, a: LineAddr| {
                        calls.push(a);
                        Ok::<_, Infallible>([a.0 as u8; CACHE_LINE])
                    };
                    let a = l.xor_siblings(line, seed, |s| src(&mut per_line, s));
                    let b = stripe.xor_siblings(o, seed, |s| src(&mut resolved, s));
                    assert_eq!(a, b, "{dimms} DIMMs, page {n} line {o}");
                    assert_eq!(per_line, resolved, "same sibling order");
                }
            }
        }
    }

    #[test]
    fn two_dimm_mirror_geometry_works() {
        // d=2 degenerates to mirroring (parity of one page = that page).
        let l = NvmLayout::new(2, 4);
        for n in 0..4 {
            let line = l.nth_data_page(n).line(0);
            assert_eq!(l.sibling_lines_of(line).count(), 0);
            let _ = l.parity_line_of(line);
        }
    }
}
