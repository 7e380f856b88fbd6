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

use crate::parity::StripeGeometry;
use memsim::addr::{nvm_page, LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::fastdiv::FastDiv;

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
        let cl_csum_pages =
            (striped_pages * CL_CSUM_BYTES_PER_PAGE as u64).div_ceil(PAGE as u64);
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
    /// other data pages).
    ///
    /// # Panics
    ///
    /// Panics if `line` is not a data line.
    pub fn sibling_lines_of(&self, line: LineAddr) -> Vec<LineAddr> {
        assert!(self.is_data_line(line), "{line:?} is not a data line");
        let idx = line.page().nvm_index();
        self.geom
            .siblings_of(idx)
            .into_iter()
            .map(|p| nvm_page(p).line(line.index_in_page()))
            .collect()
    }
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
        let sibs = l.sibling_lines_of(line);
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

    /// Shrunk failure proptest once recorded (`dimms = 2, n = 472`,
    /// `tests/proptest_layout.proptest-regressions`), against both layout
    /// properties that take `(dimms, n)`.
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
    fn two_dimm_mirror_geometry_works() {
        // d=2 degenerates to mirroring (parity of one page = that page).
        let l = NvmLayout::new(2, 4);
        for n in 0..4 {
            let line = l.nth_data_page(n).line(0);
            let sibs = l.sibling_lines_of(line);
            assert!(sibs.is_empty());
            let _ = l.parity_line_of(line);
        }
    }
}
