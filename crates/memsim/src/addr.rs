//! Address newtypes and cache-line / page geometry.
//!
//! The simulated machine uses a single physical address space:
//!
//! - DRAM occupies `[0, dram_bytes)`.
//! - NVM occupies `[NVM_BASE, NVM_BASE + nvm_bytes)`; NVM physical pages are
//!   interleaved page-granularly across the NVM DIMMs (page `p` lives on DIMM
//!   `p % num_dimms`), matching the paper's page-striped RAID-5-like geometry
//!   (Fig. 3).
//!
//! All cache traffic is at [`CACHE_LINE`]-byte granularity; redundancy and
//! parity bookkeeping is at page ([`PAGE`]) granularity.

use std::fmt;

/// Cache-line size in bytes (64 B, Table III).
pub const CACHE_LINE: usize = 64;
/// log2 of the cache-line size.
pub const LINE_SHIFT: u32 = 6;
/// Page size in bytes (4 KB).
pub const PAGE: usize = 4096;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Cache lines per page.
pub const LINES_PER_PAGE: usize = PAGE / CACHE_LINE;

/// Base physical address of the NVM region (DRAM sits below it).
pub const NVM_BASE: u64 = 1 << 40;

/// Page number of the first NVM page.
pub const NVM_PAGE_BASE: u64 = NVM_BASE >> PAGE_SHIFT;

/// The NVM page with region-relative index `idx` (0 is the first NVM page).
#[inline]
pub fn nvm_page(idx: u64) -> PageNum {
    PageNum(NVM_PAGE_BASE + idx)
}

/// A physical byte address in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A physical cache-line address (byte address with the low 6 bits zero,
/// stored shifted right by [`LINE_SHIFT`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// A physical page number (byte address shifted right by [`PAGE_SHIFT`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(pub u64);

impl PhysAddr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing cache line.
    #[inline]
    pub fn line_offset(self) -> usize {
        (self.0 as usize) & (CACHE_LINE - 1)
    }

    /// True if this address falls in the NVM region.
    #[inline]
    pub fn is_nvm(self) -> bool {
        self.0 >= NVM_BASE
    }
}

impl LineAddr {
    /// First byte address of this line.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << LINE_SHIFT)
    }

    /// The page containing this line.
    #[inline]
    pub fn page(self) -> PageNum {
        PageNum(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }

    /// Index of this line within its page (`0..LINES_PER_PAGE`).
    #[inline]
    pub fn index_in_page(self) -> usize {
        (self.0 as usize) & (LINES_PER_PAGE - 1)
    }

    /// True if this line falls in the NVM region.
    #[inline]
    pub fn is_nvm(self) -> bool {
        self.base().is_nvm()
    }
}

impl PageNum {
    /// First byte address of this page.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The line at index `i` (`0..LINES_PER_PAGE`) within this page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LINES_PER_PAGE`.
    #[inline]
    pub fn line(self, i: usize) -> LineAddr {
        assert!(i < LINES_PER_PAGE, "line index {i} out of page");
        LineAddr((self.0 << (PAGE_SHIFT - LINE_SHIFT)) + i as u64)
    }

    /// True if this page falls in the NVM region.
    #[inline]
    pub fn is_nvm(self) -> bool {
        self.base().is_nvm()
    }

    /// Region-relative index of this NVM page (inverse of [`nvm_page`]).
    ///
    /// # Panics
    ///
    /// Panics if the page is not in the NVM region.
    #[inline]
    pub fn nvm_index(self) -> u64 {
        assert!(self.is_nvm(), "{self:?} is not an NVM page");
        self.0 - NVM_PAGE_BASE
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0 << LINE_SHIFT)
    }
}

impl fmt::Debug for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageNum({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_of_addr() {
        let a = PhysAddr(NVM_BASE + 4096 + 130);
        assert_eq!(a.line_offset(), 2);
        assert_eq!(a.0 - a.page().base().0, 130);
        assert_eq!(a.line().index_in_page(), 2);
        assert_eq!(a.page(), PageNum((NVM_BASE >> PAGE_SHIFT as u64) + 1));
        assert!(a.is_nvm());
        assert!(!PhysAddr(4096).is_nvm());
    }

    #[test]
    fn page_line_roundtrip() {
        let p = PageNum(1234);
        for i in 0..LINES_PER_PAGE {
            let l = p.line(i);
            assert_eq!(l.page(), p);
            assert_eq!(l.index_in_page(), i);
            assert_eq!(l.base().page(), p);
        }
    }

    #[test]
    fn line_base_roundtrip() {
        let l = LineAddr(0xabcdef);
        assert_eq!(l.base().line(), l);
        assert_eq!(l.base().line_offset(), 0);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn page_line_out_of_range_panics() {
        PageNum(0).line(LINES_PER_PAGE);
    }

    #[test]
    fn debug_not_empty() {
        assert!(!format!("{:?}", PhysAddr(0)).is_empty());
        assert!(!format!("{:?}", LineAddr(0)).is_empty());
        assert!(!format!("{:?}", PageNum(0)).is_empty());
    }
}
