//! Redundancy-state initialization and DAX map/unmap checksum conversions.
//!
//! The paper's file system maintains per-page checksums for all data and
//! switches to cache-line granular DAX-CL-checksums while a file is
//! DAX-mapped (§III-C). The conversions happen in FS software at map/unmap
//! time; they operate directly on media content (these helpers use the
//! fault-bypassing peek/poke interface because they are setup-time
//! operations, excluded from measured runs — see DESIGN.md).
//!
//! The helpers are page-granular kernels: each reads a data page once,
//! through [`Memory::peek_page`], and derives everything it writes from
//! those bytes. A page's 64 DAX-CL-checksums fill exactly four checksum
//! lines, the 256 B at `page index * 256`, so they are written whole, with
//! no read-modify-write. A page's system-checksum shares its checksum line
//! with fifteen other pages, so that one slot is still read, patched and
//! written back. A stripe's parity page is the XOR of its data pages, taken
//! a page at a time and written with [`Memory::poke_page`].
//!
//! A page that holds no bytes (never written, or written only with zeros)
//! reads as zeros, so it takes the zero page's checksum lines and page
//! checksum, computed at most once per call: creating and mapping a fresh
//! file computes no checksum per page and XORs nothing.

use crate::checksum::{line_checksum, page_checksum, set_csum_slot, CSUMS_PER_LINE};
use crate::layout::{gather_page, NvmLayout};
use crate::parity::xor_into;
use memsim::addr::{nvm_page, LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::mem::Memory;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::ops::Range;

/// Checksum lines holding one page's DAX-CL-checksums.
const CL_CSUM_LINES: usize = LINES_PER_PAGE / CSUMS_PER_LINE;

/// A page's DAX-CL-checksum lines.
type ClCsumLines = [[u8; CACHE_LINE]; CL_CSUM_LINES];

/// The checksums of data pages as read from the media, with the zero
/// page's computed at most once and shared by every page that holds no
/// bytes.
#[derive(Default)]
struct PageCsums {
    zero_cl: OnceCell<ClCsumLines>,
    zero_page: OnceCell<u32>,
}

impl PageCsums {
    /// `page`'s DAX-CL-checksum lines.
    fn cl_lines(&self, mem: &Memory, page: PageNum) -> ClCsumLines {
        match mem.peek_page(page) {
            Some(bytes) => cl_csum_lines(bytes),
            None => *self.zero_cl.get_or_init(|| cl_csum_lines(&[0u8; PAGE])),
        }
    }

    /// `page`'s system-checksum.
    fn page(&self, mem: &Memory, page: PageNum) -> u32 {
        match mem.peek_page(page) {
            Some(bytes) => page_checksum(bytes),
            None => *self.zero_page.get_or_init(|| page_checksum(&[0u8; PAGE])),
        }
    }
}

/// Write the DAX-CL-checksums for the data pages with indices in `range`,
/// computed from current media content (the map-time page→CL conversion).
pub fn refresh_cl_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    let csums = PageCsums::default();
    for n in range {
        let page = layout.nth_data_page(n);
        let lines = csums.cl_lines(mem, page);
        write_cl_csums(layout, mem, page, &lines);
    }
}

/// Write the per-page system-checksums for the data pages with indices in
/// `range`, computed from current media content (the unmap-time CL→page
/// conversion).
pub fn refresh_page_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    let csums = PageCsums::default();
    for n in range {
        let page = layout.nth_data_page(n);
        let csum = csums.page(mem, page);
        write_page_csum(layout, mem, page, csum);
    }
}

/// The four DAX-CL-checksum lines of a page with content `bytes`.
fn cl_csum_lines(bytes: &[u8; PAGE]) -> ClCsumLines {
    let mut out = [[0u8; CACHE_LINE]; CL_CSUM_LINES];
    for (cs, group) in out
        .iter_mut()
        .zip(bytes.as_chunks::<CACHE_LINE>().0.chunks(CSUMS_PER_LINE))
    {
        for (slot, data) in group.iter().enumerate() {
            set_csum_slot(cs, slot, line_checksum(data));
        }
    }
    out
}

/// Write `page`'s four DAX-CL-checksum lines whole.
fn write_cl_csums(layout: &NvmLayout, mem: &mut Memory, page: PageNum, lines: &ClCsumLines) {
    for (k, cs) in lines.iter().enumerate() {
        let (cs_line, first_slot) = layout.cl_csum_loc(page.line(k * CSUMS_PER_LINE));
        debug_assert_eq!(first_slot, 0, "a page's checksums start a checksum line");
        mem.poke_line(cs_line, cs);
    }
}

/// Patch `page`'s slot of its system-checksum line with `csum`.
fn write_page_csum(layout: &NvmLayout, mem: &mut Memory, page: PageNum, csum: u32) {
    let (cs_line, slot) = layout.page_csum_loc(page);
    let mut cs = mem.peek_line(cs_line);
    set_csum_slot(&mut cs, slot, csum);
    mem.poke_line(cs_line, &cs);
}

/// Recompute the parity pages of every stripe containing a data page in
/// `range`, from current media content.
pub fn refresh_parity(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    let geom = layout.geometry();
    let stripes: BTreeSet<u64> = range
        .clone()
        .map(|n| geom.stripe_of(layout.nth_data_page(n).nvm_index()))
        .collect();
    for stripe in stripes {
        rebuild_stripe_parity(layout, mem, stripe);
    }
}

/// Recompute the parity page of the stripe containing `page`, from current
/// media content. Recovery re-silvers a stripe this way after quarantining
/// one of its pages: the lost page's stale parity deltas must not keep
/// implicating — or corrupting future reconstructions of — the surviving
/// stripe members.
pub fn refresh_parity_for_page(layout: &NvmLayout, mem: &mut Memory, page: PageNum) {
    let geom = layout.geometry();
    rebuild_stripe_parity(layout, mem, geom.stripe_of(page.nvm_index()));
}

/// Write `stripe`'s parity page as the XOR of its data pages; pages that
/// hold no bytes contribute nothing.
fn rebuild_stripe_parity(layout: &NvmLayout, mem: &mut Memory, stripe: u64) {
    let geom = layout.geometry();
    let mut parity = [0u8; PAGE];
    let data = geom.data_pages_of_stripe(stripe).map(nvm_page);
    for bytes in data.filter_map(|page| mem.peek_page(page)) {
        let dst = parity.as_chunks_mut::<CACHE_LINE>().0.iter_mut();
        for (d, s) in dst.zip(bytes.as_chunks::<CACHE_LINE>().0) {
            xor_into(d, s);
        }
    }
    let first = stripe * geom.dimms() as u64;
    mem.poke_page(nvm_page(geom.parity_page_of(first)), &parity);
}

/// `line`'s logical content: its media, or its stripe reconstruction when
/// the line is lost; `None` when another member of the stripe is lost too.
fn logical_line(layout: &NvmLayout, mem: &Memory, line: LineAddr) -> Option<[u8; CACHE_LINE]> {
    let live = |l: LineAddr| (!mem.is_lost(l)).then(|| mem.peek_line(l)).ok_or(());
    live(line)
        .or_else(|()| layout.reconstruct_line(line, live))
        .ok()
}

/// Rebuild the redundancy pages that failed DIMM `bank` held — its stripes'
/// parity pages and its pages of both checksum tables — from the logical
/// content of the data they cover, a lost data line's taken from its
/// stripe. Checksum pages are not parity-protected, and without this
/// rebuild every page whose checksum sat on the failed DIMM would fail
/// verification. Call right after [`Memory::fail_bank`], with the design's
/// redundancy flushed to media and so current: that is what makes a
/// stripe reconstruction safe to checksum.
///
/// Returns the data pages that are lost for good: a lost line whose stripe
/// has a second lost member (a page an earlier failure took and no repair
/// has rewritten yet). Their checksum entries on `bank` are left zero, so
/// they never verify.
pub fn rebuild_failed_bank(layout: &NvmLayout, mem: &mut Memory, bank: usize) -> Vec<PageNum> {
    let geom = layout.geometry();
    let d = geom.dimms() as u64;
    let on_bank = |idx: u64| idx % d == bank as u64;
    let data_pages = || (0..layout.data_pages()).map(|n| layout.nth_data_page(n));
    let logical = |mem: &Memory, p| gather_page(p, |l| logical_line(layout, mem, l).ok_or(()));
    // Find the unsolvable lost pages before any parity is rewritten.
    let unsolved: Vec<PageNum> = data_pages()
        .filter(|&p| mem.page_lost(p) && logical(mem, p).is_err())
        .collect();
    let stripes = geom.total_pages_for(layout.data_pages()) / d;
    for stripe in (0..stripes).filter(|&s| on_bank(s * d + geom.parity_slot(s) as u64)) {
        rebuild_stripe_parity(layout, mem, stripe);
    }
    let tables: Vec<u64> = (layout.cl_csum_base()..layout.total_pages())
        .filter(|&t| on_bank(t) && mem.page_lost(nvm_page(t)))
        .collect();
    for &t in &tables {
        for o in 0..LINES_PER_PAGE {
            mem.poke_line(nvm_page(t).line(o), &[0u8; CACHE_LINE]);
        }
    }
    let rebuilt = |l: LineAddr| tables.contains(&l.page().nvm_index());
    for page in data_pages().filter(|p| !unsolved.contains(p)) {
        let cl = rebuilt(layout.cl_csum_loc(page.line(0)).0);
        let pc = rebuilt(layout.page_csum_loc(page).0);
        if !(cl || pc) {
            continue;
        }
        let Ok(bytes) = logical(mem, page) else {
            continue;
        };
        if cl {
            write_cl_csums(layout, mem, page, &cl_csum_lines(&bytes));
        }
        if pc {
            write_page_csum(layout, mem, page, page_checksum(&bytes));
        }
    }
    unsolved
}

/// Full redundancy initialization for the data pages in `range`: DAX-CL
/// checksums, page checksums, and parity, all consistent with current media
/// content.
pub fn initialize_region(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    let csums = PageCsums::default();
    for n in range.clone() {
        let page = layout.nth_data_page(n);
        let (lines, csum) = (csums.cl_lines(mem, page), csums.page(mem, page));
        write_cl_csums(layout, mem, page, &lines);
        write_page_csum(layout, mem, page, csum);
    }
    refresh_parity(layout, mem, range);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::csum_slot;
    use crate::layout::peek;

    #[test]
    fn initialize_zero_region_matches_zero_checksums() {
        let layout = NvmLayout::new(4, 6);
        let mut mem = Memory::new(4);
        initialize_region(&layout, &mut mem, 0..6);
        let zero_line_csum = line_checksum(&[0u8; CACHE_LINE]);
        let line = layout.nth_data_page(0).line(0);
        let (cs_line, slot) = layout.cl_csum_loc(line);
        assert_eq!(csum_slot(&mem.peek_line(cs_line), slot), zero_line_csum);
        let (pcs_line, pslot) = layout.page_csum_loc(layout.nth_data_page(0));
        assert_eq!(
            csum_slot(&mem.peek_line(pcs_line), pslot),
            page_checksum(&vec![0u8; PAGE])
        );
    }

    #[test]
    fn initialize_covers_prewritten_content() {
        let layout = NvmLayout::new(4, 6);
        let mut mem = Memory::new(4);
        let line = layout.nth_data_page(2).line(5);
        mem.poke_line(line, &[0x42u8; CACHE_LINE]);
        initialize_region(&layout, &mut mem, 0..6);
        let (cs_line, slot) = layout.cl_csum_loc(line);
        assert_eq!(
            csum_slot(&mem.peek_line(cs_line), slot),
            line_checksum(&[0x42u8; CACHE_LINE])
        );
        // Parity of the stripe reflects the content.
        let par = mem.peek_line(layout.parity_line_of(line));
        let Ok(expect) = layout.xor_siblings(line, mem.peek_line(line), peek(&mem));
        assert_eq!(par, expect);
    }

    #[test]
    fn refresh_page_csums_tracks_updates() {
        let layout = NvmLayout::new(4, 4);
        let mut mem = Memory::new(4);
        initialize_region(&layout, &mut mem, 0..4);
        let page = layout.nth_data_page(1);
        mem.poke_line(page.line(0), &[9u8; CACHE_LINE]);
        refresh_page_csums(&layout, &mut mem, 1..2);
        let mut bytes = vec![0u8; PAGE];
        bytes[..CACHE_LINE].copy_from_slice(&[9u8; CACHE_LINE]);
        let (cs_line, slot) = layout.page_csum_loc(page);
        assert_eq!(
            csum_slot(&mem.peek_line(cs_line), slot),
            page_checksum(&bytes)
        );
    }
}
