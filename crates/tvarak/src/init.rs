//! Redundancy-state initialization and DAX map/unmap checksum conversions.
//!
//! The paper's file system maintains per-page checksums for all data and
//! switches to cache-line granular DAX-CL-checksums while a file is
//! DAX-mapped (§III-C). The conversions happen in FS software at map/unmap
//! time; they operate directly on media content (these helpers use the
//! fault-bypassing peek/poke interface because they are setup-time
//! operations, excluded from measured runs — see DESIGN.md).
//!
//! The checksum helpers work a page at a time: they gather the page's
//! content once and derive every checksum they write from it. A page's 64
//! DAX-CL-checksums fill exactly four checksum lines, the 256 B at
//! `page index * 256`, so they are written whole, with no
//! read-modify-write. A page's system-checksum shares its checksum line
//! with fifteen other pages, so that one slot is still read, patched and
//! written back.

use crate::checksum::{line_checksum, page_checksum, set_csum_slot, CSUMS_PER_LINE};
use crate::layout::{gather_page, peek, NvmLayout};
use memsim::addr::{nvm_page, LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::mem::Memory;
use std::collections::BTreeSet;
use std::ops::Range;

/// Write the DAX-CL-checksums for the data pages with indices in `range`,
/// computed from current media content (the map-time page→CL conversion).
pub fn refresh_cl_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    for n in range {
        let page = layout.nth_data_page(n);
        let Ok(bytes) = gather_page(page, peek(mem));
        write_cl_csums(layout, mem, page, &bytes);
    }
}

/// Write the per-page system-checksums for the data pages with indices in
/// `range`, computed from current media content (the unmap-time CL→page
/// conversion).
pub fn refresh_page_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    for n in range {
        let page = layout.nth_data_page(n);
        let Ok(bytes) = gather_page(page, peek(mem));
        write_page_csum(layout, mem, page, &bytes);
    }
}

/// Write `page`'s four DAX-CL-checksum lines whole, from its content
/// `bytes`.
fn write_cl_csums(layout: &NvmLayout, mem: &mut Memory, page: PageNum, bytes: &[u8; PAGE]) {
    let (lines, _) = bytes.as_chunks::<CACHE_LINE>();
    for (k, group) in lines.chunks(CSUMS_PER_LINE).enumerate() {
        let (cs_line, first_slot) = layout.cl_csum_loc(page.line(k * CSUMS_PER_LINE));
        debug_assert_eq!(first_slot, 0, "a page's checksums start a checksum line");
        let mut cs = [0u8; CACHE_LINE];
        for (slot, data) in group.iter().enumerate() {
            set_csum_slot(&mut cs, slot, line_checksum(data));
        }
        mem.poke_line(cs_line, &cs);
    }
}

/// Patch `page`'s slot of its system-checksum line, from its content
/// `bytes`.
fn write_page_csum(layout: &NvmLayout, mem: &mut Memory, page: PageNum, bytes: &[u8; PAGE]) {
    let (cs_line, slot) = layout.page_csum_loc(page);
    let mut cs = mem.peek_line(cs_line);
    set_csum_slot(&mut cs, slot, page_checksum(bytes));
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

fn rebuild_stripe_parity(layout: &NvmLayout, mem: &mut Memory, stripe: u64) {
    let geom = layout.geometry();
    let first = geom
        .data_pages_of_stripe(stripe)
        .next()
        .map(nvm_page)
        .expect("a stripe has at least one data page");
    for o in 0..LINES_PER_PAGE {
        let line = first.line(o);
        let Ok(par) = layout.xor_siblings(line, mem.peek_line(line), peek(mem));
        mem.poke_line(layout.parity_line_of(line), &par);
    }
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
            write_cl_csums(layout, mem, page, &bytes);
        }
        if pc {
            write_page_csum(layout, mem, page, &bytes);
        }
    }
    unsolved
}

/// Full redundancy initialization for the data pages in `range`: DAX-CL
/// checksums, page checksums, and parity, all consistent with current media
/// content.
pub fn initialize_region(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
    for n in range.clone() {
        let page = layout.nth_data_page(n);
        let Ok(bytes) = gather_page(page, peek(mem));
        write_cl_csums(layout, mem, page, &bytes);
        write_page_csum(layout, mem, page, &bytes);
    }
    refresh_parity(layout, mem, range);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::csum_slot;
    use memsim::addr::{CACHE_LINE, PAGE};

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
