//! Differential test of `tvarak::init`'s page-granular kernels against the
//! line-at-a-time algorithms they replaced, kept here as the oracle: every
//! page gathered line by line through `peek`, every parity line the XOR of
//! its stripe siblings. Both run over copies of the same seeded media —
//! unbacked pages, zero-written pages, random lines, and lines lost to a
//! failed DIMM — and must leave every line of the layout byte-identical.

use memsim::addr::{nvm_page, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::hash::splitmix64;
use memsim::mem::Memory;
use std::collections::BTreeSet;
use std::ops::Range;
use tvarak::checksum::{line_checksum, page_checksum, set_csum_slot, CSUMS_PER_LINE};
use tvarak::init;
use tvarak::layout::{gather_page, peek, NvmLayout};

const CASES: u64 = 64;

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The line-at-a-time algorithms.
mod oracle {
    use super::*;

    pub fn refresh_cl_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
        for n in range {
            let page = layout.nth_data_page(n);
            let Ok(bytes) = gather_page(page, peek(mem));
            write_cl_csums(layout, mem, page, &bytes);
        }
    }

    pub fn refresh_page_csums(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
        for n in range {
            let page = layout.nth_data_page(n);
            let Ok(bytes) = gather_page(page, peek(mem));
            write_page_csum(layout, mem, page, &bytes);
        }
    }

    fn write_cl_csums(layout: &NvmLayout, mem: &mut Memory, page: PageNum, bytes: &[u8; PAGE]) {
        let (lines, _) = bytes.as_chunks::<CACHE_LINE>();
        for (k, group) in lines.chunks(CSUMS_PER_LINE).enumerate() {
            let (cs_line, _) = layout.cl_csum_loc(page.line(k * CSUMS_PER_LINE));
            let mut cs = [0u8; CACHE_LINE];
            for (slot, data) in group.iter().enumerate() {
                set_csum_slot(&mut cs, slot, line_checksum(data));
            }
            mem.poke_line(cs_line, &cs);
        }
    }

    fn write_page_csum(layout: &NvmLayout, mem: &mut Memory, page: PageNum, bytes: &[u8; PAGE]) {
        let (cs_line, slot) = layout.page_csum_loc(page);
        let mut cs = mem.peek_line(cs_line);
        set_csum_slot(&mut cs, slot, page_checksum(bytes));
        mem.poke_line(cs_line, &cs);
    }

    pub fn refresh_parity_for_page(layout: &NvmLayout, mem: &mut Memory, page: PageNum) {
        rebuild_stripe_parity(layout, mem, layout.geometry().stripe_of(page.nvm_index()));
    }

    fn rebuild_stripe_parity(layout: &NvmLayout, mem: &mut Memory, stripe: u64) {
        let geom = layout.geometry();
        let first = nvm_page(geom.data_pages_of_stripe(stripe).next().unwrap());
        for o in 0..LINES_PER_PAGE {
            let line = first.line(o);
            let Ok(par) = layout.xor_siblings(line, mem.peek_line(line), peek(mem));
            mem.poke_line(layout.parity_line_of(line), &par);
        }
    }

    pub fn initialize_region(layout: &NvmLayout, mem: &mut Memory, range: Range<u64>) {
        for n in range.clone() {
            let page = layout.nth_data_page(n);
            let Ok(bytes) = gather_page(page, peek(mem));
            write_cl_csums(layout, mem, page, &bytes);
            write_page_csum(layout, mem, page, &bytes);
        }
        let geom = layout.geometry();
        let stripes: BTreeSet<u64> = range
            .map(|n| geom.stripe_of(layout.nth_data_page(n).nvm_index()))
            .collect();
        for stripe in stripes {
            rebuild_stripe_parity(layout, mem, stripe);
        }
    }
}

/// A seeded case: its layout and a recipe that builds identical media.
struct Case {
    seed: u64,
    dimms: usize,
    layout: NvmLayout,
}

impl Case {
    fn new(seed: u64) -> Self {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 6) as usize;
        let layout = NvmLayout::new(dimms, range(&mut rng, 1, 48));
        Case {
            seed,
            dimms,
            layout,
        }
    }

    /// Media over every page of the layout (data, parity and both checksum
    /// tables): each page unbacked, zero-written, or holding random lines,
    /// then a failed DIMM in half the cases, then writes that land on some
    /// of its lost lines.
    fn media(&self) -> Memory {
        let mut rng = self.seed ^ 0x006d_6564_6961;
        let mut mem = Memory::new(self.dimms);
        let random_lines = |mem: &mut Memory, rng: &mut u64, page: PageNum| {
            for _ in 0..range(rng, 1, 2 * LINES_PER_PAGE as u64) {
                let line = page.line(range(rng, 0, LINES_PER_PAGE as u64) as usize);
                let data: [u8; CACHE_LINE] = match splitmix64(rng) % 4 {
                    0 => [0u8; CACHE_LINE],
                    _ => std::array::from_fn(|_| splitmix64(rng) as u8),
                };
                mem.poke_line(line, &data);
            }
        };
        for idx in 0..self.layout.total_pages() {
            let page = nvm_page(idx);
            match splitmix64(&mut rng) % 4 {
                0 => {}
                1 => mem.poke_page(page, &[0u8; PAGE]),
                2 => mem.poke_line(
                    page.line(range(&mut rng, 0, 64) as usize),
                    &[0u8; CACHE_LINE],
                ),
                _ => random_lines(&mut mem, &mut rng, page),
            }
        }
        if splitmix64(&mut rng).is_multiple_of(2) {
            mem.fail_bank(range(&mut rng, 0, self.dimms as u64) as usize);
            for _ in 0..range(&mut rng, 0, 8) {
                let page = nvm_page(range(&mut rng, 0, self.layout.total_pages()));
                random_lines(&mut mem, &mut rng, page);
            }
        }
        mem
    }

    /// Run `oracle` on one copy of the media and `kernel` on another, and
    /// require them to agree on every line of the layout.
    fn check(
        &self,
        what: &str,
        oracle: impl FnOnce(&mut Memory),
        kernel: impl FnOnce(&mut Memory),
    ) {
        let (mut want, mut got) = (self.media(), self.media());
        oracle(&mut want);
        kernel(&mut got);
        let ctx = format!("seed {:#x}, {what}", self.seed);
        for idx in 0..self.layout.total_pages() {
            for o in 0..LINES_PER_PAGE {
                let line = nvm_page(idx).line(o);
                assert_eq!(want.peek_line(line), got.peek_line(line), "{ctx}: {line:?}");
                assert_eq!(
                    want.is_lost(line),
                    got.is_lost(line),
                    "{ctx}: {line:?} lost"
                );
            }
        }
        assert_eq!(
            want.content_hash(),
            got.content_hash(),
            "{ctx}: content_hash"
        );
    }

    /// A random sub-range of the data pages.
    fn data_range(&self, rng: &mut u64) -> Range<u64> {
        let n = self.layout.data_pages();
        let start = range(rng, 0, n);
        start..range(rng, start + 1, n + 1)
    }
}

#[test]
fn page_kernels_match_the_line_at_a_time_oracle() {
    for seed in 0..CASES {
        let case = Case::new(seed);
        let layout = &case.layout;
        let mut rng = seed;
        let r = case.data_range(&mut rng);
        case.check(
            "initialize_region",
            |m| oracle::initialize_region(layout, m, r.clone()),
            |m| init::initialize_region(layout, m, r.clone()),
        );
        let r = case.data_range(&mut rng);
        case.check(
            "refresh_cl_csums",
            |m| oracle::refresh_cl_csums(layout, m, r.clone()),
            |m| init::refresh_cl_csums(layout, m, r.clone()),
        );
        let r = case.data_range(&mut rng);
        case.check(
            "refresh_page_csums",
            |m| oracle::refresh_page_csums(layout, m, r.clone()),
            |m| init::refresh_page_csums(layout, m, r.clone()),
        );
        let page = layout.nth_data_page(case.data_range(&mut rng).start);
        case.check(
            "refresh_parity_for_page",
            |m| oracle::refresh_parity_for_page(layout, m, page),
            |m| init::refresh_parity_for_page(layout, m, page),
        );
    }
}
