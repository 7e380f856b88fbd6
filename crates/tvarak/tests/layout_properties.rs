//! Property tests of the redundancy layout arithmetic and parity algebra —
//! the invariants TVARAK's hardware comparators and adders rely on — on
//! seeded random cases (128 per property). Every assertion names its case's
//! seed.

use memsim::addr::{CACHE_LINE, LINES_PER_PAGE};
use memsim::hash::splitmix64;
use tvarak::checksum::{crc32c, csum_slot, set_csum_slot, CSUMS_PER_LINE};
use tvarak::layout::NvmLayout;
use tvarak::parity::{parity_delta, xor_into, StripeGeometry};

const CASES: u64 = 128;

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The seeds of a property's cases.
fn seeds(property: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| (property << 32) | case)
}

/// An arbitrary cache line.
fn gen_line(rng: &mut u64) -> [u8; CACHE_LINE] {
    std::array::from_fn(|_| splitmix64(rng) as u8)
}

/// Page count of the striped (data+parity) region of a layout.
fn geom_striped_pages(layout: &NvmLayout) -> u64 {
    layout.geometry().total_pages_for(layout.data_pages())
}

/// nth_data_page / data_index_of are inverse bijections, and data pages
/// are never parity pages, for any DIMM count and page index.
#[test]
fn data_page_indexing_roundtrips() {
    for seed in seeds(1) {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 8) as usize;
        let n = range(&mut rng, 0, 10_000);
        let layout = NvmLayout::new(dimms, 10_000);
        let page = layout.nth_data_page(n);
        assert!(
            !layout.geometry().is_parity_page(page.nvm_index()),
            "seed {seed:#x}"
        );
        assert_eq!(layout.data_index_of(page), n, "seed {seed:#x}");
    }
}

/// Every data line's checksum slot is unique (no two lines share a
/// 4-byte slot).
#[test]
fn csum_slots_unique_within_sample() {
    for seed in seeds(2) {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 6) as usize;
        let mut pages = std::collections::BTreeSet::new();
        let want = range(&mut rng, 2, 10) as usize;
        while pages.len() < want {
            pages.insert(range(&mut rng, 0, 500));
        }
        let layout = NvmLayout::new(dimms, 500);
        let mut seen = std::collections::HashSet::new();
        for &n in &pages {
            let page = layout.nth_data_page(n);
            for i in 0..LINES_PER_PAGE {
                let loc = layout.cl_csum_loc(page.line(i));
                assert!(seen.insert(loc), "seed {seed:#x}: duplicate slot {loc:?}");
            }
        }
    }
}

/// Checksum locations live strictly outside the striped region (no
/// overlap between data/parity and the tables).
#[test]
fn csum_tables_do_not_overlap_stripes() {
    for seed in seeds(3) {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 6) as usize;
        let n = range(&mut rng, 0, 2_000);
        let layout = NvmLayout::new(dimms, 2_000);
        let page = layout.nth_data_page(n);
        let (cs_line, _) = layout.cl_csum_loc(page.line((n % 64) as usize));
        assert!(!layout.is_data_line(cs_line), "seed {seed:#x}");
        assert!(
            cs_line.page().nvm_index() >= geom_striped_pages(&layout),
            "seed {seed:#x}"
        );
        let (pcs_line, _) = layout.page_csum_loc(page);
        assert!(!layout.is_data_line(pcs_line), "seed {seed:#x}");
        assert!(
            pcs_line.page().nvm_index() > cs_line.page().nvm_index(),
            "seed {seed:#x}"
        );
    }
}

/// Parity line and sibling lines of a data line are all distinct, in the
/// same stripe, at the same in-page offset, and together cover the whole
/// stripe.
#[test]
fn stripe_members_are_consistent() {
    for seed in seeds(4) {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 8) as usize;
        let n = range(&mut rng, 0, 5_000);
        let o = range(&mut rng, 0, 64) as usize;
        let layout = NvmLayout::new(dimms, 5_000);
        let line = layout.nth_data_page(n).line(o);
        let par = layout.parity_line_of(line);
        let geom = layout.geometry();
        let stripe = geom.stripe_of(line.page().nvm_index());
        let mut members = vec![line.page().nvm_index(), par.page().nvm_index()];
        for s in layout.sibling_lines_of(line) {
            assert_eq!(s.index_in_page(), o, "seed {seed:#x}");
            assert_eq!(
                geom.stripe_of(s.page().nvm_index()),
                stripe,
                "seed {seed:#x}"
            );
            members.push(s.page().nvm_index());
        }
        assert_eq!(members.len(), dimms, "seed {seed:#x}: dimms - 2 siblings");
        members.sort_unstable();
        members.dedup();
        assert_eq!(
            members.len(),
            dimms,
            "seed {seed:#x}: stripe members must be distinct and complete"
        );
    }
}

/// RAID algebra: for any stripe contents (`2..6` members) and any
/// single-member update, the delta-updated parity equals the recomputed
/// parity, and any single member is reconstructible from the others.
#[test]
fn parity_delta_matches_recompute_and_recovers() {
    for seed in seeds(5) {
        let mut rng = seed;
        let members: Vec<[u8; CACHE_LINE]> = (0..range(&mut rng, 2, 6))
            .map(|_| gen_line(&mut rng))
            .collect();
        let upd = gen_line(&mut rng);
        let idx = range(&mut rng, 0, members.len() as u64) as usize;
        // Parity of the original stripe.
        let mut parity = [0u8; CACHE_LINE];
        for m in &members {
            xor_into(&mut parity, m);
        }
        // Delta update member `idx`.
        let mut delta_parity = parity;
        parity_delta(&mut delta_parity, &members[idx], &upd);
        // Recompute from scratch.
        let mut recompute = [0u8; CACHE_LINE];
        for (i, m) in members.iter().enumerate() {
            xor_into(&mut recompute, if i == idx { &upd } else { m });
        }
        assert_eq!(delta_parity, recompute, "seed {seed:#x}");
        // Reconstruction of the updated member from parity + the others.
        let mut rec = delta_parity;
        for (i, m) in members.iter().enumerate() {
            if i != idx {
                xor_into(&mut rec, m);
            }
        }
        assert_eq!(rec, upd, "seed {seed:#x}");
    }
}

/// Checksum slot packing: any slot write is readable back and disturbs
/// no other slot.
#[test]
fn csum_slot_isolation() {
    for seed in seeds(6) {
        let mut rng = seed;
        let init: [u32; CSUMS_PER_LINE] = std::array::from_fn(|_| splitmix64(&mut rng) as u32);
        let slot = range(&mut rng, 0, CSUMS_PER_LINE as u64) as usize;
        let value = splitmix64(&mut rng) as u32;
        let mut line = [0u8; CACHE_LINE];
        for (i, v) in init.iter().enumerate() {
            set_csum_slot(&mut line, i, *v);
        }
        set_csum_slot(&mut line, slot, value);
        for (i, &v) in init.iter().enumerate() {
            let expect = if i == slot { value } else { v };
            assert_eq!(csum_slot(&line, i), expect, "seed {seed:#x}: slot {i}");
        }
    }
}

/// CRC32C distinguishes any two different buffers we throw at it (no
/// accidental structural collisions for small perturbations).
#[test]
fn crc_detects_single_byte_changes() {
    for seed in seeds(7) {
        let mut rng = seed;
        let data: Vec<u8> = (0..range(&mut rng, 1, 256))
            .map(|_| splitmix64(&mut rng) as u8)
            .collect();
        let i = range(&mut rng, 0, data.len() as u64) as usize;
        let delta = range(&mut rng, 1, 256) as u8;
        let mut mutated = data.clone();
        mutated[i] = mutated[i].wrapping_add(delta);
        assert_ne!(crc32c(&data), crc32c(&mutated), "seed {seed:#x}");
    }
}

/// Stripe geometry partitions pages: every page is either parity or
/// data, and data_page_iter enumerates exactly the non-parity pages.
#[test]
fn geometry_partitions_pages() {
    for seed in seeds(8) {
        let mut rng = seed;
        let dimms = range(&mut rng, 2, 8) as usize;
        let geom = StripeGeometry::new(dimms);
        let by_iter: Vec<u64> = geom.data_page_iter(200).collect();
        let mut iter_idx = 0;
        for idx in 0..by_iter[by_iter.len() - 1] + 1 {
            if geom.is_parity_page(idx) {
                assert!(
                    !by_iter.contains(&idx),
                    "seed {seed:#x}: parity page {idx} iterated"
                );
            } else {
                assert_eq!(by_iter[iter_idx], idx, "seed {seed:#x}");
                iter_idx += 1;
            }
        }
    }
}
