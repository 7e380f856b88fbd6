//! The private caches: each core's L1D/L2 walk and fills, write-permission
//! upgrades, and the directory walks that remove private copies (sharer
//! masks, back-invalidation). DESIGN.md §4, "Inclusion and the directory",
//! states the invariant these keep.

use super::{CorruptionDetected, PrivCaches, System};
use crate::addr::{LineAddr, CACHE_LINE};
use crate::cache::Evicted;

/// The cores of a directory sharer mask, in ascending order: every walk that
/// visits "the cores that may hold this line" goes through here.
pub(super) fn sharer_cores(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let core = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(core)
    })
}

impl System {
    /// Guarantee `line` is present in `core`'s L1D with write permission if
    /// `for_write`. This is the full hierarchy walk. Returns the line's L1D
    /// slot index so `read`/`write` can reach the entry without a second tag
    /// scan.
    pub(super) fn ensure_line(
        &mut self,
        core: usize,
        line: LineAddr,
        for_write: bool,
    ) -> Result<usize, CorruptionDetected> {
        let l1_ways = 0..self.cfg.l1d.ways;
        let l2_ways = 0..self.cfg.l2.ways;

        // L1 hit?
        if let Some(idx) = self.cores[core].l1d.lookup_idx(line, l1_ways.clone()) {
            self.uncore.counters.l1d_hits += 1;
            self.uncore.clocks[core] += self.cfg.l1d.latency_cycles;
            if !for_write || self.cores[core].l1d.entry_mut(idx).excl() {
                return Ok(idx);
            }
            // Upgrade: fall through to the LLC for ownership, keeping data.
            self.upgrade_for_write(core, line);
            return Ok(idx);
        }
        self.uncore.counters.l1d_misses += 1;
        self.uncore.clocks[core] += self.cfg.l1d.latency_cycles;

        // L2 hit?
        if let Some(idx) = self.cores[core].l2.lookup_idx(line, l2_ways.clone()) {
            self.uncore.counters.l2_hits += 1;
            self.uncore.clocks[core] += self.cfg.l2.latency_cycles;
            let (data, excl) = {
                let e = self.cores[core].l2.entry_mut(idx);
                (*e.data, e.excl())
            };
            if for_write && !excl {
                self.upgrade_for_write(core, line);
            }
            let excl_now = excl || for_write;
            return Ok(self.fill_l1(core, line, &data, excl_now));
        }
        self.uncore.counters.l2_misses += 1;
        self.uncore.clocks[core] += self.cfg.l2.latency_cycles;

        // LLC.
        // weave-branch
        if self.bound.is_some() {
            // Bound phase: predict the fill locally, emit the event, and
            // grant exclusivity outright (the weave replay verifies both).
            let data = self.bound_fill(core, line, for_write);
            self.fill_l2(core, line, &data, true);
            return Ok(self.fill_l1(core, line, &data, true));
        }
        let (data, excl) = self.llc_access(core, line, for_write)?;
        self.fill_l2(core, line, &data, excl);
        Ok(self.fill_l1(core, line, &data, excl))
    }

    /// Write-permission upgrade for a line the core already caches shared:
    /// probe the LLC directory, invalidate other sharers, take ownership.
    fn upgrade_for_write(&mut self, core: usize, line: LineAddr) {
        // weave-branch
        if let Some(b) = self.bound.as_ref() {
            // A shared (non-exclusive) private copy predates the bound
            // phase; sequential execution would negotiate ownership through
            // the LLC directory, which the bound phase cannot see. Grant
            // exclusivity benignly and bail to the sequential oracle.
            b.flag_divergence(crate::weave::DivergenceKind::WriteUpgrade);
            let c = &mut self.cores[core];
            if let Some(mut e) = c.l1d.lookup(line, 0..self.cfg.l1d.ways) {
                e.set_excl(true);
            }
            if let Some(mut e) = c.l2.lookup(line, 0..self.cfg.l2.ways) {
                e.set_excl(true);
            }
            return;
        }
        self.uncore.clocks[core] += self.cfg.l2.latency_cycles + self.cfg.llc.latency_cycles;
        self.uncore.counters.llc_hits += 1;
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        // Inclusion should make a miss here unreachable; tolerate gracefully.
        let found = self.uncore.llc[bank].lookup_idx(line, ways);
        let sharers = match found {
            Some(idx) => *self.uncore.llc[bank].entry_mut(idx).sharers,
            None => 0,
        };
        for other in sharer_cores(sharers & !(1 << core)) {
            if let Some((d, true)) = self.priv_invalidate(other, line) {
                // Other core's modified data merges into the LLC.
                if let Some(idx) = found {
                    let mut e = self.uncore.llc[bank].entry_mut(idx);
                    *e.data = d;
                    e.set_dirty(true);
                }
            }
        }
        if let Some(idx) = found {
            let e = self.uncore.llc[bank].entry_mut(idx);
            *e.sharers = 1 << core;
            *e.owner = core as u8;
        }
        // Grant exclusivity in this core's private copies.
        let c = &mut self.cores[core];
        if let Some(mut e) = c.l1d.lookup(line, 0..self.cfg.l1d.ways) {
            e.set_excl(true);
        }
        if let Some(mut e) = c.l2.lookup(line, 0..self.cfg.l2.ways) {
            e.set_excl(true);
        }
    }

    /// Remove the private copies of an entry that just left the LLC data
    /// ways, visiting only the cores in its sharer mask. The mask is a
    /// superset of the cores holding the line (DESIGN.md §4, "Inclusion and
    /// the directory"), so no copy survives. Returns the newest dirty private
    /// data, if any core held the line modified.
    pub(super) fn back_invalidate(&mut self, v: &Evicted) -> Option<[u8; CACHE_LINE]> {
        let mut newest = None;
        for other in sharer_cores(v.sharers) {
            if let Some((d, true)) = self.priv_invalidate(other, v.line) {
                newest = Some(d);
            }
        }
        newest
    }

    /// The mask of cores whose L1 or L2 holds `line` (probes: no LRU tick).
    pub(super) fn private_holders(&self, line: LineAddr) -> u64 {
        let held = |c: &PrivCaches| {
            c.l1d.probe(line, 0..self.cfg.l1d.ways).is_some()
                || c.l2.probe(line, 0..self.cfg.l2.ways).is_some()
        };
        (self.cores.iter().enumerate())
            .filter(|(_, c)| held(c))
            .fold(0, |mask, (core, _)| mask | 1 << core)
    }

    /// Remove `line` from `core`'s L1 and L2, returning the newest private
    /// data and whether it was dirty.
    pub(super) fn priv_invalidate(
        &mut self,
        core: usize,
        line: LineAddr,
    ) -> Option<([u8; CACHE_LINE], bool)> {
        // weave-branch
        if self.cores.is_empty() {
            // Weave-side replay: the private caches live on the bound
            // thread, so a back-invalidation here (remote-owner pull,
            // cross-core sharer shootdown, or an inclusion victim still
            // held privately) cannot be applied. Record it; `weave_apply`
            // reports the divergence and the run is redone on the
            // sequential oracle.
            self.back_invalidated = true;
            return None;
        }
        let c = &mut self.cores[core];
        let l1 = c.l1d.invalidate(line, 0..self.cfg.l1d.ways);
        let l2 = c.l2.invalidate(line, 0..self.cfg.l2.ways);
        match (l1, l2) {
            (Some(a), Some(b)) => {
                if a.dirty {
                    Some((a.data, true))
                } else {
                    Some((b.data, b.dirty))
                }
            }
            (Some(a), None) => Some((a.data, a.dirty)),
            (None, Some(b)) => Some((b.data, b.dirty)),
            (None, None) => None,
        }
    }

    /// Insert into L1, spilling a dirty victim into the L2. Returns the
    /// inserted line's L1D slot index.
    fn fill_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        excl: bool,
    ) -> usize {
        // Only reached after an L1 lookup miss; nothing between it and here
        // inserts into this L1 (lower-level fills only back-invalidate).
        let ways = 0..self.cfg.l1d.ways;
        let c = &mut self.cores[core];
        let (victim, idx) = c.l1d.insert_absent_get(line, data, false, ways);
        c.l1d.entry_mut(idx).set_excl(excl);
        if let Some(v) = victim {
            if v.dirty {
                // L2 must hold the line (inclusion).
                let l2_ways = 0..self.cfg.l2.ways;
                if let Some(mut e) = self.cores[core].l2.lookup(v.line, l2_ways) {
                    *e.data = v.data;
                    e.set_dirty(true);
                } else {
                    // Defensive: push straight to the LLC.
                    self.spill_to_llc(core, v.line, &v.data, true);
                }
            }
        }
        idx
    }

    /// Insert into L2, spilling the victim into the LLC.
    fn fill_l2(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE], excl: bool) {
        // Only reached after an L2 lookup miss (same argument as fill_l1).
        let ways = 0..self.cfg.l2.ways;
        let c = &mut self.cores[core];
        let (victim, idx) = c.l2.insert_absent_get(line, data, false, ways);
        c.l2.entry_mut(idx).set_excl(excl);
        if let Some(v) = victim {
            // L1 copy must go too (L1 ⊆ L2); it may be newer.
            let l1 = c.l1d.invalidate(v.line, 0..self.cfg.l1d.ways);
            let (data, dirty) = match l1 {
                Some(a) if a.dirty => (a.data, true),
                _ => (v.data, v.dirty),
            };
            self.spill_to_llc(core, v.line, &data, dirty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINES_PER_PAGE;
    use crate::cache::CacheArray;
    use crate::config::SystemConfig;
    use crate::engine::tests::{nvm, sys};
    use crate::engine::NullHooks;
    use std::ops::Range;

    #[test]
    fn cross_core_coherence_sees_latest_data() {
        let mut s = sys();
        s.write(0, nvm(4096), &[7u8; 16]).unwrap();
        // Core 1 reads the same line: must see core 0's modified data.
        let mut buf = [0u8; 16];
        s.read(1, nvm(4096), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        // Core 1 now writes; core 0 must see it.
        s.write(1, nvm(4096), &[9u8; 16]).unwrap();
        let mut buf0 = [0u8; 16];
        s.read(0, nvm(4096), &mut buf0).unwrap();
        assert_eq!(buf0, [9u8; 16]);
    }

    /// Inclusion (L1 ⊆ L2 ⊆ LLC data ways) and the directory's
    /// sharers-superset invariant: every valid private line is in the LLC
    /// with the holding core's sharer bit set.
    fn assert_inclusive(s: &System, step: usize) {
        for (core, c) in s.cores.iter().enumerate() {
            let mut held = Vec::new();
            c.l2.for_each_valid(0..s.cfg.l2.ways, |line, _, _| held.push(line));
            c.l1d.for_each_valid(0..s.cfg.l1d.ways, |line, _, _| {
                assert!(
                    c.l2.probe(line, 0..s.cfg.l2.ways).is_some(),
                    "step {step}: core {core} L1 holds {line:?} without its L2"
                );
            });
            for line in held {
                let e = s.uncore.llc[s.bank_of(line)].probe(line, s.data_ways());
                let e = e.unwrap_or_else(|| {
                    panic!("step {step}: core {core} holds {line:?}, LLC does not")
                });
                assert_eq!(
                    (e.sharers >> core) & 1,
                    1,
                    "step {step}: core {core} holds {line:?} outside its sharer mask"
                );
            }
        }
    }

    /// Seeded random streams over 4 cores with caches a few lines deep. The
    /// four L2s hold more than the LLC's data ways, so LLC victims with live
    /// sharers are common; reads from several cores build multi-sharer
    /// lines. The invariants `invalidate_page` and `clwb` rely on are checked
    /// after every step, every read is checked against the newest written
    /// value, every `clwb` must leave the newest value on the media and no
    /// dirty copy anywhere, and every `invalidate_page` must leave no copy of
    /// the page anywhere.
    #[test]
    fn inclusion_and_sharer_masks_hold_under_random_streams() {
        const LINES: u64 = 2 * LINES_PER_PAGE as u64;
        let mut cfg = SystemConfig::small();
        cfg.cores = 4;
        cfg.l1d.size_bytes = 256; // 2 sets × 2 ways
        cfg.l1d.ways = 2;
        cfg.l2.size_bytes = 1024; // 4 sets × 4 ways
        cfg.l2.ways = 4;
        cfg.llc.size_bytes = 2048; // 4 sets × 8 ways, 5 of them data
        cfg.llc.ways = 8;
        let fresh_hash = CacheArray::new(1, 1, 1).evict_hash();
        let mut multi_sharer_reads = 0;
        for seed in 1..=4u64 {
            let mut s = System::new(cfg.clone(), Box::new(NullHooks));
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let line_of = |l: u64| nvm(l * CACHE_LINE as u64);
            let media_word = |s: &System, l: u64| {
                let m = s.memory().peek_line(line_of(l).line());
                u64::from_le_bytes(m[..8].try_into().unwrap())
            };
            // The first word of each line as every core must read it.
            let mut newest = [0u64; LINES as usize];
            for step in 0..4000 {
                let core = (next() % 4) as usize;
                let l = next() % LINES;
                let addr = line_of(l);
                match next() % 100 {
                    0..=44 => {
                        let mut buf = [0u8; 8];
                        s.read(core, addr, &mut buf).unwrap();
                        assert_eq!(u64::from_le_bytes(buf), newest[l as usize], "step {step}");
                        let bank = s.bank_of(addr.line());
                        let e = s.uncore.llc[bank].probe(addr.line(), s.data_ways());
                        if e.is_some_and(|e| e.sharers.count_ones() > 1) {
                            multi_sharer_reads += 1;
                        }
                    }
                    45..=84 => {
                        let v = next();
                        s.write(core, addr, &v.to_le_bytes()).unwrap();
                        newest[l as usize] = v;
                    }
                    85..=93 => {
                        let line = addr.line();
                        s.clwb(core, line);
                        assert_eq!(media_word(&s, l), newest[l as usize], "step {step}");
                        let dirty = |a: &CacheArray, ways: Range<usize>| {
                            a.probe(line, ways).is_some_and(|e| e.dirty)
                        };
                        for (c, p) in s.cores.iter().enumerate() {
                            assert!(
                                !dirty(&p.l1d, 0..s.cfg.l1d.ways)
                                    && !dirty(&p.l2, 0..s.cfg.l2.ways),
                                "step {step}: core {c} still holds {line:?} dirty after clwb"
                            );
                        }
                        assert!(
                            !dirty(&s.uncore.llc[s.bank_of(line)], s.data_ways()),
                            "step {step}: the LLC still holds {line:?} dirty after clwb"
                        );
                    }
                    94..=96 => {
                        let page = addr.line().page();
                        s.invalidate_page(page);
                        for i in 0..LINES_PER_PAGE {
                            let line = page.line(i);
                            assert_eq!(
                                s.private_holders(line),
                                0,
                                "step {step}: {line:?} survived privately"
                            );
                            let e = s.uncore.llc[s.bank_of(line)].probe(line, s.data_ways());
                            assert!(e.is_none(), "step {step}: {line:?} survived in the LLC");
                        }
                        // Dropped dirty data reverts the page to its media.
                        let first = l - l % LINES_PER_PAGE as u64;
                        for k in first..first + LINES_PER_PAGE as u64 {
                            newest[k as usize] = media_word(&s, k);
                        }
                    }
                    97..=98 => s.flush(),
                    _ => {
                        s.lose_volatile_state();
                        for k in 0..LINES {
                            newest[k as usize] = media_word(&s, k);
                        }
                    }
                }
                assert_inclusive(&s, step);
            }
            assert!(
                s.uncore.llc.iter().all(|b| b.evict_hash() != fresh_hash),
                "seed {seed}: every LLC bank must evict"
            );
        }
        assert!(
            multi_sharer_reads > 0,
            "the streams must build multi-sharer lines"
        );
    }
}
