//! The TVARAK redundancy controller (§III of the paper).
//!
//! One controller instance conceptually sits with *each* LLC bank; this
//! module models the set of per-bank controllers as one object holding the
//! per-bank on-controller caches, because they share all other state (the
//! address-range comparators' contents and the layout arithmetic).
//!
//! ## Operation (§III-E)
//!
//! - **DAX-mapped cache-line read (NVM → LLC fill)**: compute the line's
//!   checksum, fetch its DAX-CL-checksum through the redundancy cache
//!   hierarchy (on-controller cache → LLC redundancy way-partition → NVM) and
//!   compare. A mismatch raises [`CorruptionDetected`].
//! - **DAX-mapped cache-line writeback (LLC → NVM)**: obtain the old data
//!   (from the LLC data-diff partition, else an extra NVM read), then delta-
//!   update the DAX-CL-checksum and the cross-DIMM parity line.
//! - **LLC line turns dirty**: capture the pre-modification content in the
//!   data-diff LLC partition; when a diff is evicted, the corresponding data
//!   line is written back early and marked clean (§III-D).
//!
//! ## Ablations (Fig. 9)
//!
//! [`TvarakConfig`] independently disables each design element: cache-line
//! granular checksums (falling back to per-page checksums that require
//! whole-page reads), redundancy caching, and data diffs. All three disabled
//! is the paper's *naive* controller (Fig. 4/5).

use crate::checksum::{csum_slot, line_checksum, set_csum_slot, Crc32c};
use crate::layout::NvmLayout;
use crate::parity::parity_delta;
use crate::scrub::ScrubGranularity;
use memsim::addr::LineAddr;
use memsim::cache::{CacheArray, Evicted};
use memsim::engine::{CorruptionDetected, HookEnv, RedundancyHooks};
use memsim::{CACHE_LINE, LINES_PER_PAGE};
use std::any::Any;
use std::ops::Range;

/// Which TVARAK design elements are enabled (the Fig. 9 ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TvarakConfig {
    /// Maintain cache-line granular DAX-CL-checksums while data is mapped.
    /// When false, per-page checksums are maintained and every update or
    /// verification reads the rest of the page (the naive design's cost).
    pub cl_granular_csums: bool,
    /// Cache redundancy lines in the on-controller cache backed by the LLC
    /// redundancy way-partition. When false, every redundancy access goes to
    /// NVM.
    pub redundancy_caching: bool,
    /// Store pre-modification data in the LLC diff way-partition so parity
    /// and checksums update by delta without re-reading old data from NVM.
    pub data_diffs: bool,
    /// Verify every DAX NVM read against its system-checksum.
    pub verify_reads: bool,
    /// Issue the verification checksum fetch concurrently with the demand
    /// data fill (the controller computes the checksum address from the
    /// request address). When false, the fetch serializes after the fill —
    /// the more conservative timing assumption.
    pub overlapped_verification: bool,
}

impl Default for TvarakConfig {
    /// The full TVARAK design: everything enabled.
    fn default() -> Self {
        TvarakConfig {
            cl_granular_csums: true,
            redundancy_caching: true,
            data_diffs: true,
            verify_reads: true,
            overlapped_verification: true,
        }
    }
}

impl TvarakConfig {
    /// The paper's naive redundancy controller (Fig. 4/5): page-granular
    /// checksums, no redundancy caching, no data diffs — but the same
    /// coverage guarantees.
    pub fn naive() -> Self {
        TvarakConfig {
            cl_granular_csums: false,
            redundancy_caching: false,
            data_diffs: false,
            verify_reads: true,
            overlapped_verification: true,
        }
    }

    /// The checksum granularity this configuration maintains.
    pub fn checksum_granularity(&self) -> ScrubGranularity {
        if self.cl_granular_csums {
            ScrubGranularity::CacheLine
        } else {
            ScrubGranularity::Page
        }
    }
}

/// How urgently the controller needs a redundancy line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Urgency {
    /// Core waits for the value (recovery, naive whole-page verification).
    Stall,
    /// Needed for verification of an in-flight fill: the NVM leg overlaps
    /// the demand data read (cache lookups still charge their latency).
    Overlap,
    /// Writeback-path update work: fully posted, no core charges.
    Background,
}

/// The software-managed hardware redundancy controller.
pub struct TvarakController {
    cfg: TvarakConfig,
    layout: NvmLayout,
    /// Per-LLC-bank on-controller redundancy caches (inclusive under the LLC
    /// redundancy partition). A redundancy line lives with the bank its
    /// address interleaves to — the same bank that holds its LLC-partition
    /// copy.
    oncache: Vec<CacheArray>,
    /// DAX-mapped ranges as [start, end) *data-page-index* intervals —
    /// the contents of the per-bank comparators.
    mapped: Vec<Range<u64>>,
    /// Reusable victim buffer for the flush-path partition drains.
    drain_scratch: Vec<Evicted>,
}

impl std::fmt::Debug for TvarakController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TvarakController")
            .field("cfg", &self.cfg)
            .field("mapped_ranges", &self.mapped.len())
            .finish()
    }
}

impl TvarakController {
    /// Build a controller for a machine with `banks` LLC banks and the given
    /// on-controller cache geometry (from `ControllerConfig`).
    ///
    /// # Panics
    ///
    /// Panics if the on-controller cache geometry is inconsistent.
    pub fn new(
        cfg: TvarakConfig,
        layout: NvmLayout,
        banks: usize,
        cache_bytes: usize,
        cache_ways: usize,
    ) -> Self {
        let lines = cache_bytes / CACHE_LINE;
        let sets = lines / cache_ways;
        let oncache = (0..banks)
            .map(|_| CacheArray::new(sets, cache_ways, 1))
            .collect();
        TvarakController {
            cfg,
            layout,
            oncache,
            mapped: Vec::new(),
            drain_scratch: Vec::new(),
        }
    }

    /// The ablation configuration.
    pub fn tvarak_config(&self) -> TvarakConfig {
        self.cfg
    }

    /// The NVM layout this controller protects.
    pub fn layout(&self) -> &NvmLayout {
        &self.layout
    }

    /// The file system registers a DAX mapping of data pages
    /// `[start, start + len)` (data-page indices).
    pub fn map_range(&mut self, start: u64, len: u64) {
        self.mapped.push(start..start + len);
    }

    /// The file system removes a DAX mapping previously registered with
    /// [`Self::map_range`]. Returns whether such a range was found.
    pub fn unmap_range(&mut self, start: u64, len: u64) -> bool {
        let target = start..start + len;
        if let Some(pos) = self.mapped.iter().position(|r| *r == target) {
            self.mapped.remove(pos);
            true
        } else {
            false
        }
    }

    /// Whether `line` is a DAX-mapped data line (the comparator match).
    pub fn is_mapped(&self, line: LineAddr) -> bool {
        if !self.layout.is_data_line(line) {
            return false;
        }
        let idx = self.layout.data_index_of(line.page());
        self.mapped.iter().any(|r| r.contains(&idx))
    }

    /// Read a redundancy line (checksum or parity) through the redundancy
    /// cache hierarchy: on-controller cache → LLC redundancy partition → NVM.
    ///
    /// The bank is derived from the *redundancy* line's own interleave (a
    /// redundancy line is homed with the controller of the bank it maps to),
    /// so all its cached state lives in one bank.
    pub(crate) fn read_red_line(
        &mut self,
        core: usize,
        line: LineAddr,
        urgency: Urgency,
        env: &mut HookEnv<'_>,
    ) -> [u8; CACHE_LINE] {
        let nvm_read = |env: &mut HookEnv<'_>| match urgency {
            Urgency::Stall => env.nvm_read_red(core, line, true),
            // The controller computes the redundancy address from the
            // request address, so this NVM read proceeds concurrently with
            // the demand data fill (§III-E): occupancy, no extra stall.
            Urgency::Overlap => env.nvm_read_red_overlapped(core, line),
            Urgency::Background => env.nvm_read_red(core, line, false),
        };
        if !self.cfg.redundancy_caching {
            return nvm_read(env);
        }
        let bank = env.bank_of(line);
        let demand = urgency != Urgency::Background;
        if demand {
            env.charge(core, env.cfg.controller.cache_latency_cycles);
        }
        {
            let cache = &mut self.oncache[bank];
            let all = cache.all_ways();
            if let Some(e) = cache.lookup(line, all) {
                env.counters().tvarak_cache_hits += 1;
                return *e.data;
            }
        }
        env.counters().tvarak_cache_misses += 1;
        let data = if let Some(d) = env.llc_red_lookup(core, line, demand) {
            d
        } else {
            let d = nvm_read(env);
            if let Some(v) = env.llc_red_insert(line, &d, false) {
                if v.dirty {
                    env.nvm_write_red(core, v.line, &v.data);
                }
            }
            d
        };
        // On-controller caches hold clean copies only (write-through to the
        // LLC partition), so their evictions are silent. The line is absent
        // here: the lookup above missed and nothing since touches this bank.
        let cache = &mut self.oncache[bank];
        let all = cache.all_ways();
        cache.insert_absent(line, &data, false, all);
        data
    }

    /// Write a redundancy line: update its home bank's on-controller copy
    /// and mark the LLC-partition copy dirty (written back to NVM on
    /// eviction/flush). A redundancy line is homed with exactly one bank (its
    /// own interleave), so no cross-bank invalidation is needed: no other
    /// bank's cache can hold a copy.
    fn write_red_line(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) {
        if !self.cfg.redundancy_caching {
            env.nvm_write_red(core, line, data);
            return;
        }
        env.counters().tvarak_cache_hits += 1;
        let bank = env.bank_of(line);
        let cache = &mut self.oncache[bank];
        let all = cache.all_ways();
        cache.insert(line, data, false, all);
        if !env.llc_red_update(line, data) {
            if let Some(v) = env.llc_red_insert(line, data, true) {
                if v.dirty {
                    env.nvm_write_red(core, v.line, &v.data);
                }
            }
        }
    }

    /// Read the stored checksum for a data line (DAX-CL or page granular,
    /// per the configuration). Also returns the computed checksum of the
    /// provided content so callers can compare.
    fn stored_and_computed_csum(
        &mut self,
        core: usize,
        line: LineAddr,
        content: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) -> (u32, u32) {
        env.counters().controller_computes += 1;
        env.charge(core, env.cfg.controller.compute_cycles);
        if self.cfg.cl_granular_csums {
            let urgency = if self.cfg.overlapped_verification {
                Urgency::Overlap
            } else {
                Urgency::Stall
            };
            let (cs_line, slot) = self.layout.cl_csum_loc(line);
            let cs = self.read_red_line(core, cs_line, urgency, env);
            (csum_slot(&cs, slot), line_checksum(content))
        } else {
            // Page-granular (naive): verifying one line means reading the
            // *rest of the page* from NVM on the critical path — the cost
            // Fig. 5 highlights. The lines stream through an incremental
            // CRC, so no 4 KB buffer is materialized per verification.
            let mut h = Crc32c::new();
            let page = line.page();
            for i in 0..LINES_PER_PAGE {
                let l = page.line(i);
                if l == line {
                    h.update(content);
                } else {
                    h.update(&env.nvm_read_red(core, l, true));
                }
            }
            let (cs_line, slot) = self.layout.page_csum_loc(page);
            let cs = self.read_red_line(core, cs_line, Urgency::Stall, env);
            (csum_slot(&cs, slot), h.finalize())
        }
    }

    /// Update checksum and parity for a data line transitioning from `old`
    /// to `new` on the media (the writeback path; always posted).
    fn update_redundancy(
        &mut self,
        core: usize,
        line: LineAddr,
        old: &[u8; CACHE_LINE],
        new: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) {
        // Checksum update.
        env.counters().controller_computes += 1;
        if self.cfg.cl_granular_csums {
            let (cs_line, slot) = self.layout.cl_csum_loc(line);
            let mut cs = self.read_red_line(core, cs_line, Urgency::Background, env);
            set_csum_slot(&mut cs, slot, line_checksum(new));
            self.write_red_line(core, cs_line, &cs, env);
        } else {
            // Naive: recompute the page checksum, streaming the rest of the
            // page from NVM through an incremental CRC.
            let mut h = Crc32c::new();
            let page = line.page();
            for i in 0..LINES_PER_PAGE {
                let l = page.line(i);
                if l == line {
                    h.update(new);
                } else {
                    h.update(&env.nvm_read_red(core, l, false));
                }
            }
            let (cs_line, slot) = self.layout.page_csum_loc(page);
            let mut cs = self.read_red_line(core, cs_line, Urgency::Background, env);
            set_csum_slot(&mut cs, slot, h.finalize());
            self.write_red_line(core, cs_line, &cs, env);
        }
        // Parity delta update.
        env.counters().controller_computes += 1;
        let par_line = self.layout.parity_line_of(line);
        let mut par = self.read_red_line(core, par_line, Urgency::Background, env);
        parity_delta(&mut par, old, new);
        self.write_red_line(core, par_line, &par, env);
    }

    /// Drop any cached copies of redundancy `line` — on-controller caches
    /// and the LLC redundancy partition — *without* writeback. The file
    /// system calls this after rebuilding a page's redundancy directly on
    /// media (the poison-clearing rewrite path), so stale cached checksums
    /// or parity cannot shadow the rebuilt values.
    pub fn drop_cached_red(&mut self, line: LineAddr, env: &mut HookEnv<'_>) {
        for c in &mut self.oncache {
            let all = c.all_ways();
            c.invalidate(line, all);
        }
        env.llc_red_invalidate(line);
    }

    /// Fetch the old (pre-modification) content of a dirty data line about
    /// to be written back: from the diff partition if present, else an extra
    /// NVM read of the current media content.
    fn old_data_for(
        &self,
        core: usize,
        line: LineAddr,
        env: &mut HookEnv<'_>,
    ) -> [u8; CACHE_LINE] {
        if self.cfg.data_diffs {
            if let Some(d) = env.llc_diff_invalidate(line) {
                return d.data;
            }
        }
        env.nvm_read_old_data(core, line)
    }
}

impl RedundancyHooks for TvarakController {
    fn on_nvm_fill(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) -> Result<(), CorruptionDetected> {
        env.charge(core, env.cfg.controller.range_match_cycles);
        if !self.cfg.verify_reads || !self.is_mapped(line) {
            return Ok(());
        }
        env.counters().reads_verified += 1;
        let (stored, computed) = self.stored_and_computed_csum(core, line, data, env);
        if stored != computed {
            env.counters().corruptions_detected += 1;
            return Err(CorruptionDetected { line });
        }
        Ok(())
    }

    fn on_nvm_writeback(
        &mut self,
        core: usize,
        line: LineAddr,
        new_data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) {
        if !self.is_mapped(line) {
            return;
        }
        let old = self.old_data_for(core, line, env);
        self.update_redundancy(core, line, &old, new_data, env);
    }

    fn on_llc_clean_to_dirty(
        &mut self,
        core: usize,
        line: LineAddr,
        old_data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) {
        if !self.cfg.data_diffs || !self.is_mapped(line) {
            return;
        }
        if let Some(evicted_diff) = env.llc_diff_insert(line, old_data) {
            // §III-D: evicting a diff writes back its data line early (the
            // line stays cached, now clean), so a future eviction of the data
            // line needs no old-data read.
            if let Some(cur) = env.llc_data_take_dirty(evicted_diff.line) {
                self.update_redundancy(core, evicted_diff.line, &evicted_diff.data, &cur, env);
                env.nvm_write_data(core, evicted_diff.line, &cur);
            }
        }
    }

    fn flush(&mut self, env: &mut HookEnv<'_>) {
        // Any diffs still resident belong to data lines that were flushed
        // from the LLC before this hook ran (the engine flushes the data
        // partition first), so they are already consumed; drop the rest.
        self.drain_scratch.clear();
        env.llc_diff_drain_into(&mut self.drain_scratch);
        self.drain_scratch.clear();
        env.llc_red_drain_into(&mut self.drain_scratch);
        for v in &self.drain_scratch {
            if v.dirty {
                env.nvm_write_red(0, v.line, &v.data);
            }
        }
        for c in &mut self.oncache {
            let all = c.all_ways();
            c.clear(all);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn on_crash(&mut self) {
        // Power loss: the on-controller caches are SRAM and vanish (they
        // hold clean copies only, so nothing is lost beyond what the LLC
        // partitions already lost). The comparator contents (`mapped`)
        // survive logically — the OS re-registers DAX ranges at mount.
        for c in &mut self.oncache {
            let all = c.all_ways();
            c.clear(all);
        }
    }

    fn name(&self) -> &'static str {
        "tvarak"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize_region;
    use memsim::addr::nvm_page;
    use memsim::config::SystemConfig;
    use memsim::engine::System;
    use memsim::PhysAddr;

    /// Build a small system protected by a full TVARAK controller over
    /// `data_pages` pages, with zero-initialized checksums, and DAX-map all
    /// of it.
    fn tvarak_system(data_pages: u64) -> (System, NvmLayout) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, data_pages);
        let mut ctrl = TvarakController::new(
            TvarakConfig::default(),
            layout,
            cfg.llc_banks,
            cfg.controller.cache_bytes,
            cfg.controller.cache_ways,
        );
        ctrl.map_range(0, data_pages);
        let mut sys = System::new(cfg, Box::new(ctrl));
        initialize_region(&layout, sys.memory_mut(), 0..data_pages);
        (sys, layout)
    }

    fn data_addr(layout: &NvmLayout, n: u64, off: u64) -> PhysAddr {
        PhysAddr(layout.nth_data_page(n).base().0 + off)
    }

    #[test]
    fn mapped_range_classification() {
        let layout = NvmLayout::new(4, 10);
        let mut ctrl = TvarakController::new(TvarakConfig::default(), layout, 2, 1024, 4);
        ctrl.map_range(2, 3);
        assert!(!ctrl.is_mapped(layout.nth_data_page(1).line(0)));
        assert!(ctrl.is_mapped(layout.nth_data_page(2).line(0)));
        assert!(ctrl.is_mapped(layout.nth_data_page(4).line(63)));
        assert!(!ctrl.is_mapped(layout.nth_data_page(5).line(0)));
        // Parity pages are never "mapped data".
        assert!(!ctrl.is_mapped(nvm_page(0).line(0)));
        assert!(ctrl.unmap_range(2, 3));
        assert!(!ctrl.is_mapped(layout.nth_data_page(2).line(0)));
        assert!(!ctrl.unmap_range(2, 3));
    }

    #[test]
    fn writeback_updates_checksum_and_parity_on_media() {
        let (mut sys, layout) = tvarak_system(8);
        let addr = data_addr(&layout, 0, 0);
        sys.write(0, addr, &[0x5au8; 64]).unwrap();
        sys.flush();
        // Media now has the data.
        let line = addr.line();
        assert_eq!(sys.memory().peek_line(line), [0x5au8; 64]);
        // The DAX-CL-checksum on media matches.
        let (cs_line, slot) = layout.cl_csum_loc(line);
        let cs = sys.memory().peek_line(cs_line);
        assert_eq!(csum_slot(&cs, slot), line_checksum(&[0x5au8; 64]));
        // Parity on media = XOR of the stripe's data lines.
        let par = sys.memory().peek_line(layout.parity_line_of(line));
        let mut expect = sys.memory().peek_line(line);
        for sib in layout.sibling_lines_of(line) {
            let d = sys.memory().peek_line(sib);
            for i in 0..64 {
                expect[i] ^= d[i];
            }
        }
        assert_eq!(par, expect);
    }

    #[test]
    fn reads_are_verified_and_counted() {
        let (mut sys, layout) = tvarak_system(8);
        let addr = data_addr(&layout, 1, 128);
        sys.write(0, addr, &[1u8; 8]).unwrap();
        sys.flush();
        let mut buf = [0u8; 8];
        sys.read(0, addr, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8]);
        let c = sys.stats().counters;
        assert!(c.reads_verified >= 1, "NVM fill must be verified");
        assert_eq!(c.corruptions_detected, 0);
    }

    #[test]
    fn lost_write_detected_on_read() {
        let (mut sys, layout) = tvarak_system(8);
        let addr = data_addr(&layout, 2, 0);
        let line = addr.line();
        sys.write(0, addr, &[1u8; 64]).unwrap();
        sys.flush();
        // Arm a lost write: the next writeback of this line is dropped.
        sys.memory_mut()
            .arm_fault(line, memsim::FirmwareFault::LostWrite);
        sys.write(0, addr, &[2u8; 64]).unwrap();
        sys.flush();
        assert_eq!(sys.memory().peek_line(line), [1u8; 64], "write was lost");
        // Reading the line back detects the mismatch (checksum covers v2).
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        let err = sys.read(0, addr, &mut buf).unwrap_err();
        assert_eq!(err.line, line);
        assert_eq!(sys.stats().counters.corruptions_detected, 1);
    }

    #[test]
    fn misdirected_write_detected_on_read_of_victim() {
        let (mut sys, layout) = tvarak_system(8);
        let a = data_addr(&layout, 0, 0);
        let b = data_addr(&layout, 1, 0);
        sys.write(0, a, &[0xaau8; 64]).unwrap();
        sys.write(0, b, &[0xbbu8; 64]).unwrap();
        sys.flush();
        // Next write to a is misdirected onto b's media location.
        sys.memory_mut().arm_fault(
            a.line(),
            memsim::FirmwareFault::MisdirectedWrite { actual: b.line() },
        );
        sys.write(0, a, &[0xa2u8; 64]).unwrap();
        sys.flush();
        sys.invalidate_page(a.line().page());
        sys.invalidate_page(b.line().page());
        // Reading the clobbered victim detects corruption (Fig. 2).
        let mut buf = [0u8; 64];
        let err = sys.read(0, b, &mut buf).unwrap_err();
        assert_eq!(err.line, b.line());
        // Reading the intended line also mismatches (it kept old data).
        let err2 = sys.read(0, a, &mut buf).unwrap_err();
        assert_eq!(err2.line, a.line());
    }

    #[test]
    fn unmapped_data_is_not_verified_or_updated() {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 8);
        let ctrl = TvarakController::new(
            TvarakConfig::default(),
            layout,
            cfg.llc_banks,
            cfg.controller.cache_bytes,
            cfg.controller.cache_ways,
        );
        // No map_range call.
        let mut sys = System::new(cfg, Box::new(ctrl));
        let addr = PhysAddr(layout.nth_data_page(0).base().0);
        sys.write(0, addr, &[9u8; 64]).unwrap();
        sys.flush();
        let c = sys.stats().counters;
        assert_eq!(c.reads_verified, 0);
        assert_eq!(c.nvm_red_writes, 0, "no redundancy maintained when unmapped");
        let mut buf = [0u8; 8];
        sys.read(0, addr, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 8]);
    }

    #[test]
    fn redundancy_caching_reduces_nvm_redundancy_traffic() {
        // Sequential writes: with caching, one checksum line serves 16 data
        // lines, so redundancy NVM writes are far fewer than without caching.
        let run = |caching: bool| -> u64 {
            let mut scfg = SystemConfig::small();
            if !caching {
                scfg.controller.redundancy_ways = 0;
                scfg.controller.diff_ways = 1;
            }
            let layout = NvmLayout::new(scfg.nvm.dimms, 32);
            let tcfg = TvarakConfig {
                redundancy_caching: caching,
                ..Default::default()
            };
            let mut ctrl = TvarakController::new(
                tcfg,
                layout,
                scfg.llc_banks,
                scfg.controller.cache_bytes,
                scfg.controller.cache_ways,
            );
            ctrl.map_range(0, 32);
            let mut sys = System::new(scfg, Box::new(ctrl));
            initialize_region(&layout, sys.memory_mut(), 0..32);
            sys.reset_stats();
            for n in 0..32u64 {
                let base = layout.nth_data_page(n).base();
                for l in 0..64u64 {
                    sys.write(0, PhysAddr(base.0 + l * 64), &[n as u8; 64]).unwrap();
                }
            }
            sys.flush();
            sys.stats().counters.nvm_redundancy()
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with * 2 < without,
            "caching should at least halve redundancy traffic: {with} vs {without}"
        );
    }

    #[test]
    fn naive_page_checksums_also_detect_corruption() {
        let scfg = SystemConfig::small();
        let layout = NvmLayout::new(scfg.nvm.dimms, 8);
        let mut ctrl = TvarakController::new(
            TvarakConfig::naive(),
            layout,
            scfg.llc_banks,
            scfg.controller.cache_bytes,
            scfg.controller.cache_ways,
        );
        ctrl.map_range(0, 8);
        let mut sys = System::new(scfg, Box::new(ctrl));
        initialize_region(&layout, sys.memory_mut(), 0..8);
        let addr = PhysAddr(layout.nth_data_page(0).base().0);
        sys.write(0, addr, &[3u8; 64]).unwrap();
        sys.flush();
        // Round-trip works.
        sys.invalidate_page(addr.line().page());
        let mut buf = [0u8; 64];
        sys.read(0, addr, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
        // Silent media corruption is detected.
        sys.memory_mut().poke_line(addr.line(), &[99u8; 64]);
        sys.invalidate_page(addr.line().page());
        assert!(sys.read(0, addr, &mut buf).is_err());
    }

    #[test]
    fn data_diffs_eliminate_old_data_reads() {
        // With diffs, a single write+flush needs no extra NVM read of old
        // data; without diffs it does.
        let run = |diffs: bool| -> u64 {
            let mut scfg = SystemConfig::small();
            if !diffs {
                scfg.controller.diff_ways = 0;
            }
            let layout = NvmLayout::new(scfg.nvm.dimms, 8);
            let tcfg = TvarakConfig {
                data_diffs: diffs,
                ..Default::default()
            };
            let mut ctrl = TvarakController::new(
                tcfg,
                layout,
                scfg.llc_banks,
                scfg.controller.cache_bytes,
                scfg.controller.cache_ways,
            );
            ctrl.map_range(0, 8);
            let mut sys = System::new(scfg, Box::new(ctrl));
            initialize_region(&layout, sys.memory_mut(), 0..8);
            sys.reset_stats();
            // Prime: write, flush (line now clean on media), then rewrite so
            // the clean->dirty transition happens with the line in the LLC.
            let addr = PhysAddr(layout.nth_data_page(0).base().0);
            sys.write(0, addr, &[1u8; 64]).unwrap();
            sys.flush();
            sys.reset_stats();
            sys.write(0, addr, &[2u8; 64]).unwrap();
            sys.flush();
            sys.stats().counters.nvm_red_reads
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "diffs must save old-data NVM reads: {with} vs {without}"
        );
    }
}
