//! The shared LLC: its banks and their data, redundancy and diff
//! partitions, the redundancy-hook interface the controller plugs into (with
//! the [`HookEnv`] it acts through), and the LLC side of the walk — lookups
//! and directory updates, private-cache spills, and data-partition victims.

use super::private::sharer_cores;
use super::{CorruptionDetected, System, Uncore};
use crate::addr::{LineAddr, CACHE_LINE};
use crate::cache::{Evicted, NO_OWNER};
use crate::config::SystemConfig;
use crate::mem::Memory;
use crate::stats::Counters;
use std::any::Any;
use std::ops::Range;

/// Environment handed to redundancy hooks: everything the controller hardware
/// can reach (memory, the LLC partitions, clocks, counters) without the
/// private caches (which it cannot see).
///
/// It borrows the [`System`]'s uncore exclusively, next to the configuration;
/// the engine builds one per hook call from those two disjoint fields.
#[allow(missing_debug_implementations)]
pub struct HookEnv<'a> {
    /// System configuration.
    pub cfg: &'a SystemConfig,
    pub(super) uncore: &'a mut Uncore,
}

/// The LLC bank holding `line` under line-granular interleaving. A
/// power-of-two bank count reduces the modulo to a mask; the default
/// 12-bank LLC divides.
#[inline]
pub(crate) fn bank_interleave(line: LineAddr, banks: usize) -> usize {
    let n = banks as u64;
    if n.is_power_of_two() {
        (line.0 & (n - 1)) as usize
    } else {
        (line.0 % n) as usize
    }
}

impl<'a> HookEnv<'a> {
    /// The LLC bank holding `line` (lines are bank-interleaved).
    #[inline]
    pub fn bank_of(&self, line: LineAddr) -> usize {
        bank_interleave(line, self.cfg.llc_banks)
    }

    /// LLC way range reserved for application data.
    fn data_ways(&self) -> Range<usize> {
        0..self.cfg.llc_data_ways()
    }

    /// LLC way range reserved for caching redundancy lines.
    fn red_ways(&self) -> Range<usize> {
        let d = self.cfg.llc_data_ways();
        d..d + self.cfg.controller.redundancy_ways
    }

    /// LLC way range reserved for data diffs.
    pub fn diff_ways(&self) -> Range<usize> {
        let d = self.cfg.llc_data_ways() + self.cfg.controller.redundancy_ways;
        d..d + self.cfg.controller.diff_ways
    }

    /// Advance `core`'s clock by `cycles`.
    #[inline]
    pub fn charge(&mut self, core: usize, cycles: u64) {
        self.uncore.clocks[core] += cycles;
    }

    /// Mutable access to the counters.
    #[inline]
    pub fn counters(&mut self) -> &mut Counters {
        &mut self.uncore.counters
    }

    /// Read a redundancy line from NVM.
    ///
    /// `demand` reads stall the core (verification path); non-demand reads
    /// (writeback path) only occupy DIMM bandwidth. Counted as a redundancy
    /// NVM read.
    pub fn nvm_read_red(&mut self, core: usize, line: LineAddr, demand: bool) -> [u8; CACHE_LINE] {
        self.uncore.counters.nvm_red_reads += 1;
        self.nvm_timing(core, line, false, demand);
        self.uncore.mem.read_line(line)
    }

    /// Write a redundancy line to NVM (posted; occupies DIMM bandwidth only).
    /// Counted as a redundancy NVM write.
    pub fn nvm_write_red(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE]) {
        self.uncore.counters.nvm_red_writes += 1;
        self.nvm_timing(core, line, true, false);
        self.media_write(line, data);
    }

    /// Read a redundancy line from NVM, overlapped with an in-flight demand
    /// data fill: the controller computes the checksum address from the
    /// request address and issues both reads concurrently, so only DIMM
    /// occupancy is consumed — the core does not stall further. Counted as a
    /// redundancy NVM read.
    pub fn nvm_read_red_overlapped(&mut self, core: usize, line: LineAddr) -> [u8; CACHE_LINE] {
        self.uncore.counters.nvm_red_reads += 1;
        self.nvm_timing(core, line, false, false);
        self.uncore.mem.read_line(line)
    }

    /// Read a data line's *current media content* via the firmware (used by
    /// the naive controller to fetch old data on the writeback path).
    /// Counted as a redundancy NVM read (it exists only to serve redundancy).
    pub fn nvm_read_old_data(&mut self, core: usize, line: LineAddr) -> [u8; CACHE_LINE] {
        self.nvm_read_red(core, line, false)
    }

    /// A posted media write through the crash window: it reaches the media
    /// only if the armed budget admits it.
    fn media_write(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        if self.uncore.crash.admit() {
            self.uncore.mem.write_line(line, data);
        } else {
            self.uncore.counters.nvm_suppressed_writes += 1;
        }
    }

    /// Look up a redundancy line in the LLC redundancy partition.
    /// Charges one LLC access; stalls the core when `demand`.
    pub fn llc_red_lookup(
        &mut self,
        core: usize,
        line: LineAddr,
        demand: bool,
    ) -> Option<[u8; CACHE_LINE]> {
        self.uncore.counters.llc_redundancy_accesses += 1;
        if demand {
            self.uncore.clocks[core] += self.cfg.llc.latency_cycles;
        }
        let bank = self.bank_of(line);
        let ways = self.red_ways();
        self.uncore.llc[bank].lookup(line, ways).map(|e| *e.data)
    }

    /// Insert a redundancy line into the LLC redundancy partition; a dirty
    /// victim is returned for the hook to write back to NVM.
    ///
    /// The line must be absent from the partition — every caller reaches
    /// this straight after a failed [`Self::llc_red_lookup`] or
    /// [`Self::llc_red_update`] on the same line (debug-asserted).
    pub fn llc_red_insert(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
    ) -> Option<Evicted> {
        self.uncore.counters.llc_redundancy_accesses += 1;
        let bank = self.bank_of(line);
        let ways = self.red_ways();
        self.uncore.llc[bank].insert_absent(line, data, dirty, ways)
    }

    /// Update a redundancy line in place in the LLC partition if present,
    /// marking it dirty. Returns whether it was present.
    pub fn llc_red_update(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) -> bool {
        self.uncore.counters.llc_redundancy_accesses += 1;
        let bank = self.bank_of(line);
        let ways = self.red_ways();
        if let Some(mut e) = self.uncore.llc[bank].lookup(line, ways) {
            *e.data = *data;
            e.set_dirty(true);
            true
        } else {
            false
        }
    }

    /// Invalidate a redundancy line from the LLC partition, returning it.
    pub fn llc_red_invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let bank = self.bank_of(line);
        let ways = self.red_ways();
        self.uncore.llc[bank].invalidate(line, ways)
    }

    /// Drain the whole LLC redundancy partition (flush path) into a
    /// caller-provided buffer (not cleared first), so hooks can reuse one
    /// allocation across flushes.
    pub fn llc_red_drain_into(&mut self, out: &mut Vec<Evicted>) {
        let ways = self.red_ways();
        for bank in 0..self.cfg.llc_banks {
            self.uncore.llc[bank].drain_into(ways.clone(), out);
        }
    }

    /// Store the pre-modification content of `data_line` in the diff
    /// partition. The evicted diff (if any) is returned so the controller can
    /// perform the paper's early writeback of that diff's data line.
    pub fn llc_diff_insert(
        &mut self,
        data_line: LineAddr,
        old_data: &[u8; CACHE_LINE],
    ) -> Option<Evicted> {
        self.uncore.counters.llc_redundancy_accesses += 1;
        let bank = self.bank_of(data_line);
        let ways = self.diff_ways();
        self.uncore.llc[bank].insert(data_line, old_data, false, ways)
    }

    /// Drop the diff for `data_line` (its data line was written back).
    pub fn llc_diff_invalidate(&mut self, data_line: LineAddr) -> Option<Evicted> {
        let bank = self.bank_of(data_line);
        let ways = self.diff_ways();
        self.uncore.llc[bank].invalidate(data_line, ways)
    }

    /// Drain the whole diff partition (flush path) into a caller-provided
    /// buffer (not cleared first). Diffs drained at flush are discarded, so
    /// the buffer lets the controller avoid a per-flush allocation entirely.
    pub fn llc_diff_drain_into(&mut self, out: &mut Vec<Evicted>) {
        let ways = self.diff_ways();
        for bank in 0..self.cfg.llc_banks {
            self.uncore.llc[bank].drain_into(ways.clone(), out);
        }
    }

    /// If `line` sits dirty in the LLC data partition, return its current
    /// content and mark it clean (the paper's early writeback on diff
    /// eviction: "writes back the corresponding data without evicting it").
    pub fn llc_data_take_dirty(&mut self, line: LineAddr) -> Option<[u8; CACHE_LINE]> {
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        match self.uncore.llc[bank].lookup(line, ways) {
            Some(mut e) if e.dirty() => {
                e.set_dirty(false);
                Some(*e.data)
            }
            _ => None,
        }
    }

    /// Write an application data line to NVM on behalf of the controller
    /// (early writeback path). Counted as a *data* NVM write, posted.
    pub fn nvm_write_data(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE]) {
        self.uncore.counters.nvm_data_writes += 1;
        self.nvm_timing(core, line, true, false);
        self.media_write(line, data);
    }

    /// Direct access to the memory devices (used by parity recovery).
    pub fn memory(&mut self) -> &mut Memory {
        &mut self.uncore.mem
    }
}

/// Observer interface for the redundancy controller hardware.
///
/// The engine invokes these hooks for NVM lines only; the baseline system
/// uses [`NullHooks`]. Implementations charge their own latencies and
/// counters through the [`HookEnv`].
///
/// Every hook takes `&mut self`: the hooks and the uncore their [`HookEnv`]
/// borrows are disjoint fields of the [`System`], so the controller owns its
/// state outright. `Send` lets the weave worker own a system.
pub trait RedundancyHooks: Send {
    /// A line is being filled from NVM into the LLC. Verify it.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionDetected`] if a checksum mismatch is found; the
    /// engine aborts the fill and propagates the error to the caller.
    fn on_nvm_fill(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    ) -> Result<(), CorruptionDetected>;

    /// A dirty line is being written back from the LLC to NVM. Update its
    /// redundancy. Called *before* the data write reaches the media.
    fn on_nvm_writeback(
        &mut self,
        core: usize,
        line: LineAddr,
        new_data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    );

    /// An LLC data line transitioned clean→dirty; `old_data` is its
    /// pre-modification content (data-diff capture opportunity).
    fn on_llc_clean_to_dirty(
        &mut self,
        core: usize,
        line: LineAddr,
        old_data: &[u8; CACHE_LINE],
        env: &mut HookEnv<'_>,
    );

    /// End of run: write back all dirty redundancy state.
    fn flush(&mut self, env: &mut HookEnv<'_>);

    /// The machine lost power: all volatile controller state (on-controller
    /// caches, in-flight work) is gone. Invoked by
    /// [`System::lose_volatile_state`]; the default does nothing, which is
    /// correct for stateless hooks.
    fn on_crash(&mut self) {}

    /// Downcast support so the file-system layer can reach
    /// controller-specific management APIs (DAX-range registration).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Short human-readable name (for reports).
    fn name(&self) -> &'static str;
}

/// The baseline: no redundancy maintained, no overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHooks;

impl RedundancyHooks for NullHooks {
    fn on_nvm_fill(
        &mut self,
        _core: usize,
        _line: LineAddr,
        _data: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) -> Result<(), CorruptionDetected> {
        Ok(())
    }

    fn on_nvm_writeback(
        &mut self,
        _core: usize,
        _line: LineAddr,
        _new_data: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) {
    }

    fn on_llc_clean_to_dirty(
        &mut self,
        _core: usize,
        _line: LineAddr,
        _old_data: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) {
    }

    fn flush(&mut self, _env: &mut HookEnv<'_>) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// Classifies NVM lines as redundancy (checksum tables, parity pages) vs.
/// application data for the Fig. 8 NVM-access split. Needed because
/// *software* redundancy schemes access checksums and parity through normal
/// loads/stores; the hardware controller's accesses are classified at the
/// [`HookEnv`] call sites instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyRegion {
    /// NVM region-relative page count of the striped (data+parity) area.
    pub striped_pages: u64,
    /// NVM DIMM count (parity rotation period).
    pub dimms: u64,
}

impl RedundancyRegion {
    /// Whether `line` holds redundancy information (a checksum-table line or
    /// a parity-page line).
    pub(super) fn is_redundancy(&self, line: LineAddr) -> bool {
        if !line.is_nvm() {
            return false;
        }
        let idx = line.page().nvm_index();
        if idx >= self.striped_pages {
            return true; // checksum tables sit above the striped region
        }
        // Rotating parity: page `idx` is parity iff slot == stripe % dimms.
        // DIMM counts are powers of two in every shipped config; this runs
        // on every NVM access, so dodge the two hardware divides when so.
        if self.dimms.is_power_of_two() {
            let mask = self.dimms - 1;
            idx & mask == (idx >> self.dimms.trailing_zeros()) & mask
        } else {
            idx % self.dimms == (idx / self.dimms) % self.dimms
        }
    }
}

impl System {
    /// LLC-level access: returns the line data and whether the core obtains
    /// exclusive (writable) permission.
    pub(super) fn llc_access(
        &mut self,
        core: usize,
        line: LineAddr,
        for_write: bool,
    ) -> Result<([u8; CACHE_LINE], bool), CorruptionDetected> {
        self.uncore.clocks[core] += self.cfg.llc.latency_cycles;
        let bank = self.bank_of(line);
        let ways = self.data_ways();

        // One tag scan locates the line; every later touch in this call
        // (directory updates, dirty merges from remote owners) re-borrows
        // the slot by index. Interleaved hook work only ever inserts into
        // the redundancy/diff partitions, which cannot displace a
        // data-partition slot.
        if let Some(idx) = self.uncore.llc[bank].lookup_idx(line, ways) {
            self.uncore.counters.llc_hits += 1;
            let (mut data, sharers, owner) = {
                let e = self.uncore.llc[bank].entry_mut(idx);
                (*e.data, *e.sharers, *e.owner)
            };
            // Pull the newest copy from a remote owner.
            if owner != NO_OWNER && owner as usize != core {
                if let Some((d, dirty)) = self.priv_invalidate(owner as usize, line) {
                    if dirty {
                        data = d;
                        let mut e = self.uncore.llc[bank].entry_mut(idx);
                        *e.data = d;
                        e.set_dirty(true);
                    }
                }
                self.uncore.clocks[core] += self.cfg.l2.latency_cycles;
            }
            if for_write {
                // Invalidate all other sharers.
                let others = sharer_cores(sharers).filter(|&o| o != core && o != owner as usize);
                for other in others {
                    if let Some((d, true)) = self.priv_invalidate(other, line) {
                        data = d;
                        let mut e = self.uncore.llc[bank].entry_mut(idx);
                        *e.data = d;
                        e.set_dirty(true);
                    }
                }
                let e = self.uncore.llc[bank].entry_mut(idx);
                *e.sharers = 1 << core;
                *e.owner = core as u8;
                Ok((data, true))
            } else {
                let e = self.uncore.llc[bank].entry_mut(idx);
                *e.sharers |= 1 << core;
                *e.owner = NO_OWNER;
                let excl = *e.sharers == (1 << core);
                if excl {
                    *e.owner = core as u8;
                }
                Ok((data, excl))
            }
        } else {
            self.uncore.counters.llc_misses += 1;
            // Fill from memory. The tag scan above just missed, and the
            // hooks run by the demand read only touch the red/diff
            // partitions, so the line is provably absent from the data ways.
            let data = self.mem_demand_read(core, line)?;
            let (victim, idx) = {
                let ways = self.data_ways();
                self.uncore.llc[bank].insert_absent_get(line, &data, false, ways)
            };
            if let Some(v) = victim {
                self.process_llc_victim(core, v);
            }
            let e = self.uncore.llc[bank].entry_mut(idx);
            *e.sharers = 1 << core;
            *e.owner = core as u8; // E state: sole sharer.
            Ok((data, true))
        }
    }

    /// Handle an LLC data-partition eviction: back-invalidate private copies
    /// (inclusion), then write back if dirty.
    fn process_llc_victim(&mut self, core: usize, v: Evicted) {
        let (data, dirty) = match self.back_invalidate(&v) {
            Some(d) => (d, true),
            None => (v.data, v.dirty),
        };
        if dirty {
            self.mem_posted_write(core, v.line, &data);
        }
    }

    /// A private-cache victim arrives at the LLC: update the (inclusive)
    /// LLC copy, firing the clean→dirty diff-capture hook when appropriate,
    /// and clear this core's directory presence.
    pub(super) fn spill_to_llc(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
    ) {
        let ts = self.uncore.clocks[core];
        // weave-branch
        if let Some(b) = self.bound.as_mut() {
            // Bound phase: a dirty spill makes the LLC copy the line's
            // newest below-private content, so the fill-prediction overlay
            // must learn it; clean spills leave content untouched but still
            // clear the directory presence bit, so every spill is replayed.
            if dirty {
                b.overlay_insert(line, *data);
            }
            b.send(crate::weave::Event::Spill {
                core,
                line,
                data: *data,
                dirty,
                ts,
            });
            return;
        }
        self.spill_to_llc_shared(core, line, data, dirty);
    }

    /// The shared half of a private-cache spill (runs inline sequentially
    /// and on the weave worker during replay).
    pub(super) fn spill_to_llc_shared(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
    ) {
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        match self.uncore.llc[bank].lookup_idx(line, ways) {
            Some(idx) => {
                let e = self.uncore.llc[bank].entry_mut(idx);
                // Only the clean->dirty hook reads the old payload, so only
                // it pays for the copy.
                if dirty && !e.dirty() && line.is_nvm() {
                    let old_data = *e.data;
                    self.hooks.on_llc_clean_to_dirty(
                        core,
                        line,
                        &old_data,
                        &mut HookEnv {
                            cfg: &self.cfg,
                            uncore: &mut self.uncore,
                        },
                    );
                }
                // The diff-capture hook above only touches the diff/red
                // partitions, so the data-partition slot index still holds.
                let mut e = self.uncore.llc[bank].entry_mut(idx);
                if dirty {
                    *e.data = *data;
                    e.set_dirty(true);
                }
                // The core no longer holds the line privately.
                *e.sharers &= !(1u64 << core);
                if *e.owner as usize == core {
                    *e.owner = NO_OWNER;
                }
            }
            None => {
                // Inclusion violated (shouldn't happen): write straight back.
                if dirty {
                    self.mem_posted_write(core, line, data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::engine::tests::{nvm, sys, RecordingHooks};

    #[test]
    fn clean_to_dirty_hook_sees_old_data() {
        // Fill a line with a known value, flush it to NVM, re-dirty it, and
        // force the dirty spill to the LLC; the hook must observe the event.
        let mut s = System::new(SystemConfig::small(), Box::new(RecordingHooks::default()));
        s.write(0, nvm(0), &[1u8; 64]).unwrap();
        // Force the line out of the private caches by touching many others.
        for i in 1..2048u64 {
            s.write(0, nvm(i * 64), &[0u8; 8]).unwrap();
        }
        let hooks = s
            .hooks_mut()
            .as_any_mut()
            .downcast_mut::<RecordingHooks>()
            .unwrap();
        assert!(
            hooks.dirties.contains(&nvm(0).line()),
            "dirty spill to the LLC must fire the diff-capture hook"
        );
    }

    #[test]
    fn redundancy_region_classifies_parity_and_tables() {
        let r = RedundancyRegion {
            striped_pages: 16,
            dimms: 4,
        };
        use crate::addr::nvm_page;
        // Stripe 0: parity slot 0 => page 0 is parity; 1..3 are data.
        assert!(r.is_redundancy(nvm_page(0).line(0)));
        assert!(!r.is_redundancy(nvm_page(1).line(0)));
        assert!(!r.is_redundancy(nvm_page(3).line(63)));
        // Stripe 1: parity slot 1 => page 5.
        assert!(r.is_redundancy(nvm_page(5).line(0)));
        assert!(!r.is_redundancy(nvm_page(4).line(0)));
        // Above the striped region: checksum tables.
        assert!(r.is_redundancy(nvm_page(16).line(0)));
        assert!(r.is_redundancy(nvm_page(100).line(0)));
        // DRAM is never redundancy.
        assert!(!r.is_redundancy(PhysAddr(0).line()));
    }

    #[test]
    fn classifier_splits_nvm_counters() {
        let mut s = sys();
        s.set_redundancy_region(RedundancyRegion {
            striped_pages: 16,
            dimms: 4,
        });
        let mut buf = [0u8; 8];
        // Data page 1 (stripe 0, slot 1).
        s.read(0, nvm(4096), &mut buf).unwrap();
        // Parity page 0.
        s.read(0, nvm(0), &mut buf).unwrap();
        let c = s.stats().counters;
        assert_eq!(c.nvm_data_reads, 1);
        assert_eq!(c.nvm_red_reads, 1);
    }

    #[test]
    fn overlapped_red_reads_do_not_stall() {
        let mut s = sys();
        let line = crate::addr::nvm_page(0).line(0);
        let before = s.clock(0);
        s.with_hooks_env(|_h, env| {
            env.nvm_read_red_overlapped(0, line);
        });
        assert_eq!(s.clock(0), before, "overlapped reads cost no core time");
        assert_eq!(s.stats().counters.nvm_red_reads, 1);
    }
}
