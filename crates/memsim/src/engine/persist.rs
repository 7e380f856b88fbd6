//! Persistence and crash handling: whole-hierarchy flush, `clwb`, the
//! crash window that admits a prefix of NVM writes, power loss, page
//! invalidation, and fast-forwarded (functional) set-up.

use super::private::sharer_cores;
use super::{HookEnv, System};
use crate::addr::{LineAddr, PageNum, PhysAddr, CACHE_LINE, LINES_PER_PAGE};
use crate::cache::CacheArray;

/// Writeback-budget state for deterministic crash simulation (`crashsim`).
///
/// A crash is modeled as "volatile caches lost, NVM keeps exactly the lines
/// that were written back". Arming a budget of `k` admits exactly the first
/// `k` NVM media writes issued after the arm point — a strict *prefix* of the
/// run's NVM write sequence — and suppresses the rest, so the memory image at
/// the end of the run is precisely the image a power failure after the k-th
/// write would leave. With no budget armed the state only counts events,
/// which is how a reference run enumerates the crash points.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashState {
    /// Number of NVM writes admitted to the media; `None` = unlimited.
    budget: Option<u64>,
    /// NVM write events observed since the window started.
    events: u64,
    /// NVM write events suppressed (arrived after the budget ran out).
    suppressed: u64,
}

impl CrashState {
    /// Count an NVM media-write event and decide whether it reaches the
    /// media. With budget `Some(k)`, exactly the first `k` events do.
    #[inline]
    pub(super) fn admit(&mut self) -> bool {
        self.events += 1;
        match self.budget {
            Some(k) if self.events > k => {
                self.suppressed += 1;
                false
            }
            _ => true,
        }
    }

    /// Whether the simulated machine has (logically) lost power: the armed
    /// budget is exhausted, so no further NVM write can take effect.
    #[inline]
    pub(super) fn crashed(&self) -> bool {
        matches!(self.budget, Some(k) if self.events >= k)
    }
}

impl System {
    /// Flush the entire hierarchy: private caches into the LLC, the LLC to
    /// memory (with redundancy updates), then the controller's own dirty
    /// redundancy state. Counters and energy are accounted; core clocks are
    /// not advanced (see DESIGN.md §6 "Timing model").
    pub fn flush(&mut self) {
        self.assert_unbound("flush");
        // One victim buffer reused across every drain below — and across
        // *flushes*: flushes run between measured phases and every
        // FLUSH_EVERY ops in the chaos campaign, so even one `Vec`
        // allocation per flush adds up. The buffer lives on the `System`.
        let mut victims = std::mem::take(&mut self.flush_scratch);
        // Private caches first.
        for core in 0..self.cfg.cores {
            victims.clear();
            self.cores[core]
                .l1d
                .drain_into(0..self.cfg.l1d.ways, &mut victims);
            for v in &victims {
                if v.dirty {
                    let ways = 0..self.cfg.l2.ways;
                    if let Some(mut e) = self.cores[core].l2.lookup(v.line, ways) {
                        *e.data = v.data;
                        e.set_dirty(true);
                    } else {
                        self.spill_to_llc(core, v.line, &v.data, true);
                    }
                }
            }
            victims.clear();
            self.cores[core]
                .l2
                .drain_into(0..self.cfg.l2.ways, &mut victims);
            for v in &victims {
                self.spill_to_llc(core, v.line, &v.data, v.dirty);
            }
        }
        // LLC data partition.
        let ways = self.data_ways();
        for bank in 0..self.uncore.llc.len() {
            victims.clear();
            self.uncore.llc[bank].drain_into(ways.clone(), &mut victims);
            for v in &victims {
                if v.dirty {
                    self.mem_posted_write(0, v.line, &v.data);
                }
            }
        }
        // Controller state (redundancy partition + on-controller caches).
        self.hooks.flush(&mut HookEnv {
            cfg: &self.cfg,
            uncore: &mut self.uncore,
        });
        victims.clear();
        self.flush_scratch = victims;
    }

    /// Start a crash window: reset the NVM-writeback event counter and arm
    /// a media-write budget. With `Some(k)`, exactly the first `k` NVM media
    /// writes issued from here on take effect and every later one is
    /// silently dropped — the memory image then is the image a power failure
    /// after the k-th writeback would leave. With `None` the window only
    /// counts events (the reference run that enumerates crash points).
    pub fn crash_window_start(&mut self, budget: Option<u64>) {
        self.uncore.crash = CrashState {
            budget,
            events: 0,
            suppressed: 0,
        };
    }

    /// Whether the armed crash budget has been exhausted (the simulated
    /// machine has logically lost power).
    pub fn crashed(&self) -> bool {
        self.uncore.crash.crashed()
    }

    /// NVM media-write events observed since [`Self::crash_window_start`].
    pub fn crash_events(&self) -> u64 {
        self.uncore.crash.events
    }

    /// NVM media writes suppressed because they arrived after the budget.
    pub fn crash_suppressed(&self) -> u64 {
        self.uncore.crash.suppressed
    }

    /// Whether a crash-window media-write budget is currently armed
    /// (bound-weave eligibility check: an armed budget means this run exists
    /// to reproduce a precise crash image, so it stays on the sequential
    /// oracle).
    pub fn crash_armed(&self) -> bool {
        self.uncore.crash.budget.is_some()
    }

    /// Simulate the power loss itself: every volatile structure — private
    /// L1/L2 caches, all LLC ways (data, redundancy, and diff partitions),
    /// and the controller's own caches via [`RedundancyHooks::on_crash`](super::RedundancyHooks::on_crash) —
    /// is dropped *without writeback*. The crash budget is disarmed so the
    /// recovery code that runs next can write to the media. NVM content and
    /// DAX-mapping registrations survive (the OS re-registers mappings at
    /// mount).
    pub fn lose_volatile_state(&mut self) {
        for core in &mut self.cores {
            let w = core.l1d.all_ways();
            core.l1d.clear(w);
            let w = core.l2.all_ways();
            core.l2.clear(w);
        }
        for bank in &mut self.uncore.llc {
            let w = bank.all_ways();
            bank.clear(w);
        }
        self.uncore.crash.budget = None;
        self.hooks.on_crash();
    }

    /// Write back the newest dirty copy of `line` without evicting it (the
    /// `clwb` instruction): private copies and the LLC copy are marked clean
    /// and the line's current content is posted to memory, firing the
    /// redundancy writeback hook as usual. A fully clean (or uncached) line
    /// is a no-op, as is every `clwb` under [`Self::fast_forward`] (nothing
    /// is cached). Charges one LLC access of latency to `core`.
    ///
    /// Walks the inclusive LLC's directory: one LLC tag scan locates the
    /// line, and only the cores of its sharer mask have their L1 and L2
    /// swept. The result is exactly that of sweeping every core:
    ///
    /// - (i) a core outside the mask holds no copy (DESIGN.md §4,
    ///   "Inclusion and the directory"; debug builds check it), so its
    ///   lookups would miss;
    /// - (ii) a missed lookup only advances that array's private LRU tick,
    ///   and stamps stay strictly ordered without it, so every later victim
    ///   choice and [`Stats::evict_hash`](crate::stats::Stats::evict_hash) are unchanged;
    /// - (iii) the LLC lookup runs before the private sweep instead of after
    ///   it, but the sweep touches no LLC bank, so the bank's LRU history is
    ///   unchanged.
    ///
    /// The bound phase of a bound-weave session cannot see the directory
    /// (the LLC lives on the replay worker), so there the mask is every
    /// core and the shared half replays through `clwb_shared`.
    pub fn clwb(&mut self, core: usize, line: LineAddr) {
        if self.functional {
            return;
        }
        let bank = self.bank_of(line);
        // weave-branch
        let (found, sharers) = if self.bound.is_some() {
            (None, u64::MAX >> (64 - self.cfg.cores))
        } else {
            let ways = self.data_ways();
            match self.uncore.llc[bank].lookup_idx(line, ways) {
                Some(idx) => (Some(idx), *self.uncore.llc[bank].entry_mut(idx).sharers),
                None => (None, 0),
            }
        };
        debug_assert_eq!(
            self.private_holders(line) & !sharers,
            0,
            "{line:?} is cached privately outside the LLC directory"
        );
        // Sweep the sharers' private caches: collect the newest dirty copy
        // (MESI permits at most one) and mark every copy clean. When the L1
        // holds the dirty copy, the same core's L2 may hold a stale clean
        // one — it must be refreshed, or a later silent eviction of the
        // now-clean L1 line would expose the stale L2 data.
        let mut private_newest: Option<[u8; CACHE_LINE]> = None;
        for other in sharer_cores(sharers) {
            let c = &mut self.cores[other];
            let w = c.l1d.all_ways();
            let l1_dirty = match c.l1d.lookup(line, w) {
                Some(mut e) if e.dirty() => {
                    e.set_dirty(false);
                    Some(*e.data)
                }
                _ => None,
            };
            let w = c.l2.all_ways();
            if let Some(mut e) = c.l2.lookup(line, w) {
                if let Some(d) = l1_dirty {
                    *e.data = d;
                    e.set_dirty(false);
                } else if e.dirty() {
                    e.set_dirty(false);
                    if private_newest.is_none() {
                        private_newest = Some(*e.data);
                    }
                }
            }
            if let Some(d) = l1_dirty {
                private_newest = Some(d);
            }
        }
        let ts = self.uncore.clocks[core];
        // weave-branch
        if let Some(b) = self.bound.as_mut() {
            // Bound phase: the private sweep above is clock-independent and
            // already done; the shared half (LLC latency, LLC refresh, the
            // posted media write and its redundancy hook) replays on the
            // weave worker. After a clwb the line's below-private content is
            // the swept value, so the overlay learns it.
            if let Some(d) = private_newest {
                b.overlay_insert(line, d);
            }
            b.send(crate::weave::Event::Clwb {
                core,
                line,
                newest: private_newest,
                ts,
            });
            return;
        }
        self.clwb_slot(core, line, bank, found, private_newest);
    }

    /// The tail of [`Self::clwb`] on the line's LLC slot `found` in `bank`
    /// (`None` if the LLC does not hold it): charge the LLC access, refresh
    /// or clean the LLC copy, and post the newest content to memory. The
    /// private sweep reads no clock, so charging the latency after it is
    /// exact.
    pub(super) fn clwb_slot(
        &mut self,
        core: usize,
        line: LineAddr,
        bank: usize,
        found: Option<usize>,
        private_newest: Option<[u8; CACHE_LINE]>,
    ) {
        self.uncore.clocks[core] += self.cfg.llc.latency_cycles;
        let to_write = match found {
            Some(idx) => {
                let mut e = self.uncore.llc[bank].entry_mut(idx);
                if let Some(d) = private_newest {
                    *e.data = d;
                    e.set_dirty(false);
                    Some(d)
                } else if e.dirty() {
                    e.set_dirty(false);
                    Some(*e.data)
                } else {
                    None
                }
            }
            // Not LLC-resident (inclusion says this shouldn't happen);
            // write the private data straight back.
            None => private_newest,
        };
        if let Some(d) = to_write {
            self.mem_posted_write(core, line, &d);
        }
    }

    /// [`Self::clwb`] every line overlapping `[addr, addr + len)`.
    pub fn clwb_range(&mut self, core: usize, addr: PhysAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr.line().0;
        let last = PhysAddr(addr.0 + len - 1).line().0;
        for l in first..=last {
            self.clwb(core, LineAddr(l));
        }
    }

    /// Drop every cached copy of `page`'s lines without writing back. Used
    /// after a detected corruption, before parity recovery repairs the
    /// media, and by file creation, which zeroes a (possibly reused) extent
    /// on the media and must leave no stale cached copy above it.
    ///
    /// Walks the inclusive LLC's directory: each line costs one LLC probe,
    /// plus an L1/L2 invalidation in each core of the line's sharer mask. A
    /// line the LLC does not hold has no private copy (inclusion), so it
    /// costs nothing more, and when every LLC bank is empty — file creation
    /// on a fresh machine — no line is cached anywhere and the walk is
    /// skipped. Debug builds check the inclusion claim on every line, and
    /// on the skip that every private cache is empty too.
    pub fn invalidate_page(&mut self, page: PageNum) {
        self.assert_unbound("invalidate_page");
        if self.uncore.llc.iter().all(CacheArray::is_empty) {
            debug_assert!(
                self.cores
                    .iter()
                    .all(|c| c.l1d.is_empty() && c.l2.is_empty()),
                "a private cache holds a line the empty LLC does not"
            );
            return;
        }
        let ways = self.data_ways();
        for i in 0..LINES_PER_PAGE {
            let line = page.line(i);
            let bank = self.bank_of(line);
            if let Some(v) = self.uncore.llc[bank].invalidate(line, ways.clone()) {
                self.back_invalidate(&v);
            }
            debug_assert_eq!(
                self.private_holders(line),
                0,
                "{line:?} is cached privately outside the LLC directory"
            );
        }
    }

    /// Run `f` over `ctx` with the system `sys(ctx)` in *functional mode*:
    /// what zsim calls fast-forwarding, for set-up whose timing nobody reads.
    ///
    /// On entry the whole hierarchy is flushed, so the media hold the newest
    /// copy of every line. Inside, [`Self::read`] and [`Self::write`] touch
    /// only `Memory` (a write is a read-modify-write of each covered line)
    /// and [`Self::clwb`] is a no-op. No cache, redundancy hook, DIMM lane,
    /// counter or crash-window event sees those accesses; [`Self::instr`]
    /// and [`Self::compute`] still charge as usual. Every cache is still
    /// empty on exit (debug-asserted). A set-up that then flushes, rebuilds
    /// redundancy from the media and calls [`Self::reset_stats`] ends in the
    /// state its timed run would have left, except for
    /// [`Stats::evict_hash`](crate::stats::Stats::evict_hash) and [`Self::crash_events`] (DESIGN.md §18,
    /// "Fast-forwarded set-up").
    ///
    /// The mode ends when `f` returns or unwinds; it cannot be left on.
    ///
    /// # Panics
    ///
    /// Panics if the system is already fast-forwarding, a bound-weave
    /// session is active, a crash budget is armed, the firmware has an
    /// armed fault, or a line is lost: functional accesses bypass all of
    /// them.
    pub fn fast_forward<C, T>(
        ctx: &mut C,
        sys: fn(&mut C) -> &mut System,
        f: impl FnOnce(&mut C) -> T,
    ) -> T {
        let s = sys(ctx);
        assert!(!s.functional, "System::fast_forward does not nest");
        s.assert_unbound("fast_forward");
        assert!(
            !s.crash_armed(),
            "cannot fast-forward with a crash budget armed"
        );
        let mem = &s.uncore.mem;
        assert!(
            mem.armed_faults() == 0 && !mem.any_lost(),
            "cannot fast-forward past armed firmware faults or lost lines"
        );
        s.flush();
        s.functional = true;
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
        let s = sys(ctx);
        s.functional = false;
        let out = out.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        debug_assert!(s.caches_empty(), "a cache filled while fast-forwarding");
        out
    }

    /// Whether no L1, L2 or LLC way (any partition) holds a line.
    fn caches_empty(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.l1d.is_empty() && c.l2.is_empty())
            && self.uncore.llc.iter().all(CacheArray::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::tests::{nvm, sys, RecordingHooks};
    use crate::engine::{CorruptionDetected, RedundancyHooks};
    use std::any::Any;

    #[test]
    fn invalidate_page_drops_cached_copies() {
        let mut s = sys();
        s.write(0, nvm(0), &[5u8; 64]).unwrap();
        s.invalidate_page(nvm(0).page());
        // Cached dirty data was dropped; memory still has zeros.
        let mut buf = [0u8; 8];
        s.read(0, nvm(0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn fast_forward_sees_lines_left_dirty_before_entry() {
        let mut s = sys();
        s.write(1, nvm(4096 + 3), b"dirty").unwrap();
        let got = System::fast_forward(
            &mut s,
            |s| s,
            |s| {
                let mut buf = [0u8; 5];
                s.read(0, nvm(4096 + 3), &mut buf).unwrap();
                buf
            },
        );
        assert_eq!(&got, b"dirty");
    }

    #[test]
    fn timed_reads_see_functional_writes_after_exit() {
        let mut s = sys();
        // A clean cached copy of line 0, which the entry flush must drop.
        s.read(0, nvm(0), &mut [0u8; 8]).unwrap();
        // Straddles lines 0 and 1.
        System::fast_forward(&mut s, |s| s, |s| s.write(1, nvm(60), &[9u8; 10]).unwrap());
        let mut buf = [0u8; 12];
        s.read(0, nvm(58), &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9]);
        assert_eq!(
            s.stats().counters.nvm_data_reads,
            3,
            "both lines refill from media"
        );
    }

    #[test]
    fn fast_forward_moves_only_instr_and_compute() {
        let mut s = System::new(SystemConfig::small(), Box::new(RecordingHooks::default()));
        s.write(0, nvm(0), &[1u8; 8]).unwrap();
        System::fast_forward(
            &mut s,
            |s| s,
            |s| {
                let before = s.stats();
                let lanes = s.dimm_access_counts();
                let events = s.crash_events();
                s.write(0, nvm(320), &[2u8; 100]).unwrap();
                s.read(1, nvm(0), &mut [0u8; 200]).unwrap();
                s.clwb(0, nvm(320).line());
                assert_eq!(s.stats(), before, "reads, writes and clwb are free");
                assert_eq!(s.dimm_access_counts(), lanes);
                assert_eq!(s.crash_events(), events);
                s.instr(0, 5);
                s.compute(1, 7);
                let mut want = before;
                want.counters.l1i_accesses += 5;
                want.core_cycles[0] += 5;
                want.core_cycles[1] += 7;
                assert_eq!(s.stats(), want);
            },
        );
        let hooks = s
            .hooks_mut()
            .as_any_mut()
            .downcast_mut::<RecordingHooks>()
            .unwrap();
        // Only the timed write's fill and the entry flush reached the hooks.
        assert_eq!(hooks.fills, vec![nvm(0).line()]);
        assert_eq!(hooks.writebacks, vec![nvm(0).line()]);
    }

    #[test]
    fn fast_forward_ends_when_its_closure_unwinds() {
        let mut s = sys();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            System::fast_forward(&mut s, |s| s, |_| panic!("set-up failed"))
        }));
        assert!(unwound.is_err());
        s.read(0, nvm(0), &mut [0u8; 8]).unwrap();
        assert_eq!(
            s.stats().counters.nvm_data_reads,
            1,
            "timed again after the unwind"
        );
    }

    #[test]
    fn crash_budget_admits_a_strict_prefix_of_writebacks() {
        // Reference run: count the writeback events of a deterministic
        // workload. Then replay with every budget k and check the media
        // holds exactly the first k lines of the flush order.
        let workload = |s: &mut System| {
            for i in 0..8u64 {
                s.write(0, nvm(i * 64), &[i as u8 + 1; 64]).unwrap();
            }
        };
        let mut r = sys();
        r.crash_window_start(None);
        workload(&mut r);
        r.flush();
        let total = r.crash_events();
        assert_eq!(total, 8, "8 dirty lines, 8 writeback events");
        assert_eq!(r.crash_suppressed(), 0);
        // Flush order on the reference run = media landing order.
        let landing: Vec<u64> = (0..8)
            .filter(|i| r.memory().peek_line(nvm(i * 64).line())[0] != 0)
            .collect();
        assert_eq!(landing.len(), 8);
        for k in 0..=total {
            let mut s = sys();
            s.crash_window_start(Some(k));
            workload(&mut s);
            s.flush();
            assert_eq!(
                s.crash_events(),
                total,
                "budget must not change event count"
            );
            assert_eq!(s.crash_suppressed(), total - k);
            assert!(s.crashed(), "budget <= event count means crashed");
            let persisted = (0..8)
                .filter(|i| s.memory().peek_line(nvm(i * 64).line())[0] != 0)
                .count() as u64;
            assert_eq!(persisted, k, "exactly the first k writebacks persist");
        }
    }

    #[test]
    fn lose_volatile_state_drops_caches_and_disarms() {
        let mut s = sys();
        s.crash_window_start(Some(0));
        s.write(0, nvm(0), &[9u8; 64]).unwrap();
        s.flush();
        assert!(s.crashed());
        assert_eq!(s.memory().peek_line(nvm(0).line()), [0u8; 64]);
        s.lose_volatile_state();
        assert!(!s.crashed(), "lose_volatile_state disarms the budget");
        // The dirty cached copy is gone: a fresh read sees media zeros.
        let mut buf = [0u8; 8];
        s.read(0, nvm(0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn clwb_persists_without_evicting() {
        let mut s = sys();
        s.write(0, nvm(128), &[5u8; 64]).unwrap();
        s.clwb(0, nvm(128).line());
        assert_eq!(s.memory().peek_line(nvm(128).line()), [5u8; 64]);
        // The line is still cached: re-reading hits the L1.
        let before = s.stats().counters;
        let mut buf = [0u8; 8];
        s.read(0, nvm(128), &mut buf).unwrap();
        let after = s.stats().counters;
        assert_eq!(buf, [5u8; 8]);
        assert_eq!(after.l1d_hits - before.l1d_hits, 1);
        assert_eq!(after.nvm_data_reads, before.nvm_data_reads);
        // A second clwb of the (now clean) line writes nothing.
        let w0 = s.stats().counters.nvm_data_writes;
        s.clwb(0, nvm(128).line());
        assert_eq!(s.stats().counters.nvm_data_writes, w0);
    }

    #[test]
    fn clwb_refreshes_stale_l2_copies() {
        // Regression: a written-back line must not strand a newer L1 value
        // above a stale clean L2 copy. Fill L1+L2 with v1, dirty the L1 with
        // v2 (the L2 copy goes stale), clwb, then check the L2 copy was
        // refreshed — a silent eviction of the now-clean L1 line would
        // otherwise resurrect v1 on the next read.
        let mut s = sys();
        s.write(0, nvm(256), &[1u8; 64]).unwrap();
        s.flush();
        s.read(0, nvm(256), &mut [0u8; 8]).unwrap(); // refill L1+L2 clean
        s.write(0, nvm(256), &[2u8; 64]).unwrap(); // dirty in L1, L2 stale
        s.clwb(0, nvm(256).line());
        assert_eq!(s.memory().peek_line(nvm(256).line()), [2u8; 64]);
        let line = nvm(256).line();
        let core = &mut s.cores[0];
        let w = core.l2.all_ways();
        if let Some(e) = core.l2.lookup(line, w) {
            assert_eq!(*e.data, [2u8; 64], "L2 copy must be refreshed");
            assert!(!e.dirty());
        }
        // And a full flush afterwards must not resurrect v1.
        s.flush();
        assert_eq!(s.memory().peek_line(nvm(256).line()), [2u8; 64]);
    }

    #[test]
    fn clwb_range_covers_straddling_lines() {
        let mut s = sys();
        // 100..300 straddles lines 1..=4 (byte 100 is in line 1, 299 in 4).
        s.write(0, nvm(100), &[7u8; 200]).unwrap();
        s.clwb_range(0, nvm(100), 200);
        assert_eq!(s.memory().peek_line(nvm(100).line())[36], 7);
        assert_eq!(s.memory().peek_line(nvm(299).line())[0], 7);
        s.clwb_range(0, nvm(0), 0); // len 0 is a no-op
    }

    #[test]
    fn crashed_system_skips_fill_verification() {
        // FailingHooks errors on every fill; once the budget is exhausted
        // fills must bypass verification (the machine is "off").
        struct AlwaysFail;
        impl RedundancyHooks for AlwaysFail {
            fn on_nvm_fill(
                &mut self,
                _core: usize,
                line: LineAddr,
                _data: &[u8; CACHE_LINE],
                _env: &mut HookEnv<'_>,
            ) -> Result<(), CorruptionDetected> {
                Err(CorruptionDetected { line })
            }
            fn on_nvm_writeback(
                &mut self,
                _c: usize,
                _l: LineAddr,
                _d: &[u8; CACHE_LINE],
                _e: &mut HookEnv<'_>,
            ) {
            }
            fn on_llc_clean_to_dirty(
                &mut self,
                _c: usize,
                _l: LineAddr,
                _d: &[u8; CACHE_LINE],
                _e: &mut HookEnv<'_>,
            ) {
            }
            fn flush(&mut self, _e: &mut HookEnv<'_>) {}
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn name(&self) -> &'static str {
                "always-fail"
            }
        }
        let mut s = System::new(SystemConfig::small(), Box::new(AlwaysFail));
        let mut buf = [0u8; 4];
        assert!(s.read(0, nvm(0), &mut buf).is_err());
        s.crash_window_start(Some(0));
        assert!(s.crashed());
        s.read(0, nvm(64), &mut buf)
            .expect("crashed fills skip hooks");
    }
}
