//! Device replacement: fail → degraded serving → hot-spare attach → online
//! resilver → healthy, paced against foreground traffic by one maintenance
//! token bucket that the resilver shares with the scrub daemon.
//!
//! A DIMM failure is fail-stop ([`Memory::fail_bank`](memsim::Memory::fail_bank)):
//! a blank spare takes the device's place at once, and every line the
//! device held is lost, a media error the engine signals on read under
//! every design. The design's own cross-DIMM parity is the only redundancy,
//! so every repair is one call of the one page-reconstruction entry,
//! [`recover_page`]. The [`ReplacementManager`] is the OS-side owner of a
//! pool's whole-device fault handling, the counterpart of the per-page
//! [`RecoveryOrchestrator`](crate::recover::RecoveryOrchestrator):
//!
//! - [`fail_device`](ReplacementManager::fail_device) flushes the cache
//!   hierarchy, so the design's redundancy on media is current, fails the
//!   bank, and rebuilds the checksum and parity pages the bank held
//!   ([`rebuild_failed_bank`]) before the next foreground op. The pool is
//!   now *degraded*: a foreground read of a lost line is detected, and the
//!   orchestrator's retry repairs the page (reconstruct-on-read).
//! - [`attach_spare`](ReplacementManager::attach_spare) starts the resilver
//!   cursor over the bank's data pages and the pool enters *rebuilding*.
//! - Each foreground operation reported via
//!   [`on_op`](ReplacementManager::on_op) feeds the token bucket; a granted
//!   [`step_rebuild`](ReplacementManager::step_rebuild) flushes and
//!   recovers the bank's next still-lost page. `recover_page` invalidates
//!   without writeback, hence the flush. The step that passes the bank's
//!   last page returns the pool to healthy, so
//!   [`pool_state`](ReplacementManager::pool_state) observed after each
//!   operation delimits the healthy / degraded / rebuilding / recovered
//!   phases a campaign reports on.
//!
//! A foreground write cannot race the resilver: it fills its line first,
//! and the fill of a lost line is repaired before the write proceeds.
//!
//! A page is *declared lost*, and returned for quarantine, when its stripe
//! holds two erasures (a second failure before the resilver reached it) or
//! when the design keeps no parity (Baseline). Its lines stay lost, so a
//! read of it is signalled, never served as wrong bytes.

use memsim::addr::{nvm_page, PageNum};
use memsim::engine::System;
use std::collections::BTreeSet;
use tvarak::init::rebuild_failed_bank;
use tvarak::layout::NvmLayout;
use tvarak::recovery::recover_page;
use tvarak::scrub::ScrubGranularity;

/// Tokens one foreground operation deposits.
const REFILL_PER_OP: u32 = 1;
/// Token cap: an idle pool banks at most this much maintenance work.
const BURST: u32 = 8;
/// Token cost of one granted step, a resilvered page or a scrub step alike:
/// at steady state one step per two foreground ops, fast enough that a
/// resilver stays a bounded fraction of a campaign cell, slow enough that
/// it visibly interleaves with (and is paced by) foreground traffic.
const STEP_COST: u32 = 2;
/// After this many rebuild grants in a row, a pending scrub gets the next
/// grant (its minimum share, which bounds detection latency).
const SCRUB_EVERY: u32 = 4;

/// Pool-level redundancy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolState {
    /// No device down; full redundancy margin.
    Healthy,
    /// At least one device failed with no spare attached; lost lines are
    /// repaired as reads detect them.
    Degraded,
    /// A hot spare is attached and the resilver is in progress.
    Rebuilding,
}

/// What the scheduler granted this operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintGrant {
    /// Resilver one page.
    Rebuild,
    /// Run one budgeted scrub step.
    Scrub,
}

/// The maintenance token bucket. Rebuild outranks scrub (an exposed stripe
/// is a second fault away from data loss), but after [`SCRUB_EVERY`]
/// rebuild grants in a row a pending scrub gets the next grant.
///
/// The balance is unsigned and a grant only takes what it covers, so it
/// never goes negative. Every op deposits [`REFILL_PER_OP`] and every
/// grant costs [`STEP_COST`], so with work pending a grant comes at least
/// every second op. A pending rebuild loses at most one grant in a row to
/// the scrub share, which restarts the rebuild run, so it waits at most 3
/// consecutive ops: the op before the scrub grant, the grant, and the op
/// after it.
#[derive(Debug)]
struct Scheduler {
    tokens: u32,
    rebuilds_in_row: u32,
}

impl Default for Scheduler {
    /// A full bucket.
    fn default() -> Self {
        Scheduler {
            tokens: BURST,
            rebuilds_in_row: 0,
        }
    }
}

impl Scheduler {
    /// Account one foreground operation and decide whether to grant a
    /// maintenance step.
    fn on_op(&mut self, rebuild_pending: bool, scrub_pending: bool) -> Option<MaintGrant> {
        self.tokens = (self.tokens + REFILL_PER_OP).min(BURST);
        if !rebuild_pending && !scrub_pending {
            return None;
        }
        self.tokens = self.tokens.checked_sub(STEP_COST)?;
        if scrub_pending && (!rebuild_pending || self.rebuilds_in_row >= SCRUB_EVERY) {
            self.rebuilds_in_row = 0;
            Some(MaintGrant::Scrub)
        } else {
            self.rebuilds_in_row += 1;
            Some(MaintGrant::Rebuild)
        }
    }
}

/// Owns the device-replacement lifecycle for one pool: the failed banks,
/// the resilver cursor, the maintenance token bucket arbitrating rebuild
/// against scrub, the pages declared lost and the lifetime resilver
/// counters.
#[derive(Debug)]
pub struct ReplacementManager {
    layout: NvmLayout,
    /// The checksum granularity repairs verify against; `None` for a
    /// design that keeps no redundancy.
    granularity: Option<ScrubGranularity>,
    scheduler: Scheduler,
    /// Failed banks with no spare attached yet, in failure order.
    failed: Vec<usize>,
    /// `(bank, region page index of its next page)` of the running resilver.
    resilver: Option<(usize, u64)>,
    lost: BTreeSet<PageNum>,
    rebuilds_completed: u64,
    pages_resilvered: u64,
}

impl ReplacementManager {
    /// A manager for the pool laid out by `layout`, whose design keeps its
    /// checksums at `granularity` (`None`: no redundancy to repair from).
    pub fn new(layout: NvmLayout, granularity: Option<ScrubGranularity>) -> Self {
        ReplacementManager {
            layout,
            granularity,
            scheduler: Scheduler::default(),
            failed: Vec::new(),
            resilver: None,
            lost: BTreeSet::new(),
            rebuilds_completed: 0,
            pages_resilvered: 0,
        }
    }

    /// Fail `bank` as a whole device: flush the cache hierarchy first, so
    /// every acknowledged write and its redundancy are on media — a clean
    /// fail-stop — then lose the bank and rebuild the redundancy pages it
    /// held. Returns the data pages this failure declared lost (two
    /// erasures in their stripe); the caller quarantines them.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is already failed or resilvering.
    pub fn fail_device(&mut self, sys: &mut System, bank: usize) -> Vec<PageNum> {
        let down = self.failed.contains(&bank) || self.resilver.is_some_and(|(b, _)| b == bank);
        assert!(!down, "bank {bank} is already down");
        sys.flush();
        sys.memory_mut().fail_bank(bank);
        self.failed.push(bank);
        if self.granularity.is_none() {
            return Vec::new();
        }
        let lost = rebuild_failed_bank(&self.layout, sys.memory_mut(), bank);
        lost.into_iter().filter(|&p| self.lost.insert(p)).collect()
    }

    /// Attach a hot spare to failed `bank` and start its resilver. Only one
    /// resilver runs at a time; with multiple failed banks, attach and
    /// finish them one after another.
    ///
    /// # Panics
    ///
    /// Panics if a resilver is already running, or `bank` is not failed.
    pub fn attach_spare(&mut self, bank: usize) {
        assert!(self.resilver.is_none(), "a resilver is already in progress");
        let pos = self.failed.iter().position(|&b| b == bank);
        self.failed
            .remove(pos.unwrap_or_else(|| panic!("bank {bank} is not failed")));
        self.resilver = Some((bank, bank as u64));
    }

    /// The pool's redundancy state: Rebuilding wins over Degraded when both
    /// apply (a second device down while a first resilvers).
    pub fn pool_state(&self) -> PoolState {
        if self.resilver.is_some() {
            PoolState::Rebuilding
        } else if self.failed.is_empty() {
            PoolState::Healthy
        } else {
            PoolState::Degraded
        }
    }

    /// Account one foreground operation and ask the token bucket for a
    /// maintenance grant. Call exactly once per foreground op; on
    /// [`MaintGrant::Rebuild`] call [`step_rebuild`](Self::step_rebuild),
    /// on [`MaintGrant::Scrub`] run one budgeted scrub step.
    pub fn on_op(&mut self, scrub_pending: bool) -> Option<MaintGrant> {
        self.scheduler.on_op(self.resilver.is_some(), scrub_pending)
    }

    /// Repair the failed bank's next data page that is still lost (reads
    /// may have repaired some already): flush, then [`recover_page`]. One
    /// page per call keeps the foreground-latency impact of a grant
    /// bounded. The step that passes the bank's last page completes the
    /// resilver. Does nothing when no resilver is running.
    ///
    /// Returns the page if the step declared it lost (its stripe does not
    /// verify, or the design keeps no parity); the caller quarantines it.
    pub fn step_rebuild(&mut self, sys: &mut System) -> Option<PageNum> {
        let (bank, mut idx) = self.resilver?;
        let d = self.layout.geometry().dimms() as u64;
        let end = self
            .layout
            .geometry()
            .total_pages_for(self.layout.data_pages());
        let mut next = None;
        while idx < end && next.is_none() {
            let page = nvm_page(idx);
            idx += d;
            let lost = self.layout.is_data_line(page.line(0)) && sys.memory().page_lost(page);
            next = (lost && !self.lost.contains(&page)).then_some(page);
        }
        self.resilver = (idx < end).then_some((bank, idx));
        if self.resilver.is_none() {
            self.rebuilds_completed += 1;
        }
        let page = next?;
        if let Some(granularity) = self.granularity {
            sys.flush();
            if recover_page(sys, &self.layout, granularity, page).is_ok() {
                self.pages_resilvered += 1;
                return None;
            }
        }
        self.lost.insert(page);
        Some(page)
    }

    /// Resilvers driven to completion.
    pub fn rebuilds_completed(&self) -> u64 {
        self.rebuilds_completed
    }

    /// Pages the resilver repaired.
    pub fn pages_resilvered(&self) -> u64 {
        self.pages_resilvered
    }

    /// Pages declared lost, by a failure or by the resilver.
    pub fn pages_lost(&self) -> u64 {
        self.lost.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{DaxFs, FileHandle};
    use crate::recover::tests::retried;
    use crate::recover::RecoveryOrchestrator;
    use memsim::config::SystemConfig;
    use memsim::engine::{NullHooks, RedundancyHooks};
    use memsim::PAGE;
    use tvarak::controller::{TvarakConfig, TvarakController};

    /// A 16-data-page pool, all of it allocated: the orchestrator's store
    /// and one DAX-mapped file holding distinct content. Under Tvarak the
    /// orchestrator repairs what reads detect; without a controller
    /// (Baseline) there is none.
    struct Pool {
        sys: System,
        orch: Option<RecoveryOrchestrator>,
        file: FileHandle,
        mgr: ReplacementManager,
    }

    fn pool(tvarak: bool) -> Pool {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 16);
        let hooks: Box<dyn RedundancyHooks> = match tvarak {
            true => Box::new(TvarakController::new(
                TvarakConfig::default(),
                layout,
                cfg.llc_banks,
                cfg.controller.cache_bytes,
                cfg.controller.cache_ways,
            )),
            false => Box::new(NullHooks),
        };
        let granularity = tvarak.then_some(ScrubGranularity::CacheLine);
        let mut sys = System::new(cfg, hooks);
        let mut fs = DaxFs::new(layout, &mut sys);
        let orch = granularity.map(|g| RecoveryOrchestrator::new(&mut fs, &mut sys, g).unwrap());
        let file = fs.create(&mut sys, fs.free_pages() * PAGE as u64).unwrap();
        fs.dax_map(&mut sys, &file);
        for i in 0..file.pages() * PAGE as u64 / 64 {
            file.write(&mut sys, 0, i * 64, &[i as u8 ^ 0x5a; 64])
                .unwrap();
        }
        sys.flush();
        let mgr = ReplacementManager::new(layout, granularity);
        Pool {
            sys,
            orch,
            file,
            mgr,
        }
    }

    impl Pool {
        fn read(&mut self, offset: u64) -> Result<[u8; 64], ()> {
            let (mut buf, file) = ([0u8; 64], self.file);
            let mut read = |sys: &mut System| file.read(sys, 0, offset, &mut buf);
            match self.orch.as_mut() {
                Some(o) => retried(o, &mut self.sys, (&file, offset, 64), read).map_err(drop),
                None => read(&mut self.sys).map_err(drop),
            }?;
            Ok(buf)
        }

        /// Step the running resilver to completion; returns the pages it
        /// declared lost.
        fn finish(&mut self) -> Vec<PageNum> {
            let mut lost = Vec::new();
            while self.mgr.pool_state() == PoolState::Rebuilding {
                lost.extend(self.mgr.step_rebuild(&mut self.sys));
            }
            lost
        }
    }

    #[test]
    fn resilver_restores_media_exactly_while_a_write_races_it() {
        let run = |fail: bool| {
            let mut p = pool(true);
            if fail {
                assert_eq!(p.mgr.fail_device(&mut p.sys, 1), []);
                p.mgr.attach_spare(1);
            }
            let (orch, file) = (p.orch.as_mut().unwrap(), p.file);
            for i in 0..64u64 {
                // A foreground write ahead of the cursor: its fill of a lost
                // line repairs the page before the write lands.
                let off = (i * 67 * 64 + 4096) % (file.pages() * PAGE as u64);
                let write = |sys: &mut System| file.write(sys, 0, off, &[i as u8; 64]);
                retried(orch, &mut p.sys, (&file, off, 64), write).unwrap();
                if i % 8 == 7 {
                    assert_eq!(p.mgr.step_rebuild(&mut p.sys), None);
                }
            }
            assert_eq!(p.mgr.pool_state(), PoolState::Healthy);
            p.sys.flush();
            (
                p.sys.memory().content_hash(),
                p.mgr.pages_resilvered(),
                orch.recoveries(),
            )
        };
        let (healthy, _, _) = run(false);
        let (hash, resilvered, on_demand) = run(true);
        assert_eq!(hash, healthy, "bit-exact media after the resilver");
        assert!(
            resilvered > 0 && on_demand > 0,
            "{resilvered} by cursor, {on_demand} by writes"
        );
    }

    #[test]
    fn page_whose_checksums_sat_on_the_dead_dimm_is_not_quarantined() {
        let mut p = pool(true);
        let layout = p.mgr.layout;
        // A live data page whose DAX-CL-checksum table page is on DIMM 1.
        let d = layout.geometry().dimms() as u64;
        let n = (0..p.file.pages())
            .find(|&n| {
                let page = p.file.page(n);
                page.nvm_index() % d != 1
                    && layout.cl_csum_loc(page.line(0)).0.page().nvm_index() % d == 1
            })
            .expect("a page with its checksums on DIMM 1");
        let want = p.read(n * PAGE as u64).unwrap();
        p.mgr.fail_device(&mut p.sys, 1);
        assert_eq!(p.read(n * PAGE as u64), Ok(want));
        let orch = p.orch.as_ref().unwrap();
        assert_eq!((orch.detections(), orch.quarantines()), (0, 0));
    }

    #[test]
    fn lifecycle_healthy_degraded_rebuilding_healthy() {
        let mut p = pool(true);
        assert_eq!(p.mgr.pool_state(), PoolState::Healthy);
        let lost_page = (0..p.file.pages())
            .find(|&n| p.file.page(n).nvm_index() % 4 == 2)
            .unwrap();
        let off = lost_page * PAGE as u64;
        let want = p.read(off).unwrap();
        p.mgr.fail_device(&mut p.sys, 2);
        assert_eq!(p.mgr.pool_state(), PoolState::Degraded);
        // Degraded serving: the read detects the lost line and repairs its
        // page from the stripe (reconstruct-on-read).
        assert!(p.sys.memory().page_lost(p.file.page(lost_page)));
        assert_eq!(p.read(off), Ok(want));
        assert!(!p.sys.memory().page_lost(p.file.page(lost_page)));
        assert_eq!(p.orch.as_ref().unwrap().recoveries(), 1);
        p.mgr.attach_spare(2);
        assert_eq!(p.mgr.pool_state(), PoolState::Rebuilding);
        assert_eq!(p.finish(), []);
        assert_eq!(p.mgr.pool_state(), PoolState::Healthy);
        assert_eq!(p.mgr.rebuilds_completed(), 1);
        assert!(p.mgr.pages_resilvered() > 0);
        assert!(
            !p.sys.memory().any_lost(),
            "data and redundancy all rebuilt"
        );
    }

    #[test]
    fn second_failure_mid_resilver_quarantines_two_erasure_pages() {
        let mut p = pool(true);
        let want: Vec<_> = (0..p.file.pages())
            .map(|n| p.read(n * PAGE as u64).unwrap())
            .collect();
        p.mgr.fail_device(&mut p.sys, 1);
        p.mgr.attach_spare(1);
        assert_eq!(p.mgr.step_rebuild(&mut p.sys), None, "one page repaired");
        let lost = p.mgr.fail_device(&mut p.sys, 3);
        assert!(!lost.is_empty(), "stripes with both DIMMs' pages lost");
        assert_eq!(p.mgr.pool_state(), PoolState::Rebuilding);
        for &page in &lost {
            p.orch.as_mut().unwrap().quarantine_page(&mut p.sys, page);
        }
        p.finish();
        p.mgr.attach_spare(3);
        p.finish();
        assert_eq!(p.mgr.pool_state(), PoolState::Healthy);
        assert_eq!(
            p.mgr.pages_lost(),
            lost.len() as u64,
            "only the two-erasure pages"
        );
        // Every read either returns the written bytes or fails closed.
        for (n, want) in want.iter().enumerate() {
            match p.read(n as u64 * PAGE as u64) {
                Ok(got) => assert_eq!(&got, want, "file page {n}"),
                Err(()) => assert!(lost.contains(&p.file.page(n as u64)), "file page {n}"),
            }
        }
    }

    #[test]
    fn baseline_declares_the_dead_dimm_lost_and_reads_are_signalled() {
        let mut p = pool(false);
        assert_eq!(p.mgr.fail_device(&mut p.sys, 0), [], "nothing to rebuild");
        p.mgr.attach_spare(0);
        let lost = p.finish();
        assert_eq!(
            p.mgr.pool_state(),
            PoolState::Healthy,
            "the device is replaced"
        );
        assert_eq!(p.mgr.pages_lost(), lost.len() as u64);
        for n in 0..p.file.pages() {
            let gone = lost.contains(&p.file.page(n));
            assert_eq!(p.read(n * PAGE as u64).is_err(), gone, "file page {n}");
        }
        assert!(!lost.is_empty());
    }

    #[test]
    fn scheduler_paces_rebuild_against_foreground_ops() {
        let mut p = pool(true);
        p.mgr.fail_device(&mut p.sys, 0);
        p.mgr.attach_spare(0);
        // At most one grant per op, every grant a rebuild.
        let mut ops = 0u64;
        while p.mgr.pool_state() == PoolState::Rebuilding {
            ops += 1;
            assert!(ops < 100_000, "starved resilver");
            match p.mgr.on_op(false) {
                Some(MaintGrant::Rebuild) => assert_eq!(p.mgr.step_rebuild(&mut p.sys), None),
                Some(MaintGrant::Scrub) => panic!("no scrub work was pending"),
                None => {}
            }
        }
        // The resilver cannot beat one page per STEP_COST ops by more than
        // the banked burst.
        let total = p.mgr.pages_resilvered();
        assert!(total > 0);
        assert!(
            u64::from(STEP_COST) * total <= ops + u64::from(BURST),
            "outran its budget"
        );
    }

    #[test]
    fn rebuild_paced_by_refill_rate() {
        let mut s = Scheduler::default();
        let grants = (0..100).filter(|_| s.on_op(true, false).is_some()).count();
        // The full bucket funds seven grants back to back (ops 0–6; op 0's
        // refill is lost to the cap), then one grant every STEP_COST ops:
        // ops 8, 10, …, 98 → 46 more.
        assert_eq!(grants, 53);
    }

    #[test]
    fn rebuild_outranks_scrub_but_scrub_gets_minimum_share() {
        let mut s = Scheduler::default();
        let seq: Vec<MaintGrant> = (0..200).filter_map(|_| s.on_op(true, true)).collect();
        assert_eq!(seq[0], MaintGrant::Rebuild, "rebuild has priority");
        let runs: Vec<&[MaintGrant]> = seq.split(|&g| g == MaintGrant::Scrub).collect();
        assert!(runs.len() > 1, "scrub never starves");
        assert!(
            runs.iter().all(|r| r.len() as u32 <= SCRUB_EVERY),
            "min scrub share violated"
        );
    }

    #[test]
    fn scheduler_is_deterministic() {
        let run = || {
            let mut s = Scheduler::default();
            (0..500)
                .map(|i| s.on_op(i % 3 != 0, i % 2 == 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_scheduler_grants_nothing_and_banks_burst_only() {
        let mut s = Scheduler::default();
        for _ in 0..50 {
            assert_eq!(s.on_op(false, false), None);
        }
        assert_eq!(s.tokens, BURST, "banked at most the burst cap");
    }

    /// Drive `s` over `(rebuild pending, scrub pending)` inputs and check the
    /// bounds the constants give (see [`Scheduler`]): the balance stays in
    /// `0..=BURST`, a pending rebuild waits at most 3 ops in a row for a
    /// grant, and a scrub pending during a resilver gets a grant after at
    /// most [`SCRUB_EVERY`] rebuild grants in a row.
    fn check_bounds(s: &mut Scheduler, inputs: impl IntoIterator<Item = (bool, bool)>) {
        let (mut rebuild_wait, mut rebuilds_past_scrub) = (0, 0);
        for (rebuild, scrub) in inputs {
            let grant = s.on_op(rebuild, scrub);
            assert!(s.tokens <= BURST);
            rebuild_wait = if rebuild && grant != Some(MaintGrant::Rebuild) {
                rebuild_wait + 1
            } else {
                0
            };
            assert!(rebuild_wait <= 3, "rebuild waited {rebuild_wait} ops");
            rebuilds_past_scrub = match grant {
                Some(MaintGrant::Rebuild) if scrub => rebuilds_past_scrub + 1,
                Some(MaintGrant::Rebuild) => rebuilds_past_scrub,
                _ => 0,
            };
            if !scrub {
                rebuilds_past_scrub = 0;
            }
            assert!(rebuilds_past_scrub <= SCRUB_EVERY, "scrub starved");
        }
    }

    #[test]
    fn bucket_never_overdraws_and_bounds_every_wait() {
        let input = |code: u32| (code & 1 == 1, code & 2 == 2);
        // Every pending pattern of length 8, from a full and a drained bucket.
        for pattern in 0..4u32.pow(8) {
            let steps = (0..8).map(|k| input(pattern >> (2 * k) & 3));
            check_bounds(&mut Scheduler::default(), steps.clone());
            let mut drained = Scheduler::default();
            check_bounds(&mut drained, [(true, true); 8]);
            check_bounds(&mut drained, steps);
        }
        // Seeded streams with runs of each pattern, as a resilver and a
        // scrub daemon produce them.
        for seed in 1..=4u64 {
            let mut x = seed;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (mut code, mut s) = (0, Scheduler::default());
            let steps = (0..20_000).map(|_| {
                let r = next();
                if r % 16 == 0 {
                    code = (r >> 8) as u32 & 3;
                }
                input(code)
            });
            check_bounds(&mut s, steps);
        }
    }
}
