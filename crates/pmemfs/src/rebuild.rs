//! Device replacement: fail → degraded serving → hot-spare attach → online
//! resilver → healthy, paced against foreground traffic by one maintenance
//! token bucket that the resilver shares with the scrub daemon.
//!
//! The [`ReplacementManager`] is the OS-side owner of a pool's whole-device
//! fault handling, the counterpart of the per-page
//! [`RecoveryOrchestrator`](crate::recover::RecoveryOrchestrator):
//!
//! - [`fail_device`](ReplacementManager::fail_device) quiesces the cache
//!   hierarchy (so the firmware shadow syndromes reflect every acknowledged
//!   write) and fails the bank. The pool is now *degraded*: reads of the
//!   failed bank reconstruct from parity on the fly, writes are absorbed
//!   into the syndromes — serving continues, at reduced margin.
//! - [`attach_spare`](ReplacementManager::attach_spare) starts the resilver
//!   of the bank and the pool enters *rebuilding*.
//! - Each foreground operation reported via
//!   [`on_op`](ReplacementManager::on_op) feeds the token bucket; a granted
//!   [`step_rebuild`](ReplacementManager::step_rebuild) resilvers one page,
//!   charging the surviving members' reads and the spare's writes as NVM
//!   traffic. The step that resilvers the bank's last page returns the bank
//!   to Healthy, so [`PoolState::of`] observed after each operation cleanly
//!   delimits the healthy / degraded / rebuilding / recovered phases a
//!   campaign reports on.
//!
//! The resilver is safe against racing writes by construction. A
//! foreground write landing on a not-yet-resilvered line makes the line
//! live (the write-intent mask in `memsim`), and the resilver skips live
//! lines, never clobbering newer data with an older reconstruction. A
//! resilver write has a self-cancelling syndrome delta, so it cannot
//! corrupt the shadow parity that later lines still need.
//!
//! A page that cannot be reconstructed (a second concurrent fault at
//! P-only, a third at P+Q) is *abandoned*: its media is poisoned, its
//! cached copies dropped, and the caller must quarantine it with the
//! orchestrator — the fail-closed path, never fabricated data.

use memsim::addr::{nvm_page, PageNum, LINES_PER_PAGE};
use memsim::engine::System;
use memsim::{BankState, Memory};

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

/// Pool-level redundancy state, read from the firmware's bank states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolState {
    /// All devices healthy; full redundancy margin.
    Healthy,
    /// At least one device failed with no spare attached; serving from
    /// parity reconstruct-on-read.
    Degraded,
    /// A hot spare is attached and the resilver is in progress.
    Rebuilding,
}

impl PoolState {
    /// The state of the pool on `mem`. Rebuilding wins over Degraded when
    /// both apply (a second device down while a first resilvers); a pool
    /// without firmware RAID is Healthy.
    pub fn of(mem: &Memory) -> Self {
        if !mem.raid_enabled() {
            return PoolState::Healthy;
        }
        if bank_in(mem, BankState::Rebuilding).is_some() {
            PoolState::Rebuilding
        } else if bank_in(mem, BankState::Failed).is_some() {
            PoolState::Degraded
        } else {
            PoolState::Healthy
        }
    }
}

/// The lowest-numbered NVM bank of `mem` in `state`, if any.
pub fn bank_in(mem: &Memory, state: BankState) -> Option<usize> {
    (0..mem.nvm_dimms()).find(|&b| mem.bank_state(b) == state)
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

/// Owns the device-replacement lifecycle for one pool: the resilver cursor,
/// the maintenance token bucket arbitrating rebuild against scrub, and the
/// lifetime resilver counters.
#[derive(Debug, Default)]
pub struct ReplacementManager {
    scheduler: Scheduler,
    /// `(bank, region page index of its next page)` of the running resilver.
    resilver: Option<(usize, u64)>,
    rebuilds_completed: u64,
    pages_resilvered: u64,
    pages_abandoned: u64,
    lines_reconstructed: u64,
    lines_already_live: u64,
}

impl ReplacementManager {
    /// Fail `bank` as a whole device. Flushes the cache hierarchy *first*
    /// so every acknowledged write has reached the firmware (and its shadow
    /// syndromes) before the media disappears — a clean fail-stop. The pool
    /// keeps serving degraded afterwards.
    ///
    /// # Panics
    ///
    /// Panics if firmware RAID is unconfigured or the bank is not Healthy
    /// (an already-failed or mid-resilver device cannot fail "again").
    pub fn fail_device(&mut self, sys: &mut System, bank: usize) {
        sys.flush();
        sys.memory_mut().fail_bank(bank);
    }

    /// Attach a hot spare to failed `bank` and start its resilver. Only one
    /// resilver runs at a time; with multiple failed banks, attach and
    /// finish them one after another.
    ///
    /// # Panics
    ///
    /// Panics if a resilver is already running, or `bank` is not Failed.
    pub fn attach_spare(&mut self, sys: &mut System, bank: usize) {
        assert!(self.resilver.is_none(), "a resilver is already in progress");
        sys.memory_mut().attach_spare(bank);
        self.resilver = Some((bank, bank as u64));
    }

    /// Whether a resilver is running (drives the scheduler's rebuild
    /// priority).
    pub fn rebuild_pending(&self) -> bool {
        self.resilver.is_some()
    }

    /// Account one foreground operation and ask the token bucket for a
    /// maintenance grant. Call exactly once per foreground op; on
    /// [`MaintGrant::Rebuild`] call [`step_rebuild`](Self::step_rebuild),
    /// on [`MaintGrant::Scrub`] run one budgeted scrub step.
    pub fn on_op(&mut self, scrub_pending: bool) -> Option<MaintGrant> {
        self.scheduler.on_op(self.rebuild_pending(), scrub_pending)
    }

    /// Resilver the next page of the failed bank on `core`. One page per
    /// call keeps the foreground-latency impact of a grant bounded. The
    /// step that processes the bank's last page also returns the bank to
    /// Healthy. Does nothing when no resilver is running.
    ///
    /// Returns the page if it was abandoned: its media is poisoned and its
    /// cached copies dropped, and the caller must quarantine it with the
    /// recovery orchestrator.
    pub fn step_rebuild(&mut self, sys: &mut System, core: usize) -> Option<PageNum> {
        let (bank, idx) = self.resilver?;
        let dimms = sys.memory().nvm_dimms() as u64;
        let abandoned = self.resilver_page(sys, core, idx, dimms);
        if idx + dimms < sys.memory().striped_pages() {
            self.resilver = Some((bank, idx + dimms));
        } else {
            sys.memory_mut().complete_rebuild(bank);
            self.resilver = None;
            self.rebuilds_completed += 1;
        }
        abandoned
    }

    /// Reconstruct every dead line of region page `idx` first, and write
    /// only if the whole page solves, so an unreconstructible line never
    /// leaves the page half resilvered before it is poisoned.
    fn resilver_page(
        &mut self,
        sys: &mut System,
        core: usize,
        idx: u64,
        dimms: u64,
    ) -> Option<PageNum> {
        let page = nvm_page(idx);
        let mut pending: Vec<(usize, [u8; 64])> = Vec::new();
        for li in 0..LINES_PER_PAGE {
            let line = page.line(li);
            if sys.memory().line_live(line) {
                self.lines_already_live += 1;
                continue;
            }
            let Some(rec) = sys.memory().reconstruct_line(line) else {
                // Fail closed: poison the page and drop cached copies so no
                // stale clean line can serve reads past the poison.
                sys.memory_mut().abandon_page(idx);
                sys.invalidate_page(page);
                self.pages_abandoned += 1;
                return Some(page);
            };
            pending.push((li, rec));
        }
        let stripe_base = idx / dimms * dimms;
        sys.memory_mut().set_resilver_mode(true);
        sys.with_hooks_env(|_hooks, env| {
            for &(li, ref rec) in &pending {
                let line = page.line(li);
                // Charge the surviving members' reads: reconstruction
                // streams one line from every live sibling in the stripe.
                for s in 0..dimms {
                    let member = nvm_page(stripe_base + s).line(li);
                    if member != line && env.memory().line_live(member) {
                        let _ = env.nvm_read_old_data(core, member);
                    }
                }
                env.nvm_write_data(core, line, rec);
            }
        });
        sys.memory_mut().set_resilver_mode(false);
        self.lines_reconstructed += pending.len() as u64;
        self.pages_resilvered += 1;
        None
    }

    /// Resilvers driven to completion.
    pub fn rebuilds_completed(&self) -> u64 {
        self.rebuilds_completed
    }

    /// Pages fully resilvered.
    pub fn pages_resilvered(&self) -> u64 {
        self.pages_resilvered
    }

    /// Pages abandoned (poisoned, quarantine-bound).
    pub fn pages_abandoned(&self) -> u64 {
        self.pages_abandoned
    }

    /// Dead lines restored by reconstruction.
    pub fn lines_reconstructed(&self) -> u64 {
        self.lines_reconstructed
    }

    /// Lines the resilver found already live from foreground write-intent.
    pub fn lines_already_live(&self) -> u64 {
        self.lines_already_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::DaxFs;
    use memsim::config::SystemConfig;
    use memsim::engine::NullHooks;
    use memsim::RaidLevel;
    use tvarak::layout::NvmLayout;

    /// 16 striped pages (4 stripes over the 4 DIMMs) of distinct content.
    fn system_with_raid(level: RaidLevel) -> System {
        let mut sys = System::new(SystemConfig::small(), Box::new(NullHooks));
        for idx in 0..16u64 {
            for li in 0..LINES_PER_PAGE {
                let mut d = [0u8; 64];
                for (k, b) in d.iter_mut().enumerate() {
                    *b = (idx as u8 ^ li as u8)
                        .wrapping_mul(29)
                        .wrapping_add(k as u8);
                }
                sys.memory_mut().poke_line(nvm_page(idx).line(li), &d);
            }
        }
        sys.memory_mut().configure_raid(16, level);
        sys
    }

    /// Step the running resilver to completion; returns the pages abandoned.
    fn finish(mgr: &mut ReplacementManager, sys: &mut System) -> Vec<PageNum> {
        let mut abandoned = Vec::new();
        while mgr.rebuild_pending() {
            abandoned.extend(mgr.step_rebuild(sys, 0));
        }
        abandoned
    }

    #[test]
    fn full_resilver_restores_exact_content() {
        let mut sys = system_with_raid(RaidLevel::P);
        let healthy = sys.memory().content_hash();
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 2);
        mgr.attach_spare(&mut sys, 2);
        for step in 0..4 {
            assert!(mgr.rebuild_pending(), "one step per bank page, step {step}");
            assert_eq!(mgr.step_rebuild(&mut sys, 0), None);
        }
        assert!(!mgr.rebuild_pending());
        assert_eq!(
            mgr.step_rebuild(&mut sys, 0),
            None,
            "no resilver left to step"
        );
        assert_eq!((mgr.pages_resilvered(), mgr.rebuilds_completed()), (4, 1));
        assert_eq!(sys.memory().bank_state(2), BankState::Healthy);
        assert_eq!(sys.memory().content_hash(), healthy, "bit-exact resilver");
    }

    #[test]
    fn rebuild_charges_member_reads_and_spare_writes() {
        let mut sys = system_with_raid(RaidLevel::P);
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 0);
        mgr.attach_spare(&mut sys, 0);
        sys.reset_stats();
        finish(&mut mgr, &mut sys);
        let c = sys.stats().counters;
        // 4 pages × 64 lines: 3 member reads + 1 spare write each.
        assert_eq!(c.nvm_red_reads, 4 * 64 * 3);
        assert_eq!(c.nvm_data_writes, 4 * 64);
    }

    #[test]
    fn foreground_write_survives_concurrent_resilver() {
        let mut sys = system_with_raid(RaidLevel::P);
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 1);
        mgr.attach_spare(&mut sys, 1);
        // A foreground write lands on a dead line before the resilver
        // reaches it (write-intent): the resilver must not clobber it.
        let l = nvm_page(5).line(10); // page 5 is on bank 1
        sys.memory_mut().write_line(l, &[0x77u8; 64]);
        finish(&mut mgr, &mut sys);
        assert_eq!(sys.memory().peek_line(l), [0x77u8; 64]);
        assert!(mgr.lines_already_live() >= 1);
    }

    #[test]
    fn pq_resilver_survives_second_failed_bank() {
        let mut sys = system_with_raid(RaidLevel::PQ);
        let healthy = sys.memory().content_hash();
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 1);
        mgr.attach_spare(&mut sys, 1);
        mgr.fail_device(&mut sys, 3); // double-fault storm mid-rebuild
        assert_eq!(PoolState::of(sys.memory()), PoolState::Rebuilding);
        assert_eq!(finish(&mut mgr, &mut sys), [], "Q covers the second fault");
        assert_eq!(PoolState::of(sys.memory()), PoolState::Degraded);
        // Now resilver the second bank too; media must return to the
        // healthy image bit for bit.
        mgr.attach_spare(&mut sys, 3);
        finish(&mut mgr, &mut sys);
        assert_eq!(sys.memory().content_hash(), healthy);
        assert_eq!(mgr.rebuilds_completed(), 2);
    }

    #[test]
    fn p_only_second_fault_fails_closed_with_poison() {
        let mut sys = system_with_raid(RaidLevel::P);
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 1);
        mgr.attach_spare(&mut sys, 1);
        mgr.fail_device(&mut sys, 3);
        let abandoned = finish(&mut mgr, &mut sys);
        assert_eq!(abandoned.len(), 4, "every bank-1 page is unsolvable at P");
        assert_eq!(mgr.pages_abandoned(), 4);
        for p in &abandoned {
            let got = sys.memory().peek_line(p.line(0));
            assert_eq!(
                got,
                memsim::mem::poison_line(p.line(0)),
                "poison, not fabricated data"
            );
        }
    }

    #[test]
    fn third_concurrent_fault_fails_closed_even_at_pq() {
        // Three dead members of four defeat P+Q: the resilver must abandon
        // every page, never invent stripe content.
        let mut sys = system_with_raid(RaidLevel::PQ);
        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 0);
        mgr.fail_device(&mut sys, 1);
        mgr.attach_spare(&mut sys, 0);
        mgr.fail_device(&mut sys, 2); // three concurrent holes
        let line = nvm_page(0).line(0);
        assert_eq!(sys.memory().reconstruct_line(line), None);
        let poison = memsim::mem::poison_line(line);
        assert_eq!(sys.memory_mut().read_line(line), poison, "degraded read");
        let abandoned = finish(&mut mgr, &mut sys);
        assert_eq!(
            abandoned,
            [0, 4, 8, 12].map(nvm_page),
            "three erasures must not solve"
        );
        assert_eq!(sys.memory_mut().read_line(line), poison, "abandoned media");
    }

    fn pool() -> (System, DaxFs) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 16);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let fs = DaxFs::new(layout, &mut sys);
        let striped = layout.geometry().total_pages_for(16);
        sys.memory_mut().configure_raid(striped, RaidLevel::P);
        (sys, fs)
    }

    #[test]
    fn lifecycle_healthy_degraded_rebuilding_healthy() {
        let (mut sys, mut fs) = pool();
        let f = fs.create(&mut sys, 8 * 1024).unwrap();
        f.write(&mut sys, 0, 0, &[7u8; 4096]).unwrap();
        sys.flush();

        let mut mgr = ReplacementManager::default();
        assert_eq!(PoolState::of(sys.memory()), PoolState::Healthy);

        mgr.fail_device(&mut sys, 1);
        assert_eq!(PoolState::of(sys.memory()), PoolState::Degraded);
        // Degraded serving: reads still return the written data.
        let mut buf = [0u8; 64];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);

        mgr.attach_spare(&mut sys, 1);
        assert_eq!(PoolState::of(sys.memory()), PoolState::Rebuilding);
        assert_eq!(finish(&mut mgr, &mut sys), []);
        assert_eq!(PoolState::of(sys.memory()), PoolState::Healthy);
        assert_eq!(mgr.rebuilds_completed(), 1);
        assert!(mgr.pages_resilvered() > 0);
        // Post-resilver reads serve the original data from media.
        let mut buf = [0u8; 64];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn scheduler_paces_rebuild_against_foreground_ops() {
        let (mut sys, mut fs) = pool();
        let f = fs.create(&mut sys, 8 * 1024).unwrap();
        f.write(&mut sys, 0, 0, &[9u8; 4096]).unwrap();
        sys.flush();

        let mut mgr = ReplacementManager::default();
        mgr.fail_device(&mut sys, 0);
        mgr.attach_spare(&mut sys, 0);
        // At most one grant per op, every grant a rebuild.
        let mut ops = 0u64;
        while mgr.rebuild_pending() {
            ops += 1;
            assert!(ops < 100_000, "starved resilver");
            match mgr.on_op(false) {
                Some(MaintGrant::Rebuild) => assert_eq!(mgr.step_rebuild(&mut sys, 0), None),
                Some(MaintGrant::Scrub) => panic!("no scrub work was pending"),
                None => {}
            }
        }
        // The resilver cannot beat one page per STEP_COST ops by more than
        // the banked burst.
        let total = mgr.pages_resilvered();
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
