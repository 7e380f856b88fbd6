//! Device-replacement lifecycle: fail → degraded serving → hot-spare attach
//! → online resilver → healthy.
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
//! - [`attach_spare`](ReplacementManager::attach_spare) binds a
//!   [`Rebuilder`] to the bank and the pool enters *rebuilding*.
//! - Each foreground operation reported via
//!   [`on_op`](ReplacementManager::on_op) feeds the maintenance token
//!   bucket; granted rebuild steps resilver one page at a time through
//!   [`step_rebuild`](ReplacementManager::step_rebuild), racing foreground
//!   writes safely (write-intent lines are skipped, never clobbered).
//! - A page that cannot be reconstructed (second concurrent fault at
//!   P-only, third at P+Q) comes back as [`RebuildStep::Abandoned`]: its
//!   media is already poisoned and the caller must quarantine it with the
//!   orchestrator — the fail-closed path, never fabricated data.
//!
//! The manager finishes a resilver eagerly: when the last page of the bank
//! is processed, the bank is returned to Healthy within the same step, so
//! [`pool_state`](ReplacementManager::pool_state) observed after each
//! operation cleanly delimits the healthy / degraded / rebuilding /
//! recovered phases a campaign wants to report on.

use memsim::engine::System;
use memsim::BankState;
use tvarak::qos::{MaintGrant, MaintenanceScheduler, QosConfig};
use tvarak::rebuild::{RebuildStep, Rebuilder};

/// Pool-level redundancy state, derived from device lifecycle.
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

/// Owns the device-replacement lifecycle for one pool: failed-bank
/// tracking, the active [`Rebuilder`], and the shared maintenance QoS
/// scheduler arbitrating rebuild against scrub.
#[derive(Debug)]
pub struct ReplacementManager {
    scheduler: MaintenanceScheduler,
    rebuilder: Option<Rebuilder>,
    failed: Vec<usize>,
    devices_failed: u64,
    rebuilds_completed: u64,
    pages_resilvered: u64,
    pages_abandoned: u64,
    lines_reconstructed: u64,
    lines_already_live: u64,
}

impl ReplacementManager {
    /// A manager with an idle scheduler configured by `qos`.
    pub fn new(qos: QosConfig) -> Self {
        ReplacementManager {
            scheduler: MaintenanceScheduler::new(qos),
            rebuilder: None,
            failed: Vec::new(),
            devices_failed: 0,
            rebuilds_completed: 0,
            pages_resilvered: 0,
            pages_abandoned: 0,
            lines_reconstructed: 0,
            lines_already_live: 0,
        }
    }

    /// Current pool state. Rebuilding wins over Degraded when both apply
    /// (a second device down while a first resilvers).
    pub fn pool_state(&self) -> PoolState {
        if self.rebuilder.is_some() {
            PoolState::Rebuilding
        } else if self.failed.is_empty() {
            PoolState::Healthy
        } else {
            PoolState::Degraded
        }
    }

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
        self.failed.push(bank);
        self.devices_failed += 1;
    }

    /// Attach a hot spare to failed `bank` and start its resilver. Only one
    /// resilver runs at a time; with multiple failed banks, attach and
    /// finish them one after another.
    ///
    /// # Panics
    ///
    /// Panics if a resilver is already running, or `bank` is not Failed.
    pub fn attach_spare(&mut self, sys: &mut System, bank: usize) {
        assert!(
            self.rebuilder.is_none(),
            "a resilver is already in progress"
        );
        sys.memory_mut().attach_spare(bank);
        self.rebuilder = Some(Rebuilder::new(sys, bank));
        self.failed.retain(|&b| b != bank);
    }

    /// Whether a resilver has unfinished pages (drives the scheduler's
    /// rebuild priority).
    pub fn rebuild_pending(&self) -> bool {
        self.rebuilder.as_ref().is_some_and(|r| !r.is_done())
    }

    /// Account one foreground operation and ask the shared scheduler for a
    /// maintenance grant. Call exactly once per foreground op; on
    /// [`MaintGrant::Rebuild`] call
    /// [`step_rebuild`](Self::step_rebuild), on [`MaintGrant::Scrub`] run
    /// one budgeted scrub step.
    pub fn on_op(&mut self, scrub_pending: bool) -> Option<MaintGrant> {
        self.scheduler.on_op(self.rebuild_pending(), scrub_pending)
    }

    /// Run one granted resilver step. Returns `None` when no resilver is
    /// active. On [`RebuildStep::Abandoned`] the page's media is poisoned
    /// and cached copies dropped; the caller must quarantine it with the
    /// recovery orchestrator. When the step processes the bank's last page
    /// the rebuild is finalized eagerly (the bank is Healthy before this
    /// returns).
    pub fn step_rebuild(&mut self, sys: &mut System, core: usize) -> Option<RebuildStep> {
        let r = self.rebuilder.as_mut()?;
        let step = r.step(sys, core);
        let (processed, total) = r.progress();
        if step != RebuildStep::Done && processed == total {
            // Last page just processed: finish within the same grant so the
            // observed pool state flips to recovered without a dead step.
            let done = r.step(sys, core);
            debug_assert_eq!(done, RebuildStep::Done);
        }
        if r.is_done() {
            self.pages_resilvered += r.pages_resilvered();
            self.pages_abandoned += r.pages_abandoned();
            self.lines_reconstructed += r.lines_reconstructed();
            self.lines_already_live += r.lines_already_live();
            self.rebuilds_completed += 1;
            self.rebuilder = None;
        }
        Some(step)
    }

    /// `(processed, total)` page progress of the active resilver, if any.
    pub fn progress(&self) -> Option<(u64, u64)> {
        self.rebuilder.as_ref().map(|r| r.progress())
    }

    /// Banks currently failed with no spare attached.
    pub fn failed_banks(&self) -> &[usize] {
        &self.failed
    }

    /// Whole devices failed over the pool's lifetime.
    pub fn devices_failed(&self) -> u64 {
        self.devices_failed
    }

    /// Resilvers driven to completion.
    pub fn rebuilds_completed(&self) -> u64 {
        self.rebuilds_completed
    }

    /// Pages fully resilvered across all rebuilds (including the active one).
    pub fn pages_resilvered(&self) -> u64 {
        self.pages_resilvered
            + self.rebuilder.as_ref().map_or(0, |r| r.pages_resilvered())
    }

    /// Pages abandoned (poisoned, quarantine-bound) across all rebuilds.
    pub fn pages_abandoned(&self) -> u64 {
        self.pages_abandoned
            + self.rebuilder.as_ref().map_or(0, |r| r.pages_abandoned())
    }

    /// Dead lines restored by reconstruction across all rebuilds.
    pub fn lines_reconstructed(&self) -> u64 {
        self.lines_reconstructed
            + self.rebuilder.as_ref().map_or(0, |r| r.lines_reconstructed())
    }

    /// Lines the resilver found already live from foreground write-intent.
    pub fn lines_already_live(&self) -> u64 {
        self.lines_already_live
            + self.rebuilder.as_ref().map_or(0, |r| r.lines_already_live())
    }

    /// Times the starvation guard force-granted a rebuild into debt.
    pub fn backpressure_events(&self) -> u64 {
        self.scheduler.backpressure_events()
    }

    /// The shared maintenance scheduler (for balance inspection).
    pub fn scheduler(&self) -> &MaintenanceScheduler {
        &self.scheduler
    }

    /// Sanity cross-check: every bank the manager believes failed or
    /// rebuilding matches the firmware's view. Cheap enough for test
    /// assertions and campaign invariants.
    pub fn consistent_with(&self, sys: &System) -> bool {
        let mem = sys.memory();
        if !mem.raid_enabled() {
            return self.failed.is_empty() && self.rebuilder.is_none();
        }
        self.failed
            .iter()
            .all(|&b| mem.bank_state(b) == BankState::Failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::DaxFs;
    use memsim::config::SystemConfig;
    use memsim::engine::{NullHooks, System};
    use memsim::RaidLevel;
    use tvarak::layout::NvmLayout;

    fn pool() -> (System, DaxFs, NvmLayout) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 16);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let fs = DaxFs::new(layout, &mut sys);
        let striped = layout.geometry().total_pages_for(16);
        sys.memory_mut().configure_raid(striped, RaidLevel::P);
        (sys, fs, layout)
    }

    #[test]
    fn lifecycle_healthy_degraded_rebuilding_healthy() {
        let (mut sys, mut fs, _layout) = pool();
        let f = fs.create(&mut sys, 8 * 1024).unwrap();
        f.write(&mut sys, 0, 0, &[7u8; 4096]).unwrap();
        sys.flush();

        let mut mgr = ReplacementManager::new(QosConfig::default());
        assert_eq!(mgr.pool_state(), PoolState::Healthy);

        mgr.fail_device(&mut sys, 1);
        assert_eq!(mgr.pool_state(), PoolState::Degraded);
        assert_eq!(mgr.failed_banks(), &[1]);
        // Degraded serving: reads still return the written data.
        let mut buf = [0u8; 64];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);

        mgr.attach_spare(&mut sys, 1);
        assert_eq!(mgr.pool_state(), PoolState::Rebuilding);
        let mut steps = 0;
        while mgr.rebuild_pending() {
            mgr.step_rebuild(&mut sys, 0).unwrap();
            steps += 1;
            assert!(steps < 10_000, "resilver must terminate");
        }
        assert_eq!(mgr.pool_state(), PoolState::Healthy);
        assert_eq!(mgr.rebuilds_completed(), 1);
        assert!(mgr.pages_resilvered() > 0);
        assert_eq!(mgr.pages_abandoned(), 0);
        assert!(mgr.consistent_with(&sys));
        // Post-resilver reads serve the original data from media.
        let mut buf = [0u8; 64];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn scheduler_paces_rebuild_against_foreground_ops() {
        let (mut sys, mut fs, _layout) = pool();
        let f = fs.create(&mut sys, 8 * 1024).unwrap();
        f.write(&mut sys, 0, 0, &[9u8; 4096]).unwrap();
        sys.flush();

        let mut mgr = ReplacementManager::new(QosConfig {
            refill_per_op: 1,
            burst: 4,
            rebuild_page_cost: 4,
            ..QosConfig::default()
        });
        mgr.fail_device(&mut sys, 0);
        mgr.attach_spare(&mut sys, 0);

        // Steady state: one page per 4 foreground ops, never more than one
        // grant per op.
        let mut ops = 0u64;
        while mgr.rebuild_pending() {
            ops += 1;
            assert!(ops < 100_000, "starved resilver");
            match mgr.on_op(false) {
                Some(MaintGrant::Rebuild) => {
                    mgr.step_rebuild(&mut sys, 0);
                }
                Some(MaintGrant::Scrub) => panic!("no scrub work was pending"),
                None => {}
            }
        }
        let total = mgr.pages_resilvered();
        assert!(total > 0);
        // Pacing: at cost 4 / refill 1 the resilver cannot beat one page
        // per 4 ops by more than the banked burst.
        assert!(ops + 4 >= 4 * total, "resilver outran its token budget");
        assert_eq!(mgr.backpressure_events(), 0);
    }
}
