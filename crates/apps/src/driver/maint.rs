//! The maintenance pipeline of a [`Machine`]: detection → recovery →
//! quarantine, the scrub daemon, firmware shadow-RAID with device
//! replacement, and the per-operation `tick_*` hooks the run drivers call.

use super::{AppError, Machine};
use memsim::addr::PageNum;
use memsim::engine::CorruptionDetected;
use memsim::RaidLevel;
use pmemfs::fs::{FileHandle, FsError, RecoveryError};
use pmemfs::rebuild::{MaintGrant, PoolState, ReplacementManager};
use pmemfs::recover::{Incidents, RecoveryOrchestrator};
use tvarak::scrub::{ScrubDaemon, ScrubFinding, ScrubFindingKind, Scrubber};

impl Machine {
    /// OS recovery path after [`CorruptionDetected`].
    ///
    /// # Errors
    ///
    /// See [`DaxFs::recover_page`](pmemfs::fs::DaxFs::recover_page).
    pub fn recover(&mut self, page: PageNum) -> Result<(), RecoveryError> {
        self.fs.recover_page(&mut self.sys, page)
    }

    /// Install the detection→recovery→degradation pipeline: corruption
    /// handled through this machine (via [`Self::with_recovery`] or the
    /// scrub daemon's findings) is transparently recovered with up to
    /// `max_retries` attempts, and unrecoverable pages are quarantined on a
    /// persistent poison list.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if the pool cannot hold the poison-list store.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`](super::Design::Baseline), which maintains no redundancy to
    /// recover from.
    pub fn enable_recovery(&mut self, max_retries: u32) -> Result<(), FsError> {
        let granularity = self
            .design
            .checksum_granularity()
            .expect("Baseline maintains no redundancy; nothing to recover from");
        let orch =
            RecoveryOrchestrator::new(&mut self.fs, &mut self.sys, granularity, max_retries)?;
        self.orchestrator = Some(orch);
        Ok(())
    }

    /// Install a budgeted scrub daemon over `file`: `pages` pages verified
    /// every `interval_ops` operations, ticked by [`run_clocked`](super::run_clocked) after
    /// every operation.
    /// Findings are routed through the recovery orchestrator when one is
    /// enabled.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`](super::Design::Baseline) (no checksums to scrub against) and
    /// on a zero budget.
    pub fn enable_scrub_daemon(&mut self, file: &FileHandle, pages: u64, interval_ops: u64) {
        let granularity = self
            .design
            .checksum_granularity()
            .expect("Baseline maintains no checksums; nothing to scrub against");
        let scrubber = Scrubber::new(
            *self.fs.layout(),
            granularity,
            file.first_data_index(),
            file.pages(),
        )
        .with_parity_audit();
        self.daemon = Some(ScrubDaemon::new(scrubber, pages, interval_ops));
    }

    /// The recovery orchestrator, if [`Self::enable_recovery`] was called.
    pub fn orchestrator(&self) -> Option<&RecoveryOrchestrator> {
        self.orchestrator.as_ref()
    }

    /// Mutable access to the orchestrator (poison clearing, event draining).
    pub fn orchestrator_mut(&mut self) -> Option<&mut RecoveryOrchestrator> {
        self.orchestrator.as_mut()
    }

    /// The scrub daemon, if [`Self::enable_scrub_daemon`] was called.
    pub fn scrub_daemon(&self) -> Option<&ScrubDaemon> {
        self.daemon.as_ref()
    }

    /// Run `op` with transparent recovery: any corruption it surfaces —
    /// [`AppError::Corruption`] from a raw access or wrapped as
    /// [`pmemfs::tx::TxError::Corruption`] from inside a transaction — is
    /// routed through the orchestrator and the operation is re-issued. A
    /// page that keeps detecting after `max_retries` apparently-successful
    /// recoveries (a broken device read path: the media verifies but reads
    /// keep faulting) is quarantined.
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] once the failing page is quarantined; other
    /// errors propagate unchanged.
    pub fn with_recovery<T>(
        &mut self,
        mut op: impl FnMut(&mut Machine) -> Result<T, AppError>,
    ) -> Result<T, AppError> {
        let mut seen = Incidents::default();
        loop {
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(err) => err,
            };
            let (e, orch) = match (&err, self.orchestrator.as_mut()) {
                (
                    AppError::Corruption(e) | AppError::Tx(pmemfs::tx::TxError::Corruption(e)),
                    Some(orch),
                ) => (*e, orch),
                _ => return Err(err),
            };
            orch.incident(&mut self.fs, &mut self.sys, &mut seen, e)?;
        }
    }

    /// Fail closed if `[offset, offset + len)` of `file` touches a
    /// quarantined page. Software designs have no inline verification, so
    /// this is how their demand reads observe the poison list.
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] for a quarantined range.
    pub fn check_poison(
        &self,
        file: &FileHandle,
        offset: u64,
        len: usize,
    ) -> Result<(), AppError> {
        match self.orchestrator.as_ref() {
            Some(orch) => {
                orch.check_range(file, offset, len)?;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Read `file` with the full pipeline: poison ranges fail closed,
    /// detected corruption is transparently recovered and the read
    /// re-issued. Falls back to a plain [`FileHandle::read`] when no
    /// orchestrator is enabled.
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] or [`AppError::Corruption`].
    pub fn read_file(
        &mut self,
        file: &FileHandle,
        core: usize,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), AppError> {
        match self.orchestrator.as_mut() {
            Some(orch) => {
                orch.read(&mut self.fs, &mut self.sys, file, core, offset, buf)?;
                Ok(())
            }
            None => {
                file.read(&mut self.sys, core, offset, buf)?;
                Ok(())
            }
        }
    }

    /// Write `file` with the full pipeline (see [`Self::read_file`]).
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] or [`AppError::Corruption`].
    pub fn write_file(
        &mut self,
        file: &FileHandle,
        core: usize,
        offset: u64,
        data: &[u8],
    ) -> Result<(), AppError> {
        match self.orchestrator.as_mut() {
            Some(orch) => {
                orch.write(&mut self.fs, &mut self.sys, file, core, offset, data)?;
                Ok(())
            }
            None => {
                file.write(&mut self.sys, core, offset, data)?;
                Ok(())
            }
        }
    }

    /// Rewrite page `n` of `file` wholesale, clearing its poison if the
    /// rewrite verifies on media (see
    /// [`RecoveryOrchestrator::rewrite_page`]).
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] if the rewrite did not reach the media.
    ///
    /// # Panics
    ///
    /// Panics when no orchestrator is enabled (call
    /// [`Self::enable_recovery`] first) or `data` is not one page.
    pub fn rewrite_page(&mut self, file: &FileHandle, n: u64, data: &[u8]) -> Result<(), AppError> {
        let orch = self
            .orchestrator
            .as_mut()
            .expect("rewrite_page requires enable_recovery");
        orch.rewrite_page(&mut self.fs, &mut self.sys, file, n, data)?;
        Ok(())
    }

    /// Configure firmware shadow-RAID over the whole NVM region — data,
    /// design-level parity, and checksum tables alike, since a failed
    /// device takes its share of all three — and install the
    /// device-replacement lifecycle with its maintenance token bucket. Call
    /// after all setup writes are flushed so the syndromes cover the
    /// initial content.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or with fewer than 3 NVM DIMMs.
    pub fn enable_raid(&mut self, level: RaidLevel) {
        let d = self.sys.memory().nvm_dimms() as u64;
        let striped = self.fs.layout().total_pages().div_ceil(d) * d;
        self.sys.memory_mut().configure_raid(striped, level);
        self.replacement = Some(ReplacementManager::default());
    }

    /// Fail NVM device `bank` cleanly: the hierarchy is flushed (quiesce),
    /// the bank's media erased, and the pool serves on degraded from then
    /// on (reconstruct-on-read, syndrome-absorbed writes).
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_raid`] ran and the bank is Healthy.
    pub fn fail_device(&mut self, bank: usize) {
        self.replacement
            .as_mut()
            .expect("fail_device requires enable_raid")
            .fail_device(&mut self.sys, bank);
    }

    /// Attach a hot spare to failed `bank` and start the online resilver,
    /// paced against foreground traffic by the maintenance scheduler (see
    /// [`Self::tick_maintenance`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_raid`] ran and the bank is Failed.
    pub fn attach_spare(&mut self, bank: usize) {
        self.replacement
            .as_mut()
            .expect("attach_spare requires enable_raid")
            .attach_spare(&mut self.sys, bank);
    }

    /// The replacement manager, if [`Self::enable_raid`] was called.
    pub fn replacement(&self) -> Option<&ReplacementManager> {
        self.replacement.as_ref()
    }

    /// Pool redundancy state ([`PoolState::Healthy`] when RAID is off).
    pub fn pool_state(&self) -> PoolState {
        PoolState::of(self.sys.memory())
    }

    /// Whether no resilver is currently pending (idle or RAID off).
    pub fn rebuild_idle(&self) -> bool {
        self.replacement
            .as_ref()
            .is_none_or(|m| !m.rebuild_pending())
    }

    /// Per-operation maintenance hook, called by the run drivers after
    /// every operation. Without a replacement manager this is exactly
    /// [`Self::tick_scrub`]. With one, the op feeds the maintenance token
    /// bucket and a granted step runs: a rebuild grant resilvers one page (an
    /// abandoned page is quarantined with the orchestrator — fail closed),
    /// a scrub grant runs one budgeted scrub step through the same finding
    /// routing as interval scrubbing.
    ///
    /// # Errors
    ///
    /// [`AppError::Corruption`] from a granted scrub step with no
    /// orchestrator enabled, as with [`Self::tick_scrub`].
    pub fn tick_maintenance(&mut self, core: usize) -> Result<(), AppError> {
        if self.replacement.is_none() {
            return self.tick_scrub(core);
        }
        let scrub_pending = self.daemon.is_some();
        let mgr = self.replacement.as_mut().unwrap();
        match mgr.on_op(scrub_pending) {
            Some(MaintGrant::Rebuild) => {
                let abandoned = mgr.step_rebuild(&mut self.sys, core);
                if let (Some(page), Some(orch)) = (abandoned, self.orchestrator.as_mut()) {
                    orch.quarantine_page(&mut self.sys, page);
                }
                Ok(())
            }
            Some(MaintGrant::Scrub) => {
                let daemon = self.daemon.as_mut().unwrap();
                let outcome = daemon.step_now(&mut self.sys, core).map(Some);
                self.route_scrub(outcome)
            }
            None => Ok(()),
        }
    }

    /// Advance the scrub daemon by one application operation on `core`.
    /// Detections are routed through the orchestrator; a quarantined page is
    /// skipped so the daemon keeps covering the rest of the file. The run
    /// drivers call this automatically after every operation (via
    /// [`Self::tick_maintenance`]).
    ///
    /// # Errors
    ///
    /// [`AppError::Corruption`] when the scrubber detects corruption and no
    /// orchestrator is enabled. Quarantines do *not* fail the tick — the
    /// poison only surfaces to accesses that touch the page.
    pub fn tick_scrub(&mut self, core: usize) -> Result<(), AppError> {
        let Some(daemon) = self.daemon.as_mut() else {
            return Ok(());
        };
        let outcome = daemon.tick(&mut self.sys, core);
        self.route_scrub(outcome)
    }

    /// Route one scrub outcome (an interval tick's or a QoS-granted
    /// step's) through the orchestrator: checksum findings recover or
    /// quarantine, parity findings re-silver, mid-step trips retry with a
    /// strike bound.
    fn route_scrub(
        &mut self,
        outcome: Result<Option<Vec<ScrubFinding>>, CorruptionDetected>,
    ) -> Result<(), AppError> {
        match outcome {
            // Off-interval tick: no scrubbing happened, leave the strike
            // record of the page under the cursor untouched.
            Ok(None) => Ok(()),
            Ok(Some(findings)) => {
                self.scrub_strikes = None;
                for f in findings {
                    match f.kind {
                        ScrubFindingKind::Checksum => {
                            let err = CorruptionDetected {
                                line: f.page.line(0),
                            };
                            match self.orchestrator.as_mut() {
                                // Quarantine is recorded in the orchestrator;
                                // the daemon moves on.
                                Some(orch) => {
                                    let _ = orch.handle(&mut self.fs, &mut self.sys, err);
                                }
                                None => return Err(AppError::Corruption(err)),
                            }
                        }
                        // Data and checksums agree but the stripe no longer
                        // reconstructs: re-silver it while the data is still
                        // intact. The orchestrator refuses while a sibling is
                        // checksum-failing (that sibling still needs the old
                        // parity); the audit will re-report next pass. Without
                        // an orchestrator the audit stays advisory.
                        ScrubFindingKind::Parity => {
                            if let Some(orch) = self.orchestrator.as_mut() {
                                let _ = orch.repair_parity(&mut self.sys, f.page);
                            }
                        }
                    }
                }
                Ok(())
            }
            // Hardware verification tripped mid-step; the cursor is still on
            // the failing page, so settle it before the next tick.
            Err(e) => {
                let page = e.line.page();
                let Some(orch) = self.orchestrator.as_mut() else {
                    return Err(AppError::Corruption(e));
                };
                // A quarantined page trips verification on every scrub read
                // forever; that is not a new incident — skip past it.
                if orch.is_poisoned(page) {
                    self.daemon.as_mut().unwrap().skip_page();
                    self.scrub_strikes = None;
                    return Ok(());
                }
                let strikes = match &mut self.scrub_strikes {
                    Some((p, n)) if *p == page => {
                        *n += 1;
                        *n
                    }
                    _ => {
                        self.scrub_strikes = Some((page, 1));
                        1
                    }
                };
                let poisoned = if strikes > orch.max_retries() {
                    orch.quarantine_page(&mut self.sys, page);
                    true
                } else {
                    orch.handle(&mut self.fs, &mut self.sys, e).is_err()
                };
                if poisoned {
                    self.daemon.as_mut().unwrap().skip_page();
                    self.scrub_strikes = None;
                }
                Ok(())
            }
        }
    }
}
