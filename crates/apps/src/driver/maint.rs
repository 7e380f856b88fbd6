//! The maintenance pipeline of a [`Machine`]: detection → recovery →
//! quarantine, the scrub daemon, device replacement, and the
//! per-operation `tick_maintenance` hook the run drivers call.

use super::{AppError, Machine};
use memsim::addr::PageNum;
use memsim::engine::CorruptionDetected;
use pmemfs::fs::{FileHandle, FsError};
use pmemfs::rebuild::{MaintGrant, PoolState, ReplacementManager};
use pmemfs::recover::{Incidents, RecoveryOrchestrator};
use tvarak::recovery::{recover_page, RecoveryFailed};
use tvarak::scrub::{ScrubFinding, ScrubFindingKind, Scrubber};

impl Machine {
    /// OS recovery path after [`CorruptionDetected`]: reconstruct `page`
    /// from parity ([`recover_page`]) at the design's checksum granularity.
    ///
    /// # Errors
    ///
    /// [`RecoveryFailed`] if the reconstruction does not verify.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`](super::Design::Baseline), which
    /// maintains no redundancy to recover from.
    pub fn recover(&mut self, page: PageNum) -> Result<(), RecoveryFailed> {
        let granularity = self
            .design
            .checksum_granularity()
            .expect("Baseline maintains no redundancy; nothing to recover from");
        recover_page(&mut self.sys, self.fs.layout(), granularity, page)
    }

    /// Install the detection→recovery→degradation pipeline: corruption
    /// handled through this machine (via [`Self::with_recovery`] or the
    /// scrub daemon's findings) is transparently recovered with up to
    /// [`MAX_RETRIES`](pmemfs::recover::MAX_RETRIES) attempts, and
    /// unrecoverable pages are quarantined on a persistent poison list.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if the pool cannot hold the poison-list store.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`](super::Design::Baseline), which maintains no redundancy to
    /// recover from.
    pub fn enable_recovery(&mut self) -> Result<(), FsError> {
        let granularity = self
            .design
            .checksum_granularity()
            .expect("Baseline maintains no redundancy; nothing to recover from");
        let orch = RecoveryOrchestrator::new(&mut self.fs, &mut self.sys, granularity)?;
        self.orchestrator = Some(orch);
        Ok(())
    }

    /// Install the scrub daemon over `file`: a [`Scrubber`] on its fixed
    /// budget, ticked by [`Self::tick_maintenance`] after every operation.
    /// Findings are routed through the recovery orchestrator when one is
    /// enabled.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`](super::Design::Baseline) (no
    /// checksums to scrub against).
    pub fn enable_scrub_daemon(&mut self, file: &FileHandle) {
        let granularity = self
            .design
            .checksum_granularity()
            .expect("Baseline maintains no checksums; nothing to scrub against");
        self.scrubber = Some(Scrubber::new(
            *self.fs.layout(),
            granularity,
            file.first_data_index(),
            file.pages(),
        ));
    }

    /// The recovery orchestrator, if [`Self::enable_recovery`] was called.
    pub fn orchestrator(&self) -> Option<&RecoveryOrchestrator> {
        self.orchestrator.as_ref()
    }

    /// Mutable access to the orchestrator (poison clearing, event draining).
    pub fn orchestrator_mut(&mut self) -> Option<&mut RecoveryOrchestrator> {
        self.orchestrator.as_mut()
    }

    /// The scrub daemon's scrubber, if [`Self::enable_scrub_daemon`] was
    /// called.
    pub fn scrub_daemon(&self) -> Option<&Scrubber> {
        self.scrubber.as_ref()
    }

    /// Run `op` with transparent recovery: any corruption it surfaces —
    /// [`AppError::Corruption`] from a raw access or wrapped as
    /// [`pmemfs::tx::TxError::Corruption`] from inside a transaction — is
    /// routed through the orchestrator and the operation is re-issued. A
    /// page that keeps detecting after
    /// [`MAX_RETRIES`](pmemfs::recover::MAX_RETRIES) apparently-successful
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
            orch.incident(&mut self.sys, &mut seen, e)?;
        }
    }

    /// Fail closed if `[offset, offset + len)` of `file` touches a
    /// quarantined page. Software designs have no inline verification, so
    /// this is how their demand reads observe the poison list.
    ///
    /// # Errors
    ///
    /// [`AppError::Poisoned`] for a quarantined range.
    pub fn check_poison(&self, file: &FileHandle, offset: u64, len: usize) -> Result<(), AppError> {
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
        self.check_poison(file, offset, buf.len())?;
        self.with_recovery(|m| Ok(file.read(&mut m.sys, core, offset, buf)?))
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
        self.check_poison(file, offset, data.len())?;
        self.with_recovery(|m| Ok(file.write(&mut m.sys, core, offset, data)?))
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
        orch.rewrite_page(&mut self.sys, file, n, data)?;
        Ok(())
    }

    /// Install the device-replacement lifecycle
    /// ([`ReplacementManager`]) with its maintenance token bucket, which
    /// then paces the scrub daemon too (see [`Self::tick_maintenance`]).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn enable_replacement(&mut self) {
        assert!(
            self.replacement.is_none(),
            "device replacement already enabled"
        );
        let granularity = self.design.checksum_granularity();
        self.replacement = Some(ReplacementManager::new(*self.fs.layout(), granularity));
    }

    /// Fail NVM device `bank` cleanly: the hierarchy is flushed (quiesce),
    /// the bank lost, and the redundancy pages it held rebuilt. The pool
    /// serves on, degraded: reads of lost lines are repaired from parity as
    /// they are detected. Pages the failure declares lost (two erasures in
    /// a stripe) are quarantined.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_replacement`] ran and the bank is up.
    pub fn fail_device(&mut self, bank: usize) {
        let mgr = self
            .replacement
            .as_mut()
            .expect("fail_device requires enable_replacement");
        for page in mgr.fail_device(&mut self.sys, bank) {
            self.quarantine(page);
        }
    }

    /// Quarantine a page declared lost, once, if an orchestrator is enabled
    /// (Baseline has none: its lost lines stay signalled on every read).
    fn quarantine(&mut self, page: PageNum) {
        if let Some(orch) = self.orchestrator.as_mut().filter(|o| !o.is_poisoned(page)) {
            orch.quarantine_page(&mut self.sys, page);
        }
    }

    /// Attach a hot spare to failed `bank` and start the online resilver,
    /// paced against foreground traffic by the maintenance scheduler (see
    /// [`Self::tick_maintenance`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_replacement`] ran and the bank is failed.
    pub fn attach_spare(&mut self, bank: usize) {
        self.replacement
            .as_mut()
            .expect("attach_spare requires enable_replacement")
            .attach_spare(bank);
    }

    /// The replacement manager, if [`Self::enable_replacement`] was called.
    pub fn replacement(&self) -> Option<&ReplacementManager> {
        self.replacement.as_ref()
    }

    /// Pool redundancy state ([`PoolState::Healthy`] without a replacement
    /// manager).
    pub fn pool_state(&self) -> PoolState {
        self.replacement
            .as_ref()
            .map_or(PoolState::Healthy, |m| m.pool_state())
    }

    /// Per-operation maintenance hook, called by the run drivers after
    /// every operation. Without a replacement manager the scrub daemon (if
    /// any) ticks on its interval clock ([`Scrubber::tick`]). With one, the
    /// op feeds the maintenance token bucket and a granted step runs: a
    /// rebuild grant repairs one page (a page declared lost is quarantined
    /// with the orchestrator — fail closed), a scrub grant runs one budgeted
    /// scrub step ([`Scrubber::step_now`]).
    ///
    /// Scrub detections are routed through the orchestrator; a quarantined
    /// page is skipped so the daemon keeps covering the rest of the file.
    ///
    /// # Errors
    ///
    /// [`AppError::Corruption`] when the scrubber detects corruption and no
    /// orchestrator is enabled. Quarantines do *not* fail the tick — the
    /// poison only surfaces to accesses that touch the page.
    pub fn tick_maintenance(&mut self, core: usize) -> Result<(), AppError> {
        let outcome = match self.replacement.as_mut() {
            None => {
                let Some(scrubber) = self.scrubber.as_mut() else {
                    return Ok(());
                };
                scrubber.tick(&mut self.sys, core)
            }
            Some(mgr) => match mgr.on_op(self.scrubber.is_some()) {
                Some(MaintGrant::Rebuild) => {
                    if let Some(page) = mgr.step_rebuild(&mut self.sys) {
                        self.quarantine(page);
                    }
                    return Ok(());
                }
                Some(MaintGrant::Scrub) => {
                    let scrubber = self.scrubber.as_mut().unwrap();
                    scrubber.step_now(&mut self.sys, core).map(Some)
                }
                None => return Ok(()),
            },
        };
        self.route_scrub(outcome)
    }

    /// Route one scrub outcome (an interval tick's or a QoS-granted
    /// step's) through the orchestrator: checksum findings recover or
    /// quarantine, parity findings re-silver, and a step that trips
    /// verification mid-page is an [`incident`](RecoveryOrchestrator::incident)
    /// counted in `scrub_incidents`, which bounds the retries of a page the
    /// cursor is stuck on.
    fn route_scrub(
        &mut self,
        outcome: Result<Option<Vec<ScrubFinding>>, CorruptionDetected>,
    ) -> Result<(), AppError> {
        match outcome {
            // Off-interval tick: no scrubbing happened, leave the incident
            // count of the page under the cursor untouched.
            Ok(None) => Ok(()),
            Ok(Some(findings)) => {
                // The step completed, so the cursor left any page it was
                // stuck on.
                self.scrub_incidents = Incidents::default();
                for f in findings {
                    match f.kind {
                        // One finding per page per step: a plain handle,
                        // with no retry count to keep.
                        ScrubFindingKind::Checksum => {
                            let err = CorruptionDetected {
                                line: f.page.line(0),
                            };
                            match self.orchestrator.as_mut() {
                                // Quarantine is recorded in the orchestrator;
                                // the daemon moves on.
                                Some(orch) => {
                                    let _ = orch.handle(&mut self.sys, err);
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
                let Some(orch) = self.orchestrator.as_mut() else {
                    return Err(AppError::Corruption(e));
                };
                // A quarantined page trips verification on every scrub read
                // forever; that is not a new incident — skip past it.
                let seen = &mut self.scrub_incidents;
                if orch.is_poisoned(e.line.page()) || orch.incident(&mut self.sys, seen, e).is_err()
                {
                    self.scrubber.as_mut().unwrap().skip_current();
                    self.scrub_incidents = Incidents::default();
                }
                Ok(())
            }
        }
    }
}
