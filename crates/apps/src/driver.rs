//! The machine driver: one object bundling the simulated system, the DAX
//! file system, and the chosen redundancy design — the top-level API used by
//! examples, tests, and the benchmark harness.

use memsim::addr::{PageNum, PhysAddr};
use memsim::config::SystemConfig;
use memsim::engine::{CorruptionDetected, NullHooks, System};
use memsim::stats::Stats;
use memsim::weave::{DivergenceKind, WeaveEligibility};
use memsim::RaidLevel;
use pmemfs::fs::{DaxFs, FileHandle, FsError, RecoveryError};
use pmemfs::rebuild::{PoolState, ReplacementManager};
use pmemfs::recover::{Incidents, Poisoned, RecoveryOrchestrator};
use pmemfs::tx::{SwScheme, TxManager};
use tvarak::controller::{TvarakConfig, TvarakController};
use tvarak::layout::NvmLayout;
use tvarak::qos::{MaintGrant, QosConfig};
use tvarak::rebuild::RebuildStep;
use tvarak::scrub::{ScrubDaemon, ScrubFinding, ScrubFindingKind, ScrubGranularity, Scrubber};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// The four designs the paper evaluates (§IV), plus ablated TVARAK variants
/// for Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// No redundancy (the paper's Baseline).
    Baseline,
    /// The full TVARAK hardware controller.
    Tvarak,
    /// TVARAK with specific design elements disabled (Fig. 9 ablations).
    TvarakAblated(TvarakConfig),
    /// Pangolin-like software scheme: object-granular checksums at
    /// transaction boundaries (TxB-Object-Csums).
    TxbObject,
    /// Mojim/HotPot-like software scheme: page-granular checksums at
    /// transaction boundaries (TxB-Page-Csums).
    TxbPage,
    /// Vilamb-like asynchronous software redundancy (Table I): page-granular
    /// checksums refreshed every `epoch_txs` transactions, trading a
    /// vulnerability window for configurable overhead.
    Vilamb {
        /// Transactions per redundancy-refresh epoch.
        epoch_txs: u32,
    },
}

/// Default Vilamb epoch length used where a campaign needs *one*
/// representative configuration (the middle of the `vilamb_sweep` range).
pub const DEFAULT_VILAMB_EPOCH_TXS: u32 = 100;

impl Design {
    /// The four Fig. 8 designs in the paper's presentation order.
    pub fn fig8() -> [Design; 4] {
        [
            Design::Baseline,
            Design::Tvarak,
            Design::TxbObject,
            Design::TxbPage,
        ]
    }

    /// The five concrete designs campaigns sweep: the Fig. 8 four plus a
    /// representative Vilamb configuration. Ablated TVARAK variants are
    /// excluded — they are Fig. 9 point studies, not standalone designs.
    pub fn all() -> [Design; 5] {
        [
            Design::Baseline,
            Design::Tvarak,
            Design::TxbObject,
            Design::TxbPage,
            Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS,
            },
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Design::Baseline => "Baseline",
            Design::Tvarak => "Tvarak",
            Design::TvarakAblated(_) => "Tvarak(ablated)",
            Design::TxbObject => "TxB-Object-Csums",
            Design::TxbPage => "TxB-Page-Csums",
            Design::Vilamb { .. } => "Vilamb",
        }
    }

    /// The software redundancy scheme this design runs at commit.
    pub fn sw_scheme(&self) -> SwScheme {
        match self {
            Design::TxbObject => SwScheme::TxbObject,
            Design::TxbPage => SwScheme::TxbPage,
            Design::Vilamb { epoch_txs } => SwScheme::Vilamb {
                epoch_txs: *epoch_txs,
            },
            _ => SwScheme::None,
        }
    }

    /// Whether this design instantiates the hardware controller.
    pub fn has_controller(&self) -> bool {
        matches!(self, Design::Tvarak | Design::TvarakAblated(_))
    }

    /// The checksum granularity this design maintains, or `None` for
    /// Baseline (which maintains no redundancy and can neither scrub nor
    /// recover).
    pub fn checksum_granularity(&self) -> Option<ScrubGranularity> {
        match self {
            Design::Baseline => None,
            Design::Tvarak | Design::TxbObject => Some(ScrubGranularity::CacheLine),
            Design::TvarakAblated(tc) => Some(tc.checksum_granularity()),
            Design::TxbPage | Design::Vilamb { .. } => Some(ScrubGranularity::Page),
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The design names `Design`'s [`FromStr`](std::str::FromStr) impl
/// accepts, for error messages and usage strings.
pub const DESIGN_NAMES: &str = "baseline, tvarak, naive, tvarak-noverify, \
     tvarak-nodiff, tvarak-stall, tvarak-nocache, txb-object, txb-page, \
     vilamb, vilamb:<epoch_txs>";

/// A design name the command line could not be parsed into a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError {
    input: String,
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown design `{}`; valid designs: {DESIGN_NAMES}",
            self.input
        )
    }
}

impl Error for ParseDesignError {}

impl std::str::FromStr for Design {
    type Err = ParseDesignError;

    /// Parse the kebab-case design names the campaign binaries take on the
    /// command line. `vilamb` uses [`DEFAULT_VILAMB_EPOCH_TXS`];
    /// `vilamb:<n>` selects an explicit epoch length.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDesignError {
            input: s.to_string(),
        };
        let ablated = |f: fn(&mut TvarakConfig)| {
            let mut tc = TvarakConfig::default();
            f(&mut tc);
            Design::TvarakAblated(tc)
        };
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => Design::Baseline,
            "tvarak" => Design::Tvarak,
            "naive" => Design::TvarakAblated(TvarakConfig::naive()),
            "tvarak-noverify" => ablated(|tc| tc.verify_reads = false),
            "tvarak-nodiff" => ablated(|tc| tc.data_diffs = false),
            "tvarak-stall" => ablated(|tc| tc.overlapped_verification = false),
            "tvarak-nocache" => ablated(|tc| tc.redundancy_caching = false),
            "txb-object" => Design::TxbObject,
            "txb-page" => Design::TxbPage,
            "vilamb" => Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS,
            },
            other => match other.strip_prefix("vilamb:") {
                Some(n) => Design::Vilamb {
                    epoch_txs: n.parse().map_err(|_| err())?,
                },
                None => return Err(err()),
            },
        })
    }
}

/// Errors surfaced by workloads.
#[derive(Debug)]
pub enum AppError {
    /// File-system allocation failure.
    Fs(FsError),
    /// A verified read detected corruption.
    Corruption(CorruptionDetected),
    /// Transaction failure.
    Tx(pmemfs::tx::TxError),
    /// Persistent heap exhausted.
    Oom(crate::alloc::OutOfMemory),
    /// Recovery failed.
    Recovery(RecoveryError),
    /// The access touched a quarantined page (degraded mode fails closed).
    Poisoned(Poisoned),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Fs(e) => write!(f, "{e}"),
            AppError::Corruption(e) => write!(f, "{e}"),
            AppError::Tx(e) => write!(f, "{e}"),
            AppError::Oom(e) => write!(f, "{e}"),
            AppError::Recovery(e) => write!(f, "{e}"),
            AppError::Poisoned(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AppError {}

impl From<FsError> for AppError {
    fn from(e: FsError) -> Self {
        AppError::Fs(e)
    }
}

impl From<CorruptionDetected> for AppError {
    fn from(e: CorruptionDetected) -> Self {
        AppError::Corruption(e)
    }
}

impl From<pmemfs::tx::TxError> for AppError {
    fn from(e: pmemfs::tx::TxError) -> Self {
        AppError::Tx(e)
    }
}

impl From<crate::alloc::OutOfMemory> for AppError {
    fn from(e: crate::alloc::OutOfMemory) -> Self {
        AppError::Oom(e)
    }
}

impl From<RecoveryError> for AppError {
    fn from(e: RecoveryError) -> Self {
        AppError::Recovery(e)
    }
}

impl From<Poisoned> for AppError {
    fn from(e: Poisoned) -> Self {
        AppError::Poisoned(e)
    }
}

/// Builder for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: SystemConfig,
    design: Design,
    data_pages: u64,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        MachineBuilder {
            cfg: SystemConfig::default(),
            design: Design::Baseline,
            data_pages: 4096, // 16 MB of data pages
        }
    }
}

impl MachineBuilder {
    /// Use a full custom [`SystemConfig`] (Table III knobs).
    pub fn system_config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Use the small test configuration instead of the paper's Table III.
    pub fn small(mut self) -> Self {
        self.cfg = SystemConfig::small();
        self
    }

    /// Number of cores.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.cores = n;
        self
    }

    /// Number of NVM DIMMs (≥ 2; one page per stripe is parity).
    pub fn nvm_dimms(mut self, n: usize) -> Self {
        self.cfg.nvm.dimms = n;
        self
    }

    /// The redundancy design to run.
    pub fn design(mut self, d: Design) -> Self {
        self.design = d;
        self
    }

    /// Usable NVM data pages in the pool.
    pub fn data_pages(mut self, pages: u64) -> Self {
        self.data_pages = pages;
        self
    }

    /// Build the machine.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see `SystemConfig::validate`).
    pub fn build(self) -> Machine {
        let mut cfg = self.cfg;
        let tvarak_cfg = match self.design {
            Design::Tvarak => Some(TvarakConfig::default()),
            Design::TvarakAblated(tc) => Some(tc),
            _ => None,
        };
        match tvarak_cfg {
            Some(tc) => {
                // Partitions only exist for the features that use them.
                if !tc.redundancy_caching {
                    cfg.controller.redundancy_ways = 0;
                }
                if !tc.data_diffs {
                    cfg.controller.diff_ways = 0;
                }
            }
            None => {
                cfg.controller.redundancy_ways = 0;
                cfg.controller.diff_ways = 0;
            }
        }
        let layout = NvmLayout::new(cfg.nvm.dimms, self.data_pages);
        let hooks: Box<dyn memsim::engine::RedundancyHooks + Send> = match tvarak_cfg {
            Some(tc) => Box::new(TvarakController::new(
                tc,
                layout,
                cfg.llc_banks,
                cfg.controller.cache_bytes,
                cfg.controller.cache_ways,
            )),
            None => Box::new(NullHooks),
        };
        let mut sys = System::new(cfg, hooks);
        let fs = DaxFs::new(layout, &mut sys);
        Machine {
            sys,
            fs,
            design: self.design,
            orchestrator: None,
            daemon: None,
            scrub_strikes: None,
            replacement: None,
        }
    }
}

/// A simulated machine with a DAX file system and a redundancy design.
#[derive(Debug)]
pub struct Machine {
    /// The simulated system (cores, caches, memory, controller).
    pub sys: System,
    /// The DAX file system.
    pub fs: DaxFs,
    design: Design,
    orchestrator: Option<RecoveryOrchestrator>,
    daemon: Option<ScrubDaemon>,
    /// Consecutive scrub-time detections on the same page, for bounding
    /// repeat offenders (see [`Machine::tick_scrub`]).
    scrub_strikes: Option<(PageNum, u32)>,
    /// Device-replacement lifecycle + maintenance QoS, if
    /// [`Machine::enable_raid`] was called.
    replacement: Option<ReplacementManager>,
}

impl Machine {
    /// Start building a machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// The active design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Create a file of at least `bytes` bytes and DAX-map it. The `name` is
    /// documentation only.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when the pool is out of space.
    pub fn create_dax_file(&mut self, name: &str, bytes: u64) -> Result<FileHandle, FsError> {
        let _ = name;
        let f = self.fs.create(&mut self.sys, bytes)?;
        self.fs.dax_map(&mut self.sys, &f);
        Ok(f)
    }

    /// Create a transaction manager matching this machine's design (its
    /// software scheme runs at commit under TxB designs).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when the pool cannot hold the metadata.
    pub fn tx_manager(&mut self, log_bytes_per_core: u64) -> Result<TxManager, FsError> {
        let cores = self.sys.num_cores();
        TxManager::new(
            &mut self.fs,
            &mut self.sys,
            cores,
            self.design.sw_scheme(),
            log_bytes_per_core,
        )
    }

    /// Write through the hierarchy as `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`].
    pub fn write(
        &mut self,
        core: usize,
        addr: PhysAddr,
        data: &[u8],
    ) -> Result<(), CorruptionDetected> {
        self.sys.write(core, addr, data)
    }

    /// Read through the hierarchy as `core`.
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`].
    pub fn read(
        &mut self,
        core: usize,
        addr: PhysAddr,
        buf: &mut [u8],
    ) -> Result<(), CorruptionDetected> {
        self.sys.read(core, addr, buf)
    }

    /// Flush the entire hierarchy (see `System::flush`).
    pub fn flush(&mut self) {
        self.sys.flush();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> Stats {
        self.sys.stats()
    }

    /// Reset statistics after setup/warmup.
    pub fn reset_stats(&mut self) {
        self.sys.reset_stats();
    }

    /// Run `f` fast-forwarded: its accesses go straight to the media, with
    /// no caches, redundancy hooks, clocks or counters (see
    /// [`System::fast_forward`] for the entry flush, the panics and what
    /// makes it exact). For set-up whose redundancy is rebuilt afterwards
    /// with [`Self::reinit_redundancy`].
    pub fn fast_forward<T>(&mut self, f: impl FnOnce(&mut Machine) -> T) -> T {
        System::fast_forward(self, |m| &mut m.sys, f)
    }

    /// Verify `file`'s media-level redundancy invariants for whatever the
    /// active design maintains (checksums + parity). Baseline maintains
    /// nothing and trivially passes.
    ///
    /// # Errors
    ///
    /// Returns the indices of inconsistent file pages.
    pub fn verify_all(&self, file: &FileHandle) -> Result<(), Vec<u64>> {
        let Some(granularity) = self.design.checksum_granularity() else {
            return Ok(());
        };
        let mut bad = self.fs.scrub(&self.sys, file, granularity);
        bad.extend(self.fs.scrub_parity(&self.sys, file));
        bad.sort_unstable();
        bad.dedup();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// OS recovery path after [`CorruptionDetected`].
    ///
    /// # Errors
    ///
    /// See [`DaxFs::recover_page`].
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
    /// Panics under [`Design::Baseline`], which maintains no redundancy to
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
    /// every `interval_ops` operations, ticked by [`run_clocked`] after
    /// every operation.
    /// Findings are routed through the recovery orchestrator when one is
    /// enabled.
    ///
    /// # Panics
    ///
    /// Panics under [`Design::Baseline`] (no checksums to scrub against) and
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
    /// device-replacement lifecycle with maintenance QoS `qos`. Call after
    /// all setup writes are flushed so the syndromes cover the initial
    /// content.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or with fewer than 3 NVM DIMMs.
    pub fn enable_raid(&mut self, level: RaidLevel, qos: QosConfig) {
        let d = self.sys.memory().nvm_dimms() as u64;
        let striped = self.fs.layout().total_pages().div_ceil(d) * d;
        self.sys.memory_mut().configure_raid(striped, level);
        self.replacement = Some(ReplacementManager::new(qos));
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
        self.replacement
            .as_ref()
            .map_or(PoolState::Healthy, |m| m.pool_state())
    }

    /// Whether no resilver is currently pending (idle or RAID off).
    pub fn rebuild_idle(&self) -> bool {
        self.replacement
            .as_ref()
            .is_none_or(|m| !m.rebuild_pending())
    }

    /// Per-operation maintenance hook, called by the run drivers after
    /// every operation. Without a replacement manager this is exactly
    /// [`Self::tick_scrub`]. With one, the op feeds the QoS token bucket
    /// and a granted step runs: a rebuild grant resilvers one page (an
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
                if let Some(RebuildStep::Abandoned(page)) = mgr.step_rebuild(&mut self.sys, core)
                {
                    if let Some(orch) = self.orchestrator.as_mut() {
                        orch.quarantine_page(&mut self.sys, page);
                    }
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

    /// Rebuild `file`'s redundancy (checksums + parity) from current media
    /// content, bypassing the measured path. Workload *setup* phases use
    /// this after bulk raw initialization so that unmeasured initialization
    /// does not depend on the design's update mechanism.
    pub fn reinit_redundancy(&mut self, file: &FileHandle) {
        let layout = *self.fs.layout();
        tvarak::init::initialize_region(
            &layout,
            self.sys.memory_mut(),
            file.first_data_index()..file.first_data_index() + file.pages(),
        );
    }
}

/// Run `instances` workload instances for `ops` operations each,
/// *clock-driven*: the instance whose core has the smallest simulated clock
/// runs next. This is how concurrent threads actually interleave — an
/// instance delayed by a busy NVM DIMM falls behind and the others advance,
/// so threads drift apart naturally instead of staying in the artificial
/// lockstep a fixed round-robin would impose. Does **not** flush; the caller
/// decides what the measured phase includes.
///
/// # Errors
///
/// Propagates the first workload error.
pub fn run_clocked<F>(m: &mut Machine, instances: usize, ops: u64, mut f: F) -> Result<(), AppError>
where
    F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
{
    let cores = m.sys.num_cores();
    let mut done = vec![0u64; instances];
    // Lazy min-heap over (clock, instance): each entry snapshots the owning
    // core's clock at push time. Clocks only grow, so a popped entry whose
    // snapshot is stale (another instance on the same core ran meanwhile) is
    // re-pushed at the current clock; a popped entry that is still current is
    // the true lex-min (clock, instance), which is exactly the linear scan's
    // strict-< first-lowest-index choice.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..instances)
        .map(|inst| Reverse((m.sys.clock(inst % cores), inst)))
        .collect();
    while let Some(Reverse((clock, inst))) = heap.pop() {
        if done[inst] >= ops {
            continue;
        }
        let now = m.sys.clock(inst % cores);
        if clock < now {
            heap.push(Reverse((now, inst)));
            continue;
        }
        f(m, inst, done[inst])?;
        m.tick_maintenance(inst % cores)?;
        done[inst] += 1;
        if done[inst] < ops {
            heap.push(Reverse((m.sys.clock(inst % cores), inst)));
        }
    }
    Ok(())
}

/// How [`run_clocked_threads`] executed a workload.
#[derive(Debug, Clone)]
pub enum ThreadedRun {
    /// The cell ran on the sequential path: either a single thread was
    /// requested, or the configuration was ineligible for bound-weave (the
    /// carried [`WeaveEligibility`] says which). Results authoritative.
    Sequential(WeaveEligibility),
    /// Bound-weave ran to completion; results are bit-identical to the
    /// sequential oracle by construction (see `memsim::weave`).
    Woven(memsim::weave::WeaveReport),
    /// Bound-weave detected divergence and was abandoned; the carried
    /// [`DivergenceKind`] (when known) says why — cross-instance cache-line
    /// sharing, a mispredicted fill, a workload error. The machine's state
    /// is unspecified: rebuild it and rerun sequentially.
    Diverged(Option<DivergenceKind>),
}

/// Classify a machine's bound-weave configuration eligibility. Depends only
/// on the machine (never the requested thread count): software checksum
/// schemes mutate shared file metadata inline, a scrub daemon keeps
/// engine-global scan state, crashsim arms a crash window, chaos arms
/// firmware faults, and degraded-mode RAID keeps reconstruction state
/// engine-global — each forces the sequential path.
pub fn weave_eligibility(m: &Machine) -> WeaveEligibility {
    if m.design().sw_scheme() != SwScheme::None {
        WeaveEligibility::SwScheme
    } else if m.scrub_daemon().is_some() {
        WeaveEligibility::ScrubDaemon
    } else if m.sys.crash_armed() {
        WeaveEligibility::CrashWindow
    } else if m.sys.memory().armed_faults() != 0 {
        WeaveEligibility::ArmedFaults
    } else if m.sys.memory().raid_enabled() {
        WeaveEligibility::Raid
    } else {
        WeaveEligibility::Eligible
    }
}

/// Clock-driven run of `instances` workload instances on the bound-weave
/// parallel engine when `threads >= 2` and the cell is eligible; otherwise
/// falls back to the sequential [`run_clocked`] (trivially identical).
///
/// Eligibility is classified by [`WeaveEligibility`] (hardware-offload
/// designs only, no scrub daemon, no armed firmware faults, no armed crash
/// window, no firmware shadow-RAID) and recorded in the per-cause stats
/// counters at every thread count. Instances must not share writable cache
/// lines; if they do, the engine detects it and the run reports
/// [`ThreadedRun::Diverged`] — the caller rebuilds the machine and reruns
/// sequentially, so correctness never depends on the predictions.
///
/// # Errors
///
/// Propagates workload errors from the sequential path. On the parallel
/// path an erroring workload reports [`ThreadedRun::Diverged`] instead: the
/// error may have been computed from mispredicted data, and the sequential
/// rerun reproduces any genuine failure deterministically.
pub fn run_clocked_threads<F>(
    m: &mut Machine,
    instances: usize,
    ops: u64,
    threads: usize,
    mut f: F,
) -> Result<ThreadedRun, AppError>
where
    F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
{
    // The eligibility check (and its per-cause counters) runs at every
    // thread count, so campaign stats and CSVs stay byte-identical across
    // MEMSIM_ENGINE_THREADS values.
    let eligibility = weave_eligibility(m);
    m.sys.note_weave_eligibility(eligibility);
    if threads < 2 || eligibility != WeaveEligibility::Eligible {
        run_clocked(m, instances, ops, f)?;
        return Ok(ThreadedRun::Sequential(eligibility));
    }
    let cores = m.sys.num_cores();
    let session = m.sys.weave_begin();
    let mut done = vec![0u64; instances];
    let mut diverged = false;
    loop {
        if session.diverged() {
            diverged = true;
            break;
        }
        // Lex-min (lower-bound clock, instance) over active instances. A
        // core's published stall offset is exact once all its events are
        // woven, and a monotone lower bound otherwise. Competitors' bounds
        // can only grow, and growth never changes the lex-min winner (ties
        // break toward the lower index, which the winner already holds), so
        // the winner may run as soon as its *own* core is exact — that
        // reproduces the sequential scheduler's choice precisely.
        let mut best: Option<(u64, usize, bool)> = None;
        for (inst, &d) in done.iter().enumerate() {
            if d < ops {
                let core = inst % cores;
                let (stall, exact) = session.core_view(core);
                let lb = m.sys.clock(core) + stall;
                if best.is_none_or(|(blb, binst, _)| (lb, inst) < (blb, binst)) {
                    best = Some((lb, inst, exact));
                }
            }
        }
        let Some((_, inst, exact)) = best else { break };
        if !exact {
            std::thread::yield_now();
            continue;
        }
        if f(m, inst, done[inst]).is_err() || m.tick_maintenance(inst % cores).is_err() {
            session.flag_step_error();
            diverged = true;
            break;
        }
        done[inst] += 1;
    }
    let report = m.sys.weave_end(session);
    if diverged || report.diverged {
        return Ok(ThreadedRun::Diverged(report.divergence));
    }
    Ok(ThreadedRun::Woven(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reserves_partitions_only_for_tvarak() {
        let m = Machine::builder().small().design(Design::Baseline).build();
        assert_eq!(m.sys.config().llc_data_ways(), 16);
        let m = Machine::builder().small().design(Design::Tvarak).build();
        assert_eq!(m.sys.config().llc_data_ways(), 13);
        let m = Machine::builder().small().design(Design::TxbPage).build();
        assert_eq!(m.sys.config().llc_data_ways(), 16);
    }

    #[test]
    fn ablated_naive_gets_no_partitions() {
        let m = Machine::builder()
            .small()
            .design(Design::TvarakAblated(TvarakConfig::naive()))
            .build();
        assert_eq!(m.sys.config().llc_data_ways(), 16);
        assert!(m.design().has_controller());
    }

    #[test]
    fn quickstart_flow() {
        let mut m = Machine::builder()
            .small()
            .design(Design::Tvarak)
            .data_pages(64)
            .build();
        let f = m.create_dax_file("t", 8192).unwrap();
        f.write(&mut m.sys, 0, 0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read(&mut m.sys, 0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        m.flush();
        m.verify_all(&f).unwrap();
    }

    /// The pre-heap clock-driven scheduler: linear scan for the strictly
    /// smallest core clock, first (lowest-index) instance winning ties.
    /// Kept verbatim as the ordering oracle for [`run_clocked`].
    fn run_clocked_linear_reference<F>(
        m: &mut Machine,
        instances: usize,
        ops: u64,
        mut f: F,
    ) -> Result<(), AppError>
    where
        F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
    {
        let cores = m.sys.num_cores();
        let mut done = vec![0u64; instances];
        loop {
            let mut next: Option<(usize, u64)> = None;
            for (inst, &d) in done.iter().enumerate() {
                if d < ops {
                    let clock = m.sys.clock(inst % cores);
                    if next.is_none_or(|(_, c)| clock < c) {
                        next = Some((inst, clock));
                    }
                }
            }
            let Some((inst, _)) = next else { break };
            f(m, inst, done[inst])?;
            m.tick_maintenance(inst % cores)?;
            done[inst] += 1;
        }
        Ok(())
    }

    #[test]
    fn heap_scheduler_matches_linear_scan_order() {
        // Skewed per-instance work so core clocks drift apart and ties,
        // staleness, and multi-instance-per-core reinsertion all occur.
        let run = |use_heap: bool| -> (Vec<(usize, u64)>, u64) {
            let mut m = Machine::builder()
                .small()
                .design(Design::Tvarak)
                .data_pages(128)
                .build();
            let f = m.create_dax_file("t", 10 * 8192).unwrap();
            let mut order = Vec::new();
            let body = |m: &mut Machine, inst: usize, op: u64| {
                let span = (inst as u64 % 3) + 1;
                let core = inst % m.sys.num_cores();
                for k in 0..span {
                    f.write_u64(
                        &mut m.sys,
                        core,
                        inst as u64 * 8192 + (op * span + k) % 1000 * 8,
                        op ^ k,
                    )?;
                }
                Ok(())
            };
            let instances = 5;
            let ops = 40;
            if use_heap {
                run_clocked(&mut m, instances, ops, |m, inst, op| {
                    order.push((inst, op));
                    body(m, inst, op)
                })
                .unwrap();
            } else {
                run_clocked_linear_reference(&mut m, instances, ops, |m, inst, op| {
                    order.push((inst, op));
                    body(m, inst, op)
                })
                .unwrap();
            }
            m.flush();
            (order, m.stats().runtime_cycles())
        };
        let (heap_order, heap_cycles) = run(true);
        let (linear_order, linear_cycles) = run(false);
        assert_eq!(heap_order, linear_order);
        assert_eq!(heap_cycles, linear_cycles);
    }

    #[test]
    fn bound_weave_matches_sequential_oracle() {
        // Per-instance disjoint page-aligned regions on a hardware design:
        // eligible for bound-weave, and every stat must come out identical.
        let run = |threads: usize| -> (Stats, u64, ThreadedRun) {
            let mut m = Machine::builder()
                .small()
                .design(Design::Tvarak)
                .data_pages(128)
                .build();
            let f = m.create_dax_file("t", 12 * 8192).unwrap();
            m.reset_stats();
            let outcome = run_clocked_threads(&mut m, 4, 200, threads, |m, inst, op| {
                let core = inst % m.sys.num_cores();
                f.write_u64(
                    &mut m.sys,
                    core,
                    inst as u64 * 3 * 8192 + (op * 37 % 3000) * 8,
                    op.wrapping_mul(0x9e37_79b9),
                )?;
                if op % 5 == 0 {
                    let mut buf = [0u8; 8];
                    f.read(&mut m.sys, core, inst as u64 * 3 * 8192, &mut buf)?;
                }
                Ok(())
            })
            .unwrap();
            m.flush();
            (m.stats(), m.sys.memory().content_hash(), outcome)
        };
        let (seq_stats, seq_hash, seq_mode) = run(1);
        assert!(matches!(
            seq_mode,
            ThreadedRun::Sequential(WeaveEligibility::Eligible)
        ));
        let (par_stats, par_hash, par_mode) = run(4);
        assert!(
            matches!(par_mode, ThreadedRun::Woven(_)),
            "expected woven completion, got {par_mode:?}"
        );
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_hash, par_hash);
    }

    #[test]
    fn bound_weave_detects_shared_line_divergence() {
        // Both instances hammer the same cache line from different cores:
        // the bound-phase foreign-copy probe must flag divergence rather
        // than silently serve stale private data.
        let mut m = Machine::builder()
            .small()
            .design(Design::Baseline)
            .data_pages(64)
            .build();
        let f = m.create_dax_file("t", 8192).unwrap();
        let outcome = run_clocked_threads(&mut m, 2, 50, 4, |m, inst, op| {
            let core = inst % m.sys.num_cores();
            f.write_u64(&mut m.sys, core, 0, op.wrapping_mul(inst as u64 + 1))?;
            Ok(())
        })
        .unwrap();
        assert!(
            matches!(outcome, ThreadedRun::Diverged(_)),
            "expected divergence on a shared line, got {outcome:?}"
        );
    }

    #[test]
    fn bound_weave_ineligible_cells_run_sequentially() {
        let mut m = Machine::builder()
            .small()
            .design(Design::TxbPage)
            .data_pages(64)
            .build();
        let f = m.create_dax_file("t", 8192).unwrap();
        let outcome = run_clocked_threads(&mut m, 2, 5, 4, |m, inst, op| {
            let core = inst % m.sys.num_cores();
            f.write_u64(&mut m.sys, core, op * 8, op)?;
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            outcome,
            ThreadedRun::Sequential(WeaveEligibility::SwScheme)
        ));
    }

    #[test]
    fn designs_report_labels_and_schemes() {
        assert_eq!(Design::Baseline.label(), "Baseline");
        assert_eq!(Design::TxbObject.sw_scheme(), SwScheme::TxbObject);
        assert_eq!(Design::Tvarak.sw_scheme(), SwScheme::None);
        assert_eq!(Design::fig8().len(), 4);
    }

    #[test]
    fn all_extends_fig8_with_vilamb() {
        let all = Design::all();
        assert_eq!(&all[..4], &Design::fig8()[..]);
        assert_eq!(
            all[4],
            Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS
            }
        );
    }

    #[test]
    fn designs_parse_from_str() {
        assert_eq!("baseline".parse(), Ok(Design::Baseline));
        assert_eq!("Tvarak".parse(), Ok(Design::Tvarak));
        assert_eq!("txb-object".parse(), Ok(Design::TxbObject));
        assert_eq!("txb-page".parse(), Ok(Design::TxbPage));
        assert_eq!("vilamb:7".parse(), Ok(Design::Vilamb { epoch_txs: 7 }));
        assert_eq!(
            "vilamb".parse(),
            Ok(Design::Vilamb {
                epoch_txs: DEFAULT_VILAMB_EPOCH_TXS
            })
        );
        assert_eq!(
            "naive".parse::<Design>().unwrap().label(),
            "Tvarak(ablated)"
        );
        assert!("tvarak-noverify".parse::<Design>().is_ok());
        let err = "bogus".parse::<Design>().unwrap_err().to_string();
        assert!(err.contains("bogus") && err.contains("txb-page"), "{err}");
        assert!("vilamb:x".parse::<Design>().is_err());
    }
}
