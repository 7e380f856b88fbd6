//! Building a [`Machine`] and its plain calls: file and transaction-manager
//! creation, raw accesses, flush, statistics and fast-forward.

use super::{Design, Machine};
use memsim::addr::PhysAddr;
use memsim::config::SystemConfig;
use memsim::engine::{CorruptionDetected, NullHooks, System};
use memsim::stats::Stats;
use pmemfs::fs::{DaxFs, FileHandle, FsError};
use pmemfs::tx::TxManager;
use tvarak::controller::{TvarakConfig, TvarakController};
use tvarak::layout::NvmLayout;

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
            scrubber: None,
            scrub_incidents: Default::default(),
            replacement: None,
        }
    }
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
    /// active design maintains (checksums + parity, [`DaxFs::audit`]).
    /// Baseline maintains nothing and trivially passes.
    ///
    /// # Errors
    ///
    /// Returns the indices of inconsistent file pages.
    pub fn verify_all(&self, file: &FileHandle) -> Result<(), Vec<u64>> {
        let Some(granularity) = self.design.checksum_granularity() else {
            return Ok(());
        };
        let bad: Vec<u64> = self
            .fs
            .audit(&self.sys, file, granularity)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
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
}
