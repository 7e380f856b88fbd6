//! The simulation engine: ties cores, the cache hierarchy, memory devices,
//! and the redundancy controller hooks together.
//!
//! # Hierarchy walk
//!
//! Every application load/store walks L1D → L2 → LLC bank → memory, paying
//! the Table III latency at each level and maintaining inclusion
//! (L1 ⊆ L2 ⊆ LLC). A directory in the LLC keeps private caches coherent
//! (MESI states collapse to: shared copies, or a single exclusive owner).
//!
//! Each layer of the walk is one child module with its own `impl System`
//! block, listed here in walk order (DESIGN.md §4 is the same map):
//!
//! - this module: [`System`], its construction and accessors, the
//!   [`System::read`]/[`System::write`] entry and [`System::stats`];
//! - `private`: the L1/L2 walk and fills, write upgrades, and the
//!   directory's back-invalidations of private copies;
//! - `llc`: the LLC banks and their partitions, the redundancy hooks and
//!   their [`HookEnv`], private-cache spills and LLC victims;
//! - `dimm`: demand reads and posted writes to the memory devices, and the
//!   DIMM queue model ([`DimmState`]);
//! - `persist`: flush, `clwb`, the crash window, power loss, page
//!   invalidation and fast-forward;
//! - `bound`: the bound-weave glue ([`crate::weave`]).
//!
//! # Redundancy hooks
//!
//! The TVARAK controller (or nothing, for the baseline) observes exactly the
//! events the paper gives it (§III):
//!
//! - [`RedundancyHooks::on_nvm_fill`] — every NVM → LLC cache-line read
//!   (checksum verification happens here),
//! - [`RedundancyHooks::on_nvm_writeback`] — every dirty LLC → NVM cache-line
//!   writeback (checksum + parity updates happen here),
//! - [`RedundancyHooks::on_llc_clean_to_dirty`] — an LLC data line turns
//!   dirty and its pre-modification content is available (data-diff capture).
//!
//! # Timing model
//!
//! Per-core cycle counters advance with each access; demand fills stall the
//! requesting core for the full memory latency, while writebacks are posted
//! (they occupy NVM DIMM bandwidth but do not stall). A demand read also
//! pays a queue delay that grows with the utilization its DIMM lane has
//! accumulated so far ([`DimmState`]). This simple deterministic bandwidth
//! model is what lets the bandwidth-saturating `stream` workloads scale with
//! total NVM traffic (§IV-F) while the latency-bound applications stay
//! latency-limited.

mod bound;
mod dimm;
mod llc;
mod persist;
mod private;
#[cfg(test)]
mod tests;

pub use dimm::DimmState;
pub use llc::{HookEnv, NullHooks, RedundancyHooks, RedundancyRegion};
pub use persist::CrashState;

use crate::addr::{LineAddr, PhysAddr, CACHE_LINE};
use crate::cache::{CacheArray, Evicted};
use crate::config::SystemConfig;
use crate::mem::Memory;
use crate::stats::{Counters, Stats};
use llc::bank_interleave;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A checksum mismatch detected by the redundancy controller on an NVM read.
///
/// The paper's controller raises an interrupt that traps to the OS; here the
/// error propagates out of [`System::read`]/[`System::write`] so the file
/// system layer can run parity recovery and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionDetected {
    /// The NVM line whose content did not match its system-checksum.
    pub line: LineAddr,
}

impl fmt::Display for CorruptionDetected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checksum mismatch on NVM read of {:?}", self.line)
    }
}

impl Error for CorruptionDetected {}

/// Per-core private caches.
#[derive(Debug)]
struct PrivCaches {
    l1d: CacheArray,
    l2: CacheArray,
}

/// The machine state outside the cores' private caches: everything a
/// redundancy hook may reach through its [`HookEnv`].
struct Uncore {
    llc: Vec<CacheArray>,
    mem: Memory,
    clocks: Vec<u64>,
    /// Per-(DIMM × LLC-bank) bandwidth lanes, indexed `dimm * llc_banks +
    /// bank` (see [`DimmState`]).
    dimms: Vec<DimmState>,
    counters: Counters,
    crash: CrashState,
}

/// The simulated machine.
///
/// The walk runs on `&mut self`. At each hook call it lends the hooks and
/// the uncore out as disjoint fields, so no state needs interior
/// mutability. One thread owns a `System` at a time: the caller's, or —
/// during a bound-weave session — the weave worker, which receives the
/// uncore and the hooks by value (see [`crate::weave`]).
pub struct System {
    cfg: SystemConfig,
    cores: Vec<PrivCaches>,
    uncore: Uncore,
    hooks: Box<dyn RedundancyHooks>,
    red_region: Option<RedundancyRegion>,
    scrub_accounting: bool,
    /// Victim buffer reused across [`System::flush`] calls (see `flush`).
    flush_scratch: Vec<Evicted>,
    /// Bound-phase context while a bound-weave session is active (see
    /// [`crate::weave`]): shared-state accesses are predicted locally and
    /// emitted as events instead of touching the (moved-out) LLC/memory.
    bound: Option<crate::weave::BoundCtx>,
    /// Set when the weave worker's replay met a private-cache
    /// back-invalidation it cannot apply (the private caches stay with the
    /// bound thread); drained by `weave_apply`.
    back_invalidated: bool,
    /// Set only inside [`System::fast_forward`]: reads and writes go
    /// straight to `Memory`.
    functional: bool,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("llc_banks", &self.uncore.llc.len())
            .field("hooks", &self.hooks.name())
            .finish()
    }
}

impl System {
    /// Build a system from `cfg` with the given redundancy hooks.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig, hooks: Box<dyn RedundancyHooks>) -> Self {
        cfg.validate();
        let cores = (0..cfg.cores)
            .map(|_| PrivCaches {
                l1d: CacheArray::new(cfg.l1d.sets(), cfg.l1d.ways, 1),
                l2: CacheArray::new(cfg.l2.sets(), cfg.l2.ways, 1),
            })
            .collect();
        let uncore = Uncore {
            llc: (0..cfg.llc_banks)
                .map(|_| CacheArray::new(cfg.llc.sets(), cfg.llc.ways, cfg.llc_banks as u64))
                .collect(),
            mem: Memory::new(cfg.nvm.dimms),
            clocks: vec![0; cfg.cores],
            dimms: vec![DimmState::lane(cfg.llc_banks as u64); cfg.nvm.dimms * cfg.llc_banks],
            counters: Counters::default(),
            crash: CrashState::default(),
        };
        System {
            cfg,
            cores,
            uncore,
            hooks,
            red_region: None,
            scrub_accounting: false,
            flush_scratch: Vec::new(),
            bound: None,
            back_invalidated: false,
            functional: false,
        }
    }

    /// While set, NVM data-line demand reads tally under
    /// [`Counters::scrub_reads`] instead of `nvm_data_reads`. The scrub
    /// daemon brackets its page walks with this so campaign reports can
    /// split application traffic from redundancy-maintenance traffic.
    pub fn set_scrub_accounting(&mut self, on: bool) {
        self.scrub_accounting = on;
    }

    /// Whether scrub accounting is currently active.
    pub fn scrub_accounting(&self) -> bool {
        self.scrub_accounting
    }

    /// Install the redundancy-region classifier used to split NVM access
    /// counters into data vs. redundancy for software schemes (hardware-
    /// controller accesses are classified at their call sites).
    pub fn set_redundancy_region(&mut self, region: RedundancyRegion) {
        self.red_region = Some(region);
    }

    #[inline]
    fn is_red_line(&self, line: LineAddr) -> bool {
        self.red_region.is_some_and(|r| r.is_redundancy(line))
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cfg.cores
    }

    /// Direct access to the memory devices (fault injection, ground truth).
    pub fn memory_mut(&mut self) -> &mut Memory {
        self.assert_unbound("memory_mut");
        &mut self.uncore.mem
    }

    /// Shared access to the memory devices.
    pub fn memory(&self) -> &Memory {
        self.assert_unbound("memory");
        &self.uncore.mem
    }

    /// The redundancy hooks (for controller management APIs via downcast).
    pub fn hooks_mut(&mut self) -> &mut dyn RedundancyHooks {
        self.hooks.as_mut()
    }

    /// Run a closure with the hooks and a [`HookEnv`] (used by the
    /// file-system layer for DAX map/unmap conversions and recovery, which
    /// the paper performs in FS software but which touch controller state).
    pub fn with_hooks_env<T>(
        &mut self,
        f: impl FnOnce(&mut dyn RedundancyHooks, &mut HookEnv<'_>) -> T,
    ) -> T {
        self.assert_unbound("with_hooks_env");
        f(
            self.hooks.as_mut(),
            &mut HookEnv {
                cfg: &self.cfg,
                uncore: &mut self.uncore,
            },
        )
    }

    /// Current cycle count of `core`.
    pub fn clock(&self, core: usize) -> u64 {
        self.uncore.clocks[core]
    }

    /// Charge `cycles` of compute work to `core`.
    pub fn compute(&mut self, core: usize, cycles: u64) {
        self.uncore.clocks[core] += cycles;
    }

    /// Charge `count` instruction-fetch accesses to `core` (1 cycle each,
    /// counted for L1-I energy). Applications use this as a coarse per-op
    /// instruction cost; see DESIGN.md §7.
    pub fn instr(&mut self, core: usize, count: u64) {
        self.uncore.counters.l1i_accesses += count;
        self.uncore.clocks[core] += count;
    }

    /// Synchronize all core clocks to the maximum (a barrier). No workload
    /// synchronizes its cores, so only the unit tests build it.
    #[cfg(test)]
    fn barrier(&mut self) {
        self.assert_unbound("barrier");
        let m = self.uncore.clocks.iter().copied().max().unwrap_or(0);
        self.uncore.clocks.fill(m);
    }

    /// Reset counters, clocks, and the DIMM bandwidth horizons. Benchmarks
    /// call this after warmup/setup so measurements cover only the timed
    /// phase.
    pub fn reset_stats(&mut self) {
        self.assert_unbound("reset_stats");
        let u = &mut self.uncore;
        u.counters = Counters::default();
        u.clocks.fill(0);
        u.dimms.fill(DimmState::lane(self.cfg.llc_banks as u64));
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> Stats {
        self.assert_unbound("stats");
        // Fold every cache array's eviction digest in a fixed order (per
        // core: L1D then L2, then the LLC banks) so the combined value is a
        // stable fingerprint of all victim choices made since construction.
        let mut evict_hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            evict_hash = (evict_hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for core in &self.cores {
            fold(core.l1d.evict_hash());
            fold(core.l2.evict_hash());
        }
        for bank in &self.uncore.llc {
            fold(bank.evict_hash());
        }
        Stats {
            counters: self.uncore.counters,
            core_cycles: self.uncore.clocks.clone(),
            evict_hash,
        }
    }

    #[inline]
    fn bank_of(&self, line: LineAddr) -> usize {
        bank_interleave(line, self.cfg.llc_banks)
    }

    fn data_ways(&self) -> Range<usize> {
        0..self.cfg.llc_data_ways()
    }

    /// Read `buf.len()` bytes at `addr` as `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionDetected`] if the redundancy controller detects a
    /// checksum mismatch while filling any covered line from NVM.
    pub fn read(
        &mut self,
        core: usize,
        addr: PhysAddr,
        buf: &mut [u8],
    ) -> Result<(), CorruptionDetected> {
        if self.functional {
            self.functional_read(addr, buf);
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let a = PhysAddr(addr.0 + off as u64);
            let line = a.line();
            let lo = a.line_offset();
            let n = (CACHE_LINE - lo).min(buf.len() - off);
            let idx = self.ensure_line(core, line, false)?;
            let e = self.cores[core].l1d.entry_mut(idx);
            buf[off..off + n].copy_from_slice(&e.data[lo..lo + n]);
            off += n;
        }
        Ok(())
    }

    /// Write `data` at `addr` as `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionDetected`] if the write-allocate fill of any
    /// covered line fails verification.
    pub fn write(
        &mut self,
        core: usize,
        addr: PhysAddr,
        data: &[u8],
    ) -> Result<(), CorruptionDetected> {
        if self.functional {
            self.functional_write(addr, data);
            return Ok(());
        }
        let mut off = 0usize;
        while off < data.len() {
            let a = PhysAddr(addr.0 + off as u64);
            let line = a.line();
            let lo = a.line_offset();
            let n = (CACHE_LINE - lo).min(data.len() - off);
            let idx = self.ensure_line(core, line, true)?;
            let mut e = self.cores[core].l1d.entry_mut(idx);
            e.data[lo..lo + n].copy_from_slice(&data[off..off + n]);
            e.set_dirty(true);
            off += n;
        }
        Ok(())
    }

    /// [`Self::read`] in functional mode: each covered line straight from
    /// the media.
    fn functional_read(&mut self, addr: PhysAddr, buf: &mut [u8]) {
        let mem = &mut self.uncore.mem;
        let mut off = 0usize;
        while off < buf.len() {
            let a = PhysAddr(addr.0 + off as u64);
            let lo = a.line_offset();
            let n = (CACHE_LINE - lo).min(buf.len() - off);
            buf[off..off + n].copy_from_slice(&mem.read_line(a.line())[lo..lo + n]);
            off += n;
        }
    }

    /// [`Self::write`] in functional mode: read-modify-write of each covered
    /// line on the media.
    fn functional_write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mem = &mut self.uncore.mem;
        let mut off = 0usize;
        while off < data.len() {
            let a = PhysAddr(addr.0 + off as u64);
            let lo = a.line_offset();
            let n = (CACHE_LINE - lo).min(data.len() - off);
            let mut line = mem.read_line(a.line());
            line[lo..lo + n].copy_from_slice(&data[off..off + n]);
            mem.write_line(a.line(), &line);
            off += n;
        }
    }
}
