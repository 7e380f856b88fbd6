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
//! (they occupy NVM DIMM bandwidth but do not stall). Each NVM DIMM has a
//! `free-at` horizon: a demand read to a busy DIMM queues behind it. This
//! simple deterministic bandwidth model is what lets the bandwidth-saturating
//! `stream` workloads scale with total NVM traffic (§IV-F) while the
//! latency-bound applications stay latency-limited.

use crate::addr::{LineAddr, PageNum, PhysAddr, CACHE_LINE, LINES_PER_PAGE};
use crate::cache::{CacheArray, Evicted, NO_OWNER};
use crate::config::SystemConfig;
use crate::mem::{Device, Memory};
use crate::stats::{Counters, Stats};
use std::any::Any;
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
    fn admit(&mut self) -> bool {
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
    fn crashed(&self) -> bool {
        matches!(self.budget, Some(k) if self.events >= k)
    }
}

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
    uncore: &'a mut Uncore,
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

/// The cores of a directory sharer mask, in ascending order: every walk that
/// visits "the cores that may hold this line" goes through here.
fn sharer_cores(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let core = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(core)
    })
}

impl<'a> HookEnv<'a> {
    /// The LLC bank holding `line` (lines are bank-interleaved).
    #[inline]
    pub fn bank_of(&self, line: LineAddr) -> usize {
        bank_interleave(line, self.cfg.llc_banks)
    }

    /// LLC way range reserved for application data.
    pub fn data_ways(&self) -> Range<usize> {
        0..self.cfg.llc_data_ways()
    }

    /// LLC way range reserved for caching redundancy lines.
    pub fn red_ways(&self) -> Range<usize> {
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

    fn nvm_timing(&mut self, core: usize, line: LineAddr, write: bool, demand: bool) {
        let u = &mut *self.uncore;
        let dimm = match u.mem.device_of(line) {
            Device::Nvm { dimm } => dimm,
            Device::Dram => {
                // Redundancy for DRAM lines should never arise; treat as DRAM access.
                u.counters.dram_accesses += 1;
                if demand {
                    u.clocks[core] += self.cfg.ns_to_cycles(self.cfg.dram.read_ns);
                }
                return;
            }
        };
        let now = u.clocks[core];
        let occ = self.cfg.ns_to_cycles(if write {
            self.cfg.nvm.write_occupancy_ns
        } else {
            self.cfg.nvm.read_occupancy_ns
        });
        if demand {
            let lat = self.cfg.ns_to_cycles(if write {
                self.cfg.nvm.write_ns
            } else {
                self.cfg.nvm.read_ns
            });
            let wait = u.dimm_lane(self.cfg.llc_banks, dimm, line).demand(now, occ);
            u.counters.demand_queue_cycles += wait;
            u.clocks[core] = now + wait + lat;
        } else {
            u.dimm_lane(self.cfg.llc_banks, dimm, line).posted(now, occ);
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
    pub fn is_redundancy(&self, line: LineAddr) -> bool {
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

/// Per-DIMM-lane bandwidth state for the utilization-based queueing model.
///
/// Every access (demand or posted) contributes its occupancy to the lane's
/// cumulative busy time; demand reads additionally pay an M/D/1-style queue
/// delay `occ * rho / (2 * (1 - rho))` derived from the utilization `rho`
/// observed so far. This smooth model captures what matters at this
/// simulator's resolution — runtime grows with total NVM traffic and
/// saturates as utilization approaches 1 — without the artificial convoys a
/// strict per-request horizon produces under deterministic round-robin
/// scheduling (real OOO cores overlap misses; real threads drift).
///
/// A DIMM's bandwidth is modeled as `weight` equal lanes, one per LLC bank
/// (see [`System`]'s `dimms` field): each lane owns `1/weight` of the DIMM's
/// bandwidth, so an access's occupancy is scaled by `weight` before it
/// accumulates into the lane's busy time. Under bank-uniform traffic each
/// lane's utilization then matches the whole-DIMM model's. The lanes were
/// introduced for a bank-sharded replay engine that is gone; they stay only
/// because collapsing them to one whole-DIMM queue moves simulated cycles,
/// which belongs with the DIMM-model calibration (ROADMAP.md). A
/// default-constructed state is a whole-DIMM model (`weight` ≤ 1 scales
/// by 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct DimmState {
    /// Cumulative scaled occupancy (cycles) of all accesses to this lane.
    busy: u64,
    /// Cumulative demand accesses (diagnostics).
    demand_count: u64,
    /// Cumulative posted accesses (diagnostics).
    posted_count: u64,
    /// Lanes per DIMM (occupancy scale factor); 0 or 1 = whole-DIMM model.
    weight: u64,
}

impl DimmState {
    /// Utilization bound: queue delays are computed as if utilization never
    /// exceeds this (runtime stretching provides the real saturation
    /// feedback).
    const MAX_RHO: f64 = 0.96;

    /// A lane owning `1/weight` of a DIMM's bandwidth.
    pub fn lane(weight: u64) -> DimmState {
        DimmState {
            weight,
            ..DimmState::default()
        }
    }

    /// Schedule a demand access of `occ` cycles at `now`: returns the queue
    /// delay to charge on top of the device latency.
    #[inline]
    pub fn demand(&mut self, now: u64, occ: u64) -> u64 {
        let rho = self.utilization(now);
        self.busy += occ * self.weight.max(1);
        self.demand_count += 1;
        // M/D/1 mean queueing delay, in units of this access's service time.
        (occ as f64 * rho / (2.0 * (1.0 - rho))).round() as u64
    }

    /// Post `occ` cycles of deferrable work (writes, background redundancy
    /// traffic): consumes bandwidth, never stalls the poster.
    #[inline]
    pub fn posted(&mut self, _now: u64, occ: u64) {
        self.busy += occ * self.weight.max(1);
        self.posted_count += 1;
    }

    /// Utilization observed so far relative to wall-clock `now`.
    #[inline]
    pub fn utilization(&self, now: u64) -> f64 {
        if now == 0 {
            return 0.0;
        }
        (self.busy as f64 / now as f64).min(Self::MAX_RHO)
    }

    /// Cumulative busy cycles (diagnostics).
    pub fn backlog(&self) -> u64 {
        self.busy
    }

    /// Cumulative (demand, posted) access counts (diagnostics).
    pub fn access_counts(&self) -> (u64, u64) {
        (self.demand_count, self.posted_count)
    }
}

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

impl Uncore {
    /// The DIMM queue lane for (`dimm`, bank of `line`) among `banks` LLC
    /// banks.
    #[inline]
    fn dimm_lane(&mut self, banks: usize, dimm: usize, line: LineAddr) -> &mut DimmState {
        &mut self.dimms[dimm * banks + bank_interleave(line, banks)]
    }
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

    /// Assert that no bound-weave session is active: during the bound phase
    /// the LLC, memory, DIMMs, and hooks live on the weave worker, so any
    /// path that needs them whole must not run (see [`crate::weave`]).
    #[inline]
    fn assert_unbound(&self, what: &str) {
        assert!(
            self.bound.is_none(),
            "System::{what} is not available during the bound phase of a \
             bound-weave session"
        );
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

    /// Synchronize all core clocks to the maximum (a barrier).
    pub fn barrier(&mut self) {
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

    /// Per-DIMM (demand, posted) access counts (diagnostics), aggregated
    /// over each DIMM's bank lanes.
    pub fn dimm_access_counts(&self) -> Vec<(u64, u64)> {
        self.assert_unbound("dimm_access_counts");
        let banks = self.cfg.llc_banks;
        self.uncore
            .dimms
            .chunks(banks)
            .map(|lanes| {
                lanes.iter().fold((0, 0), |(dm, po), lane| {
                    let (a, b) = lane.access_counts();
                    (dm + a, po + b)
                })
            })
            .collect()
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

    /// Guarantee `line` is present in `core`'s L1D with write permission if
    /// `for_write`. This is the full hierarchy walk. Returns the line's L1D
    /// slot index so `read`/`write` can reach the entry without a second tag
    /// scan.
    fn ensure_line(
        &mut self,
        core: usize,
        line: LineAddr,
        for_write: bool,
    ) -> Result<usize, CorruptionDetected> {
        let l1_ways = 0..self.cfg.l1d.ways;
        let l2_ways = 0..self.cfg.l2.ways;

        // L1 hit?
        if let Some(idx) = self.cores[core].l1d.lookup_idx(line, l1_ways.clone()) {
            self.uncore.counters.l1d_hits += 1;
            self.uncore.clocks[core] += self.cfg.l1d.latency_cycles;
            if !for_write || self.cores[core].l1d.entry_mut(idx).excl() {
                return Ok(idx);
            }
            // Upgrade: fall through to the LLC for ownership, keeping data.
            self.upgrade_for_write(core, line);
            return Ok(idx);
        }
        self.uncore.counters.l1d_misses += 1;
        self.uncore.clocks[core] += self.cfg.l1d.latency_cycles;

        // L2 hit?
        if let Some(idx) = self.cores[core].l2.lookup_idx(line, l2_ways.clone()) {
            self.uncore.counters.l2_hits += 1;
            self.uncore.clocks[core] += self.cfg.l2.latency_cycles;
            let (data, excl) = {
                let e = self.cores[core].l2.entry_mut(idx);
                (*e.data, e.excl())
            };
            if for_write && !excl {
                self.upgrade_for_write(core, line);
            }
            let excl_now = excl || for_write;
            return Ok(self.fill_l1(core, line, &data, excl_now));
        }
        self.uncore.counters.l2_misses += 1;
        self.uncore.clocks[core] += self.cfg.l2.latency_cycles;

        // LLC.
        if self.bound.is_some() {
            // Bound phase: predict the fill locally, emit the event, and
            // grant exclusivity outright (the weave replay verifies both).
            let data = self.bound_fill(core, line, for_write);
            self.fill_l2(core, line, &data, true);
            return Ok(self.fill_l1(core, line, &data, true));
        }
        let (data, excl) = self.llc_access(core, line, for_write)?;
        self.fill_l2(core, line, &data, excl);
        Ok(self.fill_l1(core, line, &data, excl))
    }

    /// Bound-phase fill: sequential execution would walk the shared LLC and
    /// (on a miss) the NVM here. Instead, predict the data the walk would
    /// return — the dirty-line overlay ∪ the media snapshot is exactly the
    /// LLC-or-media content for every line not privately dirty elsewhere —
    /// and emit a [`crate::weave::Event::Fill`] carrying the prediction for
    /// the weave worker to verify against the real walk.
    ///
    /// The prediction (and the granted exclusivity) is wrong exactly when
    /// some *other* core still caches the line privately, so probe every
    /// other core's L1/L2 first (probes mutate nothing) and flag divergence
    /// on any foreign copy. Bound order equals sequential order, so the
    /// probe sees precisely the private state sequential execution would
    /// consult through the directory.
    fn bound_fill(&mut self, core: usize, line: LineAddr, for_write: bool) -> [u8; CACHE_LINE] {
        let foreign = self.cores.iter().enumerate().any(|(other, c)| {
            other != core
                && (c.l1d.probe(line, 0..self.cfg.l1d.ways).is_some()
                    || c.l2.probe(line, 0..self.cfg.l2.ways).is_some())
        });
        let ts = self.uncore.clocks[core];
        let b = self.bound.as_mut().expect("bound_fill outside bound phase");
        if foreign {
            b.flag_divergence(crate::weave::DivergenceKind::ForeignPrivateCopy);
        }
        let predicted = b.predict(line);
        b.send(crate::weave::Event::Fill {
            core,
            line,
            for_write,
            ts,
            predicted,
        });
        predicted
    }

    /// Write-permission upgrade for a line the core already caches shared:
    /// probe the LLC directory, invalidate other sharers, take ownership.
    fn upgrade_for_write(&mut self, core: usize, line: LineAddr) {
        if let Some(b) = self.bound.as_ref() {
            // A shared (non-exclusive) private copy predates the bound
            // phase; sequential execution would negotiate ownership through
            // the LLC directory, which the bound phase cannot see. Grant
            // exclusivity benignly and bail to the sequential oracle.
            b.flag_divergence(crate::weave::DivergenceKind::WriteUpgrade);
            let c = &mut self.cores[core];
            if let Some(mut e) = c.l1d.lookup(line, 0..self.cfg.l1d.ways) {
                e.set_excl(true);
            }
            if let Some(mut e) = c.l2.lookup(line, 0..self.cfg.l2.ways) {
                e.set_excl(true);
            }
            return;
        }
        self.uncore.clocks[core] += self.cfg.l2.latency_cycles + self.cfg.llc.latency_cycles;
        self.uncore.counters.llc_hits += 1;
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        // Inclusion should make a miss here unreachable; tolerate gracefully.
        let found = self.uncore.llc[bank].lookup_idx(line, ways);
        let sharers = match found {
            Some(idx) => *self.uncore.llc[bank].entry_mut(idx).sharers,
            None => 0,
        };
        for other in sharer_cores(sharers & !(1 << core)) {
            if let Some((d, true)) = self.priv_invalidate(other, line) {
                // Other core's modified data merges into the LLC.
                if let Some(idx) = found {
                    let mut e = self.uncore.llc[bank].entry_mut(idx);
                    *e.data = d;
                    e.set_dirty(true);
                }
            }
        }
        if let Some(idx) = found {
            let e = self.uncore.llc[bank].entry_mut(idx);
            *e.sharers = 1 << core;
            *e.owner = core as u8;
        }
        // Grant exclusivity in this core's private copies.
        let c = &mut self.cores[core];
        if let Some(mut e) = c.l1d.lookup(line, 0..self.cfg.l1d.ways) {
            e.set_excl(true);
        }
        if let Some(mut e) = c.l2.lookup(line, 0..self.cfg.l2.ways) {
            e.set_excl(true);
        }
    }

    /// LLC-level access: returns the line data and whether the core obtains
    /// exclusive (writable) permission.
    fn llc_access(
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

    /// Demand read of `line` from its memory device, with verification for
    /// NVM lines.
    fn mem_demand_read(
        &mut self,
        core: usize,
        line: LineAddr,
    ) -> Result<[u8; CACHE_LINE], CorruptionDetected> {
        match self.uncore.mem.device_of(line) {
            Device::Dram => {
                self.uncore.counters.dram_accesses += 1;
                self.uncore.clocks[core] += self.cfg.ns_to_cycles(self.cfg.dram.read_ns);
                Ok(self.uncore.mem.read_line(line))
            }
            Device::Nvm { dimm } => {
                if self.is_red_line(line) {
                    self.uncore.counters.nvm_red_reads += 1;
                } else if self.scrub_accounting {
                    self.uncore.counters.scrub_reads += 1;
                } else {
                    self.uncore.counters.nvm_data_reads += 1;
                }
                let occ = self.cfg.ns_to_cycles(self.cfg.nvm.read_occupancy_ns);
                let now = self.uncore.clocks[core];
                let wait = self
                    .uncore
                    .dimm_lane(self.cfg.llc_banks, dimm, line)
                    .demand(now, occ);
                self.uncore.counters.demand_queue_cycles += wait;
                self.uncore.clocks[core] += wait + self.cfg.ns_to_cycles(self.cfg.nvm.read_ns);
                // Degraded-mode amplification: a dead line is served by
                // reconstructing from the surviving stripe members, costing
                // that many extra media reads before the fill can complete.
                let amp = self.uncore.mem.degraded_read_width(line);
                if amp > 0 {
                    self.uncore.counters.degraded_fills += 1;
                    self.uncore.clocks[core] +=
                        amp as u64 * self.cfg.ns_to_cycles(self.cfg.nvm.read_ns);
                }
                let data = self.uncore.mem.read_line(line);
                // After the crash budget runs out the machine is logically
                // powered off; media content may predate suppressed
                // writebacks, so verifying fills would report phantom
                // corruption for a run that never actually executes.
                if !self.uncore.crash.crashed() {
                    self.hooks.on_nvm_fill(
                        core,
                        line,
                        &data,
                        &mut HookEnv {
                            cfg: &self.cfg,
                            uncore: &mut self.uncore,
                        },
                    )?;
                }
                Ok(data)
            }
        }
    }

    /// Posted write of `line` to its memory device, with redundancy updates
    /// for NVM lines.
    fn mem_posted_write(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE]) {
        match self.uncore.mem.device_of(line) {
            Device::Dram => {
                self.uncore.counters.dram_accesses += 1;
                self.uncore.mem.write_line(line, data);
            }
            Device::Nvm { dimm } => {
                if self.is_red_line(line) {
                    self.uncore.counters.nvm_red_writes += 1;
                } else {
                    self.uncore.counters.nvm_data_writes += 1;
                }
                let now = self.uncore.clocks[core];
                let occ = self.cfg.ns_to_cycles(self.cfg.nvm.write_occupancy_ns);
                self.uncore
                    .dimm_lane(self.cfg.llc_banks, dimm, line)
                    .posted(now, occ);
                let admitted = self.uncore.crash.admit();
                // The redundancy update for the k-th (final) admitted write
                // is also suppressed: the controller performs it *with* the
                // media write, and the crash interrupts exactly there. The
                // post-crash audit must tolerate (and repair) that torn
                // state.
                if !self.uncore.crash.crashed() {
                    self.hooks.on_nvm_writeback(
                        core,
                        line,
                        data,
                        &mut HookEnv {
                            cfg: &self.cfg,
                            uncore: &mut self.uncore,
                        },
                    );
                }
                if admitted {
                    self.uncore.mem.write_line(line, data);
                } else {
                    self.uncore.counters.nvm_suppressed_writes += 1;
                }
            }
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

    /// Remove the private copies of an entry that just left the LLC data
    /// ways, visiting only the cores in its sharer mask. The mask is a
    /// superset of the cores holding the line (DESIGN.md §4, "Inclusion and
    /// the directory"), so no copy survives. Returns the newest dirty private
    /// data, if any core held the line modified.
    fn back_invalidate(&mut self, v: &Evicted) -> Option<[u8; CACHE_LINE]> {
        let mut newest = None;
        for other in sharer_cores(v.sharers) {
            if let Some((d, true)) = self.priv_invalidate(other, v.line) {
                newest = Some(d);
            }
        }
        newest
    }

    /// The mask of cores whose L1 or L2 holds `line` (probes: no LRU tick).
    fn private_holders(&self, line: LineAddr) -> u64 {
        let held = |c: &PrivCaches| {
            c.l1d.probe(line, 0..self.cfg.l1d.ways).is_some()
                || c.l2.probe(line, 0..self.cfg.l2.ways).is_some()
        };
        (self.cores.iter().enumerate())
            .filter(|(_, c)| held(c))
            .fold(0, |mask, (core, _)| mask | 1 << core)
    }

    /// Remove `line` from `core`'s L1 and L2, returning the newest private
    /// data and whether it was dirty.
    fn priv_invalidate(&mut self, core: usize, line: LineAddr) -> Option<([u8; CACHE_LINE], bool)> {
        if self.cores.is_empty() {
            // Weave-side replay: the private caches live on the bound
            // thread, so a back-invalidation here (remote-owner pull,
            // cross-core sharer shootdown, or an inclusion victim still
            // held privately) cannot be applied. Record it; `weave_apply`
            // reports the divergence and the run is redone on the
            // sequential oracle.
            self.back_invalidated = true;
            return None;
        }
        let c = &mut self.cores[core];
        let l1 = c.l1d.invalidate(line, 0..self.cfg.l1d.ways);
        let l2 = c.l2.invalidate(line, 0..self.cfg.l2.ways);
        match (l1, l2) {
            (Some(a), Some(b)) => {
                if a.dirty {
                    Some((a.data, true))
                } else {
                    Some((b.data, b.dirty))
                }
            }
            (Some(a), None) => Some((a.data, a.dirty)),
            (None, Some(b)) => Some((b.data, b.dirty)),
            (None, None) => None,
        }
    }

    /// Insert into L1, spilling a dirty victim into the L2. Returns the
    /// inserted line's L1D slot index.
    fn fill_l1(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE], excl: bool) -> usize {
        // Only reached after an L1 lookup miss; nothing between it and here
        // inserts into this L1 (lower-level fills only back-invalidate).
        let ways = 0..self.cfg.l1d.ways;
        let c = &mut self.cores[core];
        let (victim, idx) = c.l1d.insert_absent_get(line, data, false, ways);
        c.l1d.entry_mut(idx).set_excl(excl);
        if let Some(v) = victim {
            if v.dirty {
                // L2 must hold the line (inclusion).
                let l2_ways = 0..self.cfg.l2.ways;
                if let Some(mut e) = self.cores[core].l2.lookup(v.line, l2_ways) {
                    *e.data = v.data;
                    e.set_dirty(true);
                } else {
                    // Defensive: push straight to the LLC.
                    self.spill_to_llc(core, v.line, &v.data, true);
                }
            }
        }
        idx
    }

    /// Insert into L2, spilling the victim into the LLC.
    fn fill_l2(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE], excl: bool) {
        // Only reached after an L2 lookup miss (same argument as fill_l1).
        let ways = 0..self.cfg.l2.ways;
        let c = &mut self.cores[core];
        let (victim, idx) = c.l2.insert_absent_get(line, data, false, ways);
        c.l2.entry_mut(idx).set_excl(excl);
        if let Some(v) = victim {
            // L1 copy must go too (L1 ⊆ L2); it may be newer.
            let l1 = c.l1d.invalidate(v.line, 0..self.cfg.l1d.ways);
            let (data, dirty) = match l1 {
                Some(a) if a.dirty => (a.data, true),
                _ => (v.data, v.dirty),
            };
            self.spill_to_llc(core, v.line, &data, dirty);
        }
    }

    /// A private-cache victim arrives at the LLC: update the (inclusive)
    /// LLC copy, firing the clean→dirty diff-capture hook when appropriate,
    /// and clear this core's directory presence.
    fn spill_to_llc(&mut self, core: usize, line: LineAddr, data: &[u8; CACHE_LINE], dirty: bool) {
        let ts = self.uncore.clocks[core];
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
    fn spill_to_llc_shared(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
    ) {
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        let found = self.uncore.llc[bank].lookup_idx(line, ways);
        let info = found.map(|idx| {
            let e = self.uncore.llc[bank].entry_mut(idx);
            (*e.data, e.dirty())
        });
        match info {
            Some((old_data, was_dirty)) => {
                if dirty && !was_dirty && line.is_nvm() {
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
                let mut e = self.uncore.llc[bank].entry_mut(found.expect("checked above"));
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
    /// and the controller's own caches via [`RedundancyHooks::on_crash`] —
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
    ///   choice and [`Stats::evict_hash`] are unchanged;
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

    /// The shared half of a bound-phase [`Self::clwb`], replayed on the
    /// weave worker: locate the line in the LLC, then finish as
    /// [`Self::clwb_slot`].
    pub(crate) fn clwb_shared(
        &mut self,
        core: usize,
        line: LineAddr,
        private_newest: Option<[u8; CACHE_LINE]>,
    ) {
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        let found = self.uncore.llc[bank].lookup_idx(line, ways);
        self.clwb_slot(core, line, bank, found, private_newest);
    }

    /// The tail of [`Self::clwb`] on the line's LLC slot `found` in `bank`
    /// (`None` if the LLC does not hold it): charge the LLC access, refresh
    /// or clean the LLC copy, and post the newest content to memory. The
    /// private sweep reads no clock, so charging the latency after it is
    /// exact.
    fn clwb_slot(
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
    /// costs nothing more. Debug builds check that claim on every line.
    pub fn invalidate_page(&mut self, page: PageNum) {
        self.assert_unbound("invalidate_page");
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
    /// [`Stats::evict_hash`] and [`Self::crash_events`] (DESIGN.md §18,
    /// "Fast-forwarded set-up").
    ///
    /// The mode ends when `f` returns or unwinds; it cannot be left on.
    ///
    /// # Panics
    ///
    /// Panics if the system is already fast-forwarding, a bound-weave
    /// session is active, a crash budget is armed, or the firmware has an
    /// armed fault or shadow RAID: functional accesses bypass all of them.
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
            mem.armed_faults() == 0 && !mem.raid_enabled(),
            "cannot fast-forward past armed firmware faults or firmware RAID"
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
        let empty = |c: &CacheArray| c.occupancy(c.all_ways()) == 0;
        self.cores.iter().all(|c| empty(&c.l1d) && empty(&c.l2))
            && self.uncore.llc.iter().all(empty)
    }

    /// Enter the bound phase of a bound-weave session (see [`crate::weave`]
    /// for the architecture and the determinism argument).
    ///
    /// The uncore — LLC banks, memory devices, DIMM bandwidth model, crash
    /// window, and the counters — and the redundancy hooks move by value
    /// onto a freshly spawned weave worker as a skeleton `System` (no cores:
    /// its `priv_invalidate` records a divergence instead). This system
    /// keeps the private caches and runs the application; every shared
    /// access is predicted from a dirty-line overlay ∪ media snapshot and
    /// pushed as an event onto the worker's ring, which replays, verifies,
    /// and times the events in emission order.
    ///
    /// Call [`Self::weave_end`] to close the session and fold the shared
    /// state (and corrected clocks) back in.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active, or inside
    /// [`Self::fast_forward`]: functional accesses would reach the
    /// placeholder `Memory` left on this side.
    pub fn weave_begin(&mut self) -> crate::weave::WeaveSession {
        assert!(self.bound.is_none(), "bound-weave session already active");
        assert!(
            !self.functional,
            "cannot begin a bound-weave session while fast-forwarding"
        );
        // Predict fills from LLC-or-media content: for every line not
        // privately dirty, a clean LLC copy equals the media and a clean
        // private copy equals the LLC copy, so seeding the overlay with the
        // *dirty* lines only (LLC data ways, then per-core L2 then L1 so
        // newer levels override) makes overlay ∪ snapshot exact.
        let snapshot = self.uncore.mem.snapshot();
        let mut overlay = crate::hash::FxHashMap::default();
        let data_ways = self.data_ways();
        for bank in &self.uncore.llc {
            bank.for_each_valid(data_ways.clone(), |line, dirty, data| {
                if dirty {
                    overlay.insert(line.0, *data);
                }
            });
        }
        for core in &self.cores {
            core.l2.for_each_valid(0..self.cfg.l2.ways, |line, dirty, data| {
                if dirty {
                    overlay.insert(line.0, *data);
                }
            });
            core.l1d.for_each_valid(0..self.cfg.l1d.ways, |line, dirty, data| {
                if dirty {
                    overlay.insert(line.0, *data);
                }
            });
        }
        // This side keeps its clocks (bound-local time) and counts its own
        // private-cache events from zero; `weave_end` folds both back.
        let bound_side = Uncore {
            llc: Vec::new(),
            mem: Memory::new(self.cfg.nvm.dimms),
            clocks: self.uncore.clocks.clone(),
            dimms: Vec::new(),
            counters: Counters::default(),
            crash: CrashState::default(),
        };
        let weave_sys = System {
            cfg: self.cfg.clone(),
            cores: Vec::new(),
            uncore: std::mem::replace(&mut self.uncore, bound_side),
            hooks: std::mem::replace(&mut self.hooks, Box::new(NullHooks)),
            red_region: self.red_region,
            scrub_accounting: self.scrub_accounting,
            flush_scratch: Vec::new(),
            bound: None,
            back_invalidated: false,
            functional: false,
        };
        let (session, ctx) =
            crate::weave::WeaveSession::spawn(weave_sys, self.cfg.cores, snapshot, overlay);
        self.bound = Some(ctx);
        session
    }

    /// Record the outcome of the bound-weave configuration eligibility
    /// check in the per-cause counters. The clocked scheduler calls this
    /// once per run at *every* requested thread count (the check ignores
    /// the thread count), so the counters — and any CSV column derived from
    /// them — are identical across `MEMSIM_ENGINE_THREADS` values.
    pub fn note_weave_eligibility(&mut self, e: crate::weave::WeaveEligibility) {
        use crate::weave::WeaveEligibility as E;
        let c = &mut self.uncore.counters;
        match e {
            E::Eligible => c.weave_eligible_runs += 1,
            E::SwScheme => c.weave_inel_sw_scheme += 1,
            E::ScrubDaemon => c.weave_inel_scrub += 1,
            E::CrashWindow => c.weave_inel_crash += 1,
            E::ArmedFaults => c.weave_inel_faults += 1,
            E::Raid => c.weave_inel_raid += 1,
        }
    }

    /// Close a bound-weave session: close the ring (the worker drains it and
    /// exits), join the worker, move the shared state back into this
    /// system, correct every core clock by its final stall offset, and add
    /// the bound-side counters (private-cache hits/misses, instruction
    /// fetches) to the worker's.
    ///
    /// If the returned report says the session diverged, this system's
    /// state is unspecified beyond being safe to drop — discard it and
    /// rerun the cell on the sequential oracle.
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub fn weave_end(&mut self, session: crate::weave::WeaveSession) -> crate::weave::WeaveReport {
        self.bound.take().expect("no bound-weave session active");
        let (weave_sys, stalls, report) = session.join();
        let bound_side = std::mem::replace(&mut self.uncore, weave_sys.uncore);
        self.hooks = weave_sys.hooks;
        self.uncore.counters += bound_side.counters;
        self.uncore.clocks = bound_side.clocks;
        for (clock, stall) in self.uncore.clocks.iter_mut().zip(stalls) {
            *clock += stall;
        }
        report
    }

    /// Replay one bound-phase event on the weave side: reconstruct the true
    /// core clock from the event's bound-local timestamp plus the core's
    /// accumulated stall offset, apply the shared-state operation exactly as
    /// sequential execution would, and fold the newly charged shared cycles
    /// back into the stall offset. Returns `None` while the replay is
    /// consistent with the bound phase's predictions, or the divergence
    /// cause otherwise.
    pub(crate) fn weave_apply(
        &mut self,
        ev: crate::weave::Event,
        stall: &mut u64,
    ) -> Option<crate::weave::DivergenceKind> {
        use crate::weave::{DivergenceKind, Event};
        let (core, ts) = (ev.core(), ev.ts());
        self.uncore.clocks[core] = ts + *stall;
        let fault = match ev {
            Event::Fill {
                line,
                for_write,
                predicted,
                ..
            } => match self.llc_access(core, line, for_write) {
                Ok((data, excl)) => {
                    (data != predicted || !excl).then_some(DivergenceKind::FillMismatch)
                }
                Err(_) => Some(DivergenceKind::HookFault),
            },
            Event::Spill {
                line, data, dirty, ..
            } => {
                self.spill_to_llc_shared(core, line, &data, dirty);
                None
            }
            Event::Clwb { line, newest, .. } => {
                self.clwb_shared(core, line, newest);
                None
            }
        };
        *stall = self.uncore.clocks[core] - ts;
        if std::mem::take(&mut self.back_invalidated) && fault != Some(DivergenceKind::HookFault) {
            return Some(DivergenceKind::InclusionVictim);
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NVM_BASE;
    use crate::weave::DivergenceKind;

    fn sys() -> System {
        System::new(SystemConfig::small(), Box::new(NullHooks))
    }

    fn nvm(off: u64) -> PhysAddr {
        PhysAddr(NVM_BASE + off)
    }

    #[test]
    fn write_read_roundtrip_through_hierarchy() {
        let mut s = sys();
        s.write(0, nvm(100), b"hello").unwrap();
        let mut buf = [0u8; 5];
        s.read(0, nvm(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Data is still only in caches, not memory.
        assert_eq!(s.memory().peek_line(nvm(100).line())[36..41], [0u8; 5]);
        s.flush();
        let line = s.memory().peek_line(nvm(100).line());
        assert_eq!(&line[36..41], b"hello");
    }

    #[test]
    fn cross_line_access() {
        let mut s = sys();
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        s.write(0, nvm(30), &data).unwrap();
        let mut buf = vec![0u8; 200];
        s.read(0, nvm(30), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn l1_hit_on_rereference() {
        let mut s = sys();
        s.write(0, nvm(0), &[1u8; 8]).unwrap();
        let before = s.stats().counters;
        let mut buf = [0u8; 8];
        s.read(0, nvm(0), &mut buf).unwrap();
        let after = s.stats().counters;
        assert_eq!(after.l1d_hits - before.l1d_hits, 1);
        assert_eq!(after.l1d_misses, before.l1d_misses);
    }

    #[test]
    fn cross_core_coherence_sees_latest_data() {
        let mut s = sys();
        s.write(0, nvm(4096), &[7u8; 16]).unwrap();
        // Core 1 reads the same line: must see core 0's modified data.
        let mut buf = [0u8; 16];
        s.read(1, nvm(4096), &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        // Core 1 now writes; core 0 must see it.
        s.write(1, nvm(4096), &[9u8; 16]).unwrap();
        let mut buf0 = [0u8; 16];
        s.read(0, nvm(4096), &mut buf0).unwrap();
        assert_eq!(buf0, [9u8; 16]);
    }

    #[test]
    fn nvm_reads_counted_and_timed() {
        let mut s = sys();
        let mut buf = [0u8; 1];
        let t0 = s.clock(0);
        s.read(0, nvm(1 << 20), &mut buf).unwrap();
        assert_eq!(s.stats().counters.nvm_data_reads, 1);
        // Walk latency: L1 (4) + L2 (7) + LLC (27) + NVM (136) = 174.
        assert!(s.clock(0) - t0 >= 136);
    }

    #[test]
    fn dram_access_hits_dram_counters() {
        let mut s = sys();
        let mut buf = [0u8; 4];
        s.read(0, PhysAddr(12345), &mut buf).unwrap();
        assert_eq!(s.stats().counters.dram_accesses, 1);
        assert_eq!(s.stats().counters.nvm_data_reads, 0);
    }

    #[test]
    fn capacity_eviction_writes_back_to_nvm() {
        let mut s = sys();
        // Write far more lines than the small hierarchy holds.
        let total_lines = 8 * 1024; // 512 KB worth of lines
        for i in 0..total_lines {
            s.write(0, nvm(i * 64), &[i as u8; 8]).unwrap();
        }
        let c = s.stats().counters;
        assert!(c.nvm_data_writes > 0, "evictions must reach NVM");
        s.flush();
        // All data must be durable and correct after the flush.
        for i in 0..total_lines {
            let line = nvm(i * 64).line();
            assert_eq!(s.memory().peek_line(line)[0], i as u8, "line {i}");
        }
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut s = sys();
        s.compute(0, 100);
        s.compute(1, 5);
        s.barrier();
        assert_eq!(s.clock(0), s.clock(1));
        assert_eq!(s.clock(0), 100);
    }

    #[test]
    fn instr_counts_l1i() {
        let mut s = sys();
        s.instr(0, 42);
        assert_eq!(s.stats().counters.l1i_accesses, 42);
        assert_eq!(s.clock(0), 42);
    }

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

    /// Inclusion (L1 ⊆ L2 ⊆ LLC data ways) and the directory's
    /// sharers-superset invariant: every valid private line is in the LLC
    /// with the holding core's sharer bit set.
    fn assert_inclusive(s: &System, step: usize) {
        for (core, c) in s.cores.iter().enumerate() {
            let mut held = Vec::new();
            c.l2.for_each_valid(0..s.cfg.l2.ways, |line, _, _| held.push(line));
            c.l1d.for_each_valid(0..s.cfg.l1d.ways, |line, _, _| {
                assert!(
                    c.l2.probe(line, 0..s.cfg.l2.ways).is_some(),
                    "step {step}: core {core} L1 holds {line:?} without its L2"
                );
            });
            for line in held {
                let e = s.uncore.llc[s.bank_of(line)].probe(line, s.data_ways());
                let e = e.unwrap_or_else(|| {
                    panic!("step {step}: core {core} holds {line:?}, LLC does not")
                });
                assert_eq!(
                    (e.sharers >> core) & 1,
                    1,
                    "step {step}: core {core} holds {line:?} outside its sharer mask"
                );
            }
        }
    }

    /// Seeded random streams over 4 cores with caches a few lines deep. The
    /// four L2s hold more than the LLC's data ways, so LLC victims with live
    /// sharers are common; reads from several cores build multi-sharer
    /// lines. The invariants `invalidate_page` and `clwb` rely on are checked
    /// after every step, every read is checked against the newest written
    /// value, every `clwb` must leave the newest value on the media and no
    /// dirty copy anywhere, and every `invalidate_page` must leave no copy of
    /// the page anywhere.
    #[test]
    fn inclusion_and_sharer_masks_hold_under_random_streams() {
        const LINES: u64 = 2 * LINES_PER_PAGE as u64;
        let mut cfg = SystemConfig::small();
        cfg.cores = 4;
        cfg.l1d.size_bytes = 256; // 2 sets × 2 ways
        cfg.l1d.ways = 2;
        cfg.l2.size_bytes = 1024; // 4 sets × 4 ways
        cfg.l2.ways = 4;
        cfg.llc.size_bytes = 2048; // 4 sets × 8 ways, 5 of them data
        cfg.llc.ways = 8;
        let fresh_hash = CacheArray::new(1, 1, 1).evict_hash();
        let mut multi_sharer_reads = 0;
        for seed in 1..=4u64 {
            let mut s = System::new(cfg.clone(), Box::new(NullHooks));
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let line_of = |l: u64| nvm(l * CACHE_LINE as u64);
            let media_word = |s: &System, l: u64| {
                let m = s.memory().peek_line(line_of(l).line());
                u64::from_le_bytes(m[..8].try_into().unwrap())
            };
            // The first word of each line as every core must read it.
            let mut newest = [0u64; LINES as usize];
            for step in 0..4000 {
                let core = (next() % 4) as usize;
                let l = next() % LINES;
                let addr = line_of(l);
                match next() % 100 {
                    0..=44 => {
                        let mut buf = [0u8; 8];
                        s.read(core, addr, &mut buf).unwrap();
                        assert_eq!(u64::from_le_bytes(buf), newest[l as usize], "step {step}");
                        let bank = s.bank_of(addr.line());
                        let e = s.uncore.llc[bank].probe(addr.line(), s.data_ways());
                        if e.is_some_and(|e| e.sharers.count_ones() > 1) {
                            multi_sharer_reads += 1;
                        }
                    }
                    45..=84 => {
                        let v = next();
                        s.write(core, addr, &v.to_le_bytes()).unwrap();
                        newest[l as usize] = v;
                    }
                    85..=93 => {
                        let line = addr.line();
                        s.clwb(core, line);
                        assert_eq!(media_word(&s, l), newest[l as usize], "step {step}");
                        let dirty = |a: &CacheArray, ways: Range<usize>| {
                            a.probe(line, ways).is_some_and(|e| e.dirty)
                        };
                        for (c, p) in s.cores.iter().enumerate() {
                            assert!(
                                !dirty(&p.l1d, 0..s.cfg.l1d.ways)
                                    && !dirty(&p.l2, 0..s.cfg.l2.ways),
                                "step {step}: core {c} still holds {line:?} dirty after clwb"
                            );
                        }
                        assert!(
                            !dirty(&s.uncore.llc[s.bank_of(line)], s.data_ways()),
                            "step {step}: the LLC still holds {line:?} dirty after clwb"
                        );
                    }
                    94..=96 => {
                        let page = addr.line().page();
                        s.invalidate_page(page);
                        for i in 0..LINES_PER_PAGE {
                            let line = page.line(i);
                            assert_eq!(
                                s.private_holders(line),
                                0,
                                "step {step}: {line:?} survived privately"
                            );
                            let e = s.uncore.llc[s.bank_of(line)].probe(line, s.data_ways());
                            assert!(e.is_none(), "step {step}: {line:?} survived in the LLC");
                        }
                        // Dropped dirty data reverts the page to its media.
                        let first = l - l % LINES_PER_PAGE as u64;
                        for k in first..first + LINES_PER_PAGE as u64 {
                            newest[k as usize] = media_word(&s, k);
                        }
                    }
                    97..=98 => s.flush(),
                    _ => {
                        s.lose_volatile_state();
                        for k in 0..LINES {
                            newest[k as usize] = media_word(&s, k);
                        }
                    }
                }
                assert_inclusive(&s, step);
            }
            assert!(
                s.uncore.llc.iter().all(|b| b.evict_hash() != fresh_hash),
                "seed {seed}: every LLC bank must evict"
            );
        }
        assert!(
            multi_sharer_reads > 0,
            "the streams must build multi-sharer lines"
        );
    }

    /// A hook that records events, for engine-hook contract tests.
    #[derive(Default)]
    struct RecordingHooks {
        fills: Vec<LineAddr>,
        writebacks: Vec<LineAddr>,
        dirties: Vec<LineAddr>,
        flushed: bool,
    }

    impl RedundancyHooks for RecordingHooks {
        fn on_nvm_fill(
            &mut self,
            _core: usize,
            line: LineAddr,
            _data: &[u8; CACHE_LINE],
            _env: &mut HookEnv<'_>,
        ) -> Result<(), CorruptionDetected> {
            self.fills.push(line);
            Ok(())
        }
        fn on_nvm_writeback(
            &mut self,
            _core: usize,
            line: LineAddr,
            _new: &[u8; CACHE_LINE],
            _env: &mut HookEnv<'_>,
        ) {
            self.writebacks.push(line);
        }
        fn on_llc_clean_to_dirty(
            &mut self,
            _core: usize,
            line: LineAddr,
            _old: &[u8; CACHE_LINE],
            _env: &mut HookEnv<'_>,
        ) {
            self.dirties.push(line);
        }
        fn flush(&mut self, _env: &mut HookEnv<'_>) {
            self.flushed = true;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn name(&self) -> &'static str {
            "recording"
        }
    }

    #[test]
    fn hooks_fire_on_fill_and_writeback() {
        let mut s = System::new(SystemConfig::small(), Box::new(RecordingHooks::default()));
        let line = nvm(0).line();
        s.write(0, nvm(0), &[1u8; 8]).unwrap();
        s.flush();
        let hooks = s
            .hooks_mut()
            .as_any_mut()
            .downcast_mut::<RecordingHooks>()
            .unwrap();
        assert_eq!(hooks.fills, vec![line], "write-allocate fill verified");
        assert_eq!(hooks.writebacks, vec![line], "flush wrote the line back");
        assert!(hooks.flushed);
    }

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
    fn dimm_queue_delay_grows_with_utilization() {
        let mut d = DimmState::default();
        // Low utilization: negligible delay.
        d.posted(0, 100);
        let w_low = d.demand(10_000, 34);
        assert!(w_low <= 1, "1% utilization must not queue: {w_low}");
        // High utilization: substantial delay.
        let mut d = DimmState::default();
        for _ in 0..80 {
            d.posted(0, 100); // 8000 busy cycles by t=10000 => rho 0.8
        }
        let w_high = d.demand(10_000, 34);
        assert!(
            (50..=100).contains(&w_high),
            "rho=0.8 M/D/1 delay ≈ 2*occ: {w_high}"
        );
    }

    #[test]
    fn dimm_utilization_is_clamped() {
        let mut d = DimmState::default();
        for _ in 0..1000 {
            d.posted(0, 100);
        }
        assert!(d.utilization(10) <= 0.97);
        // Even "overloaded", the delay stays finite.
        let w = d.demand(10, 34);
        assert!(w < 34 * 20);
    }

    #[test]
    fn dimm_access_counts_track_both_kinds() {
        let mut d = DimmState::default();
        d.posted(0, 85);
        d.posted(0, 85);
        d.demand(100, 34);
        assert_eq!(d.access_counts(), (1, 2));
        assert_eq!(d.backlog(), 85 + 85 + 34);
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
    fn demand_reads_queue_behind_dimm_utilization() {
        // Saturate one DIMM lane with posted writes, then issue a demand
        // read to a line in the *same* lane (same DIMM, same LLC-bank
        // interleave — queues are per (dimm × bank) lane): its latency must
        // exceed an idle-system read's.
        let banks = SystemConfig::small().llc_banks;
        let mut s = sys();
        s.compute(0, 1000); // establish a nonzero wall clock
        s.with_hooks_env(|_h, env| {
            let line = crate::addr::nvm_page(0).line(0);
            for _ in 0..100 {
                env.nvm_write_red(0, line, &[0u8; CACHE_LINE]);
            }
        });
        let t0 = s.clock(0);
        let mut buf = [0u8; 8];
        s.read(0, PhysAddr(crate::addr::nvm_page(0).line(banks).base().0), &mut buf)
            .unwrap();
        let busy_latency = s.clock(0) - t0;
        let mut s2 = sys();
        s2.compute(0, 1000);
        let t0 = s2.clock(0);
        s2.read(0, PhysAddr(crate::addr::nvm_page(0).line(1).base().0), &mut buf)
            .unwrap();
        let idle_latency = s2.clock(0) - t0;
        assert!(
            busy_latency > idle_latency + 200,
            "queueing must delay demand reads: busy={busy_latency} idle={idle_latency}"
        );
        assert!(s.stats().counters.demand_queue_cycles > 0);
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

    #[test]
    fn reset_stats_clears_everything() {
        let mut s = sys();
        let mut buf = [0u8; 8];
        s.read(0, nvm(0), &mut buf).unwrap();
        s.reset_stats();
        let st = s.stats();
        assert_eq!(st.runtime_cycles(), 0);
        assert_eq!(st.counters.nvm_data_reads, 0);
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
    #[should_panic(expected = "while fast-forwarding")]
    fn weave_begin_rejects_fast_forward() {
        let mut s = sys();
        System::fast_forward(&mut s, |s| s, |s| drop(s.weave_begin()));
    }

    /// Run `before` sequentially, then `inside` in a bound-weave session on
    /// a `cfg` system, and return the session's divergence cause.
    fn woven_divergence(
        cfg: SystemConfig,
        before: impl FnOnce(&mut System),
        inside: impl FnOnce(&mut System),
    ) -> Option<DivergenceKind> {
        let mut s = System::new(cfg, Box::new(NullHooks));
        before(&mut s);
        let session = s.weave_begin();
        inside(&mut s);
        let report = s.weave_end(session);
        assert_eq!(report.diverged, report.divergence.is_some());
        report.divergence
    }

    /// A seeded NVM line index in the first 64 pages.
    fn seeded_line(seed: u64) -> u64 {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % (64 * LINES_PER_PAGE as u64)
    }

    fn line_addr(l: u64) -> PhysAddr {
        nvm(l * CACHE_LINE as u64)
    }

    #[test]
    fn weave_flags_a_fill_of_a_line_another_core_holds() {
        for seed in 1..=4 {
            let a = line_addr(seeded_line(seed));
            let got = woven_divergence(
                SystemConfig::small(),
                |s| s.read(0, a, &mut [0u8; 8]).unwrap(),
                |s| s.read(1, a, &mut [0u8; 8]).unwrap(),
            );
            assert_eq!(got, Some(DivergenceKind::ForeignPrivateCopy), "seed {seed}");
        }
    }

    #[test]
    fn weave_flags_a_write_to_a_line_shared_before_the_session() {
        for seed in 1..=4 {
            let a = line_addr(seeded_line(seed));
            let got = woven_divergence(
                SystemConfig::small(),
                |s| {
                    // Core 1's read pulls the line from its owner, core 0,
                    // so core 0 reads it again to share it.
                    for core in [0, 1, 0] {
                        s.read(core, a, &mut [0u8; 8]).unwrap();
                    }
                },
                |s| s.write(0, a, &[7u8; 8]).unwrap(),
            );
            assert_eq!(got, Some(DivergenceKind::WriteUpgrade), "seed {seed}");
        }
    }

    /// One LLC bank of 4 sets × 8 ways (5 data ways). Core 0 holds line `v`
    /// privately; inside the session core 1 fills five more lines of `v`'s
    /// set, so the replayed fills evict `v`, the LRU way, from the LLC. The
    /// back-invalidation that inclusion then needs reaches core 0's private
    /// caches, which the weave worker does not have.
    #[test]
    fn weave_flags_an_llc_victim_still_held_privately() {
        let mut cfg = SystemConfig::small();
        cfg.llc_banks = 1;
        cfg.llc.size_bytes = 2048;
        cfg.llc.ways = 8;
        let stride = (cfg.llc.sets() * cfg.llc_banks) as u64;
        let data_ways = cfg.llc_data_ways() as u64;
        for seed in 1..=4 {
            let v = seeded_line(seed);
            let got = woven_divergence(
                cfg.clone(),
                |s| s.read(0, line_addr(v), &mut [0u8; 8]).unwrap(),
                |s| {
                    for k in 1..=data_ways {
                        s.read(1, line_addr(v + k * stride), &mut [0u8; 8]).unwrap();
                    }
                },
            );
            assert_eq!(got, Some(DivergenceKind::InclusionVictim), "seed {seed}");
        }
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
        let landing: Vec<u64> = (0..8).filter(|i| r.memory().peek_line(nvm(i * 64).line())[0] != 0).collect();
        assert_eq!(landing.len(), 8);
        for k in 0..=total {
            let mut s = sys();
            s.crash_window_start(Some(k));
            workload(&mut s);
            s.flush();
            assert_eq!(s.crash_events(), total, "budget must not change event count");
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
        s.read(0, nvm(64), &mut buf).expect("crashed fills skip hooks");
    }

    #[test]
    fn corruption_error_propagates() {
        struct FailingHooks;
        impl RedundancyHooks for FailingHooks {
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
                "failing"
            }
        }
        let mut s = System::new(SystemConfig::small(), Box::new(FailingHooks));
        let mut buf = [0u8; 4];
        let err = s.read(0, nvm(0), &mut buf).unwrap_err();
        assert_eq!(err.line, nvm(0).line());
    }
}
