//! Backing memory devices: DRAM and page-striped NVM DIMMs, plus the
//! firmware fault-injection mechanism.
//!
//! The backing store holds real bytes (sparsely, one 4 KB page at a time), so
//! checksums and parity computed by the redundancy machinery are genuine.
//!
//! Firmware bugs from §II-A of the paper are modelled at exactly this level —
//! *below* every cache and every checksum, where device firmware lives:
//!
//! - **Lost write**: the device acknowledges a line write but never updates
//!   the media.
//! - **Misdirected write**: the data is written to the wrong media location
//!   (corrupting that location, and leaving the intended one stale).
//! - **Misdirected read**: a read returns data from the wrong media location.
//! - **Torn write**: only a prefix of the line persists (partial-line
//!   persist across a power cut or a buggy row buffer).
//! - **Sticky** variants of the above: the fault fires on *every* access
//!   while armed, modelling a failed cell or a wedged firmware mapping.
//!   Sticky faults defeat in-place repair — recovery writes go through the
//!   same firmware — which is what forces a page into quarantine.
//!
//! Device-level ECC cannot catch these (the ECC travels with the data), which
//! is why the paper's system-checksums exist; our verification tests exercise
//! that end to end. [`FaultPlan`] builds deterministic seeded schedules of
//! these faults over an operation timeline for chaos campaigns.

use crate::addr::{
    LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, NVM_BASE, NVM_PAGE_BASE, PAGE, PAGE_SHIFT,
};
use crate::fastdiv::FastDiv;
use crate::gf256;
use crate::hash::FxHashMap;
use std::cell::UnsafeCell;
use std::sync::Mutex;

/// One materialized 4 KB media page, writable line-at-a-time through a
/// shared reference during weave replay.
///
/// LLC bank routing is *line*-granular (`bank_interleave`), so two weave
/// workers holding different shard turns may concurrently touch different
/// lines of the same page. The per-line accessors therefore go through raw
/// pointers — never materializing a whole-page `&mut` — so concurrent
/// disjoint-line writes are plain non-overlapping byte copies, not aliasing
/// violations.
#[repr(transparent)]
struct SyncPage(UnsafeCell<[u8; PAGE]>);

// SAFETY: sequential phases hold `&mut Memory`; during weave replay each
// *line* is touched only by the worker holding its LLC bank's shard turn
// (the dependency-vector admission protocol, see `crate::weave`), and
// distinct lines occupy disjoint byte ranges.
unsafe impl Sync for SyncPage {}
unsafe impl Send for SyncPage {}

impl SyncPage {
    fn new(v: [u8; PAGE]) -> Self {
        SyncPage(UnsafeCell::new(v))
    }

    /// Whole-page read access. Only safe when no concurrent writer exists
    /// (sequential phases, or read-only inspection outside replay).
    fn bytes(&self) -> &[u8; PAGE] {
        // SAFETY: callers are sequential-phase (`&mut Memory` upstream) or
        // hold the relevant shard turn; see the type-level contract.
        unsafe { &*self.0.get() }
    }

    /// Whole-page exclusive access; `&mut self` proves exclusivity.
    fn bytes_mut(&mut self) -> &mut [u8; PAGE] {
        self.0.get_mut()
    }

    /// Copy one line out through a raw pointer (replay-safe).
    ///
    /// # Safety
    ///
    /// `off` must be line-aligned and in bounds, and the caller must hold
    /// the shard turn for the line's LLC bank (no concurrent access to the
    /// same line).
    unsafe fn read_line_raw(&self, off: usize, out: &mut [u8; CACHE_LINE]) {
        std::ptr::copy_nonoverlapping((self.0.get() as *const u8).add(off), out.as_mut_ptr(), CACHE_LINE);
    }

    /// Copy one line in through a raw pointer (replay-safe).
    ///
    /// # Safety
    ///
    /// As [`Self::read_line_raw`].
    unsafe fn write_line_raw(&self, off: usize, data: &[u8; CACHE_LINE]) {
        std::ptr::copy_nonoverlapping(data.as_ptr(), (self.0.get() as *mut u8).add(off), CACHE_LINE);
    }
}

impl std::fmt::Debug for SyncPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SyncPage(..)")
    }
}

/// Which device a physical line lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// DRAM (below [`NVM_BASE`]).
    Dram,
    /// NVM, on the given DIMM.
    Nvm {
        /// DIMM index in `0..nvm_dimms`.
        dimm: usize,
    },
}

/// A firmware bug armed against a specific media location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirmwareFault {
    /// The next write to the armed line is acknowledged but dropped.
    LostWrite,
    /// The next write to the armed line is stored at `actual` instead.
    MisdirectedWrite {
        /// Where the firmware erroneously writes the data.
        actual: LineAddr,
    },
    /// The next read of the armed line returns the contents of `actual`.
    MisdirectedRead {
        /// Where the firmware erroneously reads from.
        actual: LineAddr,
    },
    /// The next write persists only its first `persist_bytes` bytes; the
    /// tail of the line keeps the old media contents (torn write).
    TornWrite {
        /// Bytes of the line that actually persist (clamped to the line size).
        persist_bytes: usize,
    },
    /// Every write to the armed line is acknowledged but dropped, until
    /// disarmed. Repair writes are dropped too, so recovery cannot restore
    /// the line in place — the quarantine path.
    StickyLostWrite,
    /// Every read of the armed line returns the contents of `actual`, until
    /// disarmed.
    StickyMisdirectedRead {
        /// Where the firmware erroneously reads from.
        actual: LineAddr,
    },
}

impl FirmwareFault {
    /// Whether the fault stays armed after firing.
    pub fn is_sticky(&self) -> bool {
        matches!(
            self,
            FirmwareFault::StickyLostWrite | FirmwareFault::StickyMisdirectedRead { .. }
        )
    }
}

/// A record of a fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The line the access targeted.
    pub target: LineAddr,
    /// The fault that fired.
    pub fault: FirmwareFault,
}

/// The simulated memory devices.
///
/// Page storage is an arena: materialized pages live contiguously in
/// `arena`, and a compact Fx-hashed `index` maps page number → arena slot
/// (`u32`, half the footprint of a boxed-page pointer and no per-page heap
/// allocation). Pages materialize lazily on first write — reads of
/// untouched pages return zeros without allocating. `page_order` keeps the
/// materialized page numbers sorted (binary-insert once per new page), so
/// [`Memory::content_hash`] iterates in canonical order without the
/// collect-and-sort it used to pay on every call.
#[derive(Debug)]
pub struct Memory {
    nvm_dimms: usize,
    /// Precomputed divider for `nvm_dimms` ([`device_of`](Self::device_of)
    /// runs on every simulated NVM access).
    dimm_div: FastDiv,
    // Fx-hashed (crate::hash): every simulated access indexes `index`, and
    // the fault check hits `armed`; neither map is iterated for output.
    index: FxHashMap<u64, u32>,
    arena: Vec<SyncPage>,
    /// Materialized page numbers, ascending; parallel lookup via `index`.
    page_order: Vec<u64>,
    /// Pages first written *during weave replay*, where the arena and index
    /// cannot grow (workers share `&Memory`). Keyed by page number; folded
    /// into the arena by [`Memory::merge_weave_side`] at weave teardown.
    /// Empty at all other times.
    side: Mutex<FxHashMap<u64, Box<[u8; PAGE]>>>,
    armed: FxHashMap<LineAddr, FirmwareFault>,
    fired: Vec<FiredFault>,
    /// Firmware shadow-RAID state (device-level P/Q over the striped pages);
    /// `None` outside degraded-mode campaigns, keeping the hot paths to a
    /// single discriminant test.
    raid: Option<RaidState>,
}

/// Redundancy level of the firmware shadow syndromes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidLevel {
    /// Single XOR parity: any one missing member per stripe line recovers.
    P,
    /// P plus a GF(2⁸)-weighted Q syndrome: any two missing members recover.
    PQ,
}

/// Lifecycle state of one NVM bank (DIMM) under firmware shadow-RAID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// Every striped line on the bank is live media.
    Healthy,
    /// The device is gone: its striped media reads reconstruct from the
    /// syndromes, and writes to it are absorbed by the syndromes alone.
    Failed,
    /// A hot spare is attached; a line is live once the resilver (or a
    /// foreground write) has landed on it, per the write-intent mask.
    Rebuilding,
}

/// Counters exported by the firmware shadow-RAID layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaidStats {
    /// Reads of dead lines served by syndrome reconstruction.
    pub reconstructed_reads: u64,
    /// Reads of dead lines that could not be reconstructed (too many dead
    /// members for the RAID level) and returned the poison pattern.
    pub poison_reads: u64,
    /// Writes to a failed bank absorbed by the syndromes alone (classic
    /// degraded-RAID write durability: reconstruction returns the new data).
    pub dropped_writes: u64,
    /// Dead lines made live by a *foreground* write landing on a rebuilding
    /// bank (the write-intent mask) rather than by the resilver.
    pub write_intent_lines: u64,
    /// Rebuilding pages abandoned because reconstruction failed; their media
    /// is poisoned so higher layers fail closed.
    pub abandoned_pages: u64,
}

/// Firmware shadow-RAID: host-side P/Q syndromes over the striped region.
///
/// Stripe `t` consists of the `d = dimms` region-relative pages
/// `t*d .. t*d + d`, one per DIMM (page-granular interleave puts page `i` on
/// DIMM `i % d`). *Every* striped page is a member with weight `g^(i % d)` —
/// including pages the redundancy designs above use for their own parity —
/// so the layer is uniform and never shares a media location with
/// design-maintained state.
///
/// Invariant: for every stripe line offset, `P` is the XOR (and `Q` the
/// weighted sum) of the members' *logical* values — media content for live
/// lines, reconstruction for dead ones. Every media mutation of a striped
/// line applies the delta `old_logical ^ new` before landing, which keeps
/// the invariant by construction (a resilver write's delta self-cancels).
#[derive(Debug)]
struct RaidState {
    level: RaidLevel,
    striped_pages: u64,
    dimms: usize,
    /// Shadow P per stripe (one full page: 64 lines × 64 B).
    p: Vec<[u8; PAGE]>,
    /// Shadow Q per stripe; empty at [`RaidLevel::P`].
    q: Vec<[u8; PAGE]>,
    /// Per-slot Q weight multiply rows: `qrow[s][b] = g^s · b`.
    qrow: Vec<[u8; 256]>,
    banks: Vec<BankState>,
    /// Live-line masks for pages on Rebuilding banks (bit = line index);
    /// absent entry = all dead. Healthy banks are implicitly all-live,
    /// Failed banks all-dead.
    live: FxHashMap<u64, u64>,
    /// Set while the Rebuilder is writing: suppresses the write-intent
    /// counter (liveness marking itself always happens).
    resilver_mode: bool,
    stats: RaidStats,
}

impl RaidState {
    fn bank_of(&self, idx: u64) -> usize {
        (idx % self.dimms as u64) as usize
    }

    fn line_live(&self, idx: u64, li: usize) -> bool {
        match self.banks[self.bank_of(idx)] {
            BankState::Healthy => true,
            BankState::Failed => false,
            BankState::Rebuilding => (self.live.get(&idx).copied().unwrap_or(0) >> li) & 1 == 1,
        }
    }

    /// Apply the syndrome delta for changing member `idx` line `li` from
    /// logical value `old` to `new`.
    fn apply_delta(&mut self, idx: u64, li: usize, old: &[u8; CACHE_LINE], new: &[u8; CACHE_LINE]) {
        let stripe = (idx / self.dimms as u64) as usize;
        let slot = self.bank_of(idx);
        let off = li * CACHE_LINE;
        let p = &mut self.p[stripe][off..off + CACHE_LINE];
        for k in 0..CACHE_LINE {
            p[k] ^= old[k] ^ new[k];
        }
        if self.level == RaidLevel::PQ {
            let row = &self.qrow[slot];
            let q = &mut self.q[stripe][off..off + CACHE_LINE];
            for k in 0..CACHE_LINE {
                q[k] ^= row[(old[k] ^ new[k]) as usize];
            }
        }
    }

    /// Mark a line live after a write landed on a Rebuilding bank.
    fn mark_live(&mut self, idx: u64, li: usize) {
        if self.banks[self.bank_of(idx)] == BankState::Rebuilding {
            let mask = self.live.entry(idx).or_insert(0);
            if *mask >> li & 1 == 0 {
                *mask |= 1u64 << li;
                if !self.resilver_mode {
                    self.stats.write_intent_lines += 1;
                }
            }
        }
    }
}

/// The deterministic fill pattern returned for a dead line that cannot be
/// reconstructed (more members missing than the RAID level covers). The
/// pattern is designed to *fail* any content checksum: higher layers detect
/// it exactly like media corruption and fail closed instead of serving
/// fabricated data.
pub fn poison_line(line: LineAddr) -> [u8; CACHE_LINE] {
    let mut out = [0xd5u8; CACHE_LINE];
    out[..8].copy_from_slice(&line.0.to_le_bytes());
    out
}

fn xor64(a: &mut [u8; CACHE_LINE], b: &[u8; CACHE_LINE]) {
    let mut i = 0;
    while i < CACHE_LINE {
        let x = u64::from_ne_bytes(a[i..i + 8].try_into().unwrap())
            ^ u64::from_ne_bytes(b[i..i + 8].try_into().unwrap());
        a[i..i + 8].copy_from_slice(&x.to_ne_bytes());
        i += 8;
    }
}

impl Memory {
    /// Create memory backed by `nvm_dimms` NVM DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if `nvm_dimms == 0`.
    pub fn new(nvm_dimms: usize) -> Self {
        assert!(nvm_dimms > 0, "need at least one NVM DIMM");
        Memory {
            nvm_dimms,
            dimm_div: FastDiv::new(nvm_dimms as u64),
            index: FxHashMap::default(),
            arena: Vec::new(),
            page_order: Vec::new(),
            side: Mutex::new(FxHashMap::default()),
            armed: FxHashMap::default(),
            fired: Vec::new(),
            raid: None,
        }
    }

    /// Number of NVM DIMMs.
    pub fn nvm_dimms(&self) -> usize {
        self.nvm_dimms
    }

    /// Index of an NVM page within the NVM region (0 for the first NVM page).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not an NVM page.
    #[inline]
    pub fn nvm_page_index(&self, page: PageNum) -> u64 {
        assert!(page.is_nvm(), "{page:?} is not an NVM page");
        page.0 - (NVM_BASE >> PAGE_SHIFT)
    }

    /// The device holding `line`. NVM pages are interleaved page-granularly
    /// across DIMMs (page-striping, Fig. 3): NVM page `p` is on DIMM
    /// `p % dimms`.
    #[inline]
    pub fn device_of(&self, line: LineAddr) -> Device {
        if line.is_nvm() {
            let idx = self.nvm_page_index(line.page());
            Device::Nvm {
                dimm: self.dimm_div.remainder(idx) as usize,
            }
        } else {
            Device::Dram
        }
    }

    fn page_mut(&mut self, page: PageNum) -> &mut [u8; PAGE] {
        debug_assert!(
            self.side.get_mut().unwrap().is_empty(),
            "weave side pages must be merged before sequential writes"
        );
        let slot = match self.index.get(&page.0) {
            Some(&slot) => slot as usize,
            None => {
                let slot = self.arena.len();
                self.arena.push(SyncPage::new([0u8; PAGE]));
                self.index.insert(page.0, slot as u32);
                // One-time ordered insert, so content_hash never sorts.
                let pos = self.page_order.partition_point(|&k| k < page.0);
                self.page_order.insert(pos, page.0);
                slot
            }
        };
        self.arena[slot].bytes_mut()
    }

    /// Record a firing and remove the fault unless it is sticky.
    fn fire(&mut self, line: LineAddr, fault: FirmwareFault) {
        if !fault.is_sticky() {
            self.armed.remove(&line);
        }
        self.fired.push(FiredFault {
            target: line,
            fault,
        });
    }

    /// Region-relative index of `line`'s page if it falls inside the
    /// firmware-RAID striped region (`None` when RAID is off, the line is
    /// DRAM, or the page is past the striped pages).
    #[inline]
    fn raid_idx(&self, line: LineAddr) -> Option<u64> {
        let raid = self.raid.as_ref()?;
        if !line.is_nvm() {
            return None;
        }
        let idx = line.page().0 - NVM_PAGE_BASE;
        (idx < raid.striped_pages).then_some(idx)
    }

    /// Read a line through the device firmware (faults may fire).
    pub fn read_line(&mut self, line: LineAddr) -> [u8; CACHE_LINE] {
        // Firmware RAID is configured only in degraded-mode campaigns;
        // raid_idx's leading Option test guards the fault-free fast path.
        if let Some(idx) = self.raid_idx(line) {
            let li = line.index_in_page();
            let live = self.raid.as_ref().is_some_and(|r| r.line_live(idx, li));
            if !live {
                return match self.reconstruct_line(line) {
                    Some(rec) => {
                        if let Some(r) = self.raid.as_mut() {
                            r.stats.reconstructed_reads += 1;
                        }
                        rec
                    }
                    None => {
                        if let Some(r) = self.raid.as_mut() {
                            r.stats.poison_reads += 1;
                        }
                        poison_line(line)
                    }
                };
            }
        }
        // Faults are armed only inside injection campaigns; skip the hash
        // probe on the overwhelmingly common fault-free path.
        if self.armed.is_empty() {
            return self.peek_line(line);
        }
        let actual = match self.armed.get(&line).copied() {
            Some(
                f @ (FirmwareFault::MisdirectedRead { actual }
                | FirmwareFault::StickyMisdirectedRead { actual }),
            ) => {
                self.fire(line, f);
                actual
            }
            _ => line,
        };
        self.peek_line(actual)
    }

    /// Write a line through the device firmware (faults may fire).
    pub fn write_line(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        // Writes to a failed bank never reach media; the syndromes absorb
        // them (handled inside poke_line, which every landing path funnels
        // through). Nothing special is needed here: firmware faults still
        // apply to Healthy/Rebuilding media, and a fault that redirects or
        // drops the write perturbs media exactly as it would when healthy —
        // the shadow layer tracks whatever actually lands.
        if self.armed.is_empty() {
            return self.poke_line(line, data);
        }
        match self.armed.get(&line).copied() {
            Some(f @ (FirmwareFault::LostWrite | FirmwareFault::StickyLostWrite)) => {
                self.fire(line, f);
                // Acknowledged, never written.
            }
            Some(f @ FirmwareFault::MisdirectedWrite { actual }) => {
                self.fire(line, f);
                self.poke_line(actual, data);
            }
            Some(f @ FirmwareFault::TornWrite { persist_bytes }) => {
                self.fire(line, f);
                let keep = persist_bytes.min(CACHE_LINE);
                let mut torn = self.peek_line(line);
                torn[..keep].copy_from_slice(&data[..keep]);
                self.poke_line(line, &torn);
            }
            _ => self.poke_line(line, data),
        }
    }

    /// Read a line directly from the media, bypassing firmware faults.
    /// (Used by tests and by documentation examples to inspect ground truth.)
    pub fn peek_line(&self, line: LineAddr) -> [u8; CACHE_LINE] {
        let mut out = [0u8; CACHE_LINE];
        if let Some(&slot) = self.index.get(&line.page().0) {
            let off = line.index_in_page() * CACHE_LINE;
            out.copy_from_slice(&self.arena[slot as usize].bytes()[off..off + CACHE_LINE]);
        }
        out
    }

    /// Read a line through a *shared* reference during weave replay.
    ///
    /// Arena pages are read line-at-a-time through raw pointers (the shard
    /// admission protocol guarantees no concurrent access to the same line);
    /// pages the replay itself materialized live in the locked side table.
    /// Weave eligibility excludes armed faults and firmware RAID, so this is
    /// the plain media path by construction.
    pub(crate) fn read_line_shared(&self, line: LineAddr) -> [u8; CACHE_LINE] {
        debug_assert!(
            self.armed.is_empty() && self.raid.is_none(),
            "weave replay requires fault-free, RAID-free memory"
        );
        let mut out = [0u8; CACHE_LINE];
        if let Some(&slot) = self.index.get(&line.page().0) {
            let off = line.index_in_page() * CACHE_LINE;
            // SAFETY: off is line-aligned in bounds; the caller holds the
            // shard turn for this line's bank (weave admission protocol).
            unsafe { self.arena[slot as usize].read_line_raw(off, &mut out) };
        } else if let Some(page) = self.side.lock().unwrap().get(&line.page().0) {
            let off = line.index_in_page() * CACHE_LINE;
            out.copy_from_slice(&page[off..off + CACHE_LINE]);
        }
        out
    }

    /// Write a line through a *shared* reference during weave replay; the
    /// mirror of [`Memory::read_line_shared`]. Writes to pages not yet in
    /// the arena materialize entries in the locked side table instead (the
    /// arena cannot grow while workers share `&Memory`).
    pub(crate) fn write_line_shared(&self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        debug_assert!(
            self.armed.is_empty() && self.raid.is_none(),
            "weave replay requires fault-free, RAID-free memory"
        );
        let off = line.index_in_page() * CACHE_LINE;
        if let Some(&slot) = self.index.get(&line.page().0) {
            // SAFETY: as read_line_shared — per-line shard exclusivity.
            unsafe { self.arena[slot as usize].write_line_raw(off, data) };
            return;
        }
        let mut side = self.side.lock().unwrap();
        let page = side
            .entry(line.page().0)
            .or_insert_with(|| Box::new([0u8; PAGE]));
        page[off..off + CACHE_LINE].copy_from_slice(data);
    }

    /// Fold pages materialized during weave replay into the arena (ascending
    /// page order, so slot assignment is deterministic). Called once at
    /// weave teardown, after every worker has joined.
    pub(crate) fn merge_weave_side(&mut self) {
        let side = std::mem::take(self.side.get_mut().unwrap());
        if side.is_empty() {
            return;
        }
        let mut pages: Vec<(u64, Box<[u8; PAGE]>)> = side.into_iter().collect();
        pages.sort_unstable_by_key(|&(k, _)| k);
        for (k, page) in pages {
            debug_assert!(
                !self.index.contains_key(&k),
                "side page {k} already materialized in the arena"
            );
            let slot = self.arena.len();
            self.arena.push(SyncPage::new(*page));
            self.index.insert(k, slot as u32);
            let pos = self.page_order.partition_point(|&q| q < k);
            self.page_order.insert(pos, k);
        }
    }

    /// Write a line directly to the media, bypassing firmware faults.
    ///
    /// Under firmware RAID this is where the shadow syndromes are
    /// maintained, because every landing write funnels through here (the
    /// fault paths of [`write_line`](Self::write_line) included): the delta
    /// `old_logical ^ new` is applied before the store. Writes to a *failed*
    /// bank are absorbed by the syndromes alone — the device is gone, so
    /// nothing is stored, but reconstruction returns the new data (classic
    /// degraded-RAID write durability). A write landing on a dead line of a
    /// *rebuilding* bank makes the line live (write-intent).
    pub fn poke_line(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        if let Some(idx) = self.raid_idx(line) {
            let li = line.index_in_page();
            let (failed, live) = {
                let raid = self.raid.as_ref().expect("raid_idx implies raid");
                (
                    raid.banks[raid.bank_of(idx)] == BankState::Failed,
                    raid.line_live(idx, li),
                )
            };
            let old = if live {
                self.peek_line(line)
            } else {
                // Delta against the *logical* old value. If too many
                // members are dead to reconstruct it, the stripe line
                // already lost data; zeros keep the arithmetic total.
                self.reconstruct_line(line).unwrap_or([0u8; CACHE_LINE])
            };
            let raid = self.raid.as_mut().expect("raid_idx implies raid");
            raid.apply_delta(idx, li, &old, data);
            if failed {
                raid.stats.dropped_writes += 1;
                return;
            }
            raid.mark_live(idx, li);
        }
        self.store_line(line, data);
    }

    /// Raw arena store with no firmware-RAID bookkeeping. Used internally by
    /// [`fail_bank`](Self::fail_bank) / [`abandon_page`](Self::abandon_page),
    /// where media changes deliberately do *not* change logical values.
    fn store_line(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        let off = line.index_in_page() * CACHE_LINE;
        let page = self.page_mut(line.page());
        page[off..off + CACHE_LINE].copy_from_slice(data);
    }

    /// Arm a firmware fault against `line` (one-shot unless the variant is
    /// sticky). A newly armed fault replaces any previously armed fault on
    /// the same line.
    pub fn arm_fault(&mut self, line: LineAddr, fault: FirmwareFault) {
        self.armed.insert(line, fault);
    }

    /// Disarm whatever fault is armed on `line` (the only way a sticky fault
    /// goes away — models replacing the failed device region). Returns the
    /// fault that was armed, if any.
    pub fn disarm_fault(&mut self, line: LineAddr) -> Option<FirmwareFault> {
        self.armed.remove(&line)
    }

    /// The fault currently armed on `line`, if any.
    pub fn armed_fault_on(&self, line: LineAddr) -> Option<FirmwareFault> {
        self.armed.get(&line).copied()
    }

    /// Faults that have fired so far, in firing order.
    pub fn fired_faults(&self) -> &[FiredFault] {
        &self.fired
    }

    /// Number of faults still armed.
    pub fn armed_faults(&self) -> usize {
        self.armed.len()
    }

    /// Disarm every armed fault (models replacing the failed device).
    /// Returns how many were disarmed.
    pub fn disarm_all_faults(&mut self) -> usize {
        let n = self.armed.len();
        self.armed.clear();
        n
    }

    /// Snapshot the current media content for bound-phase data prediction
    /// (see [`crate::weave`]). The snapshot is immutable and read-only: the
    /// bound thread predicts NVM fill data from it (plus its dirty-line
    /// overlay) while the weave shard workers own the live `Memory` behind
    /// the session's turn token.
    pub fn snapshot(&self) -> MemSnapshot {
        debug_assert!(
            self.side.lock().unwrap().is_empty(),
            "snapshot during replay would miss side pages"
        );
        MemSnapshot {
            index: self.index.clone(),
            arena: self.arena.iter().map(|p| *p.bytes()).collect(),
        }
    }

    /// Canonical FNV-1a digest of the entire media content. All-zero pages
    /// hash the same whether materialized or absent (unwritten pages read as
    /// zeros), so two memories with equal *logical* content digest equally —
    /// the equivalence crashsim's clean-shutdown test relies on.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &k in &self.page_order {
            let page = self.arena[self.index[&k] as usize].bytes();
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            mix(&k.to_le_bytes());
            mix(&page[..]);
        }
        h
    }

    // ---- firmware shadow-RAID -------------------------------------------

    /// Configure firmware shadow-RAID over the first `striped_pages`
    /// region-relative NVM pages, building P (and Q at [`RaidLevel::PQ`])
    /// from the current media content. All banks start Healthy.
    ///
    /// # Panics
    ///
    /// Panics if RAID is already configured, `striped_pages` is zero or not
    /// a whole number of stripes, or fewer than 3 DIMMs are present (one
    /// lost member must leave at least two to solve from).
    pub fn configure_raid(&mut self, striped_pages: u64, level: RaidLevel) {
        assert!(self.raid.is_none(), "firmware RAID already configured");
        assert!(self.nvm_dimms >= 3, "shadow RAID needs at least 3 DIMMs");
        let d = self.nvm_dimms;
        assert!(
            striped_pages > 0 && striped_pages.is_multiple_of(d as u64),
            "striped_pages must be a positive multiple of the DIMM count"
        );
        let stripes = (striped_pages / d as u64) as usize;
        let qrow: Vec<[u8; 256]> = (0..d).map(|s| gf256::mul_row(gf256::pow2(s as u32))).collect();
        let mut p = vec![[0u8; PAGE]; stripes];
        let mut q = if level == RaidLevel::PQ {
            vec![[0u8; PAGE]; stripes]
        } else {
            Vec::new()
        };
        for idx in 0..striped_pages {
            // Unmaterialized pages are all-zero and contribute nothing.
            let Some(&slot) = self.index.get(&(NVM_PAGE_BASE + idx)) else {
                continue;
            };
            let page = self.arena[slot as usize].bytes();
            let stripe = (idx / d as u64) as usize;
            for (k, &b) in page.iter().enumerate() {
                p[stripe][k] ^= b;
            }
            if level == RaidLevel::PQ {
                let row = &qrow[(idx % d as u64) as usize];
                for (k, &b) in page.iter().enumerate() {
                    q[stripe][k] ^= row[b as usize];
                }
            }
        }
        self.raid = Some(RaidState {
            level,
            striped_pages,
            dimms: d,
            p,
            q,
            qrow,
            banks: vec![BankState::Healthy; d],
            live: FxHashMap::default(),
            resilver_mode: false,
            stats: RaidStats::default(),
        });
    }

    /// Whether firmware shadow-RAID is configured.
    pub fn raid_enabled(&self) -> bool {
        self.raid.is_some()
    }

    /// Number of striped pages under shadow-RAID (0 when unconfigured).
    pub fn striped_pages(&self) -> u64 {
        self.raid.as_ref().map_or(0, |r| r.striped_pages)
    }

    /// Lifecycle state of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if RAID is unconfigured or `bank` is out of range.
    pub fn bank_state(&self, bank: usize) -> BankState {
        self.raid.as_ref().expect("firmware RAID not configured").banks[bank]
    }

    /// Fail `bank`: its striped media is erased (the device is gone) and
    /// every striped line on it goes dead. The *logical* values live on in
    /// the shadow syndromes, so reads reconstruct and writes are absorbed.
    /// Callers should quiesce (flush caches) first so the syndromes reflect
    /// all acknowledged writes at the instant of failure.
    ///
    /// # Panics
    ///
    /// Panics if RAID is unconfigured or the bank is not Healthy.
    pub fn fail_bank(&mut self, bank: usize) {
        let raid = self.raid.as_mut().expect("firmware RAID not configured");
        assert_eq!(
            raid.banks[bank],
            BankState::Healthy,
            "bank {bank} is not healthy"
        );
        raid.banks[bank] = BankState::Failed;
        let (striped, d) = (raid.striped_pages, raid.dimms as u64);
        // Raw erase, deliberately bypassing the shadow layer: zeroing the
        // media does not change logical values, the lines just become dead.
        let mut idx = bank as u64;
        while idx < striped {
            if let Some(&slot) = self.index.get(&(NVM_PAGE_BASE + idx)) {
                *self.arena[slot as usize].bytes_mut() = [0u8; PAGE];
            }
            idx += d;
        }
    }

    /// Attach a hot spare to a failed `bank`: it enters Rebuilding with
    /// every striped line dead; the resilver (and landing foreground writes)
    /// make lines live one by one.
    ///
    /// # Panics
    ///
    /// Panics if RAID is unconfigured or the bank is not Failed.
    pub fn attach_spare(&mut self, bank: usize) {
        let raid = self.raid.as_mut().expect("firmware RAID not configured");
        assert_eq!(
            raid.banks[bank],
            BankState::Failed,
            "bank {bank} is not failed"
        );
        raid.banks[bank] = BankState::Rebuilding;
        let d = raid.dimms as u64;
        raid.live.retain(|&idx, _| idx % d != bank as u64);
    }

    /// Mark `bank`'s rebuild complete: it returns to Healthy.
    ///
    /// # Panics
    ///
    /// Panics if RAID is unconfigured, the bank is not Rebuilding, or any of
    /// its striped lines is still dead (the resilver is not actually done).
    pub fn complete_rebuild(&mut self, bank: usize) {
        let raid = self.raid.as_mut().expect("firmware RAID not configured");
        assert_eq!(
            raid.banks[bank],
            BankState::Rebuilding,
            "bank {bank} is not rebuilding"
        );
        let d = raid.dimms as u64;
        let mut idx = bank as u64;
        while idx < raid.striped_pages {
            assert_eq!(
                raid.live.get(&idx).copied().unwrap_or(0),
                u64::MAX,
                "page {idx} still has dead lines"
            );
            idx += d;
        }
        raid.banks[bank] = BankState::Healthy;
        raid.live.retain(|&idx, _| idx % d != bank as u64);
    }

    /// Abandon a rebuilding page whose content cannot be reconstructed:
    /// poison every line (raw, so checksum verification above fails closed)
    /// and mark the page live so the resilver can finish. The stripe's
    /// syndromes stay as they were — this is a declared data-loss event, and
    /// higher layers are expected to quarantine the page.
    ///
    /// # Panics
    ///
    /// Panics if RAID is unconfigured or the page is not on a Rebuilding
    /// bank.
    pub fn abandon_page(&mut self, idx: u64) {
        let raid = self.raid.as_ref().expect("firmware RAID not configured");
        assert!(idx < raid.striped_pages, "page {idx} is not striped");
        assert_eq!(
            raid.banks[raid.bank_of(idx)],
            BankState::Rebuilding,
            "page {idx} is not on a rebuilding bank"
        );
        for li in 0..LINES_PER_PAGE {
            let line = PageNum(NVM_PAGE_BASE + idx).line(li);
            self.store_line(line, &poison_line(line));
        }
        let raid = self.raid.as_mut().unwrap();
        raid.live.insert(idx, u64::MAX);
        raid.stats.abandoned_pages += 1;
    }

    /// Whether `line` is live media (always true outside the striped region
    /// or with RAID off).
    pub fn line_live(&self, line: LineAddr) -> bool {
        match self.raid_idx(line) {
            None => true,
            Some(idx) => self
                .raid
                .as_ref()
                .unwrap()
                .line_live(idx, line.index_in_page()),
        }
    }

    /// Whether every line of `page` is live media.
    pub fn page_fully_live(&self, page: PageNum) -> bool {
        (0..LINES_PER_PAGE).all(|li| self.line_live(page.line(li)))
    }

    /// The *logical* value of `line`: media content when live, syndrome
    /// reconstruction when dead. `None` when more members of the stripe line
    /// are dead than the RAID level can solve for (data loss — readers get
    /// the poison pattern instead).
    pub fn reconstruct_line(&self, line: LineAddr) -> Option<[u8; CACHE_LINE]> {
        let Some(idx) = self.raid_idx(line) else {
            return Some(self.peek_line(line));
        };
        let raid = self.raid.as_ref().unwrap();
        let li = line.index_in_page();
        if raid.line_live(idx, li) {
            return Some(self.peek_line(line));
        }
        let d = raid.dimms as u64;
        let stripe = idx / d;
        let slot = raid.bank_of(idx);
        let base = stripe * d;
        let dead: Vec<usize> = (0..raid.dimms)
            .filter(|&s| !raid.line_live(base + s as u64, li))
            .collect();
        let off = li * CACHE_LINE;
        let member = |s: usize| self.peek_line(PageNum(NVM_PAGE_BASE + base + s as u64).line(li));
        match (dead.len(), raid.level) {
            (1, _) => {
                // P solve: XOR of P and the live members.
                let mut rec = [0u8; CACHE_LINE];
                rec.copy_from_slice(&raid.p[stripe as usize][off..off + CACHE_LINE]);
                for s in 0..raid.dimms {
                    if s != slot {
                        xor64(&mut rec, &member(s));
                    }
                }
                Some(rec)
            }
            (2, RaidLevel::PQ) => {
                // Standard two-erasure solve over slots x < y:
                //   Pxy = P ⊕ Σ_live Dᵢ,  Qxy = Q ⊕ Σ_live gⁱ·Dᵢ
                //   Dx  = (gˣ ⊕ gʸ)⁻¹ · (gʸ·Pxy ⊕ Qxy),  Dy = Pxy ⊕ Dx
                let (x, y) = (dead[0], dead[1]);
                let mut pxy = [0u8; CACHE_LINE];
                pxy.copy_from_slice(&raid.p[stripe as usize][off..off + CACHE_LINE]);
                let mut qxy = [0u8; CACHE_LINE];
                qxy.copy_from_slice(&raid.q[stripe as usize][off..off + CACHE_LINE]);
                for s in 0..raid.dimms {
                    if s != x && s != y {
                        let m = member(s);
                        xor64(&mut pxy, &m);
                        let row = &raid.qrow[s];
                        for k in 0..CACHE_LINE {
                            qxy[k] ^= row[m[k] as usize];
                        }
                    }
                }
                let gx = gf256::pow2(x as u32);
                let gy = gf256::pow2(y as u32);
                let denom_inv = gf256::inv(gx ^ gy);
                let mut dx = [0u8; CACHE_LINE];
                let mut dy = [0u8; CACHE_LINE];
                for k in 0..CACHE_LINE {
                    dx[k] = gf256::mul(denom_inv, gf256::mul(gy, pxy[k]) ^ qxy[k]);
                    dy[k] = pxy[k] ^ dx[k];
                }
                Some(if slot == x { dx } else { dy })
            }
            _ => None,
        }
    }

    /// Read amplification a demand read of `line` incurs right now: 0 for
    /// live media, `dimms - 1` extra member reads when the line must be
    /// reconstructed. The engine charges this many additional NVM reads.
    pub fn degraded_read_width(&self, line: LineAddr) -> usize {
        match self.raid_idx(line) {
            Some(idx)
                if !self
                    .raid
                    .as_ref()
                    .unwrap()
                    .line_live(idx, line.index_in_page()) =>
            {
                self.nvm_dimms - 1
            }
            _ => 0,
        }
    }

    /// Toggle resilver mode: while set, writes landing on dead lines are
    /// counted as resilver progress rather than foreground write-intent.
    pub fn set_resilver_mode(&mut self, on: bool) {
        if let Some(raid) = self.raid.as_mut() {
            raid.resilver_mode = on;
        }
    }

    /// Shadow-RAID counters (zeros when RAID is unconfigured).
    pub fn raid_stats(&self) -> RaidStats {
        self.raid.as_ref().map_or_else(RaidStats::default, |r| r.stats)
    }
}

/// An immutable copy of the media content at one instant, used by the
/// bound phase of bound-weave execution ([`crate::weave`]): the bound thread
/// predicts what an NVM fill will return without touching the live
/// [`Memory`]. Fault-free by construction — bound-weave is only eligible
/// when no firmware faults are armed.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    index: FxHashMap<u64, u32>,
    arena: Vec<[u8; PAGE]>,
}

impl MemSnapshot {
    /// Read a line from the snapshot (zeros for never-written pages),
    /// mirroring [`Memory::peek_line`].
    pub fn read_line(&self, line: LineAddr) -> [u8; CACHE_LINE] {
        let mut out = [0u8; CACHE_LINE];
        if let Some(&slot) = self.index.get(&line.page().0) {
            let off = line.index_in_page() * CACHE_LINE;
            out.copy_from_slice(&self.arena[slot as usize][off..off + CACHE_LINE]);
        }
        out
    }
}

/// Kinds of firmware fault a [`FaultPlan`] can schedule. The plan speaks in
/// abstract *selectors* (the harness maps them onto concrete lines of the
/// workload's files when an event comes due), so one plan replays
/// identically across designs and applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One-shot [`FirmwareFault::LostWrite`].
    LostWrite,
    /// One-shot [`FirmwareFault::MisdirectedWrite`].
    MisdirectedWrite,
    /// One-shot [`FirmwareFault::MisdirectedRead`].
    MisdirectedRead,
    /// One-shot [`FirmwareFault::TornWrite`].
    TornWrite,
    /// [`FirmwareFault::StickyLostWrite`].
    StickyLostWrite,
    /// [`FirmwareFault::StickyMisdirectedRead`].
    StickyMisdirectedRead,
}

impl FaultKind {
    /// All kinds, in §II-A taxonomy order (one-shot first, then sticky).
    pub fn all() -> [FaultKind; 6] {
        [
            FaultKind::LostWrite,
            FaultKind::MisdirectedWrite,
            FaultKind::MisdirectedRead,
            FaultKind::TornWrite,
            FaultKind::StickyLostWrite,
            FaultKind::StickyMisdirectedRead,
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LostWrite => "lost-write",
            FaultKind::MisdirectedWrite => "misdir-write",
            FaultKind::MisdirectedRead => "misdir-read",
            FaultKind::TornWrite => "torn-write",
            FaultKind::StickyLostWrite => "sticky-lost-write",
            FaultKind::StickyMisdirectedRead => "sticky-misdir-read",
        }
    }
}

/// One scheduled fault of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Operation index at which the fault arms (the harness polls
    /// [`FaultPlan::due`] once per application operation).
    pub at_op: u64,
    /// What to arm.
    pub kind: FaultKind,
    /// Abstract target selector — the harness reduces it modulo its line or
    /// page population to pick the armed location.
    pub target_sel: u64,
    /// Abstract selector for the "actual" location of misdirected variants.
    pub aux_sel: u64,
    /// Persisted prefix length for [`FaultKind::TornWrite`] (1..=63 so the
    /// write is genuinely torn, never empty or complete).
    pub torn_bytes: usize,
}

/// A deterministic, seeded schedule of firmware faults over an operation
/// timeline. Two plans built with the same arguments are identical, so a
/// chaos campaign can replay the exact same fault sequence against every
/// design and compare outcomes cell by cell.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<PlannedFault>,
    next: usize,
}

/// splitmix64: tiny, seedable, good enough for schedule generation. Kept
/// local so `memsim` stays dependency-free (`apps::rng` sits above us).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Build a plan of `events` faults drawn from `kinds`, spread uniformly
    /// over `0..total_ops`, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `total_ops == 0`.
    pub fn new(seed: u64, total_ops: u64, events: usize, kinds: &[FaultKind]) -> Self {
        assert!(!kinds.is_empty(), "need at least one fault kind");
        assert!(total_ops > 0, "need a non-empty op timeline");
        // Perturb the caller's seed so plan draws decorrelate from any other
        // splitmix64 user sharing the same seed.
        let mut s = seed ^ 0x5eed_0000_fa17_0000;
        let mut ev: Vec<PlannedFault> = (0..events)
            .map(|_| PlannedFault {
                at_op: splitmix64(&mut s) % total_ops,
                kind: kinds[(splitmix64(&mut s) % kinds.len() as u64) as usize],
                target_sel: splitmix64(&mut s),
                aux_sel: splitmix64(&mut s),
                torn_bytes: 1 + (splitmix64(&mut s) % (CACHE_LINE as u64 - 1)) as usize,
            })
            .collect();
        ev.sort_by_key(|e| e.at_op);
        FaultPlan { events: ev, next: 0 }
    }

    /// Drain and return every event scheduled at or before `op`. Call once
    /// per application operation with a monotonically increasing `op`.
    pub fn due(&mut self, op: u64) -> &[PlannedFault] {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at_op <= op {
            self.next += 1;
        }
        &self.events[start..self.next]
    }

    /// Events not yet drained.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// All scheduled events, drained or not.
    pub fn events(&self) -> &[PlannedFault] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    fn nvm_line(page_idx: u64, line_idx: usize) -> LineAddr {
        PageNum((NVM_BASE >> PAGE_SHIFT) + page_idx).line(line_idx)
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new(4);
        let l = nvm_line(3, 5);
        let data = [0xabu8; CACHE_LINE];
        m.write_line(l, &data);
        assert_eq!(m.read_line(l), data);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut m = Memory::new(4);
        assert_eq!(m.read_line(nvm_line(0, 0)), [0u8; CACHE_LINE]);
    }

    #[test]
    fn dimm_interleave_is_page_granular() {
        let m = Memory::new(4);
        for p in 0..8u64 {
            let d = m.device_of(nvm_line(p, 0));
            assert_eq!(d, Device::Nvm { dimm: (p % 4) as usize });
            // All lines of a page are on the same DIMM.
            assert_eq!(m.device_of(nvm_line(p, 63)), d);
        }
        assert_eq!(m.device_of(PhysAddr(64).line()), Device::Dram);
    }

    #[test]
    fn lost_write_drops_data_once() {
        let mut m = Memory::new(4);
        let l = nvm_line(0, 0);
        m.write_line(l, &[1u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::LostWrite);
        m.write_line(l, &[2u8; CACHE_LINE]);
        // The write was acknowledged but the media still has the old data.
        assert_eq!(m.read_line(l)[0], 1);
        assert_eq!(m.fired_faults().len(), 1);
        // Fault is one-shot: the next write lands.
        m.write_line(l, &[3u8; CACHE_LINE]);
        assert_eq!(m.read_line(l)[0], 3);
    }

    #[test]
    fn misdirected_write_corrupts_other_location() {
        let mut m = Memory::new(4);
        let green = nvm_line(1, 0);
        let blue = nvm_line(2, 0);
        m.write_line(blue, &[0xbbu8; CACHE_LINE]);
        m.arm_fault(green, FirmwareFault::MisdirectedWrite { actual: blue });
        m.write_line(green, &[0x99u8; CACHE_LINE]);
        // Intended location is stale; victim location got clobbered (Fig. 2).
        assert_eq!(m.read_line(green)[0], 0);
        assert_eq!(m.read_line(blue)[0], 0x99);
    }

    #[test]
    fn misdirected_read_returns_wrong_data() {
        let mut m = Memory::new(4);
        let a = nvm_line(0, 1);
        let b = nvm_line(0, 2);
        m.write_line(a, &[1u8; CACHE_LINE]);
        m.write_line(b, &[2u8; CACHE_LINE]);
        m.arm_fault(a, FirmwareFault::MisdirectedRead { actual: b });
        assert_eq!(m.read_line(a)[0], 2);
        // One-shot.
        assert_eq!(m.read_line(a)[0], 1);
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let mut m = Memory::new(4);
        let l = nvm_line(0, 0);
        m.write_line(l, &[0x11u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::TornWrite { persist_bytes: 8 });
        m.write_line(l, &[0x22u8; CACHE_LINE]);
        let got = m.read_line(l);
        assert_eq!(&got[..8], &[0x22u8; 8]);
        assert_eq!(&got[8..], &[0x11u8; CACHE_LINE - 8]);
        // One-shot: the next write lands whole.
        m.write_line(l, &[0x33u8; CACHE_LINE]);
        assert_eq!(m.read_line(l), [0x33u8; CACHE_LINE]);
    }

    #[test]
    fn sticky_lost_write_defeats_repair_until_disarmed() {
        let mut m = Memory::new(4);
        let l = nvm_line(2, 7);
        m.write_line(l, &[1u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::StickyLostWrite);
        for _ in 0..3 {
            m.write_line(l, &[9u8; CACHE_LINE]);
            assert_eq!(m.read_line(l)[0], 1, "sticky fault must drop every write");
        }
        assert_eq!(m.fired_faults().len(), 3);
        assert_eq!(m.armed_faults(), 1);
        assert_eq!(m.disarm_fault(l), Some(FirmwareFault::StickyLostWrite));
        m.write_line(l, &[9u8; CACHE_LINE]);
        assert_eq!(m.read_line(l)[0], 9);
    }

    #[test]
    fn sticky_misdirected_read_fires_every_time() {
        let mut m = Memory::new(4);
        let a = nvm_line(0, 1);
        let b = nvm_line(0, 2);
        m.write_line(a, &[1u8; CACHE_LINE]);
        m.write_line(b, &[2u8; CACHE_LINE]);
        m.arm_fault(a, FirmwareFault::StickyMisdirectedRead { actual: b });
        assert_eq!(m.read_line(a)[0], 2);
        assert_eq!(m.read_line(a)[0], 2);
        assert_eq!(m.armed_fault_on(a), Some(FirmwareFault::StickyMisdirectedRead { actual: b }));
        m.disarm_fault(a);
        assert_eq!(m.read_line(a)[0], 1);
    }

    #[test]
    fn fault_plan_is_deterministic_and_sorted() {
        let p1 = FaultPlan::new(42, 1000, 16, &FaultKind::all());
        let p2 = FaultPlan::new(42, 1000, 16, &FaultKind::all());
        assert_eq!(p1.events(), p2.events());
        assert!(p1.events().windows(2).all(|w| w[0].at_op <= w[1].at_op));
        assert!(p1.events().iter().all(|e| e.at_op < 1000));
        assert!(p1
            .events()
            .iter()
            .all(|e| e.torn_bytes >= 1 && e.torn_bytes < CACHE_LINE));
        let p3 = FaultPlan::new(43, 1000, 16, &FaultKind::all());
        assert_ne!(p1.events(), p3.events());
    }

    #[test]
    fn fault_plan_due_drains_in_order() {
        let mut p = FaultPlan::new(7, 100, 10, &[FaultKind::LostWrite]);
        let mut seen = 0;
        for op in 0..100 {
            let due = p.due(op);
            assert!(due.iter().all(|e| e.at_op <= op));
            seen += due.len();
        }
        assert_eq!(seen, 10);
        assert_eq!(p.remaining(), 0);
        assert!(p.due(1000).is_empty());
    }

    /// Fill `pages` striped pages with distinct deterministic content.
    fn fill_region(m: &mut Memory, pages: u64) {
        for idx in 0..pages {
            for li in 0..LINES_PER_PAGE {
                let mut d = [0u8; CACHE_LINE];
                for (k, b) in d.iter_mut().enumerate() {
                    *b = (idx as u8)
                        .wrapping_mul(37)
                        .wrapping_add(li as u8)
                        .wrapping_mul(13)
                        .wrapping_add(k as u8);
                }
                m.write_line(nvm_line(idx, li), &d);
            }
        }
    }

    #[test]
    fn failed_bank_reads_reconstruct_from_p() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        let before: Vec<[u8; CACHE_LINE]> =
            (0..LINES_PER_PAGE).map(|li| m.peek_line(nvm_line(1, li))).collect();
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(1);
        // Media is erased...
        assert_eq!(m.peek_line(nvm_line(1, 3)), [0u8; CACHE_LINE]);
        // ...but reads reconstruct the logical content exactly.
        for (li, want) in before.iter().enumerate() {
            assert_eq!(&m.read_line(nvm_line(1, li)), want, "line {li}");
            assert_eq!(&m.read_line(nvm_line(5, li) /* also bank 1 */), {
                &m.reconstruct_line(nvm_line(5, li)).unwrap()
            });
        }
        assert!(m.raid_stats().reconstructed_reads > 0);
    }

    #[test]
    fn raid_configured_after_writes_matches_delta_maintained() {
        // Build syndromes from existing media, then keep writing: deltas
        // must keep the syndromes equal to a from-scratch rebuild.
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::PQ);
        fill_region(&mut m, 8); // overwrite everything through the delta path
        m.write_line(nvm_line(2, 5), &[0x5au8; CACHE_LINE]);
        let want = m.peek_line(nvm_line(2, 5));
        m.fail_bank(2);
        assert_eq!(m.read_line(nvm_line(2, 5)), want);
    }

    #[test]
    fn degraded_write_is_absorbed_by_syndromes() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(0);
        let l = nvm_line(4, 9); // bank 0
        m.write_line(l, &[0xeeu8; CACHE_LINE]);
        // Nothing stored, but the logical value is the new data.
        assert_eq!(m.peek_line(l), [0u8; CACHE_LINE]);
        assert_eq!(m.read_line(l), [0xeeu8; CACHE_LINE]);
        assert_eq!(m.raid_stats().dropped_writes, 1);
    }

    #[test]
    fn resilver_roundtrip_restores_content_hash() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 12);
        let healthy_hash = m.content_hash();
        m.configure_raid(12, RaidLevel::P);
        m.fail_bank(2);
        assert_ne!(m.content_hash(), healthy_hash, "erase must show in media");
        m.attach_spare(2);
        assert_eq!(m.bank_state(2), BankState::Rebuilding);
        m.set_resilver_mode(true);
        for idx in (0..12).filter(|i| i % 4 == 2) {
            for li in 0..LINES_PER_PAGE {
                let l = nvm_line(idx, li);
                let rec = m.reconstruct_line(l).expect("single erasure solves");
                m.write_line(l, &rec);
            }
        }
        m.set_resilver_mode(false);
        m.complete_rebuild(2);
        assert_eq!(m.bank_state(2), BankState::Healthy);
        assert_eq!(m.content_hash(), healthy_hash, "resilver must be exact");
        assert_eq!(m.raid_stats().write_intent_lines, 0);
    }

    #[test]
    fn foreground_write_during_rebuild_marks_intent_and_sticks() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(1);
        m.attach_spare(1);
        let l = nvm_line(1, 7);
        m.write_line(l, &[0x42u8; CACHE_LINE]); // foreground write, line dead
        assert!(m.line_live(l));
        assert_eq!(m.raid_stats().write_intent_lines, 1);
        assert_eq!(m.peek_line(l), [0x42u8; CACHE_LINE], "landed on media");
        // The resilver's own write of the reconstruction must not clobber a
        // line a foreground write already made live; it skips live lines.
        assert_eq!(m.reconstruct_line(l), Some([0x42u8; CACHE_LINE]));
    }

    #[test]
    fn pq_survives_second_fault_during_rebuild() {
        // Every (rebuilding, failed) bank pair at several widths: the P+Q
        // two-erasure solve must read back every line of the region exactly.
        for dimms in [4usize, 6, 8] {
            let pages = 2 * dimms as u64;
            for first in 0..dimms {
                for second in (0..dimms).filter(|&b| b != first) {
                    let mut m = Memory::new(dimms);
                    fill_region(&mut m, pages);
                    let want: Vec<[u8; CACHE_LINE]> = (0..pages)
                        .flat_map(|idx| (0..LINES_PER_PAGE).map(move |li| nvm_line(idx, li)))
                        .map(|l| m.peek_line(l))
                        .collect();
                    m.configure_raid(pages, RaidLevel::PQ);
                    m.fail_bank(first);
                    m.attach_spare(first);
                    m.fail_bank(second); // second fault mid-rebuild: two dead members per line
                    for idx in 0..pages {
                        for li in 0..LINES_PER_PAGE {
                            assert_eq!(
                                m.read_line(nvm_line(idx, li)),
                                want[idx as usize * LINES_PER_PAGE + li],
                                "{dimms} DIMMs, banks {first}+{second}, page {idx} line {li}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn p_only_double_fault_reads_poison() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(1);
        m.attach_spare(1);
        m.fail_bank(3);
        let l = nvm_line(1, 0);
        assert_eq!(m.reconstruct_line(l), None, "two erasures defeat P");
        let got = m.read_line(l);
        assert_eq!(got, poison_line(l), "deterministic poison, not fabricated data");
        assert!(m.raid_stats().poison_reads > 0);
    }

    #[test]
    fn abandon_page_poisons_and_counts() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(1);
        m.attach_spare(1);
        m.abandon_page(1);
        assert!(m.page_fully_live(PageNum(NVM_PAGE_BASE + 1)));
        assert_eq!(m.peek_line(nvm_line(1, 0)), poison_line(nvm_line(1, 0)));
        assert_eq!(m.raid_stats().abandoned_pages, 1);
    }

    #[test]
    #[should_panic(expected = "dead lines")]
    fn complete_rebuild_rejects_partial_resilver() {
        let mut m = Memory::new(4);
        fill_region(&mut m, 8);
        m.configure_raid(8, RaidLevel::P);
        m.fail_bank(0);
        m.attach_spare(0);
        m.complete_rebuild(0);
    }

    #[test]
    fn peek_bypasses_faults() {
        let mut m = Memory::new(2);
        let l = nvm_line(0, 0);
        m.write_line(l, &[7u8; CACHE_LINE]);
        m.arm_fault(l, FirmwareFault::MisdirectedRead { actual: nvm_line(1, 0) });
        assert_eq!(m.peek_line(l)[0], 7);
        assert_eq!(m.armed_faults(), 1);
    }
}
