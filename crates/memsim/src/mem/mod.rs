//! Backing memory devices: DRAM and page-striped NVM DIMMs.
//!
//! The backing store holds real bytes (sparsely, one 4 KB page at a time), so
//! checksums and parity computed by the redundancy machinery are genuine.
//! Every line read and write goes through the device firmware, which the two
//! child modules model below the page store:
//!
//! - `fault`: firmware bugs armed against media locations ([`FirmwareFault`])
//!   and seeded schedules of them ([`FaultPlan`]);
//! - `raid`: firmware shadow-RAID, host-side P/Q syndromes that keep a
//!   failed DIMM's content readable ([`RaidLevel`], [`BankState`]).

mod fault;
mod raid;

pub use fault::{FaultKind, FaultPlan, FiredFault, FirmwareFault, PlannedFault};
pub use raid::{poison_line, BankState, RaidLevel, RaidStats};

use crate::addr::{LineAddr, PageNum, CACHE_LINE, NVM_BASE, PAGE, PAGE_SHIFT};
use crate::fastdiv::FastDiv;
use crate::hash::FxHashMap;
use raid::RaidState;

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
    arena: Vec<[u8; PAGE]>,
    /// Materialized page numbers, ascending; parallel lookup via `index`.
    page_order: Vec<u64>,
    armed: FxHashMap<LineAddr, FirmwareFault>,
    fired: Vec<FiredFault>,
    /// Firmware shadow-RAID state (device-level P/Q over the striped pages);
    /// `None` outside degraded-mode campaigns, keeping the hot paths to a
    /// single discriminant test.
    raid: Option<RaidState>,
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
    fn nvm_page_index(&self, page: PageNum) -> u64 {
        assert!(page.is_nvm(), "{page:?} is not an NVM page");
        page.0 - (NVM_BASE >> PAGE_SHIFT)
    }

    /// The device holding `line`. NVM pages are interleaved page-granularly
    /// across DIMMs (page-striping, Fig. 3): NVM page `p` is on DIMM
    /// `p % dimms`.
    #[inline]
    pub(crate) fn device_of(&self, line: LineAddr) -> Device {
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
        let slot = match self.index.get(&page.0) {
            Some(&slot) => slot as usize,
            None => {
                let slot = self.arena.len();
                self.arena.push([0u8; PAGE]);
                self.index.insert(page.0, slot as u32);
                // One-time ordered insert, so content_hash never sorts.
                let pos = self.page_order.partition_point(|&k| k < page.0);
                self.page_order.insert(pos, page.0);
                slot
            }
        };
        &mut self.arena[slot]
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
            out.copy_from_slice(&self.arena[slot as usize][off..off + CACHE_LINE]);
        }
        out
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

    /// Snapshot the current media content for bound-phase data prediction
    /// (see [`crate::weave`]). The snapshot is immutable and read-only: the
    /// bound thread predicts NVM fill data from it (plus its dirty-line
    /// overlay) while the weave worker owns the live `Memory`.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            index: self.index.clone(),
            arena: self.arena.clone(),
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
            let page = &self.arena[self.index[&k] as usize];
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            mix(&k.to_le_bytes());
            mix(&page[..]);
        }
        h
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    pub(super) fn nvm_line(page_idx: u64, line_idx: usize) -> LineAddr {
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
}
