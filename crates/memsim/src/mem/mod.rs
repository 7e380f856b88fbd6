//! Backing memory devices: DRAM and page-striped NVM DIMMs.
//!
//! The backing store holds real bytes (sparsely, one 4 KB page at a time), so
//! checksums and parity computed by the redundancy machinery are genuine.
//! Every line read and write goes through the device firmware, whose bugs
//! the child module `fault` models below the page store: faults armed
//! against media locations ([`FirmwareFault`]) and the record of those that
//! fired ([`FiredFault`]).
//!
//! A whole DIMM can also fail ([`Memory::fail_bank`]). The device is
//! fail-stop: a blank spare takes its place at once, and every line the
//! failed device held is *lost* until a write lands on it. The engine
//! signals a demand read of a lost line as a media error under every
//! design; repairing it is the redundancy design's job, not the memory's.

mod fault;

pub use fault::{FiredFault, FirmwareFault};

use crate::addr::{LineAddr, PageNum, CACHE_LINE, NVM_BASE, NVM_PAGE_BASE, PAGE, PAGE_SHIFT};
use crate::fastdiv::FastDiv;
use crate::hash::FxHashMap;

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

/// `index` slot of a page only ever written with zeros: it holds no bytes
/// in the arena and reads as zeros. The page is still *materialized* (in
/// `index` and `page_order`), so [`Memory::fail_bank`] loses it exactly as
/// it would a page whose bytes were stored.
const ZERO_SLOT: u32 = u32::MAX;

/// The simulated memory devices.
///
/// Page storage is an arena: materialized pages live contiguously in
/// `arena`, and a compact Fx-hashed `index` maps page number → arena slot
/// (`u32`, half the footprint of a boxed-page pointer and no per-page heap
/// allocation). Pages materialize lazily on first write — reads of
/// untouched pages return zeros without allocating — and a page written
/// only with zeros materializes as `ZERO_SLOT`, with no bytes: its first
/// nonzero write gives it an arena slot. `page_order` keeps the
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
    /// Page number → arena slot, or [`ZERO_SLOT`].
    index: FxHashMap<u64, u32>,
    arena: Vec<[u8; PAGE]>,
    /// Materialized page numbers, ascending; parallel lookup via `index`.
    page_order: Vec<u64>,
    armed: FxHashMap<LineAddr, FirmwareFault>,
    fired: Vec<FiredFault>,
    /// Lost-line masks (bit = line index) of the pages a failed DIMM held;
    /// empty outside degraded-mode runs, keeping the hot paths to one
    /// emptiness test.
    lost: FxHashMap<u64, u64>,
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
            lost: FxHashMap::default(),
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

    /// `page`'s `index` slot, materializing the page with no bytes
    /// ([`ZERO_SLOT`]) if it is not materialized yet.
    fn materialize(&mut self, page: PageNum) -> u32 {
        *self.index.entry(page.0).or_insert_with(|| {
            // One-time ordered insert, so content_hash never sorts.
            let pos = self.page_order.partition_point(|&k| k < page.0);
            self.page_order.insert(pos, page.0);
            ZERO_SLOT
        })
    }

    /// `page`'s bytes, giving it an arena slot (zero-filled) if it has none.
    fn page_mut(&mut self, page: PageNum) -> &mut [u8; PAGE] {
        let mut slot = self.materialize(page);
        if slot == ZERO_SLOT {
            slot = self.arena.len() as u32;
            self.arena.push([0u8; PAGE]);
            self.index.insert(page.0, slot);
        }
        &mut self.arena[slot as usize]
    }

    /// `page`'s media content, bypassing firmware faults; `None` when the
    /// page holds no bytes and so reads as zeros. The page-granular
    /// counterpart of [`peek_line`](Self::peek_line), for set-up work that
    /// derives redundancy a page at a time.
    #[inline]
    pub fn peek_page(&self, page: PageNum) -> Option<&[u8; PAGE]> {
        match self.index.get(&page.0) {
            Some(&slot) if slot != ZERO_SLOT => Some(&self.arena[slot as usize]),
            _ => None,
        }
    }

    /// Write a whole page directly to the media, bypassing firmware faults:
    /// equal to [`poke_line`](Self::poke_line) of each of its 64 lines, the
    /// lost-mask clearing included.
    pub fn poke_page(&mut self, page: PageNum, data: &[u8; PAGE]) {
        if !self.lost.is_empty() {
            self.lost.remove(&page.0);
        }
        if self.peek_page(page).is_none() && is_zero(data) {
            self.materialize(page);
        } else {
            *self.page_mut(page) = *data;
        }
    }

    /// Read a line through the device firmware (faults may fire). A lost
    /// line reads back as [`poison_line`].
    pub fn read_line(&mut self, line: LineAddr) -> [u8; CACHE_LINE] {
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
        match self.peek_page(line.page()) {
            Some(page) => page.as_chunks().0[line.index_in_page()],
            None => [0u8; CACHE_LINE],
        }
    }

    /// Write a line directly to the media, bypassing firmware faults. Every
    /// landing write funnels through here (the fault paths of
    /// [`write_line`](Self::write_line) included), so this is where a lost
    /// line stops being lost.
    pub fn poke_line(&mut self, line: LineAddr, data: &[u8; CACHE_LINE]) {
        if !self.lost.is_empty() {
            let page = line.page().0;
            if let Some(mask) = self.lost.get_mut(&page) {
                *mask &= !(1u64 << line.index_in_page());
                if *mask == 0 {
                    self.lost.remove(&page);
                }
            }
        }
        let page = line.page();
        let bytes = match self.index.get(&page.0) {
            Some(&slot) if slot != ZERO_SLOT => &mut self.arena[slot as usize],
            // A zero write leaves a page with no bytes as it is.
            _ if *data == [0u8; CACHE_LINE] => {
                self.materialize(page);
                return;
            }
            _ => self.page_mut(page),
        };
        bytes.as_chunks_mut().0[line.index_in_page()] = *data;
    }

    /// Fail NVM DIMM `bank` (fail-stop): a blank spare takes its place at
    /// once, and every line of every page the bank held becomes lost. A
    /// lost line reads back as [`poison_line`], so any checksum over it
    /// fails, until a write lands on it. Pages never written hold zeros on
    /// the spare as they did on the device, so only materialized pages are
    /// lost — those written only with zeros included, which take bytes
    /// here to hold their poison. Callers quiesce (flush caches) first: the
    /// failure is of the device, not of writeback ordering.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is not an NVM DIMM index.
    pub fn fail_bank(&mut self, bank: usize) {
        assert!(bank < self.nvm_dimms, "no NVM DIMM {bank}");
        for i in 0..self.page_order.len() {
            let k = self.page_order[i];
            if k < NVM_PAGE_BASE || self.dimm_div.remainder(k - NVM_PAGE_BASE) != bank as u64 {
                continue;
            }
            let page = self.page_mut(PageNum(k));
            for (li, out) in page.as_chunks_mut::<CACHE_LINE>().0.iter_mut().enumerate() {
                *out = poison_line(PageNum(k).line(li));
            }
            self.lost.insert(k, u64::MAX);
        }
    }

    /// Whether `line` is lost: its DIMM failed and no write has landed on it
    /// since.
    #[inline]
    pub fn is_lost(&self, line: LineAddr) -> bool {
        !self.lost.is_empty()
            && self
                .lost
                .get(&line.page().0)
                .is_some_and(|m| (m >> line.index_in_page()) & 1 == 1)
    }

    /// Whether any line of `page` is lost.
    pub fn page_lost(&self, page: PageNum) -> bool {
        self.lost.contains_key(&page.0)
    }

    /// Whether any line is lost.
    pub fn any_lost(&self) -> bool {
        !self.lost.is_empty()
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
    /// hash the same whether they hold bytes, hold none, or are absent
    /// (unwritten pages read as zeros), so two memories with equal
    /// *logical* content digest equally — the equivalence crashsim's
    /// clean-shutdown test relies on.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &k in &self.page_order {
            let Some(page) = self.peek_page(PageNum(k)).filter(|p| !is_zero(p)) else {
                continue;
            };
            mix(&k.to_le_bytes());
            mix(&page[..]);
        }
        h
    }
}

/// Whether `bytes` are all zero: an OR over 8-byte words with no early
/// exit, several times cheaper than a byte-wise `all`.
fn is_zero(bytes: &[u8; PAGE]) -> bool {
    let (words, _) = bytes.as_chunks::<8>();
    words.iter().fold(0, |acc, w| acc | u64::from_ne_bytes(*w)) == 0
}

/// What a lost line reads back as: a deterministic pattern tagged with the
/// line's index, designed to fail any content checksum, so a layer that
/// consumes it without the media error detects it like corruption.
pub fn poison_line(line: LineAddr) -> [u8; CACHE_LINE] {
    let mut out = [0xd5u8; CACHE_LINE];
    out[..8].copy_from_slice(&line.0.to_le_bytes());
    out
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
    /// Read a line from the snapshot (zeros for never-written pages and
    /// pages that hold no bytes), mirroring [`Memory::peek_line`].
    pub fn read_line(&self, line: LineAddr) -> [u8; CACHE_LINE] {
        match self.index.get(&line.page().0) {
            Some(&slot) if slot != ZERO_SLOT => {
                self.arena[slot as usize].as_chunks().0[line.index_in_page()]
            }
            _ => [0u8; CACHE_LINE],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PhysAddr, LINES_PER_PAGE};

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
    fn zero_writes_store_no_bytes() {
        let mut m = Memory::new(4);
        let page = nvm_line(1, 0).page();
        m.poke_line(page.line(3), &[0u8; CACHE_LINE]);
        assert_eq!(m.peek_page(page), None);
        m.poke_page(page, &[0u8; PAGE]);
        assert_eq!(m.peek_page(page), None);
        assert_eq!(m.read_line(page.line(3)), [0u8; CACHE_LINE]);
        // The first nonzero write gives the page bytes.
        m.poke_line(page.line(5), &[7u8; CACHE_LINE]);
        let bytes = m.peek_page(page).expect("a nonzero line is stored");
        assert_eq!(bytes[5 * CACHE_LINE], 7);
        assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), CACHE_LINE);
    }

    #[test]
    fn failed_bank_loses_zero_written_pages_not_unwritten_ones() {
        let mut m = Memory::new(4);
        // Pages 0 and 4 sit on DIMM 0; only page 0 is written, with zeros.
        let written = nvm_line(0, 0).page();
        let unwritten = nvm_line(4, 0).page();
        m.poke_page(written, &[0u8; PAGE]);
        m.fail_bank(0);
        assert!(m.page_lost(written));
        for i in 0..LINES_PER_PAGE {
            assert!(m.is_lost(written.line(i)));
            assert_eq!(m.read_line(written.line(i)), poison_line(written.line(i)));
        }
        assert!(!m.page_lost(unwritten));
        assert_eq!(m.read_line(unwritten.line(0)), [0u8; CACHE_LINE]);
    }

    #[test]
    fn poke_page_equals_line_pokes_lost_mask_included() {
        let mut content = [0u8; PAGE];
        content[100] = 1;
        for data in [[0u8; PAGE], content] {
            let (mut by_page, mut by_line) = (Memory::new(4), Memory::new(4));
            let page = nvm_line(0, 0).page();
            for m in [&mut by_page, &mut by_line] {
                m.poke_line(page.line(9), &[3u8; CACHE_LINE]);
                m.fail_bank(0);
            }
            by_page.poke_page(page, &data);
            for (i, line) in data.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
                by_line.poke_line(page.line(i), line);
            }
            for m in [&by_page, &by_line] {
                assert!(!m.any_lost());
                assert_eq!(m.peek_page(page), Some(&data));
            }
            assert_eq!(by_page.content_hash(), by_line.content_hash());
        }
    }

    #[test]
    fn zero_pages_hash_and_snapshot_as_unwritten() {
        let unwritten = Memory::new(4);
        let mut zeroed = Memory::new(4);
        let mut stored = Memory::new(4);
        let page = nvm_line(2, 0).page();
        zeroed.poke_page(page, &[0u8; PAGE]);
        // A page that holds bytes, all zero again.
        stored.poke_line(page.line(0), &[1u8; CACHE_LINE]);
        stored.poke_line(page.line(0), &[0u8; CACHE_LINE]);
        assert!(stored.peek_page(page).is_some());
        assert_eq!(zeroed.content_hash(), unwritten.content_hash());
        assert_eq!(stored.content_hash(), unwritten.content_hash());
        for m in [&zeroed, &stored] {
            assert_eq!(m.snapshot().read_line(page.line(7)), [0u8; CACHE_LINE]);
        }
    }

    #[test]
    fn dimm_interleave_is_page_granular() {
        let m = Memory::new(4);
        for p in 0..8u64 {
            let d = m.device_of(nvm_line(p, 0));
            assert_eq!(
                d,
                Device::Nvm {
                    dimm: (p % 4) as usize
                }
            );
            // All lines of a page are on the same DIMM.
            assert_eq!(m.device_of(nvm_line(p, 63)), d);
        }
        assert_eq!(m.device_of(PhysAddr(64).line()), Device::Dram);
    }
}
