//! Firmware shadow-RAID: device-level P/Q syndromes over the striped NVM
//! pages, so a failed DIMM's content stays readable (reconstructed) and
//! writable (absorbed by the syndromes) while a hot spare is resilvered.

use super::Memory;
use crate::addr::{LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, NVM_PAGE_BASE, PAGE};
use crate::gf256;
use crate::hash::FxHashMap;

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
pub(super) struct RaidState {
    level: RaidLevel,
    striped_pages: u64,
    dimms: usize,
    /// Shadow P per stripe (one full page: 64 lines × 64 B).
    p: Vec<[u8; PAGE]>,
    /// Shadow Q per stripe; empty at [`RaidLevel::P`].
    q: Vec<[u8; PAGE]>,
    /// Per-slot Q weight multiply rows: `qrow[s][b] = g^s · b`.
    qrow: Vec<[u8; 256]>,
    pub(super) banks: Vec<BankState>,
    /// Live-line masks for pages on Rebuilding banks (bit = line index);
    /// absent entry = all dead. Healthy banks are implicitly all-live,
    /// Failed banks all-dead.
    live: FxHashMap<u64, u64>,
    /// Set while a resilver is writing: suppresses the write-intent
    /// counter (liveness marking itself always happens).
    resilver_mode: bool,
    pub(super) stats: RaidStats,
}

impl RaidState {
    pub(super) fn bank_of(&self, idx: u64) -> usize {
        (idx % self.dimms as u64) as usize
    }

    pub(super) fn line_live(&self, idx: u64, li: usize) -> bool {
        match self.banks[self.bank_of(idx)] {
            BankState::Healthy => true,
            BankState::Failed => false,
            BankState::Rebuilding => (self.live.get(&idx).copied().unwrap_or(0) >> li) & 1 == 1,
        }
    }

    /// Apply the syndrome delta for changing member `idx` line `li` from
    /// logical value `old` to `new`.
    pub(super) fn apply_delta(&mut self, idx: u64, li: usize, old: &[u8; CACHE_LINE], new: &[u8; CACHE_LINE]) {
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
    pub(super) fn mark_live(&mut self, idx: u64, li: usize) {
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
    /// Region-relative index of `line`'s page if it falls inside the
    /// firmware-RAID striped region (`None` when RAID is off, the line is
    /// DRAM, or the page is past the striped pages).
    #[inline]
    pub(super) fn raid_idx(&self, line: LineAddr) -> Option<u64> {
        let raid = self.raid.as_ref()?;
        if !line.is_nvm() {
            return None;
        }
        let idx = line.page().0 - NVM_PAGE_BASE;
        (idx < raid.striped_pages).then_some(idx)
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
            let page = &self.arena[slot as usize];
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
                self.arena[slot as usize] = [0u8; PAGE];
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
    pub(crate) fn degraded_read_width(&self, line: LineAddr) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::tests::nvm_line;

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
}
