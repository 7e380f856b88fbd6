//! Online rebuild: incremental hot-spare resilver of a failed NVM bank.
//!
//! When a DIMM fails, the firmware shadow-RAID layer in `memsim` (see
//! [`memsim::Memory::configure_raid`]) keeps serving its striped pages by
//! reconstruct-on-read, but every such read pays `dimms - 1` member reads
//! and the array is one (or, at P-only, zero) further faults from data
//! loss. The [`Rebuilder`] walks the failed bank's striped pages after a
//! hot spare is attached and writes each dead line's reconstruction back to
//! media, returning the bank to Healthy.
//!
//! The resilver interleaves with foreground traffic — one page per
//! [`step`](Rebuilder::step), paced by the maintenance scheduler in
//! [`crate::qos`] — and is safe against racing writes by construction:
//!
//! - A foreground write landing on a not-yet-resilvered line makes the line
//!   live (the write-intent mask in `memsim`); the rebuilder sees it live
//!   and skips it, never clobbering newer data with an older
//!   reconstruction.
//! - A rebuilder write of the reconstruction has a self-cancelling syndrome
//!   delta, so it cannot corrupt the shadow parity that later lines still
//!   need.
//!
//! If a line cannot be reconstructed (a second concurrent fault at P-only,
//! or a third at P+Q), the page is *abandoned*: its media is poisoned, its
//! cached copies dropped, and the caller is told to quarantine it — the
//! fail-closed path. No fabricated data is ever written.

use memsim::addr::{nvm_page, PageNum, LINES_PER_PAGE};
use memsim::engine::System;
use memsim::BankState;

/// Outcome of one rebuild step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildStep {
    /// The page is now fully live (resilvered, or already live from
    /// foreground write-intent).
    Resilvered(PageNum),
    /// The page could not be reconstructed; its media is poisoned and the
    /// caller must quarantine it (fail closed).
    Abandoned(PageNum),
    /// Every page of the failed bank has been processed; the bank was
    /// marked Healthy.
    Done,
}

/// Incremental resilver of one failed bank onto its hot spare.
#[derive(Debug)]
pub struct Rebuilder {
    bank: usize,
    striped_pages: u64,
    dimms: usize,
    /// Next region-relative page index of the bank to process.
    next: u64,
    pages_resilvered: u64,
    pages_abandoned: u64,
    lines_reconstructed: u64,
    lines_already_live: u64,
    done: bool,
}

impl Rebuilder {
    /// A rebuilder for `bank`, which must be in [`BankState::Rebuilding`]
    /// (call [`memsim::Memory::attach_spare`] first).
    ///
    /// # Panics
    ///
    /// Panics if firmware RAID is unconfigured or the bank is not
    /// Rebuilding.
    pub fn new(sys: &System, bank: usize) -> Self {
        let mem = sys.memory();
        assert_eq!(
            mem.bank_state(bank),
            BankState::Rebuilding,
            "bank {bank} has no attached spare"
        );
        Rebuilder {
            bank,
            striped_pages: mem.striped_pages(),
            dimms: mem.nvm_dimms(),
            next: bank as u64,
            pages_resilvered: 0,
            pages_abandoned: 0,
            lines_reconstructed: 0,
            lines_already_live: 0,
            done: false,
        }
    }

    /// Whether the resilver has processed every page (and the bank is
    /// Healthy again).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// `(processed, total)` page progress for reporting.
    pub fn progress(&self) -> (u64, u64) {
        let total = self.striped_pages.div_ceil(self.dimms as u64);
        (self.pages_resilvered + self.pages_abandoned, total)
    }

    /// Pages fully resilvered so far.
    pub fn pages_resilvered(&self) -> u64 {
        self.pages_resilvered
    }

    /// Pages abandoned (poisoned for quarantine) so far.
    pub fn pages_abandoned(&self) -> u64 {
        self.pages_abandoned
    }

    /// Dead lines restored by reconstruction so far.
    pub fn lines_reconstructed(&self) -> u64 {
        self.lines_reconstructed
    }

    /// Lines found already live (landed foreground writes) and skipped.
    pub fn lines_already_live(&self) -> u64 {
        self.lines_already_live
    }

    /// Resilver the next page of the failed bank on `core`, charging the
    /// member reads and the spare writes as real NVM traffic. One page per
    /// call keeps the foreground-latency impact of a grant bounded.
    pub fn step(&mut self, sys: &mut System, core: usize) -> RebuildStep {
        if self.done {
            return RebuildStep::Done;
        }
        if self.next >= self.striped_pages {
            sys.memory_mut().complete_rebuild(self.bank);
            self.done = true;
            return RebuildStep::Done;
        }
        let idx = self.next;
        self.next += self.dimms as u64;
        let page = nvm_page(idx);
        // Reconstruct every dead line first; only write if the whole page
        // solves, so an unreconstructible line never leaves the page half
        // resilvered before it is poisoned.
        let mut pending: Vec<(usize, [u8; 64])> = Vec::new();
        for li in 0..LINES_PER_PAGE {
            let line = page.line(li);
            if sys.memory().line_live(line) {
                self.lines_already_live += 1;
                continue;
            }
            match sys.memory().reconstruct_line(line) {
                Some(rec) => pending.push((li, rec)),
                None => {
                    // Fail closed: poison the page, drop cached copies so
                    // no stale clean line can serve reads past the poison,
                    // and tell the caller to quarantine.
                    sys.memory_mut().abandon_page(idx);
                    sys.invalidate_page(page);
                    self.pages_abandoned += 1;
                    return RebuildStep::Abandoned(page);
                }
            }
        }
        sys.memory_mut().set_resilver_mode(true);
        sys.with_hooks_env(|_hooks, env| {
            for &(li, ref rec) in &pending {
                let line = page.line(li);
                // Charge the surviving members' reads: reconstruction
                // streams one line from every live sibling in the stripe.
                let stripe_base = (idx / env.memory().nvm_dimms() as u64)
                    * env.memory().nvm_dimms() as u64;
                let dimms = env.memory().nvm_dimms();
                for s in 0..dimms {
                    let member = nvm_page(stripe_base + s as u64).line(li);
                    if member != line && env.memory().line_live(member) {
                        let _ = env.nvm_read_old_data(core, member);
                    }
                }
                env.nvm_write_data(core, line, rec);
            }
        });
        sys.memory_mut().set_resilver_mode(false);
        self.lines_reconstructed += pending.len() as u64;
        self.pages_resilvered += 1;
        RebuildStep::Resilvered(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::config::SystemConfig;
    use memsim::engine::{NullHooks, System};
    use memsim::{Memory, RaidLevel};

    fn system_with_raid(level: RaidLevel) -> (System, u64) {
        let cfg = SystemConfig::small();
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let striped = 16u64; // 4 stripes over 4 DIMMs
        for idx in 0..striped {
            for li in 0..LINES_PER_PAGE {
                let mut d = [0u8; 64];
                for (k, b) in d.iter_mut().enumerate() {
                    *b = (idx as u8 ^ li as u8).wrapping_mul(29).wrapping_add(k as u8);
                }
                sys.memory_mut().poke_line(nvm_page(idx).line(li), &d);
            }
        }
        sys.memory_mut().configure_raid(striped, level);
        (sys, striped)
    }

    #[test]
    fn full_resilver_restores_exact_content() {
        let (mut sys, _) = system_with_raid(RaidLevel::P);
        let healthy = sys.memory().content_hash();
        sys.memory_mut().fail_bank(2);
        sys.memory_mut().attach_spare(2);
        let mut r = Rebuilder::new(&sys, 2);
        let mut steps = 0;
        loop {
            match r.step(&mut sys, 0) {
                RebuildStep::Resilvered(_) => steps += 1,
                RebuildStep::Abandoned(p) => panic!("unexpected abandon of {p:?}"),
                RebuildStep::Done => break,
            }
        }
        assert_eq!(steps, 4, "one step per bank page");
        assert!(r.is_done());
        assert_eq!(sys.memory().bank_state(2), memsim::BankState::Healthy);
        assert_eq!(sys.memory().content_hash(), healthy, "bit-exact resilver");
    }

    #[test]
    fn rebuild_charges_member_reads_and_spare_writes() {
        let (mut sys, _) = system_with_raid(RaidLevel::P);
        sys.memory_mut().fail_bank(0);
        sys.memory_mut().attach_spare(0);
        sys.reset_stats();
        let mut r = Rebuilder::new(&sys, 0);
        while !matches!(r.step(&mut sys, 0), RebuildStep::Done) {}
        let c = sys.stats().counters;
        // 4 pages × 64 lines: 3 member reads + 1 spare write each.
        assert_eq!(c.nvm_red_reads, 4 * 64 * 3);
        assert_eq!(c.nvm_data_writes, 4 * 64);
    }

    #[test]
    fn foreground_write_survives_concurrent_resilver() {
        let (mut sys, _) = system_with_raid(RaidLevel::P);
        sys.memory_mut().fail_bank(1);
        sys.memory_mut().attach_spare(1);
        // A foreground write lands on a dead line before the resilver
        // reaches it (write-intent): the rebuilder must not clobber it.
        let l = nvm_page(5).line(10); // page 5 is on bank 1
        sys.memory_mut().write_line(l, &[0x77u8; 64]);
        let mut r = Rebuilder::new(&sys, 1);
        while !matches!(r.step(&mut sys, 0), RebuildStep::Done) {}
        assert_eq!(sys.memory().peek_line(l), [0x77u8; 64]);
        assert!(r.lines_already_live() >= 1);
    }

    #[test]
    fn pq_resilver_survives_second_failed_bank() {
        let (mut sys, _) = system_with_raid(RaidLevel::PQ);
        let healthy = sys.memory().content_hash();
        sys.memory_mut().fail_bank(1);
        sys.memory_mut().attach_spare(1);
        sys.memory_mut().fail_bank(3); // double-fault storm mid-rebuild
        let mut r = Rebuilder::new(&sys, 1);
        while !matches!(r.step(&mut sys, 0), RebuildStep::Done) {}
        assert_eq!(r.pages_abandoned(), 0, "Q covers the second fault");
        // Now resilver the second bank too; media must return to the
        // healthy image bit for bit.
        sys.memory_mut().attach_spare(3);
        let mut r3 = Rebuilder::new(&sys, 3);
        while !matches!(r3.step(&mut sys, 0), RebuildStep::Done) {}
        assert_eq!(sys.memory().content_hash(), healthy);
    }

    #[test]
    fn p_only_second_fault_fails_closed_with_poison() {
        let (mut sys, _) = system_with_raid(RaidLevel::P);
        sys.memory_mut().fail_bank(1);
        sys.memory_mut().attach_spare(1);
        sys.memory_mut().fail_bank(3);
        let mut r = Rebuilder::new(&sys, 1);
        let mut abandoned = Vec::new();
        loop {
            match r.step(&mut sys, 0) {
                RebuildStep::Abandoned(p) => abandoned.push(p),
                RebuildStep::Done => break,
                RebuildStep::Resilvered(_) => {}
            }
        }
        assert_eq!(abandoned.len(), 4, "every bank-1 page is unsolvable at P");
        for p in &abandoned {
            let got = sys.memory().peek_line(p.line(0));
            assert_eq!(
                got,
                memsim::mem::poison_line(p.line(0)),
                "poison, not fabricated data"
            );
        }
    }

    #[test]
    fn third_concurrent_fault_fails_closed_even_at_pq() {
        // Satellite: three dead members defeat P+Q; the rebuilder must
        // abandon (no fabricated data), never invent stripe content.
        let mut m = Memory::new(5);
        for idx in 0..10u64 {
            m.poke_line(nvm_page(idx).line(0), &[idx as u8 + 1; 64]);
        }
        m.configure_raid(10, RaidLevel::PQ);
        m.fail_bank(0);
        m.fail_bank(1);
        m.attach_spare(0);
        m.fail_bank(2); // three concurrent holes
        assert_eq!(
            m.reconstruct_line(nvm_page(0).line(0)),
            None,
            "three erasures must not solve"
        );
        assert_eq!(
            m.read_line(nvm_page(0).line(0)),
            memsim::mem::poison_line(nvm_page(0).line(0))
        );
    }
}
