//! Background scrubbing: the verification mechanism of the software-only
//! designs (Table I — Mojim/HotPot and Vilamb verify via "background
//! scrubbing" rather than on every read).
//!
//! A [`Scrubber`] walks a page range incrementally, reading each page from
//! the media and checking it against its stored checksum (page- or
//! cache-line-granular), then auditing its parity stripe. Scrubbing bounds
//! the *detection latency* of silent corruption by the scrub period — in
//! contrast to TVARAK, which detects at the first read — and consumes NVM
//! read bandwidth while it runs.
//!
//! As the scrub daemon of a workload, a scrubber runs on a fixed budget:
//! [`SCRUB_PAGES`] pages every [`SCRUB_INTERVAL`] application operations.
//! Workload drivers call [`Scrubber::tick`] once per operation; the
//! budgeted steps interleave their reads with the application's and tally
//! them under the separate `scrub_reads` counter so reports can split
//! demand from maintenance traffic.

use crate::layout::{gather_page, read_charged, NvmLayout};
use memsim::addr::PageNum;
use memsim::engine::{CorruptionDetected, System};

/// Pages verified per budgeted scrub step.
pub const SCRUB_PAGES: u64 = 1;
/// Application operations per budgeted scrub step ([`Scrubber::tick`]).
pub const SCRUB_INTERVAL: u64 = 4;

/// Which checksum granularity the scrubber validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubGranularity {
    /// Per-page system-checksums (TxB-Page / Vilamb designs).
    Page,
    /// DAX-CL-checksums (TxB-Object design).
    CacheLine,
}

/// What kind of inconsistency a [`ScrubFinding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubFindingKind {
    /// Page content does not match its stored checksum: the data (or the
    /// checksum) is corrupt; route through detection→recovery.
    Checksum,
    /// Page content matches its checksum but its parity stripe does not XOR
    /// to the stored parity: the *redundancy* has rotted (e.g. a delta
    /// update computed from a misread old value) while the data is intact.
    /// The repair is to re-silver the stripe, not to reconstruct data.
    Parity,
}

/// A corruption found by the scrubber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubFinding {
    /// The inconsistent page.
    pub page: PageNum,
    /// Data-page index within the pool.
    pub data_index: u64,
    /// What is inconsistent.
    pub kind: ScrubFindingKind,
}

/// An incremental background scrubber over a data-page-index range.
#[derive(Debug)]
pub struct Scrubber {
    layout: NvmLayout,
    granularity: ScrubGranularity,
    first: u64,
    len: u64,
    cursor: u64,
    /// Completed full passes.
    passes: u64,
    /// Pages checked in total.
    pages_checked: u64,
    /// Pages skipped (quarantined under the cursor) in total.
    pages_skipped: u64,
    /// Application operations seen by [`Self::tick`].
    ops: u64,
}

impl Scrubber {
    /// Scrub data pages `[first, first + len)` of `layout` at the given
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(layout: NvmLayout, granularity: ScrubGranularity, first: u64, len: u64) -> Self {
        assert!(len > 0, "cannot scrub an empty range");
        Scrubber {
            layout,
            granularity,
            first,
            len,
            cursor: 0,
            passes: 0,
            pages_checked: 0,
            pages_skipped: 0,
            ops: 0,
        }
    }

    /// Completed full passes over the range.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Total pages checked so far. Skipped (quarantined) pages are *not*
    /// counted here — see [`pages_skipped`](Self::pages_skipped).
    pub fn pages_checked(&self) -> u64 {
        self.pages_checked
    }

    /// Total pages skipped (quarantined under the cursor) so far.
    pub fn pages_skipped(&self) -> u64 {
        self.pages_skipped
    }

    /// Scrub the next `pages` pages (wrapping), reading data and checksums
    /// through the hierarchy on `core` (scrubbing consumes real bandwidth).
    /// Returns any findings.
    ///
    /// # Errors
    ///
    /// Propagates hardware-verification errors when run under a TVARAK
    /// design (the controller may detect the corruption before the scrubber
    /// compares).
    pub fn step(
        &mut self,
        sys: &mut System,
        core: usize,
        pages: u64,
    ) -> Result<Vec<ScrubFinding>, CorruptionDetected> {
        let mut findings = Vec::new();
        for _ in 0..pages {
            let n = self.first + self.cursor;
            let page = self.layout.nth_data_page(n);
            if let Some(kind) = self.check_page(sys, core, page)? {
                findings.push(ScrubFinding {
                    page,
                    data_index: n,
                    kind,
                });
            }
            self.pages_checked += 1;
            self.cursor += 1;
            if self.cursor == self.len {
                self.cursor = 0;
                self.passes += 1;
            }
        }
        Ok(findings)
    }

    /// Account one application operation; every [`SCRUB_INTERVAL`]-th call
    /// runs [`Self::step_now`] on `core` and returns `Some(findings)`.
    /// Off-interval calls return `Ok(None)` — distinguishable from a clean
    /// step, so callers tracking consecutive step outcomes (e.g. repeated
    /// verification failures on one page) aren't reset by ticks that did no
    /// scrubbing.
    ///
    /// # Errors
    ///
    /// Propagates hardware-verification errors like [`Self::step`].
    pub fn tick(
        &mut self,
        sys: &mut System,
        core: usize,
    ) -> Result<Option<Vec<ScrubFinding>>, CorruptionDetected> {
        self.ops += 1;
        if !self.ops.is_multiple_of(SCRUB_INTERVAL) {
            return Ok(None);
        }
        self.step_now(sys, core).map(Some)
    }

    /// Run one budgeted step of [`SCRUB_PAGES`] pages immediately,
    /// regardless of the interval clock, its reads bracketed with the
    /// system's scrub accounting (they land in `scrub_reads`, not
    /// `nvm_data_reads`). Degraded-mode drivers use this when the
    /// maintenance scheduler grants the scrubber a bandwidth token instead
    /// of pacing by raw op count; on-interval [`Self::tick`] steps go
    /// through here too.
    ///
    /// # Errors
    ///
    /// Propagates hardware-verification errors like [`Self::step`].
    pub fn step_now(
        &mut self,
        sys: &mut System,
        core: usize,
    ) -> Result<Vec<ScrubFinding>, CorruptionDetected> {
        sys.set_scrub_accounting(true);
        let result = self.step(sys, core, SCRUB_PAGES);
        sys.set_scrub_accounting(false);
        result
    }

    /// Advance past the current page without checking it. Drivers use this
    /// when the page under the cursor is quarantined — reads of it fail
    /// closed, so the scrubber would otherwise wedge on it forever.
    ///
    /// A skipped page counts toward [`pages_skipped`](Self::pages_skipped),
    /// *not* [`pages_checked`](Self::pages_checked): the erroring
    /// [`step`](Self::step) already bailed out before counting it, and a
    /// permanently quarantined page would otherwise be re-counted as
    /// "checked" on every pass without ever being read. The cursor still
    /// advances and wraps, so a skip at the region boundary completes the
    /// pass instead of stalling it.
    pub fn skip_current(&mut self) {
        self.pages_skipped += 1;
        self.cursor += 1;
        if self.cursor == self.len {
            self.cursor = 0;
            self.passes += 1;
        }
    }

    /// Checksums through the hierarchy, then the uncharged stripe audit of
    /// [`NvmLayout::media_parity_ok`].
    fn check_page(
        &self,
        sys: &mut System,
        core: usize,
        page: PageNum,
    ) -> Result<Option<ScrubFindingKind>, CorruptionDetected> {
        let mut read = |l| read_charged(sys, core, l);
        let bytes = gather_page(page, &mut read)?;
        let csums_ok = self
            .layout
            .page_matches_csums(page, self.granularity, &bytes, read)?;
        if !csums_ok {
            return Ok(Some(ScrubFindingKind::Checksum));
        }
        if !self.layout.media_parity_ok(sys.memory(), page) {
            return Ok(Some(ScrubFindingKind::Parity));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize_region;
    use memsim::config::SystemConfig;
    use memsim::engine::NullHooks;

    fn setup(pages: u64) -> (System, NvmLayout) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, pages);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        initialize_region(&layout, sys.memory_mut(), 0..pages);
        (sys, layout)
    }

    #[test]
    fn clean_range_scrubs_clean() {
        let (mut sys, layout) = setup(8);
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let findings = s.step(&mut sys, 0, 8).unwrap();
        assert!(findings.is_empty());
        assert_eq!(s.passes(), 1);
        assert_eq!(s.pages_checked(), 8);
    }

    #[test]
    fn corruption_found_within_one_pass() {
        let (mut sys, layout) = setup(8);
        // Corrupt data page 5 on the media. Its stripe no longer XORs to the
        // stored parity either, so the audit flags its siblings' parity.
        let victim = layout.nth_data_page(5);
        sys.memory_mut().poke_line(victim.line(3), &[9u8; 64]);
        for granularity in [ScrubGranularity::Page, ScrubGranularity::CacheLine] {
            let mut s = Scrubber::new(layout, granularity, 0, 8);
            let (findings, parity): (Vec<_>, Vec<_>) = s
                .step(&mut sys, 0, 8)
                .unwrap()
                .into_iter()
                .partition(|f| f.kind == ScrubFindingKind::Checksum);
            assert!(parity
                .iter()
                .all(|f| layout.geometry().stripe_of(f.page.nvm_index())
                    == layout.geometry().stripe_of(victim.nvm_index())));
            assert_eq!(findings.len(), 1, "{granularity:?}");
            assert_eq!(findings[0].data_index, 5);
            assert_eq!(findings[0].page, victim);
        }
    }

    #[test]
    fn incremental_steps_wrap_around() {
        let (mut sys, layout) = setup(6);
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 6);
        for _ in 0..4 {
            s.step(&mut sys, 0, 3).unwrap();
        }
        assert_eq!(s.passes(), 2);
        assert_eq!(s.pages_checked(), 12);
    }

    #[test]
    fn daemon_paces_by_budget() {
        let (mut sys, layout) = setup(8);
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        // 6 budgeted steps' worth of ops plus a partial interval.
        for _ in 0..6 * SCRUB_INTERVAL + SCRUB_INTERVAL - 1 {
            s.tick(&mut sys, 0).unwrap();
        }
        assert_eq!(s.pages_checked(), 6 * SCRUB_PAGES);
        // The partial interval was counted: one more op completes it.
        assert!(s.tick(&mut sys, 0).unwrap().is_some());
        assert_eq!(s.pages_checked(), 7 * SCRUB_PAGES);
    }

    #[test]
    fn daemon_reads_count_as_scrub_not_demand() {
        let (mut sys, layout) = setup(8);
        sys.reset_stats();
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        for _ in 0..8 / SCRUB_PAGES * SCRUB_INTERVAL {
            s.tick(&mut sys, 0).unwrap();
        }
        let c = sys.stats().counters;
        assert!(c.scrub_reads >= 8 * 64, "scrub traffic tallied separately");
        assert_eq!(c.nvm_data_reads, 0, "no demand reads charged");
        assert!(!sys.scrub_accounting(), "flag restored after the step");
    }

    #[test]
    fn daemon_finds_corruption_and_restores_flag_on_error() {
        let (mut sys, layout) = setup(8);
        let victim = layout.nth_data_page(3);
        sys.memory_mut().poke_line(victim.line(0), &[7u8; 64]);
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let mut findings = Vec::new();
        for _ in 0..8 / SCRUB_PAGES * SCRUB_INTERVAL {
            if let Some(step) = s.tick(&mut sys, 0).unwrap() {
                findings.extend(
                    step.into_iter()
                        .filter(|f| f.kind == ScrubFindingKind::Checksum),
                );
            }
        }
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].page, victim);
        assert!(!sys.scrub_accounting());
    }

    #[test]
    fn skip_counts_separately_and_completes_pass_at_boundary() {
        // Regression: skipping a quarantined page used to count it as
        // *checked*, so a permanently poisoned page inflated pages_checked
        // by one on every pass. It must land in pages_skipped instead, and
        // a skip at the last page of the range must complete the pass.
        let (mut sys, layout) = setup(4);
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 4);
        s.step(&mut sys, 0, 3).unwrap(); // pages 0..3 checked
        s.skip_current(); // page 3 quarantined: skip at the boundary
        assert_eq!(s.pages_checked(), 3, "skipped page not counted as checked");
        assert_eq!(s.pages_skipped(), 1);
        assert_eq!(s.passes(), 1, "skip at the boundary completes the pass");
        // Second pass: same split, no drift.
        s.step(&mut sys, 0, 3).unwrap();
        s.skip_current();
        assert_eq!(s.pages_checked(), 6);
        assert_eq!(s.pages_skipped(), 2);
        assert_eq!(s.passes(), 2);
    }

    #[test]
    fn daemon_step_now_runs_off_interval() {
        let (mut sys, layout) = setup(8);
        sys.reset_stats();
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        assert!(s.tick(&mut sys, 0).unwrap().is_none(), "off-interval tick");
        let findings = s.step_now(&mut sys, 0).unwrap();
        assert!(findings.is_empty());
        assert_eq!(s.pages_checked(), SCRUB_PAGES, "budgeted step ran now");
        assert!(sys.stats().counters.scrub_reads > 0, "scrub accounting on");
        assert!(!sys.scrub_accounting(), "flag restored");
    }

    #[test]
    fn audit_reports_lost_lines_as_findings() {
        let (mut sys, layout) = setup(8);
        for n in 0..8 {
            let line = layout.nth_data_page(n).line(0);
            sys.memory_mut().poke_line(line, &[n as u8 + 1; 64]);
        }
        initialize_region(&layout, sys.memory_mut(), 0..8);
        // Every stripe has a page on DIMM 1; the DAX-CL table is on DIMM 0.
        sys.memory_mut().fail_bank(1);
        let mem = sys.memory();
        for n in 0..8 {
            let page = layout.nth_data_page(n);
            let want = if mem.page_lost(page) {
                ScrubFindingKind::Checksum
            } else {
                ScrubFindingKind::Parity
            };
            let got = layout.audit_page(mem, page, ScrubGranularity::CacheLine);
            assert_eq!(got, Some(want), "data page {n}");
        }
    }

    #[test]
    fn scrubbing_costs_nvm_reads() {
        let (mut sys, layout) = setup(8);
        sys.reset_stats();
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        s.step(&mut sys, 0, 8).unwrap();
        // 8 pages × 64 lines of data + checksum lines, all cold.
        assert!(sys.stats().counters.nvm_data_reads >= 8 * 64);
    }
}
