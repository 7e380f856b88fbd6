//! Background scrubbing: the verification mechanism of the software-only
//! designs (Table I — Mojim/HotPot and Vilamb verify via "background
//! scrubbing" rather than on every read).
//!
//! A [`Scrubber`] walks a page range incrementally, reading each page from
//! the media and checking it against its stored checksum (page- or
//! cache-line-granular). Scrubbing bounds the *detection latency* of silent
//! corruption by the scrub period — in contrast to TVARAK, which detects at
//! the first read — and consumes NVM read bandwidth while it runs. The
//! `detection_latency` experiment binary quantifies this difference.
//!
//! [`ScrubDaemon`] packages a scrubber with a *budget*: `pages` pages of
//! scrubbing every `interval_ops` application operations. Workload drivers
//! call [`ScrubDaemon::tick`] once per operation; the daemon interleaves its
//! reads with the application's and tallies them under the separate
//! `scrub_reads` counter so reports can split demand from maintenance
//! traffic.

use crate::layout::{gather_page, peek, read_charged, NvmLayout};
use memsim::addr::{PageNum, LINES_PER_PAGE};
use memsim::engine::System;

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
    /// Also audit each page's parity stripe (media-level XOR comparison).
    audit_parity: bool,
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
            audit_parity: false,
        }
    }

    /// Additionally audit each scrubbed page's parity stripe: XOR the stripe
    /// members at the media level and compare against the stored parity.
    /// Checksums alone cannot see *redundancy* rot (a parity delta computed
    /// from a misread old value leaves data and checksum agreeing while the
    /// stripe no longer reconstructs); the audit surfaces it as a
    /// [`ScrubFindingKind::Parity`] finding so the stripe can be re-silvered
    /// while the data is still intact.
    #[must_use]
    pub fn with_parity_audit(mut self) -> Self {
        self.audit_parity = true;
        self
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
    ) -> Result<Vec<ScrubFinding>, memsim::engine::CorruptionDetected> {
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

    fn check_page(
        &self,
        sys: &mut System,
        core: usize,
        page: PageNum,
    ) -> Result<Option<ScrubFindingKind>, memsim::engine::CorruptionDetected> {
        let mut read = |l| read_charged(sys, core, l);
        let bytes = gather_page(page, &mut read)?;
        let csums_ok = self
            .layout
            .page_matches_csums(page, self.granularity, &bytes, read)?;
        if !csums_ok {
            return Ok(Some(ScrubFindingKind::Checksum));
        }
        if self.audit_parity && !self.parity_consistent(sys, page) {
            return Ok(Some(ScrubFindingKind::Parity));
        }
        Ok(None)
    }

    /// Media-level stripe audit: XOR every stripe member against the stored
    /// parity line. Uses the fault-bypassing peek interface — the audit
    /// models an offline stripe walk below the firmware, so it is not
    /// charged as demand traffic and cannot itself trip verification.
    fn parity_consistent(&self, sys: &System, page: PageNum) -> bool {
        let mem = sys.memory();
        for i in 0..LINES_PER_PAGE {
            let line = page.line(i);
            // Degraded mode: a dead stripe member peeks as zeros (or
            // mid-resilver content), which is not its logical value — the
            // audit would report phantom parity rot. Skip lines whose
            // stripe is not fully live; the resilver restores them.
            if !mem.line_live(line)
                || !mem.line_live(self.layout.parity_line_of(line))
                || self.layout.sibling_lines_of(line).any(|sib| !mem.line_live(sib))
            {
                continue;
            }
            if self.layout.stripe_consistent(line, peek(mem)) != Ok(true) {
                return false;
            }
        }
        true
    }
}

/// A budgeted scrub daemon: `pages` pages of scrubbing interleaved every
/// `interval_ops` application operations.
///
/// The daemon brackets its scrubber steps with the system's scrub-accounting
/// flag, so its NVM data reads land in the `scrub_reads` counter instead of
/// `nvm_data_reads`.
#[derive(Debug)]
pub struct ScrubDaemon {
    scrubber: Scrubber,
    pages: u64,
    interval_ops: u64,
    ops: u64,
}

impl ScrubDaemon {
    /// Wrap `scrubber` with a budget of `pages` pages per `interval_ops`
    /// application operations.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or `interval_ops == 0`.
    pub fn new(scrubber: Scrubber, pages: u64, interval_ops: u64) -> Self {
        assert!(pages > 0, "scrub budget must cover at least one page");
        assert!(interval_ops > 0, "scrub interval must be at least one op");
        ScrubDaemon {
            scrubber,
            pages,
            interval_ops,
            ops: 0,
        }
    }

    /// Account one application operation; every `interval_ops`-th call runs
    /// the budgeted scrub step on `core` and returns `Some(findings)`.
    /// Off-interval calls return `Ok(None)` — distinguishable from a clean
    /// step, so callers tracking consecutive step outcomes (e.g. repeated
    /// verification failures on one page) aren't reset by ticks that did no
    /// scrubbing.
    ///
    /// # Errors
    ///
    /// Propagates hardware-verification errors like [`Scrubber::step`].
    pub fn tick(
        &mut self,
        sys: &mut System,
        core: usize,
    ) -> Result<Option<Vec<ScrubFinding>>, memsim::engine::CorruptionDetected> {
        self.ops += 1;
        if !self.ops.is_multiple_of(self.interval_ops) {
            return Ok(None);
        }
        self.step_now(sys, core).map(Some)
    }

    /// Run one budgeted scrub step immediately, regardless of the interval
    /// clock. Degraded-mode drivers use this when the maintenance scheduler
    /// grants the scrubber a bandwidth token (scrub QoS) instead of pacing
    /// by raw op count. Reads are bracketed with scrub accounting;
    /// on-interval [`tick`](Self::tick) steps go through here too.
    ///
    /// # Errors
    ///
    /// Propagates hardware-verification errors like [`Scrubber::step`].
    pub fn step_now(
        &mut self,
        sys: &mut System,
        core: usize,
    ) -> Result<Vec<ScrubFinding>, memsim::engine::CorruptionDetected> {
        sys.set_scrub_accounting(true);
        let result = self.scrubber.step(sys, core, self.pages);
        sys.set_scrub_accounting(false);
        result
    }

    /// The wrapped scrubber (pass counts, pages checked).
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }

    /// Skip the page currently under the scrub cursor (see
    /// [`Scrubber::skip_current`]).
    pub fn skip_page(&mut self) {
        self.scrubber.skip_current();
    }

    /// Application operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The scrub budget as (pages, interval_ops).
    pub fn budget(&self) -> (u64, u64) {
        (self.pages, self.interval_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize_region;
    use memsim::config::SystemConfig;
    use memsim::engine::{NullHooks, System};

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
        // Corrupt data page 5 on the media.
        let victim = layout.nth_data_page(5);
        sys.memory_mut().poke_line(victim.line(3), &[9u8; 64]);
        for granularity in [ScrubGranularity::Page, ScrubGranularity::CacheLine] {
            let mut s = Scrubber::new(layout, granularity, 0, 8);
            let findings = s.step(&mut sys, 0, 8).unwrap();
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
        let s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let mut d = ScrubDaemon::new(s, 2, 10);
        for _ in 0..35 {
            d.tick(&mut sys, 0).unwrap();
        }
        // 35 ops → 3 completed intervals × 2 pages.
        assert_eq!(d.scrubber().pages_checked(), 6);
        assert_eq!(d.ops(), 35);
    }

    #[test]
    fn daemon_reads_count_as_scrub_not_demand() {
        let (mut sys, layout) = setup(8);
        sys.reset_stats();
        let s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let mut d = ScrubDaemon::new(s, 8, 1);
        d.tick(&mut sys, 0).unwrap();
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
        let s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let mut d = ScrubDaemon::new(s, 8, 1);
        let findings = d.tick(&mut sys, 0).unwrap().expect("on-interval tick steps");
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
        let s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8);
        let mut d = ScrubDaemon::new(s, 2, 1_000_000);
        let findings = d.step_now(&mut sys, 0).unwrap();
        assert!(findings.is_empty());
        assert_eq!(d.scrubber().pages_checked(), 2, "budgeted step ran now");
        assert!(sys.stats().counters.scrub_reads > 0, "scrub accounting on");
        assert!(!sys.scrub_accounting(), "flag restored");
    }

    #[test]
    fn parity_audit_skips_non_live_stripes() {
        let (mut sys, layout) = setup(8);
        let striped = layout.geometry().total_pages_for(8);
        sys.memory_mut().configure_raid(striped, memsim::RaidLevel::P);
        sys.memory_mut().fail_bank(1);
        // With a dead member in (almost) every stripe, a peek-based audit
        // would see zeros and cry parity rot everywhere; the gated audit
        // must stay quiet. (Checksum checks still run — reads reconstruct.)
        let mut s = Scrubber::new(layout, ScrubGranularity::Page, 0, 8).with_parity_audit();
        let findings = s.step(&mut sys, 0, 8).unwrap();
        assert!(findings.is_empty(), "no phantom findings while degraded: {findings:?}");
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
