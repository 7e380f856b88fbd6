//! The recovery orchestrator: the detection → recovery → degradation
//! pipeline.
//!
//! The paper stops at "the file system recovers the page from parity"
//! (§III-A); this module is that file-system half, made first-class. Any
//! [`CorruptionDetected`] surfaced through a read is routed here: the
//! orchestrator invalidates cached copies of the page, drives parity
//! reconstruction (hardware controller when present, software otherwise)
//! with bounded retries, verifies that the repair actually reached the
//! media, and transparently re-issues the read. A page whose repair cannot
//! be made to stick — an unrecoverable stripe, or a sticky device fault
//! that keeps dropping repair writes — enters a **persistent poison list**:
//! further accesses to that page fail closed with a structured [`Poisoned`]
//! error while the rest of the file keeps serving, and a verified full-page
//! rewrite ([`RecoveryOrchestrator::rewrite_page`]) clears the poison and
//! rebuilds its redundancy.
//!
//! State machine per page:
//!
//! ```text
//!           CorruptionDetected
//! Healthy ────────────────────▶ Recovering ──success (media verifies)──▶ Healthy
//!    ▲                             │
//!    │                             │ retries exhausted / unrecoverable stripe
//!    │   rewrite_page verifies     ▼
//!    └───────────────────────── Poisoned  (persistent; reads fail closed)
//! ```

use crate::fs::{DaxFs, FileHandle, FsError, RecoveryError};
use memsim::addr::{LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE, PAGE};
use memsim::engine::{CorruptionDetected, System};
use tvarak::controller::TvarakController;
use tvarak::init;
use tvarak::layout::{gather_page, peek, NvmLayout};
use tvarak::recovery::{reconstruct_page, RecoveryFailed};
use tvarak::scrub::ScrubGranularity;
use std::error::Error;
use std::fmt;

// Whole-device fault handling is the other half of OS-side recovery: the
// page-granular orchestrator below degrades single pages, the replacement
// manager degrades (and resilvers) whole devices.
pub use crate::rebuild::{PoolState, ReplacementManager};

/// Structured degraded-mode error: the page is quarantined and accesses to
/// it fail closed. Everything else in the file keeps working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned {
    /// The quarantined page.
    pub page: PageNum,
}

impl fmt::Display for Poisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} is poisoned (unrecoverable corruption)", self.page)
    }
}

impl Error for Poisoned {}

/// One transition of the recovery pipeline, for structured event logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Verification failed on `line`.
    Detected {
        /// The corrupt line.
        line: LineAddr,
    },
    /// The page was reconstructed from parity and the repair verified on
    /// media, after `attempts` attempts.
    Recovered {
        /// The repaired page.
        page: PageNum,
        /// Recovery attempts taken (1 = first try).
        attempts: u32,
    },
    /// Recovery could not be made to stick; the page entered the persistent
    /// poison list.
    Quarantined {
        /// The quarantined page.
        page: PageNum,
    },
    /// A verified full-page rewrite cleared the poison and rebuilt the
    /// page's redundancy.
    PoisonCleared {
        /// The formerly poisoned page.
        page: PageNum,
    },
    /// The page's data agreed with its parity reconstruction but not with
    /// the stored checksum — two-of-three says the checksum is the liar, so
    /// it was rebuilt from media instead of quarantining intact data.
    CsumsRebuilt {
        /// The page whose checksums were rebuilt.
        page: PageNum,
    },
    /// A scrub parity audit found the page's stripe no longer XORs to its
    /// stored parity while data and checksums agree; the stripe was
    /// re-silvered from media.
    ParityRebuilt {
        /// The audited page whose stripe was rebuilt.
        page: PageNum,
    },
}

/// Maximum poison-list entries the one-page persistent store can hold.
const POISON_CAP: usize = (PAGE - 8) / 8;

/// Per-page corruption counts of one re-issued operation (see
/// [`RecoveryOrchestrator::incident`]).
#[derive(Debug, Default)]
pub struct Incidents(Vec<(PageNum, u32)>);

/// The detection → recovery → degradation orchestrator for one pool.
///
/// Owns a one-page persistent store (allocated from the pool itself) holding
/// the poison list, so quarantine decisions survive restarts — see
/// [`RecoveryOrchestrator::reload`].
#[derive(Debug)]
pub struct RecoveryOrchestrator {
    layout: NvmLayout,
    store: FileHandle,
    granularity: ScrubGranularity,
    max_retries: u32,
    poisoned: Vec<PageNum>,
    events: Vec<RecoveryEvent>,
    detections: u64,
    recoveries: u64,
    quarantines: u64,
    parity_rebuilds: u64,
}

impl RecoveryOrchestrator {
    /// Create an orchestrator for `fs`'s pool, allocating its persistent
    /// poison-list page. `granularity` names the checksum granularity the
    /// running design maintains (what software recovery verifies against);
    /// `max_retries` bounds reconstruction attempts per incident.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if the pool cannot hold the one-page store.
    ///
    /// # Panics
    ///
    /// Panics if `max_retries == 0`.
    pub fn new(
        fs: &mut DaxFs,
        sys: &mut System,
        granularity: ScrubGranularity,
        max_retries: u32,
    ) -> Result<Self, FsError> {
        assert!(max_retries > 0, "need at least one recovery attempt");
        let store = fs.create(sys, PAGE as u64)?;
        Ok(RecoveryOrchestrator {
            layout: *fs.layout(),
            store,
            granularity,
            max_retries,
            poisoned: Vec::new(),
            events: Vec::new(),
            detections: 0,
            recoveries: 0,
            quarantines: 0,
            parity_rebuilds: 0,
        })
    }

    /// Rebuild an orchestrator from its persistent store after a restart:
    /// the poison list is read back from media, so quarantined pages stay
    /// quarantined across process lifetimes.
    pub fn reload(
        fs: &DaxFs,
        sys: &System,
        store: FileHandle,
        granularity: ScrubGranularity,
        max_retries: u32,
    ) -> Self {
        assert!(max_retries > 0, "need at least one recovery attempt");
        let Ok(bytes) = gather_page(store.page(0), peek(sys.memory()));
        let count = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let poisoned = (0..count.min(POISON_CAP))
            .map(|i| {
                let off = 8 + i * 8;
                PageNum(u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()))
            })
            .collect();
        RecoveryOrchestrator {
            layout: *fs.layout(),
            store,
            granularity,
            max_retries,
            poisoned,
            events: Vec::new(),
            detections: 0,
            recoveries: 0,
            quarantines: 0,
            parity_rebuilds: 0,
        }
    }

    /// The persistent poison-list store (pass to [`Self::reload`]).
    pub fn store(&self) -> &FileHandle {
        &self.store
    }

    /// The bound on reconstruction attempts per incident.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Give up on `page` without further recovery attempts and quarantine
    /// it. Drivers use this for repeat offenders: a page whose recoveries
    /// keep "succeeding" while reads keep detecting (a broken device read
    /// path) must not be retried forever.
    pub fn quarantine_page(&mut self, sys: &mut System, page: PageNum) -> Poisoned {
        self.quarantine(sys, page);
        Poisoned { page }
    }

    /// Whether `page` is quarantined.
    pub fn is_poisoned(&self, page: PageNum) -> bool {
        self.poisoned.contains(&page)
    }

    /// The quarantined pages, in quarantine order.
    pub fn poisoned_pages(&self) -> &[PageNum] {
        &self.poisoned
    }

    /// Corruption detections routed through the orchestrator.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Successful (media-verified) page recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Pages quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// The structured event log so far.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Drain the structured event log.
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Persist the poison list to its store page and rebuild the store's
    /// redundancy (an OS metadata update, below the measured path).
    fn persist(&mut self, sys: &mut System) {
        let page = self.store.page(0);
        let mut bytes = [0u8; PAGE];
        let n = self.poisoned.len().min(POISON_CAP);
        bytes[..8].copy_from_slice(&(n as u64).to_le_bytes());
        for (i, p) in self.poisoned.iter().take(n).enumerate() {
            bytes[8 + i * 8..16 + i * 8].copy_from_slice(&p.0.to_le_bytes());
        }
        let mem = sys.memory_mut();
        for (i, line) in bytes.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
            mem.poke_line(page.line(i), line);
        }
        let idx = self.store.first_data_index();
        init::initialize_region(&self.layout, mem, idx..idx + 1);
        sys.invalidate_page(page);
    }

    /// Quarantine `page`: persist it on the poison list and drop cached
    /// copies so later touches miss to (poisoned) media state. The page's
    /// parity stripe is then re-silvered from media — its data is lost, but
    /// stale parity deltas must not keep implicating (or corrupting future
    /// reconstructions of) the surviving stripe members.
    fn quarantine(&mut self, sys: &mut System, page: PageNum) {
        if !self.is_poisoned(page) {
            self.poisoned.push(page);
            self.persist(sys);
        }
        self.quarantines += 1;
        self.events.push(RecoveryEvent::Quarantined { page });
        sys.invalidate_page(page);
        // Re-silver only while no non-poisoned sibling is checksum-failing:
        // a corrupt sibling still needs the old parity to reconstruct. When
        // deferred here, the stripe settles later — at the sibling's own
        // recovery or quarantine, or at the next scrub parity audit.
        if self.stripe_resilver_safe(sys, page) {
            // Flush first so other pages' in-flight redundancy updates reach
            // media before the rebuild; the poked stripe is then the new
            // ground truth and stale cached copies drop without writeback.
            sys.flush();
            init::refresh_parity_for_page(&self.layout, sys.memory_mut(), page);
            self.drop_stale_copies(sys, page);
        }
    }

    /// Check `page`'s *media* content against its stored checksum at the
    /// orchestrator's granularity — the post-repair acceptance test. A
    /// repair dropped by a sticky device fault fails this even though
    /// reconstruction itself verified.
    ///
    /// Lines that are not live under firmware shadow-RAID (their device
    /// failed, or the spare has not resilvered them yet) are skipped: their
    /// media is not the logical value, and their durability is delegated to
    /// the shadow syndromes — reads reconstruct and verify on consumption.
    fn media_consistent(&self, sys: &System, page: PageNum) -> bool {
        let mem = sys.memory();
        let media = peek(mem);
        match self.granularity {
            ScrubGranularity::CacheLine => (0..LINES_PER_PAGE).all(|i| {
                let line = page.line(i);
                if !mem.line_live(line) || !mem.line_live(self.layout.cl_csum_loc(line).0) {
                    return true;
                }
                self.layout.line_matches_csum(line, &mem.peek_line(line), media) == Ok(true)
            }),
            ScrubGranularity::Page => {
                if !mem.page_fully_live(page) || !mem.line_live(self.layout.page_csum_loc(page).0) {
                    return true;
                }
                let Ok(bytes) = gather_page(page, media);
                self.layout.page_matches_csums(page, self.granularity, &bytes, media) == Ok(true)
            }
        }
    }

    /// Whether every line the peek-based repair paths around `page` would
    /// read or recompute from — the page itself, its design-parity lines,
    /// its stripe siblings, and its checksum lines — is live under firmware
    /// shadow-RAID. Trivially true with RAID unconfigured. Dead lines'
    /// media is not the logical value: voting on or re-silvering from them
    /// would process garbage, so repairs refuse and fail closed instead.
    fn page_repair_lines_live(&self, sys: &System, page: PageNum) -> bool {
        let mem = sys.memory();
        if !mem.raid_enabled() {
            return true;
        }
        // Quarantine also routes abandoned *non-data* pages (design parity,
        // checksum regions) here; they have no design stripe or checksum
        // coverage to repair from, so peek-based repair always refuses.
        if !self.layout.is_data_line(page.line(0)) {
            return false;
        }
        for i in 0..LINES_PER_PAGE {
            let line = page.line(i);
            let (cs_line, _) = self.layout.cl_csum_loc(line);
            if !mem.line_live(line)
                || !mem.line_live(self.layout.parity_line_of(line))
                || !mem.line_live(cs_line)
                || self.layout.sibling_lines_of(line).any(|sib| !mem.line_live(sib))
            {
                return false;
            }
        }
        let (pcs_line, _) = self.layout.page_csum_loc(page);
        mem.line_live(pcs_line)
    }

    /// Software parity reconstruction for designs without a hardware
    /// controller: [`reconstruct_page`] with every redundancy line read
    /// from NVM, charged as redundancy traffic like the hardware path.
    fn recover_sw(&self, sys: &mut System, page: PageNum) -> Result<(), RecoveryFailed> {
        sys.with_hooks_env(|_hooks, env| {
            reconstruct_page(&self.layout, self.granularity, 0, page, env, |l, env| {
                env.nvm_read_red(0, l, true)
            })
        })
    }

    /// Two-of-three arbitration for a failed reconstruction: if the page's
    /// media content already equals its parity reconstruction, data and
    /// parity out-vote the stored checksum — the checksum is the rotten
    /// component (e.g. recomputed over a misread line by a page-granular
    /// update). Rebuild the checksums from media instead of quarantining
    /// intact data. Returns whether the vote carried and the repair ran.
    fn try_csum_repair(&mut self, sys: &mut System, page: PageNum) -> bool {
        // The vote peeks media; with any involved line dead the ballot is
        // garbage and the recompute could clobber live checksum slots.
        // Refuse — the page falls through to quarantine (fail closed).
        if !self.page_repair_lines_live(sys, page) {
            return false;
        }
        let mem = sys.memory();
        if (0..LINES_PER_PAGE)
            .any(|i| self.layout.stripe_consistent(page.line(i), peek(mem)) != Ok(true))
        {
            return false;
        }
        sys.flush();
        let n = self.layout.data_index_of(page);
        init::refresh_cl_csums(&self.layout, sys.memory_mut(), n..n + 1);
        init::refresh_page_csums(&self.layout, sys.memory_mut(), n..n + 1);
        self.drop_stale_copies(sys, page);
        self.events.push(RecoveryEvent::CsumsRebuilt { page });
        true
    }

    /// Whether `page`'s stripe may be re-silvered from media: every member
    /// page not on the poison list must pass its stored checksum. A stripe
    /// mismatch with a checksum-failing member is *data* corruption on that
    /// member — rebuilding parity from media then would erase the only
    /// independent witness of the member's acknowledged data (and the
    /// two-of-three vote would later count stale media twice). Poisoned
    /// members are excluded: their data is already declared lost.
    fn stripe_resilver_safe(&self, sys: &System, page: PageNum) -> bool {
        // Under firmware shadow-RAID, re-silvering peeks member media; a
        // dead member's media is not its logical value, so the rebuild is
        // deferred until the bank resilvers.
        if !self.page_repair_lines_live(sys, page) {
            return false;
        }
        let geom = self.layout.geometry();
        let stripe = geom.stripe_of(page.nvm_index());
        let mem = sys.memory();
        geom.data_pages_of_stripe(stripe)
            .map(memsim::addr::nvm_page)
            .filter(|m| !self.is_poisoned(*m))
            .all(|m| mem.page_fully_live(m) && self.media_consistent(sys, m))
    }

    /// Repair a scrub parity-audit finding: the page's data and checksums
    /// agree but its stripe no longer XORs to the stored parity (redundancy
    /// rot — e.g. a parity delta computed from a misread old value). The
    /// data is intact, so the stripe is re-silvered from media rather than
    /// reconstructing anything. Refused (returning `false`) while any
    /// non-poisoned stripe member fails its checksum — see
    /// `stripe_resilver_safe`.
    pub fn repair_parity(&mut self, sys: &mut System, page: PageNum) -> bool {
        if !self.stripe_resilver_safe(sys, page) {
            return false;
        }
        sys.flush();
        init::refresh_parity_for_page(&self.layout, sys.memory_mut(), page);
        self.drop_stale_copies(sys, page);
        self.events.push(RecoveryEvent::ParityRebuilt { page });
        self.parity_rebuilds += 1;
        true
    }

    /// Parity stripes re-silvered after scrub parity-audit findings.
    pub fn parity_rebuilds(&self) -> u64 {
        self.parity_rebuilds
    }

    /// Handle one detected corruption: invalidate the page, attempt
    /// reconstruction up to `max_retries` times (each attempt must verify on
    /// media to count), quarantine on failure. A failed reconstruction whose
    /// page nevertheless matches its parity reconstruction is arbitrated by
    /// two-of-three vote: data + parity against the checksum — see
    /// `try_csum_repair`.
    ///
    /// Software designs keep their redundancy through the cache hierarchy,
    /// so the hierarchy is flushed first to settle checksums and parity onto
    /// media; the hardware controller's redundancy is writeback-coherent and
    /// needs no flush, but the flush is harmless there.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] if the page was, or has just been, quarantined.
    pub fn handle(
        &mut self,
        fs: &mut DaxFs,
        sys: &mut System,
        err: CorruptionDetected,
    ) -> Result<(), Poisoned> {
        let page = err.line.page();
        self.detections += 1;
        self.events.push(RecoveryEvent::Detected { line: err.line });
        if self.is_poisoned(page) {
            return Err(Poisoned { page });
        }
        // Flush FIRST: the page may hold acknowledged dirty lines besides
        // the corrupt one — invalidating before writing them back would
        // silently revert them to their old (still-verifying) media value.
        // The flush drains the hierarchy, so the corrupt line's next read
        // misses to media as required; per-attempt invalidation below keeps
        // retries honest.
        sys.flush();
        for attempt in 1..=self.max_retries {
            sys.invalidate_page(page);
            let ok = match fs.recover_page(sys, page) {
                Ok(()) => true,
                Err(RecoveryError::NoController) => self.recover_sw(sys, page).is_ok(),
                Err(RecoveryError::Unrecoverable(_)) => false,
            };
            let ok = ok || self.try_csum_repair(sys, page);
            if ok && self.media_consistent(sys, page) {
                self.recoveries += 1;
                self.events.push(RecoveryEvent::Recovered { page, attempts: attempt });
                return Ok(());
            }
        }
        self.quarantine(sys, page);
        Err(Poisoned { page })
    }

    /// Fail closed if any file page overlapping `[offset, offset + len)` is
    /// poisoned. Software designs have no inline verification, so a demand
    /// access cannot *detect* its way to the poison list — callers on those
    /// designs check ranges explicitly before trusting bytes.
    pub fn check_range(&self, file: &FileHandle, offset: u64, len: usize) -> Result<(), Poisoned> {
        if len == 0 {
            return Ok(());
        }
        let first = offset / PAGE as u64;
        let last = (offset + len as u64 - 1) / PAGE as u64;
        for n in first..=last {
            let page = file.page(n);
            if self.is_poisoned(page) {
                return Err(Poisoned { page });
            }
        }
        Ok(())
    }

    /// Route one corruption surfaced by an operation that is about to be
    /// re-issued, counting it against its page in `seen`: recover the page
    /// ([`Self::handle`]) — or, once that page has detected more than
    /// `max_retries` times within the operation, quarantine it. A page that
    /// keeps detecting after successful-looking recoveries (a sticky
    /// misdirected read: the media is fine, the device path is broken) must
    /// not be retried forever.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] if the page was, or has just been, quarantined.
    pub fn incident(
        &mut self,
        fs: &mut DaxFs,
        sys: &mut System,
        seen: &mut Incidents,
        err: CorruptionDetected,
    ) -> Result<(), Poisoned> {
        let page = err.line.page();
        let n = match seen.0.iter_mut().find(|(p, _)| *p == page) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                seen.0.push((page, 1));
                1
            }
        };
        if n > self.max_retries {
            return Err(self.quarantine_page(sys, page));
        }
        self.handle(fs, sys, err)
    }

    /// The loop both [`Self::read`] and [`Self::write`] are: re-issue
    /// `access` until it succeeds, routing every corruption it surfaces
    /// through [`Self::incident`].
    fn retrying(
        &mut self,
        fs: &mut DaxFs,
        sys: &mut System,
        mut access: impl FnMut(&mut System) -> Result<(), CorruptionDetected>,
    ) -> Result<(), Poisoned> {
        let mut seen = Incidents::default();
        while let Err(e) = access(sys) {
            self.incident(fs, sys, &mut seen, e)?;
        }
        Ok(())
    }

    /// Orchestrated read: like [`FileHandle::read`], but corruption is
    /// transparently recovered and the read re-issued (see
    /// [`Self::incident`] for the retry bound).
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] when the range touches a quarantined page —
    /// degraded mode fails closed, it never returns made-up bytes.
    pub fn read(
        &mut self,
        fs: &mut DaxFs,
        sys: &mut System,
        file: &FileHandle,
        core: usize,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), Poisoned> {
        self.check_range(file, offset, buf.len())?;
        self.retrying(fs, sys, |sys| file.read(sys, core, offset, buf))
    }

    /// Orchestrated write: poisoned pages reject writes (use
    /// [`Self::rewrite_page`] to clear poison); corruption surfaced by
    /// write-allocate fills is recovered like a read.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] when the range touches a quarantined page.
    pub fn write(
        &mut self,
        fs: &mut DaxFs,
        sys: &mut System,
        file: &FileHandle,
        core: usize,
        offset: u64,
        data: &[u8],
    ) -> Result<(), Poisoned> {
        self.check_range(file, offset, data.len())?;
        self.retrying(fs, sys, |sys| file.write(sys, core, offset, data))
    }

    /// Clear a page's poison with a verified full-page rewrite: write the
    /// new content through the firmware, confirm it reached the media (a
    /// still-active sticky fault keeps the page quarantined), rebuild the
    /// page's checksums and parity from media, and drop every stale cached
    /// copy (data hierarchy, controller caches, LLC redundancy partition).
    ///
    /// Also usable on healthy pages as a redundancy-rebuilding page write.
    ///
    /// # Errors
    ///
    /// Returns [`Poisoned`] if the rewrite did not reach the media — the
    /// page stays quarantined until the underlying fault is cleared
    /// (`Memory::disarm_fault`, modelling device replacement).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page or `n` is out of range.
    pub fn rewrite_page(
        &mut self,
        _fs: &mut DaxFs,
        sys: &mut System,
        file: &FileHandle,
        n: u64,
        data: &[u8],
    ) -> Result<(), Poisoned> {
        assert_eq!(data.len(), PAGE, "rewrite must cover the whole page");
        let page = file.page(n);
        // Settle all dirty state so the media-level redundancy rebuild below
        // sees ground truth, then drop the page's (stale or poisoned) lines.
        sys.flush();
        sys.invalidate_page(page);
        let mem = sys.memory_mut();
        for (i, line) in data.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
            mem.write_line(page.line(i), line);
        }
        // Acceptance test: did the rewrite actually reach the media?
        let Ok(media) = gather_page(page, peek(mem));
        if media[..] != *data {
            if !self.is_poisoned(page) {
                self.quarantine(sys, page);
            }
            return Err(Poisoned { page });
        }
        // Rebuild this page's redundancy from media ground truth.
        let idx = file.first_data_index() + n;
        init::initialize_region(&self.layout, mem, idx..idx + 1);
        self.drop_stale_copies(sys, page);
        if let Some(pos) = self.poisoned.iter().position(|&p| p == page) {
            self.poisoned.remove(pos);
            self.persist(sys);
            self.events.push(RecoveryEvent::PoisonCleared { page });
        }
        Ok(())
    }

    /// Drop cached copies of `page` and of every redundancy line covering it
    /// (checksum lines, parity lines) from the data hierarchy and, when a
    /// controller is present, from its redundancy caches.
    fn drop_stale_copies(&self, sys: &mut System, page: PageNum) {
        sys.invalidate_page(page);
        let layout = self.layout;
        let mut red_lines: Vec<LineAddr> = Vec::new();
        for i in 0..LINES_PER_PAGE {
            let line = page.line(i);
            red_lines.push(layout.cl_csum_loc(line).0);
            red_lines.push(layout.parity_line_of(line));
        }
        red_lines.push(layout.page_csum_loc(page).0);
        red_lines.sort_unstable_by_key(|l| l.0);
        red_lines.dedup();
        // Data hierarchy: software schemes cache checksum/parity lines as
        // ordinary data. Invalidate the whole holding pages (coarse, safe).
        let mut red_pages: Vec<PageNum> = red_lines.iter().map(|l| l.page()).collect();
        red_pages.sort_unstable_by_key(|p| p.0);
        red_pages.dedup();
        for p in red_pages {
            sys.invalidate_page(p);
        }
        // Controller redundancy caches.
        sys.with_hooks_env(|hooks, env| {
            if let Some(ctrl) = hooks.as_any_mut().downcast_mut::<TvarakController>() {
                for line in &red_lines {
                    ctrl.drop_cached_red(*line, env);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::config::SystemConfig;
    use memsim::engine::{NullHooks, System};
    use memsim::FirmwareFault;
    use tvarak::controller::{TvarakConfig, TvarakController};

    fn tvarak_setup(pages: u64) -> (System, DaxFs, RecoveryOrchestrator, FileHandle) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, pages);
        let ctrl = TvarakController::new(
            TvarakConfig::default(),
            layout,
            cfg.llc_banks,
            cfg.controller.cache_bytes,
            cfg.controller.cache_ways,
        );
        let mut sys = System::new(cfg, Box::new(ctrl));
        let mut fs = DaxFs::new(layout, &mut sys);
        let orch =
            RecoveryOrchestrator::new(&mut fs, &mut sys, ScrubGranularity::CacheLine, 3).unwrap();
        let f = fs.create(&mut sys, 4 * 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        (sys, fs, orch, f)
    }

    fn sw_setup(pages: u64) -> (System, DaxFs, RecoveryOrchestrator, FileHandle) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, pages);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let mut fs = DaxFs::new(layout, &mut sys);
        let orch =
            RecoveryOrchestrator::new(&mut fs, &mut sys, ScrubGranularity::CacheLine, 3).unwrap();
        let f = fs.create(&mut sys, 4 * 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        (sys, fs, orch, f)
    }

    #[test]
    fn read_transparently_recovers_lost_write() {
        let (mut sys, mut fs, mut orch, f) = tvarak_setup(16);
        f.write(&mut sys, 0, 0, &[0x11u8; 64]).unwrap();
        sys.flush();
        let line = f.addr(0).line();
        sys.memory_mut().arm_fault(line, FirmwareFault::LostWrite);
        f.write(&mut sys, 0, 0, &[0x22u8; 64]).unwrap();
        sys.flush();
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x22u8; 64], "read returns the acknowledged data");
        assert_eq!(orch.recoveries(), 1);
        assert_eq!(orch.quarantines(), 0);
        assert!(matches!(orch.events()[0], RecoveryEvent::Detected { .. }));
        assert!(matches!(
            orch.events()[1],
            RecoveryEvent::Recovered { attempts: 1, .. }
        ));
    }

    #[test]
    fn sw_recovery_without_controller() {
        let (mut sys, mut fs, mut orch, f) = sw_setup(16);
        // Software design: maintain CL checksums + parity functionally.
        f.write(&mut sys, 0, 0, &[0x55u8; 64]).unwrap();
        sys.flush();
        let idx = f.first_data_index();
        init::initialize_region(fs.layout(), sys.memory_mut(), idx..idx + f.pages());
        // Silent media corruption, then detection via checksum mismatch is
        // the scrubber's job; here we hand the orchestrator the finding.
        let line = f.addr(0).line();
        sys.memory_mut().poke_line(line, &[0x66u8; 64]);
        sys.invalidate_page(line.page());
        orch.handle(&mut fs, &mut sys, CorruptionDetected { line })
            .unwrap();
        let mut buf = [0u8; 64];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x55u8; 64], "software recovery restored the line");
        assert_eq!(orch.recoveries(), 1);
    }

    /// The hardware and software recoveries are one routine with two
    /// redundancy readers: on the same corrupted page they must leave
    /// byte-identical media and both count the recovery.
    #[test]
    fn sw_and_controller_recovery_repair_identically() {
        let mut repaired = Vec::new();
        for (hardware, (mut sys, mut fs, orch, f)) in [(true, tvarak_setup(16)), (false, sw_setup(16))] {
            for i in 0..4 * LINES_PER_PAGE as u64 {
                f.write(&mut sys, 0, i * 64, &[i as u8 ^ 0x5a; 64]).unwrap();
            }
            sys.flush();
            let idx = f.first_data_index();
            init::initialize_region(fs.layout(), sys.memory_mut(), idx..idx + f.pages());
            let page = f.page(2);
            let Ok(original) = gather_page(page, peek(sys.memory()));
            sys.memory_mut().poke_line(page.line(9), &[0x66u8; 64]);
            sys.memory_mut().poke_line(page.line(40), &[0x77u8; 64]);
            sys.invalidate_page(page);
            if hardware {
                fs.recover_page(&mut sys, page).unwrap();
            } else {
                orch.recover_sw(&mut sys, page).unwrap();
            }
            assert_eq!(sys.stats().counters.pages_recovered, 1, "hardware: {hardware}");
            let Ok(media) = gather_page(page, peek(sys.memory()));
            assert!(media == original, "hardware: {hardware}: repair restores the page");
            repaired.push(media);
        }
        assert!(repaired[0] == repaired[1]);
    }

    #[test]
    fn sticky_fault_quarantines_and_rest_of_file_serves() {
        let (mut sys, mut fs, mut orch, f) = tvarak_setup(16);
        f.write(&mut sys, 0, 0, &[0x11u8; 64]).unwrap();
        f.write(&mut sys, 0, 4096, &[0x44u8; 64]).unwrap();
        sys.flush();
        let line = f.addr(0).line();
        // Corrupt the media and wedge the line: repair writes are dropped.
        sys.memory_mut().poke_line(line, &[0xffu8; 64]);
        sys.memory_mut().arm_fault(line, FirmwareFault::StickyLostWrite);
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        let err = orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).unwrap_err();
        assert_eq!(err.page, line.page());
        assert!(orch.is_poisoned(line.page()));
        // Degraded mode: the poisoned page fails closed...
        assert!(orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).is_err());
        // ...while the rest of the file keeps serving.
        orch.read(&mut fs, &mut sys, &f, 0, 4096, &mut buf).unwrap();
        assert_eq!(buf, [0x44u8; 64]);
    }

    #[test]
    fn rewrite_clears_poison_once_fault_is_gone() {
        let (mut sys, mut fs, mut orch, f) = tvarak_setup(16);
        f.write(&mut sys, 0, 0, &[0x11u8; 64]).unwrap();
        sys.flush();
        let line = f.addr(0).line();
        sys.memory_mut().poke_line(line, &[0xffu8; 64]);
        sys.memory_mut().arm_fault(line, FirmwareFault::StickyLostWrite);
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        assert!(orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).is_err());
        assert!(orch.is_poisoned(line.page()));
        // Rewrite while the sticky fault is live: must NOT clear poison.
        let fresh = vec![0xabu8; PAGE];
        assert!(orch.rewrite_page(&mut fs, &mut sys, &f, 0, &fresh).is_err());
        assert!(orch.is_poisoned(line.page()));
        // Device replaced: fault disarmed, rewrite verifies, poison clears.
        sys.memory_mut().disarm_fault(line);
        orch.rewrite_page(&mut fs, &mut sys, &f, 0, &fresh).unwrap();
        assert!(!orch.is_poisoned(line.page()));
        orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0xabu8; 64]);
        // Redundancy was rebuilt: scrubs stay clean.
        sys.flush();
        assert!(fs.scrub(&sys, &f, ScrubGranularity::CacheLine).is_empty());
        assert!(fs.scrub_parity(&sys, &f).is_empty());
        assert!(orch
            .events()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::PoisonCleared { .. })));
    }

    #[test]
    fn poison_list_survives_reload() {
        let (mut sys, mut fs, mut orch, f) = tvarak_setup(16);
        f.write(&mut sys, 0, 0, &[0x11u8; 64]).unwrap();
        sys.flush();
        let line = f.addr(0).line();
        sys.memory_mut().poke_line(line, &[0xffu8; 64]);
        sys.memory_mut().arm_fault(line, FirmwareFault::StickyLostWrite);
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        assert!(orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).is_err());
        let store = *orch.store();
        drop(orch);
        // "Restart": rebuild from the persistent store.
        let orch2 =
            RecoveryOrchestrator::reload(&fs, &sys, store, ScrubGranularity::CacheLine, 3);
        assert_eq!(orch2.poisoned_pages(), &[line.page()]);
    }

    #[test]
    fn sticky_misdirected_read_quarantines_despite_clean_media() {
        let (mut sys, mut fs, mut orch, f) = tvarak_setup(16);
        f.write(&mut sys, 0, 0, &[0x11u8; 64]).unwrap();
        f.write(&mut sys, 0, 64, &[0x22u8; 64]).unwrap();
        sys.flush();
        let a = f.addr(0).line();
        let b = f.addr(64).line();
        // Media stays correct; the device path returns the wrong line.
        sys.memory_mut()
            .arm_fault(a, FirmwareFault::StickyMisdirectedRead { actual: b });
        sys.invalidate_page(a.page());
        let mut buf = [0u8; 64];
        let err = orch.read(&mut fs, &mut sys, &f, 0, 0, &mut buf).unwrap_err();
        assert_eq!(err.page, a.page(), "broken device path must quarantine");
        assert!(orch.is_poisoned(a.page()));
    }
}
