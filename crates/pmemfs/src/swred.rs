//! The software redundancy baselines of the paper's evaluation, run at
//! transaction commit (the *transaction boundary*, "TxB"), plus Vilamb's
//! asynchronous epoch:
//!
//! - [`SwScheme::TxbObject`] (Pangolin-like): per-object checksums — the
//!   committed lines are re-read and checksummed individually, and parity is
//!   *recomputed* per line by reading the stripe's sibling lines (in-place
//!   updates forfeit data-diff parity updates, §IV).
//! - [`SwScheme::TxbPage`] (Mojim/HotPot-like): per-page checksums — every
//!   dirty page is read in full and checksummed, and parity is recomputed at
//!   page granularity by reading the sibling pages.
//! - [`SwScheme::Vilamb`]: TxB-Page's refresh, deferred to the close of an
//!   epoch of transactions.
//!
//! Neither scheme verifies application reads. All checksum/parity work runs
//! on the cores through the normal cache hierarchy — exactly the software
//! cost the paper measures against TVARAK's offload.

use memsim::addr::{nvm_page, LineAddr, PageNum, PhysAddr, CACHE_LINE, LINES_PER_PAGE};
use memsim::engine::{CorruptionDetected, System};
use std::collections::BTreeSet;
use tvarak::checksum::{line_checksum, page_checksum};
use tvarak::layout::{gather_page, read_charged, NvmLayout};

/// Which software redundancy scheme runs at transaction commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwScheme {
    /// No software redundancy (used under Baseline and TVARAK designs).
    #[default]
    None,
    /// Pangolin-like object-granular checksums + per-line parity recompute.
    TxbObject,
    /// Mojim/HotPot-like page-granular checksums + per-page parity recompute.
    TxbPage,
    /// Vilamb-like asynchronous redundancy (Table I): dirty pages are
    /// tracked at commit but checksums/parity are refreshed only every
    /// `epoch_txs` transactions, batching repeated writes to the same page —
    /// at the cost of a vulnerability window in which silent corruption of
    /// freshly written data goes undetected.
    Vilamb {
        /// Transactions per redundancy-refresh epoch.
        epoch_txs: u32,
    },
}

/// Cycles to checksum one 64 B line in software (hardware CRC32 ≈ 8 B/cycle).
const CSUM_CYCLES_PER_LINE: u64 = 8;
/// Cycles to XOR one 64 B line in software (SIMD ≈ 16 B/cycle).
const XOR_CYCLES_PER_LINE: u64 = 4;

/// A transaction manager's software redundancy: the scheme, the pool
/// layout it maintains, and Vilamb's epoch state.
#[derive(Debug)]
pub(crate) struct SwRedundancy {
    pub(crate) scheme: SwScheme,
    layout: NvmLayout,
    /// Vilamb state: pages dirtied since the last epoch refresh.
    pub(crate) vilamb_dirty: BTreeSet<PageNum>,
    /// Vilamb state: transactions since the last epoch refresh.
    pub(crate) vilamb_txs: u32,
}

impl SwRedundancy {
    pub(crate) fn new(scheme: SwScheme, layout: NvmLayout) -> Self {
        SwRedundancy {
            scheme,
            layout,
            vilamb_dirty: BTreeSet::new(),
            vilamb_txs: 0,
        }
    }

    /// Run the scheme at the commit of a transaction on `core` that wrote
    /// `dirty`.
    pub(crate) fn on_commit(
        &mut self,
        sys: &mut System,
        core: usize,
        dirty: &[(PhysAddr, u32)],
    ) -> Result<(), CorruptionDetected> {
        let layout = self.layout;
        if let SwScheme::Vilamb { epoch_txs } = self.scheme {
            // Asynchronous: only record dirty pages now (cheap software
            // dirty tracking); refresh when the epoch closes.
            let lines = dirty_lines(dirty).into_iter();
            let pages = lines.filter(|&l| layout.is_data_line(l)).map(|l| l.page());
            self.vilamb_dirty.extend(pages);
            sys.instr(core, 10); // dirty-bit bookkeeping
            self.vilamb_txs += 1;
            if self.vilamb_txs >= epoch_txs {
                return self.vilamb_flush(sys, core);
            }
            return Ok(());
        }
        sw_redundancy_update(sys, core, self.scheme, &layout, dirty)
    }

    /// Close the current Vilamb epoch (see `TxManager::vilamb_flush`).
    pub(crate) fn vilamb_flush(
        &mut self,
        sys: &mut System,
        core: usize,
    ) -> Result<(), CorruptionDetected> {
        if self.vilamb_dirty.is_empty() {
            return Ok(());
        }
        let pages = std::mem::take(&mut self.vilamb_dirty);
        self.vilamb_txs = 0;
        txb_page_over(sys, core, &self.layout, &pages)
    }

    /// Fail with a lost line of the stripe siblings of one of `pages`
    /// before a transaction writes to them. A scheme recomputes parity from
    /// the siblings after its in-place writes, and a stripe whose data ran
    /// ahead of its parity cannot reconstruct a lost member; failing first
    /// lets the lost page be repaired while the stripe is still whole, and
    /// the operation re-issued.
    pub(crate) fn check_stripes(
        &self,
        sys: &System,
        pages: impl IntoIterator<Item = PageNum>,
    ) -> Result<(), CorruptionDetected> {
        if self.scheme == SwScheme::None || !sys.memory().any_lost() {
            return Ok(());
        }
        let geom = self.layout.geometry();
        for page in pages
            .into_iter()
            .filter(|p| self.layout.is_data_line(p.line(0)))
        {
            let mut siblings = geom.siblings_of(page.nvm_index()).map(nvm_page);
            if let Some(lost) = siblings.find(|&p| sys.memory().page_lost(p)) {
                return Err(CorruptionDetected { line: lost.line(0) });
            }
        }
        Ok(())
    }
}

/// Run a software redundancy scheme over explicitly written ranges.
///
/// [`Tx::commit`](crate::tx::Tx::commit) runs this for every application,
/// the non-transactional DAX ones (fio, stream) included: they commit each
/// write through a `Tx`, which is when they "inform the interposing library
/// after completing a write" (§IV).
///
/// # Errors
///
/// Propagates [`CorruptionDetected`] from verified fills (only possible when
/// combined with a hardware controller, which the paper's software designs
/// are not).
fn sw_redundancy_update(
    sys: &mut System,
    core: usize,
    scheme: SwScheme,
    layout: &NvmLayout,
    ranges: &[(PhysAddr, u32)],
) -> Result<(), CorruptionDetected> {
    // Built only for the schemes that read it.
    let lines = || dirty_lines(ranges);
    match scheme {
        SwScheme::None => Ok(()),
        SwScheme::TxbObject => txb_object(sys, core, layout, &lines()),
        SwScheme::TxbPage => txb_page(sys, core, layout, &lines()),
        // Vilamb needs manager state (epoch tracking); direct library
        // notifications without a TxManager contribute nothing until the
        // next epoch refresh, which is exactly its vulnerability window.
        SwScheme::Vilamb { .. } => Ok(()),
    }
}

/// The lines `ranges` cover, in address order.
fn dirty_lines(ranges: &[(PhysAddr, u32)]) -> BTreeSet<LineAddr> {
    let mut lines = BTreeSet::new();
    for &(addr, len) in ranges {
        let first = addr.line().0;
        let last = PhysAddr(addr.0 + len.max(1) as u64 - 1).line().0;
        lines.extend((first..=last).map(LineAddr));
    }
    lines
}

/// The line source of a software parity recompute: each sibling line read
/// through the hierarchy on `core`, plus the cycles to XOR it in.
fn sibling_src(
    sys: &mut System,
    core: usize,
) -> impl FnMut(LineAddr) -> Result<[u8; CACHE_LINE], CorruptionDetected> + '_ {
    move |sib| {
        let s = read_charged(sys, core, sib)?;
        sys.compute(core, XOR_CYCLES_PER_LINE);
        Ok(s)
    }
}

/// Recompute and write the parity line covering `line`, whose current
/// content is `data`, by reading the stripe's sibling lines (in-place
/// updates leave no data diff to patch parity with).
fn recompute_parity(
    sys: &mut System,
    core: usize,
    layout: &NvmLayout,
    line: LineAddr,
    data: [u8; CACHE_LINE],
) -> Result<(), CorruptionDetected> {
    let par = layout.xor_siblings(line, data, sibling_src(sys, core))?;
    sys.write(core, layout.parity_line_of(line).base(), &par)
}

/// Pangolin-like: checksum each dirty line; recompute its parity line by
/// reading the stripe's sibling lines.
fn txb_object(
    sys: &mut System,
    core: usize,
    layout: &NvmLayout,
    dirty: &BTreeSet<LineAddr>,
) -> Result<(), CorruptionDetected> {
    for &line in dirty {
        if !layout.is_data_line(line) {
            continue;
        }
        let data = read_charged(sys, core, line)?;
        sys.compute(core, CSUM_CYCLES_PER_LINE);
        let csum = line_checksum(&data);
        let (cs_line, slot) = layout.cl_csum_loc(line);
        let cs_addr = PhysAddr(cs_line.base().0 + slot as u64 * 4);
        sys.write(core, cs_addr, &csum.to_le_bytes())?;
        recompute_parity(sys, core, layout, line, data)?;
    }
    Ok(())
}

/// Mojim/HotPot-like: checksum each dirty page in full; recompute its
/// stripe's parity at page granularity by reading the sibling pages.
fn txb_page(
    sys: &mut System,
    core: usize,
    layout: &NvmLayout,
    dirty: &BTreeSet<LineAddr>,
) -> Result<(), CorruptionDetected> {
    let pages: BTreeSet<_> = dirty
        .iter()
        .filter(|l| layout.is_data_line(**l))
        .map(|l| l.page())
        .collect();
    txb_page_over(sys, core, layout, &pages)
}

/// Page-granular checksum + parity refresh over an explicit page set (used
/// by TxB-Page at commit and by Vilamb at epoch close).
fn txb_page_over(
    sys: &mut System,
    core: usize,
    layout: &NvmLayout,
    pages: &BTreeSet<memsim::addr::PageNum>,
) -> Result<(), CorruptionDetected> {
    for &page in pages {
        // Read the whole page and checksum it.
        let bytes = gather_page(page, |l| read_charged(sys, core, l))?;
        sys.compute(core, CSUM_CYCLES_PER_LINE * LINES_PER_PAGE as u64);
        let csum = page_checksum(&bytes);
        let (cs_line, slot) = layout.page_csum_loc(page);
        let cs_addr = PhysAddr(cs_line.base().0 + slot as u64 * 4);
        sys.write(core, cs_addr, &csum.to_le_bytes())?;
        // Recompute the stripe's parity page line by line, as
        // `recompute_parity` would, with the stripe resolved once per page.
        let stripe = layout.page_stripe(page);
        for (i, data) in bytes.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
            let par = stripe.xor_siblings(i, *data, sibling_src(sys, core))?;
            sys.write(core, stripe.parity_line(i).base(), &par)?;
        }
    }
    Ok(())
}
