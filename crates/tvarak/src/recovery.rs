//! Parity-based recovery from detected corruption.
//!
//! When verification fails, TVARAK raises an interrupt; the file system then
//! reconstructs the corrupted page from the cross-DIMM parity (§III-A, §II-A).
//! Reconstruction XORs the stripe's parity line with the sibling data lines
//! and validates the result against the stored system-checksum before
//! repairing the media.

use crate::controller::{TvarakController, Urgency};
use crate::layout::{gather_page, NvmLayout};
use crate::scrub::ScrubGranularity;
use memsim::addr::{LineAddr, PageNum, CACHE_LINE, LINES_PER_PAGE};
use memsim::engine::{HookEnv, System};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;

/// Parity reconstruction produced data that still fails checksum
/// verification (e.g. multiple corruptions in one stripe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryFailed {
    /// The page that could not be recovered.
    pub page: PageNum,
}

impl fmt::Display for RecoveryFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parity reconstruction of {:?} failed verification",
            self.page
        )
    }
}

impl Error for RecoveryFailed {}

/// The file system's repair of `page` after a detection, on core 0: drop
/// the page's cached copies, reconstruct every line from parity + sibling
/// data lines, verify the result against the checksums stored at
/// `granularity`, and repair the media.
///
/// Sibling data lines are read from NVM as redundancy traffic. The
/// redundancy lines themselves (parity, then after all 64 reconstructions
/// the checksum lines) are read through the controller's redundancy caches
/// when a [`TvarakController`] is installed, and straight from NVM with
/// [`HookEnv::nvm_read_red`] otherwise (the software designs).
///
/// # Errors
///
/// Returns [`RecoveryFailed`] if the reconstructed content does not match
/// the stored checksums (more than one corruption in the stripe, or
/// corrupted redundancy).
pub fn recover_page(
    sys: &mut System,
    layout: &NvmLayout,
    granularity: ScrubGranularity,
    page: PageNum,
) -> Result<(), RecoveryFailed> {
    sys.invalidate_page(page);
    sys.with_hooks_env(|hooks, env| {
        let mut ctrl = hooks.as_any_mut().downcast_mut::<TvarakController>();
        let mut read_red = |l, env: &mut HookEnv<'_>| match ctrl.as_deref_mut() {
            Some(ctrl) => ctrl.read_red_line(0, l, Urgency::Stall, env),
            None => env.nvm_read_red(0, l, true),
        };
        let Ok(bytes) = gather_page(page, |line| {
            let parity = read_red(layout.parity_line_of(line), env);
            layout.xor_siblings(line, parity, |sib| {
                Ok::<_, Infallible>(env.nvm_read_red(0, sib, true))
            })
        });
        let stored = |l| Ok::<_, Infallible>(read_red(l, env));
        if layout.page_matches_csums(page, granularity, &bytes, stored) != Ok(true) {
            return Err(RecoveryFailed { page });
        }
        for (o, rec) in bytes.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
            env.nvm_write_data(0, page.line(o), rec);
        }
        env.counters().pages_recovered += 1;
        Ok(())
    })
}

/// Drop cached copies of `page` and of every redundancy line covering it
/// (checksum lines, parity lines) from the data hierarchy and, when a
/// [`TvarakController`] is installed, from its redundancy caches. The
/// repairs that rewrite redundancy on the media (a checksum rebuild, a
/// stripe re-silver, a page rewrite) call this so no stale copy outlives
/// them.
pub fn drop_stale_copies(sys: &mut System, layout: &NvmLayout, page: PageNum) {
    sys.invalidate_page(page);
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

#[cfg(test)]
mod tests {
    use super::recover_page;
    use crate::controller::{TvarakConfig, TvarakController};
    use crate::init::initialize_region;
    use crate::layout::NvmLayout;
    use memsim::addr::PhysAddr;
    use memsim::config::SystemConfig;
    use memsim::engine::System;

    /// The checksum granularity of the default controller.
    fn granularity() -> crate::scrub::ScrubGranularity {
        TvarakConfig::default().checksum_granularity()
    }

    fn setup(data_pages: u64) -> (System, NvmLayout) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, data_pages);
        let mut ctrl = TvarakController::new(
            TvarakConfig::default(),
            layout,
            cfg.llc_banks,
            cfg.controller.cache_bytes,
            cfg.controller.cache_ways,
        );
        ctrl.map_range(0, data_pages);
        let mut sys = System::new(cfg, Box::new(ctrl));
        initialize_region(&layout, sys.memory_mut(), 0..data_pages);
        (sys, layout)
    }

    #[test]
    fn end_to_end_lost_write_recovery() {
        let (mut sys, layout) = setup(8);
        let addr = PhysAddr(layout.nth_data_page(0).base().0);
        let line = addr.line();
        sys.write(0, addr, &[1u8; 64]).unwrap();
        sys.flush();
        sys.memory_mut()
            .arm_fault(line, memsim::FirmwareFault::LostWrite);
        sys.write(0, addr, &[2u8; 64]).unwrap();
        sys.flush();
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        let err = sys.read(0, addr, &mut buf).unwrap_err();
        assert_eq!(err.line, line);
        // File-system recovery path.
        recover_page(&mut sys, &layout, granularity(), line.page()).expect("recovery succeeds");
        // Retry now sees the acknowledged (new) data.
        sys.read(0, addr, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
        assert_eq!(sys.stats().counters.pages_recovered, 1);
    }

    #[test]
    fn recovery_of_misdirected_write_victim() {
        let (mut sys, layout) = setup(8);
        // Pages in *different* stripes: a misdirected write corrupts two
        // locations (intended stale + victim clobbered); with one parity page
        // per stripe both are recoverable only if they sit in different
        // stripes. (See `same_stripe_misdirect_is_unrecoverable`.)
        let a = PhysAddr(layout.nth_data_page(0).base().0);
        let b = PhysAddr(layout.nth_data_page(3).base().0);
        assert_ne!(
            layout.geometry().stripe_of(a.line().page().nvm_index()),
            layout.geometry().stripe_of(b.line().page().nvm_index())
        );
        sys.write(0, a, &[0xaau8; 64]).unwrap();
        sys.write(0, b, &[0xbbu8; 64]).unwrap();
        sys.flush();
        sys.memory_mut().arm_fault(
            a.line(),
            memsim::FirmwareFault::MisdirectedWrite { actual: b.line() },
        );
        sys.write(0, a, &[0xa1u8; 64]).unwrap();
        sys.flush();
        // Recover both pages.
        for page in [a.line().page(), b.line().page()] {
            recover_page(&mut sys, &layout, granularity(), page).expect("recoverable");
        }
        let mut buf = [0u8; 64];
        sys.read(0, a, &mut buf).unwrap();
        assert_eq!(buf, [0xa1u8; 64], "intended write restored");
        sys.read(0, b, &mut buf).unwrap();
        assert_eq!(buf, [0xbbu8; 64], "victim restored");
    }

    #[test]
    fn same_stripe_misdirect_is_unrecoverable() {
        // A misdirected write whose victim shares the stripe leaves two
        // inconsistent locations under one parity page — detection still
        // works, recovery correctly reports failure.
        let (mut sys, layout) = setup(8);
        let a = PhysAddr(layout.nth_data_page(0).base().0);
        let b = PhysAddr(layout.nth_data_page(1).base().0);
        assert_eq!(
            layout.geometry().stripe_of(a.line().page().nvm_index()),
            layout.geometry().stripe_of(b.line().page().nvm_index())
        );
        sys.write(0, a, &[0xaau8; 64]).unwrap();
        sys.write(0, b, &[0xbbu8; 64]).unwrap();
        sys.flush();
        sys.memory_mut().arm_fault(
            a.line(),
            memsim::FirmwareFault::MisdirectedWrite { actual: b.line() },
        );
        sys.write(0, a, &[0xa1u8; 64]).unwrap();
        sys.flush();
        sys.invalidate_page(a.line().page());
        let mut buf = [0u8; 64];
        assert!(sys.read(0, a, &mut buf).is_err(), "corruption detected");
        assert!(recover_page(&mut sys, &layout, granularity(), a.line().page()).is_err());
    }

    #[test]
    fn double_corruption_in_stripe_fails_recovery() {
        let (mut sys, layout) = setup(8);
        let line = layout.nth_data_page(0).line(0);
        let addr = PhysAddr(line.base().0);
        sys.write(0, addr, &[5u8; 64]).unwrap();
        sys.flush();
        // Corrupt the data line AND its parity line directly on media.
        sys.memory_mut().poke_line(line, &[6u8; 64]);
        let par = layout.parity_line_of(line);
        sys.memory_mut().poke_line(par, &[7u8; 64]);
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        assert!(sys.read(0, addr, &mut buf).is_err());
        assert!(
            recover_page(&mut sys, &layout, granularity(), line.page()).is_err(),
            "unrecoverable corruption must be reported"
        );
    }
}
