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
use memsim::addr::{LineAddr, PageNum, CACHE_LINE};
use memsim::engine::HookEnv;
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
        write!(f, "parity reconstruction of {:?} failed verification", self.page)
    }
}

impl Error for RecoveryFailed {}

/// Reconstruct every line of `page` from parity + sibling data lines, verify
/// the result against the checksums stored at `granularity`, and repair the
/// media. Sibling data lines are read from NVM as redundancy traffic;
/// `read_red` fetches the redundancy lines themselves (parity, then after
/// all 64 reconstructions the checksum lines) — the hardware controller
/// passes its cached reader, software recovery `HookEnv::nvm_read_red`.
///
/// # Errors
///
/// Returns [`RecoveryFailed`] if the reconstructed content does not match
/// the stored checksums (more than one corruption in the stripe, or
/// corrupted redundancy).
pub fn reconstruct_page(
    layout: &NvmLayout,
    granularity: ScrubGranularity,
    core: usize,
    page: PageNum,
    env: &mut HookEnv<'_>,
    mut read_red: impl FnMut(LineAddr, &mut HookEnv<'_>) -> [u8; CACHE_LINE],
) -> Result<(), RecoveryFailed> {
    let Ok(bytes) = gather_page(page, |line| {
        let parity = read_red(layout.parity_line_of(line), env);
        layout.xor_siblings(line, parity, |sib| Ok::<_, Infallible>(env.nvm_read_red(core, sib, true)))
    });
    let stored = |l| Ok::<_, Infallible>(read_red(l, env));
    if layout.page_matches_csums(page, granularity, &bytes, stored) != Ok(true) {
        return Err(RecoveryFailed { page });
    }
    for (o, rec) in bytes.as_chunks::<CACHE_LINE>().0.iter().enumerate() {
        env.nvm_write_data(core, page.line(o), rec);
    }
    env.counters().pages_recovered += 1;
    Ok(())
}

impl TvarakController {
    /// [`reconstruct_page`] at the controller's checksum granularity, its
    /// redundancy lines read through the redundancy cache hierarchy.
    ///
    /// The caller (the file system) must have dropped cached copies of the
    /// page first (see `System::invalidate_page`).
    ///
    /// # Errors
    ///
    /// See [`reconstruct_page`].
    pub fn recover_page(
        &mut self,
        core: usize,
        page: PageNum,
        env: &mut HookEnv<'_>,
    ) -> Result<(), RecoveryFailed> {
        let granularity = self.tvarak_config().checksum_granularity();
        reconstruct_page(self.layout(), granularity, core, page, env, |l, env| {
            self.read_red_line(core, l, Urgency::Stall, env)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::controller::{TvarakConfig, TvarakController};
    use crate::init::initialize_region;
    use crate::layout::NvmLayout;
    use memsim::addr::PhysAddr;
    use memsim::config::SystemConfig;
    use memsim::engine::System;

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
        sys.invalidate_page(line.page());
        let page = line.page();
        sys.with_hooks_env(|hooks, env| {
            let ctrl = hooks
                .as_any_mut()
                .downcast_mut::<TvarakController>()
                .expect("tvarak controller");
            ctrl.recover_page(0, page, env).expect("recovery succeeds");
        });
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
        sys.invalidate_page(a.line().page());
        sys.invalidate_page(b.line().page());
        // Recover both pages.
        for page in [a.line().page(), b.line().page()] {
            sys.with_hooks_env(|hooks, env| {
                let ctrl = hooks
                    .as_any_mut()
                    .downcast_mut::<TvarakController>()
                    .unwrap();
                ctrl.recover_page(0, page, env).expect("recoverable");
            });
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
        sys.invalidate_page(a.line().page());
        let page = a.line().page();
        let failed = sys.with_hooks_env(|hooks, env| {
            let ctrl = hooks
                .as_any_mut()
                .downcast_mut::<TvarakController>()
                .unwrap();
            ctrl.recover_page(0, page, env).is_err()
        });
        assert!(failed);
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
        sys.invalidate_page(line.page());
        let page = line.page();
        let failed = sys.with_hooks_env(|hooks, env| {
            let ctrl = hooks
                .as_any_mut()
                .downcast_mut::<TvarakController>()
                .unwrap();
            ctrl.recover_page(0, page, env).is_err()
        });
        assert!(failed, "unrecoverable corruption must be reported");
    }
}
