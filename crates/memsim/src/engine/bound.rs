//! The bound-weave glue: everything the engine does for [`crate::weave`]'s
//! two-thread execution. A session's bound phase keeps the private caches
//! on the application thread and moves the uncore and the hooks onto the
//! weave worker, which replays the shared half of each access.
//!
//! Outside this file the weave is only the `bound`/`back_invalidated`
//! fields of [`System`], the `assert_unbound` calls, and the branches marked
//! `// weave-branch` in `ensure_line`, `upgrade_for_write`,
//! `priv_invalidate`, `spill_to_llc` and `clwb`. Retiring the weave deletes
//! this file and those branches.

use super::{CrashState, NullHooks, System, Uncore};
use crate::addr::{LineAddr, CACHE_LINE};
use crate::mem::Memory;
use crate::stats::Counters;

impl System {
    /// Assert that no bound-weave session is active: during the bound phase
    /// the LLC, memory, DIMMs, and hooks live on the weave worker, so any
    /// path that needs them whole must not run (see [`crate::weave`]).
    #[inline]
    pub(super) fn assert_unbound(&self, what: &str) {
        assert!(
            self.bound.is_none(),
            "System::{what} is not available during the bound phase of a \
             bound-weave session"
        );
    }

    /// Bound-phase fill: sequential execution would walk the shared LLC and
    /// (on a miss) the NVM here. Instead, predict the data the walk would
    /// return — the dirty-line overlay ∪ the media snapshot is exactly the
    /// LLC-or-media content for every line not privately dirty elsewhere —
    /// and emit a [`crate::weave::Event::Fill`] carrying the prediction for
    /// the weave worker to verify against the real walk.
    ///
    /// The prediction (and the granted exclusivity) is wrong exactly when
    /// some *other* core still caches the line privately, so probe every
    /// other core's L1/L2 first (probes mutate nothing) and flag divergence
    /// on any foreign copy. Bound order equals sequential order, so the
    /// probe sees precisely the private state sequential execution would
    /// consult through the directory.
    pub(super) fn bound_fill(
        &mut self,
        core: usize,
        line: LineAddr,
        for_write: bool,
    ) -> [u8; CACHE_LINE] {
        let foreign = self.cores.iter().enumerate().any(|(other, c)| {
            other != core
                && (c.l1d.probe(line, 0..self.cfg.l1d.ways).is_some()
                    || c.l2.probe(line, 0..self.cfg.l2.ways).is_some())
        });
        let ts = self.uncore.clocks[core];
        let b = self.bound.as_mut().expect("bound_fill outside bound phase");
        if foreign {
            b.flag_divergence(crate::weave::DivergenceKind::ForeignPrivateCopy);
        }
        let predicted = b.predict(line);
        b.send(crate::weave::Event::Fill {
            core,
            line,
            for_write,
            ts,
            predicted,
        });
        predicted
    }

    /// The shared half of a bound-phase [`Self::clwb`], replayed on the
    /// weave worker: locate the line in the LLC, then finish as
    /// [`Self::clwb_slot`].
    fn clwb_shared(
        &mut self,
        core: usize,
        line: LineAddr,
        private_newest: Option<[u8; CACHE_LINE]>,
    ) {
        let bank = self.bank_of(line);
        let ways = self.data_ways();
        let found = self.uncore.llc[bank].lookup_idx(line, ways);
        self.clwb_slot(core, line, bank, found, private_newest);
    }

    /// Enter the bound phase of a bound-weave session (see [`crate::weave`]
    /// for the architecture and the determinism argument).
    ///
    /// The uncore — LLC banks, memory devices, DIMM bandwidth model, crash
    /// window, and the counters — and the redundancy hooks move by value
    /// onto a freshly spawned weave worker as a skeleton `System` (no cores:
    /// its `priv_invalidate` records a divergence instead). This system
    /// keeps the private caches and runs the application; every shared
    /// access is predicted from a dirty-line overlay ∪ media snapshot and
    /// pushed as an event onto the worker's ring, which replays, verifies,
    /// and times the events in emission order.
    ///
    /// Call [`Self::weave_end`] to close the session and fold the shared
    /// state (and corrected clocks) back in.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active, or inside
    /// [`Self::fast_forward`]: functional accesses would reach the
    /// placeholder `Memory` left on this side.
    pub fn weave_begin(&mut self) -> crate::weave::WeaveSession {
        assert!(self.bound.is_none(), "bound-weave session already active");
        assert!(
            !self.functional,
            "cannot begin a bound-weave session while fast-forwarding"
        );
        // Predict fills from LLC-or-media content: for every line not
        // privately dirty, a clean LLC copy equals the media and a clean
        // private copy equals the LLC copy, so seeding the overlay with the
        // *dirty* lines only (LLC data ways, then per-core L2 then L1 so
        // newer levels override) makes overlay ∪ snapshot exact.
        let snapshot = self.uncore.mem.snapshot();
        let mut overlay = crate::hash::FxHashMap::default();
        let data_ways = self.data_ways();
        for bank in &self.uncore.llc {
            bank.for_each_valid(data_ways.clone(), |line, dirty, data| {
                if dirty {
                    overlay.insert(line.0, *data);
                }
            });
        }
        for core in &self.cores {
            core.l2
                .for_each_valid(0..self.cfg.l2.ways, |line, dirty, data| {
                    if dirty {
                        overlay.insert(line.0, *data);
                    }
                });
            core.l1d
                .for_each_valid(0..self.cfg.l1d.ways, |line, dirty, data| {
                    if dirty {
                        overlay.insert(line.0, *data);
                    }
                });
        }
        // This side keeps its clocks (bound-local time) and counts its own
        // private-cache events from zero; `weave_end` folds both back.
        let bound_side = Uncore {
            llc: Vec::new(),
            mem: Memory::new(self.cfg.nvm.dimms),
            clocks: self.uncore.clocks.clone(),
            dimms: Vec::new(),
            counters: Counters::default(),
            crash: CrashState::default(),
        };
        let weave_sys = System {
            cfg: self.cfg.clone(),
            cores: Vec::new(),
            uncore: std::mem::replace(&mut self.uncore, bound_side),
            hooks: std::mem::replace(&mut self.hooks, Box::new(NullHooks)),
            red_region: self.red_region,
            scrub_accounting: self.scrub_accounting,
            flush_scratch: Vec::new(),
            bound: None,
            back_invalidated: false,
            functional: false,
        };
        let (session, ctx) =
            crate::weave::WeaveSession::spawn(weave_sys, self.cfg.cores, snapshot, overlay);
        self.bound = Some(ctx);
        session
    }

    /// Record the outcome of the bound-weave configuration eligibility
    /// check in the per-cause counters. The clocked scheduler calls this
    /// once per run at *every* requested thread count (the check ignores
    /// the thread count), so the counters — and any CSV column derived from
    /// them — are identical across engine thread counts.
    pub fn note_weave_eligibility(&mut self, e: crate::weave::WeaveEligibility) {
        use crate::weave::WeaveEligibility as E;
        let c = &mut self.uncore.counters;
        match e {
            E::Eligible => c.weave_eligible_runs += 1,
            E::SwScheme => c.weave_inel_sw_scheme += 1,
            E::ScrubDaemon => c.weave_inel_scrub += 1,
            E::CrashWindow => c.weave_inel_crash += 1,
            E::ArmedFaults => c.weave_inel_faults += 1,
        }
    }

    /// Close a bound-weave session: close the ring (the worker drains it and
    /// exits), join the worker, move the shared state back into this
    /// system, correct every core clock by its final stall offset, and add
    /// the bound-side counters (private-cache hits/misses, instruction
    /// fetches) to the worker's.
    ///
    /// If the returned report says the session diverged, this system's
    /// state is unspecified beyond being safe to drop — discard it and
    /// rerun the cell on the sequential oracle.
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub fn weave_end(&mut self, session: crate::weave::WeaveSession) -> crate::weave::WeaveReport {
        self.bound.take().expect("no bound-weave session active");
        let (weave_sys, stalls, report) = session.join();
        let bound_side = std::mem::replace(&mut self.uncore, weave_sys.uncore);
        self.hooks = weave_sys.hooks;
        self.uncore.counters += bound_side.counters;
        self.uncore.clocks = bound_side.clocks;
        for (clock, stall) in self.uncore.clocks.iter_mut().zip(stalls) {
            *clock += stall;
        }
        report
    }

    /// Replay one bound-phase event on the weave side: reconstruct the true
    /// core clock from the event's bound-local timestamp plus the core's
    /// accumulated stall offset, apply the shared-state operation exactly as
    /// sequential execution would, and fold the newly charged shared cycles
    /// back into the stall offset. Returns `None` while the replay is
    /// consistent with the bound phase's predictions, or the divergence
    /// cause otherwise.
    pub(crate) fn weave_apply(
        &mut self,
        ev: crate::weave::Event,
        stall: &mut u64,
    ) -> Option<crate::weave::DivergenceKind> {
        use crate::weave::{DivergenceKind, Event};
        let (core, ts) = (ev.core(), ev.ts());
        self.uncore.clocks[core] = ts + *stall;
        let fault = match ev {
            Event::Fill {
                line,
                for_write,
                predicted,
                ..
            } => match self.llc_access(core, line, for_write) {
                Ok((data, excl)) => {
                    (data != predicted || !excl).then_some(DivergenceKind::FillMismatch)
                }
                Err(_) => Some(DivergenceKind::HookFault),
            },
            Event::Spill {
                line, data, dirty, ..
            } => {
                self.spill_to_llc_shared(core, line, &data, dirty);
                None
            }
            Event::Clwb { line, newest, .. } => {
                self.clwb_shared(core, line, newest);
                None
            }
        };
        *stall = self.uncore.clocks[core] - ts;
        if std::mem::take(&mut self.back_invalidated) && fault != Some(DivergenceKind::HookFault) {
            return Some(DivergenceKind::InclusionVictim);
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PhysAddr, LINES_PER_PAGE};
    use crate::config::SystemConfig;
    use crate::engine::tests::{nvm, sys};
    use crate::weave::DivergenceKind;

    #[test]
    #[should_panic(expected = "while fast-forwarding")]
    fn weave_begin_rejects_fast_forward() {
        let mut s = sys();
        System::fast_forward(&mut s, |s| s, |s| drop(s.weave_begin()));
    }

    /// Run `before` sequentially, then `inside` in a bound-weave session on
    /// a `cfg` system, and return the session's divergence cause.
    fn woven_divergence(
        cfg: SystemConfig,
        before: impl FnOnce(&mut System),
        inside: impl FnOnce(&mut System),
    ) -> Option<DivergenceKind> {
        let mut s = System::new(cfg, Box::new(NullHooks));
        before(&mut s);
        let session = s.weave_begin();
        inside(&mut s);
        let report = s.weave_end(session);
        assert_eq!(report.diverged, report.divergence.is_some());
        report.divergence
    }

    /// A seeded NVM line index in the first 64 pages.
    fn seeded_line(seed: u64) -> u64 {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % (64 * LINES_PER_PAGE as u64)
    }

    fn line_addr(l: u64) -> PhysAddr {
        nvm(l * CACHE_LINE as u64)
    }

    #[test]
    fn weave_flags_a_fill_of_a_line_another_core_holds() {
        for seed in 1..=4 {
            let a = line_addr(seeded_line(seed));
            let got = woven_divergence(
                SystemConfig::small(),
                |s| s.read(0, a, &mut [0u8; 8]).unwrap(),
                |s| s.read(1, a, &mut [0u8; 8]).unwrap(),
            );
            assert_eq!(got, Some(DivergenceKind::ForeignPrivateCopy), "seed {seed}");
        }
    }

    #[test]
    fn weave_flags_a_write_to_a_line_shared_before_the_session() {
        for seed in 1..=4 {
            let a = line_addr(seeded_line(seed));
            let got = woven_divergence(
                SystemConfig::small(),
                |s| {
                    // Core 1's read pulls the line from its owner, core 0,
                    // so core 0 reads it again to share it.
                    for core in [0, 1, 0] {
                        s.read(core, a, &mut [0u8; 8]).unwrap();
                    }
                },
                |s| s.write(0, a, &[7u8; 8]).unwrap(),
            );
            assert_eq!(got, Some(DivergenceKind::WriteUpgrade), "seed {seed}");
        }
    }

    /// One LLC bank of 4 sets × 8 ways (5 data ways). Core 0 holds line `v`
    /// privately; inside the session core 1 fills five more lines of `v`'s
    /// set, so the replayed fills evict `v`, the LRU way, from the LLC. The
    /// back-invalidation that inclusion then needs reaches core 0's private
    /// caches, which the weave worker does not have.
    #[test]
    fn weave_flags_an_llc_victim_still_held_privately() {
        let mut cfg = SystemConfig::small();
        cfg.llc_banks = 1;
        cfg.llc.size_bytes = 2048;
        cfg.llc.ways = 8;
        let stride = (cfg.llc.sets() * cfg.llc_banks) as u64;
        let data_ways = cfg.llc_data_ways() as u64;
        for seed in 1..=4 {
            let v = seeded_line(seed);
            let got = woven_divergence(
                cfg.clone(),
                |s| s.read(0, line_addr(v), &mut [0u8; 8]).unwrap(),
                |s| {
                    for k in 1..=data_ways {
                        s.read(1, line_addr(v + k * stride), &mut [0u8; 8]).unwrap();
                    }
                },
            );
            assert_eq!(got, Some(DivergenceKind::InclusionVictim), "seed {seed}");
        }
    }
}
