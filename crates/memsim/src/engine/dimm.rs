//! The memory side of the walk: demand reads and posted writes to DRAM and
//! the NVM DIMMs, with the redundancy hooks fired on NVM fills and
//! writebacks, and the DIMM queue model that times them.
//!
//! The queue model is [`DimmState`]: each NVM DIMM is split into one lane per
//! LLC bank (indexed `dimm * llc_banks + bank`), and each lane keeps the
//! cumulative occupancy of every access it has served. A demand read pays the
//! M/D/1 mean queue delay for the utilization that lane has accumulated so
//! far; a posted write only adds its occupancy. There is no per-request
//! horizon that an access waits behind.

use super::llc::bank_interleave;
use super::{CorruptionDetected, HookEnv, System, Uncore};
use crate::addr::{LineAddr, CACHE_LINE};
use crate::mem::Device;

/// Per-DIMM-lane bandwidth state for the utilization-based queueing model.
///
/// Every access (demand or posted) contributes its occupancy to the lane's
/// cumulative busy time; demand reads additionally pay an M/D/1-style queue
/// delay `occ * rho / (2 * (1 - rho))` derived from the utilization `rho`
/// observed so far. This smooth model captures what matters at this
/// simulator's resolution — runtime grows with total NVM traffic and
/// saturates as utilization approaches 1 — without the artificial convoys a
/// strict per-request horizon produces under deterministic round-robin
/// scheduling (real OOO cores overlap misses; real threads drift).
///
/// A DIMM's bandwidth is modeled as `weight` equal lanes, one per LLC bank
/// (see [`System`]'s `dimms` field): each lane owns `1/weight` of the DIMM's
/// bandwidth, so an access's occupancy is scaled by `weight` before it
/// accumulates into the lane's busy time. Under bank-uniform traffic each
/// lane's utilization then matches the whole-DIMM model's. The lanes were
/// introduced for a bank-sharded replay engine that is gone; they stay only
/// because collapsing them to one whole-DIMM queue moves simulated cycles,
/// which belongs with the DIMM-model calibration (ROADMAP.md). A
/// default-constructed state is a whole-DIMM model (`weight` ≤ 1 scales
/// by 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct DimmState {
    /// Cumulative scaled occupancy (cycles) of all accesses to this lane.
    busy: u64,
    /// Cumulative demand accesses (diagnostics).
    demand_count: u64,
    /// Cumulative posted accesses (diagnostics).
    posted_count: u64,
    /// Lanes per DIMM (occupancy scale factor); 0 or 1 = whole-DIMM model.
    weight: u64,
}

impl DimmState {
    /// Utilization bound: queue delays are computed as if utilization never
    /// exceeds this (runtime stretching provides the real saturation
    /// feedback).
    const MAX_RHO: f64 = 0.96;

    /// A lane owning `1/weight` of a DIMM's bandwidth.
    pub fn lane(weight: u64) -> DimmState {
        DimmState {
            weight,
            ..DimmState::default()
        }
    }

    /// Schedule a demand access of `occ` cycles at `now`: returns the queue
    /// delay to charge on top of the device latency.
    #[inline]
    pub fn demand(&mut self, now: u64, occ: u64) -> u64 {
        let rho = self.utilization(now);
        self.busy += occ * self.weight.max(1);
        self.demand_count += 1;
        // M/D/1 mean queueing delay, in units of this access's service time.
        (occ as f64 * rho / (2.0 * (1.0 - rho))).round() as u64
    }

    /// Post `occ` cycles of deferrable work (writes, background redundancy
    /// traffic): consumes bandwidth, never stalls the poster.
    #[inline]
    pub fn posted(&mut self, _now: u64, occ: u64) {
        self.busy += occ * self.weight.max(1);
        self.posted_count += 1;
    }

    /// Utilization observed so far relative to wall-clock `now`.
    #[inline]
    fn utilization(&self, now: u64) -> f64 {
        if now == 0 {
            return 0.0;
        }
        (self.busy as f64 / now as f64).min(Self::MAX_RHO)
    }

    /// Cumulative (demand, posted) access counts (diagnostics).
    fn access_counts(&self) -> (u64, u64) {
        (self.demand_count, self.posted_count)
    }
}

impl Uncore {
    /// The DIMM queue lane for (`dimm`, bank of `line`) among `banks` LLC
    /// banks.
    #[inline]
    fn dimm_lane(&mut self, banks: usize, dimm: usize, line: LineAddr) -> &mut DimmState {
        &mut self.dimms[dimm * banks + bank_interleave(line, banks)]
    }
}

impl HookEnv<'_> {
    pub(super) fn nvm_timing(&mut self, core: usize, line: LineAddr, write: bool, demand: bool) {
        let u = &mut *self.uncore;
        let dimm = match u.mem.device_of(line) {
            Device::Nvm { dimm } => dimm,
            Device::Dram => {
                // Redundancy for DRAM lines should never arise; treat as DRAM access.
                u.counters.dram_accesses += 1;
                if demand {
                    u.clocks[core] += self.cfg.ns_to_cycles(self.cfg.dram.read_ns);
                }
                return;
            }
        };
        let now = u.clocks[core];
        let occ = self.cfg.ns_to_cycles(if write {
            self.cfg.nvm.write_occupancy_ns
        } else {
            self.cfg.nvm.read_occupancy_ns
        });
        if demand {
            let lat = self.cfg.ns_to_cycles(if write {
                self.cfg.nvm.write_ns
            } else {
                self.cfg.nvm.read_ns
            });
            let wait = u.dimm_lane(self.cfg.llc_banks, dimm, line).demand(now, occ);
            u.counters.demand_queue_cycles += wait;
            u.clocks[core] = now + wait + lat;
        } else {
            u.dimm_lane(self.cfg.llc_banks, dimm, line).posted(now, occ);
        }
    }
}

impl System {
    /// Per-DIMM (demand, posted) access counts (diagnostics), aggregated
    /// over each DIMM's bank lanes.
    pub fn dimm_access_counts(&self) -> Vec<(u64, u64)> {
        self.assert_unbound("dimm_access_counts");
        let banks = self.cfg.llc_banks;
        self.uncore
            .dimms
            .chunks(banks)
            .map(|lanes| {
                lanes.iter().fold((0, 0), |(dm, po), lane| {
                    let (a, b) = lane.access_counts();
                    (dm + a, po + b)
                })
            })
            .collect()
    }

    /// Demand read of `line` from its memory device, with verification for
    /// NVM lines.
    pub(super) fn mem_demand_read(
        &mut self,
        core: usize,
        line: LineAddr,
    ) -> Result<[u8; CACHE_LINE], CorruptionDetected> {
        match self.uncore.mem.device_of(line) {
            Device::Dram => {
                self.uncore.counters.dram_accesses += 1;
                self.uncore.clocks[core] += self.cfg.ns_to_cycles(self.cfg.dram.read_ns);
                Ok(self.uncore.mem.read_line(line))
            }
            Device::Nvm { dimm } => {
                if self.is_red_line(line) {
                    self.uncore.counters.nvm_red_reads += 1;
                } else if self.scrub_accounting {
                    self.uncore.counters.scrub_reads += 1;
                } else {
                    self.uncore.counters.nvm_data_reads += 1;
                }
                let occ = self.cfg.ns_to_cycles(self.cfg.nvm.read_occupancy_ns);
                let now = self.uncore.clocks[core];
                let wait = self
                    .uncore
                    .dimm_lane(self.cfg.llc_banks, dimm, line)
                    .demand(now, occ);
                self.uncore.counters.demand_queue_cycles += wait;
                self.uncore.clocks[core] += wait + self.cfg.ns_to_cycles(self.cfg.nvm.read_ns);
                // A lost line (its DIMM failed) is a media error the device
                // signals, under every design, before any hook sees data.
                if self.uncore.mem.is_lost(line) {
                    return Err(CorruptionDetected { line });
                }
                let data = self.uncore.mem.read_line(line);
                // After the crash budget runs out the machine is logically
                // powered off; media content may predate suppressed
                // writebacks, so verifying fills would report phantom
                // corruption for a run that never actually executes.
                if !self.uncore.crash.crashed() {
                    self.hooks.on_nvm_fill(
                        core,
                        line,
                        &data,
                        &mut HookEnv {
                            cfg: &self.cfg,
                            uncore: &mut self.uncore,
                        },
                    )?;
                }
                Ok(data)
            }
        }
    }

    /// Posted write of `line` to its memory device, with redundancy updates
    /// for NVM lines.
    pub(super) fn mem_posted_write(
        &mut self,
        core: usize,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
    ) {
        match self.uncore.mem.device_of(line) {
            Device::Dram => {
                self.uncore.counters.dram_accesses += 1;
                self.uncore.mem.write_line(line, data);
            }
            Device::Nvm { dimm } => {
                if self.is_red_line(line) {
                    self.uncore.counters.nvm_red_writes += 1;
                } else {
                    self.uncore.counters.nvm_data_writes += 1;
                }
                let now = self.uncore.clocks[core];
                let occ = self.cfg.ns_to_cycles(self.cfg.nvm.write_occupancy_ns);
                self.uncore
                    .dimm_lane(self.cfg.llc_banks, dimm, line)
                    .posted(now, occ);
                let admitted = self.uncore.crash.admit();
                // The redundancy update for the k-th (final) admitted write
                // is also suppressed: the controller performs it *with* the
                // media write, and the crash interrupts exactly there. The
                // post-crash audit must tolerate (and repair) that torn
                // state.
                if !self.uncore.crash.crashed() {
                    self.hooks.on_nvm_writeback(
                        core,
                        line,
                        data,
                        &mut HookEnv {
                            cfg: &self.cfg,
                            uncore: &mut self.uncore,
                        },
                    );
                }
                if admitted {
                    self.uncore.mem.write_line(line, data);
                } else {
                    self.uncore.counters.nvm_suppressed_writes += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::config::SystemConfig;
    use crate::engine::tests::sys;

    #[test]
    fn dimm_queue_delay_grows_with_utilization() {
        let mut d = DimmState::default();
        // Low utilization: negligible delay.
        d.posted(0, 100);
        let w_low = d.demand(10_000, 34);
        assert!(w_low <= 1, "1% utilization must not queue: {w_low}");
        // High utilization: substantial delay.
        let mut d = DimmState::default();
        for _ in 0..80 {
            d.posted(0, 100); // 8000 busy cycles by t=10000 => rho 0.8
        }
        let w_high = d.demand(10_000, 34);
        assert!(
            (50..=100).contains(&w_high),
            "rho=0.8 M/D/1 delay ≈ 2*occ: {w_high}"
        );
    }

    #[test]
    fn dimm_utilization_is_clamped() {
        let mut d = DimmState::default();
        for _ in 0..1000 {
            d.posted(0, 100);
        }
        assert!(d.utilization(10) <= 0.97);
        // Even "overloaded", the delay stays finite.
        let w = d.demand(10, 34);
        assert!(w < 34 * 20);
    }

    #[test]
    fn dimm_access_counts_track_both_kinds() {
        let mut d = DimmState::default();
        d.posted(0, 85);
        d.posted(0, 85);
        d.demand(100, 34);
        assert_eq!(d.access_counts(), (1, 2));
        assert_eq!(d.busy, 85 + 85 + 34);
    }

    #[test]
    fn demand_reads_queue_behind_dimm_utilization() {
        // Saturate one DIMM lane with posted writes, then issue a demand
        // read to a line in the *same* lane (same DIMM, same LLC-bank
        // interleave — queues are per (dimm × bank) lane): its latency must
        // exceed an idle-system read's.
        let banks = SystemConfig::small().llc_banks;
        let mut s = sys();
        s.compute(0, 1000); // establish a nonzero wall clock
        s.with_hooks_env(|_h, env| {
            let line = crate::addr::nvm_page(0).line(0);
            for _ in 0..100 {
                env.nvm_write_red(0, line, &[0u8; CACHE_LINE]);
            }
        });
        let t0 = s.clock(0);
        let mut buf = [0u8; 8];
        s.read(
            0,
            PhysAddr(crate::addr::nvm_page(0).line(banks).base().0),
            &mut buf,
        )
        .unwrap();
        let busy_latency = s.clock(0) - t0;
        let mut s2 = sys();
        s2.compute(0, 1000);
        let t0 = s2.clock(0);
        s2.read(
            0,
            PhysAddr(crate::addr::nvm_page(0).line(1).base().0),
            &mut buf,
        )
        .unwrap();
        let idle_latency = s2.clock(0) - t0;
        assert!(
            busy_latency > idle_latency + 200,
            "queueing must delay demand reads: busy={busy_latency} idle={idle_latency}"
        );
        assert!(s.stats().counters.demand_queue_cycles > 0);
    }
}
