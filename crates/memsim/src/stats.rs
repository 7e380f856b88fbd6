//! Simulation statistics: the quantities the paper plots in Fig. 8
//! (runtime, energy, NVM accesses split into data vs. redundancy, and cache
//! accesses split by level).

use crate::config::SystemConfig;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Raw event counters accumulated during a simulation run.
///
/// Counters are plain `u64`s; energy and runtime are *derived* from them (plus
/// per-core cycle counts) via [`Stats::energy_nj`] so that a single run can be
/// re-priced under different energy parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// L1-D hits.
    pub l1d_hits: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L1-I accesses (charged as per-op constants).
    pub l1i_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC hits (application-data partition).
    pub llc_hits: u64,
    /// LLC misses (application-data partition).
    pub llc_misses: u64,
    /// LLC accesses made on behalf of the redundancy controller
    /// (redundancy-partition and diff-partition lookups/inserts).
    pub llc_redundancy_accesses: u64,
    /// On-controller (TVARAK) cache hits.
    pub tvarak_cache_hits: u64,
    /// On-controller (TVARAK) cache misses.
    pub tvarak_cache_misses: u64,
    /// DRAM 64 B accesses.
    pub dram_accesses: u64,
    /// NVM 64 B reads of application data.
    pub nvm_data_reads: u64,
    /// NVM 64 B data reads issued by the scrub daemon. Tallied separately
    /// from demand `nvm_data_reads` so reports can split application traffic
    /// from redundancy-maintenance traffic.
    pub scrub_reads: u64,
    /// NVM 64 B writes of application data.
    pub nvm_data_writes: u64,
    /// NVM 64 B reads of redundancy information (checksums, parity, old data
    /// read for delta computation).
    pub nvm_red_reads: u64,
    /// NVM 64 B writes of redundancy information.
    pub nvm_red_writes: u64,
    /// NVM writes suppressed by an exhausted crash budget (crashsim runs;
    /// always 0 in normal simulation). Suppressed writes still count in the
    /// data/redundancy tallies above — the access was *issued*, it just
    /// never reached the media.
    pub nvm_suppressed_writes: u64,
    /// Checksum/parity computations performed by the controller.
    pub controller_computes: u64,
    /// Reads verified against a checksum by the controller.
    pub reads_verified: u64,
    /// Corruptions detected (verification mismatches).
    pub corruptions_detected: u64,
    /// Pages recovered from parity.
    pub pages_recovered: u64,
    /// Cycles demand reads spent queued behind DIMM traffic (diagnostics).
    pub demand_queue_cycles: u64,
    /// Demand NVM fills served by degraded-mode reconstruction (the line was
    /// on a failed/rebuilding bank; the read paid `dimms - 1` extra member
    /// reads to solve from the shadow syndromes).
    pub degraded_fills: u64,
    /// Clocked runs that passed every bound-weave *configuration* check
    /// (they weave whenever ≥ 2 engine threads are requested). Eligibility
    /// is a property of the machine configuration alone, so these six
    /// counters come out identical at any `MEMSIM_ENGINE_THREADS` — the
    /// cross-thread byte-diff gates rely on that.
    pub weave_eligible_runs: u64,
    /// Clocked runs ineligible for bound-weave: a software checksum scheme
    /// mutates shared file metadata inline with every access.
    pub weave_inel_sw_scheme: u64,
    /// Clocked runs ineligible for bound-weave: a scrub daemon was attached.
    pub weave_inel_scrub: u64,
    /// Clocked runs ineligible for bound-weave: an armed crash window.
    pub weave_inel_crash: u64,
    /// Clocked runs ineligible for bound-weave: armed firmware faults.
    pub weave_inel_faults: u64,
    /// Clocked runs ineligible for bound-weave: firmware shadow-RAID enabled.
    pub weave_inel_raid: u64,
}

/// Apply a field-list macro to every [`Counters`] field, so the add/merge
/// and snapshot-delta paths share one authoritative list: a new counter
/// added here is automatically summed, merged, and delta'd.
macro_rules! for_each_counter_field {
    ($apply:ident) => {
        $apply!(
            l1d_hits,
            l1d_misses,
            l1i_accesses,
            l2_hits,
            l2_misses,
            llc_hits,
            llc_misses,
            llc_redundancy_accesses,
            tvarak_cache_hits,
            tvarak_cache_misses,
            dram_accesses,
            nvm_data_reads,
            scrub_reads,
            nvm_data_writes,
            nvm_red_reads,
            nvm_red_writes,
            nvm_suppressed_writes,
            controller_computes,
            reads_verified,
            corruptions_detected,
            pages_recovered,
            demand_queue_cycles,
            degraded_fills,
            weave_eligible_runs,
            weave_inel_sw_scheme,
            weave_inel_scrub,
            weave_inel_crash,
            weave_inel_faults,
            weave_inel_raid,
        );
    };
}

impl Counters {
    /// Total NVM accesses (data + redundancy + scrub, reads + writes).
    pub fn nvm_total(&self) -> u64 {
        self.nvm_data_reads
            + self.scrub_reads
            + self.nvm_data_writes
            + self.nvm_red_reads
            + self.nvm_red_writes
    }

    /// Total NVM accesses for redundancy maintenance (checksum/parity
    /// traffic plus scrub-daemon reads).
    pub fn nvm_redundancy(&self) -> u64 {
        self.nvm_red_reads + self.nvm_red_writes + self.scrub_reads
    }

    /// Total NVM accesses for application data only.
    pub fn nvm_data(&self) -> u64 {
        self.nvm_data_reads + self.nvm_data_writes
    }

    /// Total cache accesses across L1/L2/LLC plus the on-controller cache
    /// (the quantity plotted in Fig. 8 (d,h,l,p,t)).
    pub fn cache_total(&self) -> u64 {
        self.l1_accesses() + self.l2_accesses() + self.llc_accesses() + self.tvarak_accesses()
    }

    /// L1 accesses (data + instruction).
    pub fn l1_accesses(&self) -> u64 {
        self.l1d_hits + self.l1d_misses + self.l1i_accesses
    }

    /// L2 accesses.
    pub fn l2_accesses(&self) -> u64 {
        self.l2_hits + self.l2_misses
    }

    /// LLC accesses, including controller-initiated partition accesses.
    pub fn llc_accesses(&self) -> u64 {
        self.llc_hits + self.llc_misses + self.llc_redundancy_accesses
    }

    /// On-controller cache accesses.
    pub fn tvarak_accesses(&self) -> u64 {
        self.tvarak_cache_hits + self.tvarak_cache_misses
    }

    /// Fold another counter shard into this one (field-wise `u64` addition).
    ///
    /// # Merge contract
    ///
    /// `merge` is **associative** and **commutative**, and
    /// [`Counters::default()`] is its **identity**: accumulating one event
    /// stream into a single monolithic `Counters` and accumulating disjoint
    /// slices of it into per-shard `Counters` then merging (in any order,
    /// any grouping) produce bit-identical results. Interval snapshots and
    /// the weave session's bound-side/replay-side split lean on this
    /// (`memsim/tests/stats_merge.rs` proves the contract on randomized
    /// sequences).
    pub fn merge(&mut self, other: &Counters) {
        *self += *other;
    }

    /// Counter increments since an earlier snapshot `prev` of the same
    /// accumulation (field-wise wrapping subtraction).
    ///
    /// # Snapshot contract
    ///
    /// For cumulative snapshots `s0, s1, …, sn` of one counter stream,
    /// merging the interval deltas `si.delta_since(&s(i-1))` — in any order,
    /// any grouping, per the [`Counters::merge`] contract — is bit-identical
    /// to the monolithic span `sn.delta_since(&s0)`: each field telescopes.
    /// Subtraction wraps, so even a misuse (non-monotone snapshots) still
    /// telescopes exactly; it just yields deltas that are individually
    /// meaningless.
    pub fn delta_since(&self, prev: &Counters) -> Counters {
        let mut d = *self;
        macro_rules! sub_fields {
            ($($f:ident),+ $(,)?) => { $( d.$f = d.$f.wrapping_sub(prev.$f); )+ };
        }
        for_each_counter_field!(sub_fields);
        d
    }
}

/// Compile-time proof that `for_each_counter_field` names every field: a
/// struct destructure without `..` refuses to compile if one is missing.
#[allow(dead_code)]
fn counter_field_list_is_exhaustive(c: Counters) {
    macro_rules! destructure_all {
        ($($f:ident),+ $(,)?) => {
            let Counters { $($f),+ } = c;
            $( let _: u64 = $f; )+
        };
    }
    for_each_counter_field!(destructure_all);
}

impl Add for Counters {
    type Output = Counters;
    fn add(mut self, rhs: Counters) -> Counters {
        self += rhs;
        self
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, r: Counters) {
        macro_rules! add_fields {
            ($($f:ident),+ $(,)?) => { $( self.$f += r.$f; )+ };
        }
        for_each_counter_field!(add_fields);
    }
}

/// Full run statistics: counters plus per-core cycle counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Event counters.
    pub counters: Counters,
    /// Cycles consumed by each core.
    pub core_cycles: Vec<u64>,
    /// Combined digest of every cache array's eviction/victim-choice history
    /// (private L1/L2 caches and LLC banks, in fixed order), cumulative from
    /// machine construction — `reset_stats` does not clear it. Never written
    /// to campaign CSVs; it exists so the determinism goldens can prove that
    /// a cache-layout refactor keeps eviction order bit-identical.
    pub evict_hash: u64,
}

impl Stats {
    /// Create stats for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Stats {
            counters: Counters::default(),
            core_cycles: vec![0; cores],
            evict_hash: 0,
        }
    }

    /// The identity element of [`Stats::merge`]: zero counters, no cores,
    /// zero digest. `identity().merge(&s) == s` for any `s`.
    pub fn identity() -> Self {
        Stats::default()
    }

    /// Fold another stats shard into this one.
    ///
    /// # Merge contract
    ///
    /// Associative, commutative, with [`Stats::identity`] as identity:
    /// - `counters` merge by field-wise addition ([`Counters::merge`]);
    /// - `core_cycles` merge element-wise by `max` (a core's cycle count is
    ///   max-progress: each shard reports how far it drove the core, and the
    ///   furthest observation wins), with missing trailing cores treated
    ///   as 0;
    /// - `evict_hash` merges by XOR (order-independent digest combination;
    ///   0 is the identity).
    ///
    /// Shard-merge ≡ monolithic accumulation is proven on randomized op
    /// sequences in `memsim/tests/stats_merge.rs`.
    pub fn merge(&mut self, other: &Stats) {
        self.counters.merge(&other.counters);
        if self.core_cycles.len() < other.core_cycles.len() {
            self.core_cycles.resize(other.core_cycles.len(), 0);
        }
        for (mine, theirs) in self.core_cycles.iter_mut().zip(&other.core_cycles) {
            *mine = (*mine).max(*theirs);
        }
        self.evict_hash ^= other.evict_hash;
    }

    /// Stats accrued since an earlier snapshot `prev` of the same machine's
    /// cumulative accumulation, shaped so interval deltas re-merge exactly.
    ///
    /// # Snapshot contract
    ///
    /// For cumulative snapshots `s0, s1, …, sn` taken from one run, merging
    /// the interval deltas `si.delta_since(&s(i-1))` in any order and any
    /// grouping (per the [`Stats::merge`] contract) is **bit-identical** to
    /// the monolithic span `sn.delta_since(&s0)`:
    /// - `counters` subtract field-wise ([`Counters::delta_since`]) and
    ///   telescope under merge's addition;
    /// - `core_cycles` are carried as the snapshot's *cumulative* values
    ///   (cycle counts are max-progress watermarks, not rates — an interval
    ///   has no meaningful "cycles delta" under element-wise max), so the
    ///   running max over deltas reproduces the final watermark;
    /// - `evict_hash` is `self ^ prev`, which telescopes under merge's XOR.
    ///
    /// Proven across random cut points in `memsim/tests/stats_merge.rs`.
    pub fn delta_since(&self, prev: &Stats) -> Stats {
        Stats {
            counters: self.counters.delta_since(&prev.counters),
            core_cycles: self.core_cycles.clone(),
            evict_hash: self.evict_hash ^ prev.evict_hash,
        }
    }

    /// Simulated runtime in cycles: the busiest core's cycle count.
    pub fn runtime_cycles(&self) -> u64 {
        self.core_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total energy in nanojoules under `cfg`'s energy parameters.
    ///
    /// Sums cache hit/miss energies, on-controller cache energies, DRAM
    /// access energy, and NVM read/write energy — the components plotted in
    /// Fig. 8 (b,f,j,n,r).
    pub fn energy_nj(&self, cfg: &SystemConfig) -> f64 {
        let c = &self.counters;
        let pj = c.l1d_hits as f64 * cfg.l1d.hit_pj
            + c.l1d_misses as f64 * cfg.l1d.miss_pj
            + c.l1i_accesses as f64 * cfg.l1i.hit_pj
            + c.l2_hits as f64 * cfg.l2.hit_pj
            + c.l2_misses as f64 * cfg.l2.miss_pj
            + (c.llc_hits + c.llc_redundancy_accesses) as f64 * cfg.llc.hit_pj
            + c.llc_misses as f64 * cfg.llc.miss_pj
            + c.tvarak_cache_hits as f64 * cfg.controller.cache_hit_pj
            + c.tvarak_cache_misses as f64 * cfg.controller.cache_miss_pj;
        let nj = c.dram_accesses as f64 * cfg.dram.access_nj
            + (c.nvm_data_reads + c.scrub_reads + c.nvm_red_reads) as f64 * cfg.nvm.read_nj
            + (c.nvm_data_writes + c.nvm_red_writes) as f64 * cfg.nvm.write_nj;
        pj / 1000.0 + nj
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(f, "runtime: {} cycles", self.runtime_cycles())?;
        writeln!(
            f,
            "L1D {}/{} L2 {}/{} LLC {}/{} (hits/misses), tvarak$ {}/{}",
            c.l1d_hits,
            c.l1d_misses,
            c.l2_hits,
            c.l2_misses,
            c.llc_hits,
            c.llc_misses,
            c.tvarak_cache_hits,
            c.tvarak_cache_misses
        )?;
        writeln!(
            f,
            "NVM data r/w {}/{}, redundancy r/w {}/{}, scrub r {}, DRAM {}",
            c.nvm_data_reads,
            c.nvm_data_writes,
            c.nvm_red_reads,
            c.nvm_red_writes,
            c.scrub_reads,
            c.dram_accesses
        )?;
        write!(
            f,
            "verified reads {}, corruptions {}, pages recovered {}",
            c.reads_verified, c.corruptions_detected, c.pages_recovered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let c = Counters {
            nvm_data_reads: 1,
            nvm_data_writes: 2,
            nvm_red_reads: 3,
            nvm_red_writes: 4,
            ..Default::default()
        };
        assert_eq!(c.nvm_total(), 10);
        assert_eq!(c.nvm_redundancy(), 7);
        assert_eq!(c.nvm_data(), 3);
    }

    #[test]
    fn add_assign_accumulates() {
        let a = Counters {
            l1d_hits: 5,
            ..Default::default()
        };
        let b = Counters {
            l1d_hits: 7,
            pages_recovered: 1,
            ..Default::default()
        };
        let s = a + b;
        assert_eq!(s.l1d_hits, 12);
        assert_eq!(s.pages_recovered, 1);
    }

    #[test]
    fn scrub_reads_tally_separately_from_demand() {
        let c = Counters {
            nvm_data_reads: 10,
            scrub_reads: 4,
            ..Default::default()
        };
        assert_eq!(c.nvm_data(), 10, "scrub traffic is not application data");
        assert_eq!(c.nvm_redundancy(), 4);
        assert_eq!(c.nvm_total(), 14);
        let s = c + c;
        assert_eq!(s.scrub_reads, 8);
    }

    #[test]
    fn runtime_is_max_core() {
        let mut s = Stats::new(3);
        s.core_cycles = vec![5, 9, 2];
        assert_eq!(s.runtime_cycles(), 9);
    }

    #[test]
    fn energy_counts_nvm_heavier_than_cache() {
        let cfg = SystemConfig::default();
        let mut s = Stats::new(1);
        s.counters.nvm_data_writes = 100;
        let e_nvm = s.energy_nj(&cfg);
        let mut s2 = Stats::new(1);
        s2.counters.l1d_hits = 100;
        let e_l1 = s2.energy_nj(&cfg);
        assert!(e_nvm > e_l1 * 100.0);
    }

    #[test]
    fn interval_deltas_remerge_to_monolithic_span() {
        // Three cumulative snapshots of one "run".
        let mut s0 = Stats::new(2);
        s0.counters.l1d_hits = 10;
        s0.core_cycles = vec![100, 90];
        s0.evict_hash = 0xaaaa;
        let mut s1 = s0.clone();
        s1.counters.l1d_hits = 25;
        s1.counters.nvm_data_writes = 7;
        s1.core_cycles = vec![220, 150];
        s1.evict_hash = 0xbbbb;
        let mut s2 = s1.clone();
        s2.counters.l1d_hits = 60;
        s2.counters.nvm_data_writes = 11;
        s2.core_cycles = vec![400, 390];
        s2.evict_hash = 0xcccc;

        let mut merged = Stats::identity();
        merged.merge(&s1.delta_since(&s0));
        merged.merge(&s2.delta_since(&s1));
        assert_eq!(merged, s2.delta_since(&s0));
        assert_eq!(merged.counters.l1d_hits, 50);
        assert_eq!(merged.counters.nvm_data_writes, 11);
        assert_eq!(merged.core_cycles, vec![400, 390]);
        assert_eq!(merged.evict_hash, 0xaaaa ^ 0xcccc);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Stats::new(1);
        assert!(format!("{s}").contains("runtime"));
    }
}
