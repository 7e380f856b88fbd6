//! Simulation configuration (Table III of the paper).
//!
//! [`SystemConfig::default`] reproduces the paper's simulated machine: 12
//! Westmere-like cores at 2.27 GHz, 32 KB L1s, 256 KB L2s, a shared inclusive
//! 24 MB LLC in 12 banks of 2 MB, 6 DRAM DIMMs, and 4 NVM DIMMs with the
//! Lee et al. PCM latency/energy parameters (60/150 ns reads/writes,
//! 1.6/9 nJ per read/write).

use crate::addr::CACHE_LINE;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in core cycles.
    pub latency_cycles: u64,
    /// Energy per hit in picojoules.
    pub hit_pj: f64,
    /// Energy per miss (tag probe that fails) in picojoules.
    pub miss_pj: f64,
}

impl CacheConfig {
    /// Number of sets implied by size, ways, and the 64 B line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * 64`, or the resulting set count is not a power of two).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / CACHE_LINE;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache size {} not divisible into {} ways of 64B lines",
            self.size_bytes,
            self.ways
        );
        let sets = lines / self.ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        sets
    }
}

/// DRAM timing/energy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of DDR DIMMs.
    pub dimms: usize,
    /// Read latency in nanoseconds.
    pub read_ns: f64,
    /// Write latency in nanoseconds.
    pub write_ns: f64,
    /// Energy per 64 B access in nanojoules.
    pub access_nj: f64,
}

/// NVM timing/energy parameters (Lee et al. \[37\] as used by the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmConfig {
    /// Number of NVM DIMMs (page-striped; one page per stripe is parity).
    pub dimms: usize,
    /// Read latency in nanoseconds.
    pub read_ns: f64,
    /// Write latency in nanoseconds.
    pub write_ns: f64,
    /// Energy per 64 B read in nanojoules.
    pub read_nj: f64,
    /// Energy per 64 B write in nanojoules.
    pub write_nj: f64,
    /// Per-64 B-access DIMM occupancy for the bandwidth model, reads (ns).
    ///
    /// Demand reads to a DIMM whose queue is busy wait for it to drain; this
    /// is what makes the bandwidth-saturating `stream` workloads scale with
    /// total NVM traffic rather than latency (§IV-F).
    pub read_occupancy_ns: f64,
    /// Per-64 B-access DIMM occupancy for writes (ns).
    pub write_occupancy_ns: f64,
}

/// TVARAK controller hardware parameters (Table III, bottom rows).
///
/// These sit in `memsim`'s config so the engine can charge controller
/// latencies uniformly; the controller logic itself lives in the `tvarak`
/// crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// On-controller redundancy cache size in bytes (per LLC bank).
    pub cache_bytes: usize,
    /// On-controller cache ways.
    pub cache_ways: usize,
    /// On-controller cache access latency in cycles.
    pub cache_latency_cycles: u64,
    /// On-controller cache hit energy (pJ).
    pub cache_hit_pj: f64,
    /// On-controller cache miss energy (pJ).
    pub cache_miss_pj: f64,
    /// Address-range-match (comparator) latency in cycles.
    pub range_match_cycles: u64,
    /// Checksum or parity computation/verification latency in cycles.
    pub compute_cycles: u64,
    /// LLC ways (out of `llc.ways`) reserved for caching redundancy lines.
    pub redundancy_ways: usize,
    /// LLC ways (out of `llc.ways`) reserved for storing data diffs.
    pub diff_ways: usize,
}

/// Full-system configuration (Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of simulated cores.
    pub cores: usize,
    /// Core frequency in GHz (used to convert ns to cycles).
    pub freq_ghz: f64,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L1 instruction cache (charged as a fixed per-op cost).
    pub l1i: CacheConfig,
    /// Per-core unified L2.
    pub l2: CacheConfig,
    /// One LLC bank (the LLC is `llc_banks` of these, shared + inclusive).
    pub llc: CacheConfig,
    /// Number of LLC banks.
    pub llc_banks: usize,
    /// Retired replay-worker count of the bound-weave engine, which now
    /// always runs one worker (see `memsim::weave`). `0` and `1` are
    /// accepted and mean the same; [`Self::validate`] rejects anything
    /// larger. The field exists only because the standalone benchmark crate
    /// still assigns it, and goes when the weave engine is retired
    /// (ROADMAP.md, "Retire the weave engine").
    pub weave_shards: usize,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// NVM parameters.
    pub nvm: NvmConfig,
    /// TVARAK controller parameters.
    pub controller: ControllerConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 12,
            freq_ghz: 2.27,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency_cycles: 4,
                hit_pj: 15.0,
                miss_pj: 33.0,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                latency_cycles: 3,
                hit_pj: 15.0,
                miss_pj: 33.0,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                latency_cycles: 7,
                hit_pj: 46.0,
                miss_pj: 94.0,
            },
            llc: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                latency_cycles: 27,
                hit_pj: 240.0,
                miss_pj: 500.0,
            },
            llc_banks: 12,
            weave_shards: 0,
            dram: DramConfig {
                dimms: 6,
                read_ns: 15.0,
                write_ns: 15.0,
                access_nj: 1.0,
            },
            nvm: NvmConfig {
                dimms: 4,
                read_ns: 60.0,
                write_ns: 150.0,
                read_nj: 1.6,
                write_nj: 9.0,
                read_occupancy_ns: 15.0,
                write_occupancy_ns: 25.0,
            },
            controller: ControllerConfig {
                cache_bytes: 4 * 1024,
                cache_ways: 4,
                cache_latency_cycles: 1,
                cache_hit_pj: 15.0,
                cache_miss_pj: 33.0,
                range_match_cycles: 2,
                compute_cycles: 1,
                redundancy_ways: 2,
                diff_ways: 1,
            },
        }
    }
}

impl SystemConfig {
    /// A small configuration for fast unit/integration tests: 2 cores,
    /// 4 KB L1s, 16 KB L2s, 2 LLC banks of 64 KB, 4 NVM DIMMs.
    ///
    /// Keeps all latency/energy parameters identical to the paper's so that
    /// behaviourial tests remain meaningful while running quickly.
    pub fn small() -> Self {
        let mut cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::default()
        };
        cfg.l1d.size_bytes = 4 * 1024;
        cfg.l1i.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.llc.size_bytes = 64 * 1024;
        cfg.llc_banks = 2;
        cfg.controller.cache_bytes = 1024;
        cfg
    }

    /// Convert nanoseconds to (rounded) core cycles at `freq_ghz`.
    #[inline]
    pub(crate) fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_ghz).round() as u64
    }

    /// Number of LLC ways available to application data after reserving the
    /// controller's redundancy- and diff-partition ways.
    pub fn llc_data_ways(&self) -> usize {
        self.llc
            .ways
            .checked_sub(self.controller.redundancy_ways + self.controller.diff_ways)
            .expect("reserved LLC ways exceed associativity")
    }

    /// Validate internal consistency; called by the engine at construction.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an inconsistent configuration
    /// (e.g. zero or more than 64 cores, reserved ways ≥ associativity,
    /// non-power-of-two cache geometry, more than one weave worker).
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(
            self.cores <= 64,
            "at most 64 cores: the LLC directory's sharer mask is a u64"
        );
        assert!(self.llc_banks > 0, "need at least one LLC bank");
        assert!(self.freq_ghz > 0.0, "core frequency must be positive");
        assert!(
            self.weave_shards <= 1,
            "weave_shards must be 0 or 1: the weave engine runs one replay worker"
        );
        assert!(
            self.nvm.dimms >= 2,
            "RAID parity needs at least 2 NVM DIMMs"
        );
        assert!(
            self.controller.redundancy_ways + self.controller.diff_ways < self.llc.ways,
            "reserved LLC ways must leave room for application data"
        );
        // Force geometry panics early.
        let _ = self.l1d.sets();
        let _ = self.l1i.sets();
        let _ = self.l2.sets();
        let _ = self.llc.sets();
        let ctrl_lines = self.controller.cache_bytes / CACHE_LINE;
        assert!(
            ctrl_lines.is_multiple_of(self.controller.cache_ways)
                && (ctrl_lines / self.controller.cache_ways).is_power_of_two(),
            "on-controller cache geometry inconsistent"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = SystemConfig::default();
        assert_eq!(c.cores, 12);
        assert_eq!(c.llc_banks, 12);
        assert_eq!(c.llc.size_bytes * c.llc_banks, 24 * 1024 * 1024);
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.nvm.dimms, 4);
        assert_eq!(c.controller.redundancy_ways, 2);
        assert_eq!(c.controller.diff_ways, 1);
        c.validate();
    }

    #[test]
    fn small_config_is_valid() {
        SystemConfig::small().validate();
    }

    #[test]
    fn ns_to_cycles_rounds() {
        let c = SystemConfig::default();
        // 60ns * 2.27GHz = 136.2 cycles
        assert_eq!(c.ns_to_cycles(60.0), 136);
        assert_eq!(c.ns_to_cycles(150.0), 341);
    }

    #[test]
    fn data_ways_subtract_reserved() {
        let c = SystemConfig::default();
        assert_eq!(c.llc_data_ways(), 13);
    }

    #[test]
    #[should_panic(expected = "reserved LLC ways")]
    fn validate_rejects_all_ways_reserved() {
        let mut c = SystemConfig::default();
        c.controller.redundancy_ways = 15;
        c.controller.diff_ways = 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "weave_shards must be 0 or 1")]
    fn validate_rejects_multiple_weave_workers() {
        let c = SystemConfig {
            weave_shards: 2,
            ..SystemConfig::default()
        };
        c.validate();
    }
}
