//! Table III: print the simulated machine's parameters.

use memsim::config::SystemConfig;

fn main() {
    let c = SystemConfig::default();
    println!("# Table III — Simulation parameters");
    println!("cores: {} x86-64 OOO @ {} GHz", c.cores, c.freq_ghz);
    println!(
        "L1-D: {} KB {}-way, {} cycles, {}/{} pJ hit/miss",
        c.l1d.size_bytes / 1024,
        c.l1d.ways,
        c.l1d.latency_cycles,
        c.l1d.hit_pj,
        c.l1d.miss_pj
    );
    println!(
        "L1-I: {} KB {}-way, {} cycles, {}/{} pJ hit/miss",
        c.l1i.size_bytes / 1024,
        c.l1i.ways,
        c.l1i.latency_cycles,
        c.l1i.hit_pj,
        c.l1i.miss_pj
    );
    println!(
        "L2: {} KB {}-way, {} cycles, {}/{} pJ hit/miss",
        c.l2.size_bytes / 1024,
        c.l2.ways,
        c.l2.latency_cycles,
        c.l2.hit_pj,
        c.l2.miss_pj
    );
    println!(
        "LLC: {} MB ({} banks x {} MB), {}-way, {} cycles, shared+inclusive, MESI, 64B lines, {}/{} pJ hit/miss",
        c.llc.size_bytes * c.llc_banks / (1024 * 1024), c.llc_banks,
        c.llc.size_bytes / (1024 * 1024), c.llc.ways, c.llc.latency_cycles,
        c.llc.hit_pj, c.llc.miss_pj
    );
    println!(
        "DRAM: {} DDR DIMMs, {} ns reads/writes",
        c.dram.dimms, c.dram.read_ns
    );
    println!(
        "NVM: {} DDR DIMMs, {}/{} ns reads/writes, {}/{} nJ per read/write",
        c.nvm.dimms, c.nvm.read_ns, c.nvm.write_ns, c.nvm.read_nj, c.nvm.write_nj
    );
    println!(
        "TVARAK: {} KB on-controller cache ({} cycle, {}/{} pJ hit/miss), {}-cycle range match, {}-cycle checksum/parity compute, {} LLC ways (of {}) for redundancy, {} for data diffs",
        c.controller.cache_bytes / 1024, c.controller.cache_latency_cycles,
        c.controller.cache_hit_pj, c.controller.cache_miss_pj,
        c.controller.range_match_cycles, c.controller.compute_cycles,
        c.controller.redundancy_ways, c.llc.ways, c.controller.diff_ways
    );
}
