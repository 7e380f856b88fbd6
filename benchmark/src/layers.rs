//! Per-layer metrics of the traced pass, attributed from outside: spans
//! around the harness's calls into each layer, exact `Stats` counts taken at
//! the same boundaries, and the isolated timings of [`crate::isolated`].
//!
//! Every run prints every metric. A layer that is not on the workload's
//! path did no work there, and its metrics read 0.

use crate::cells::{CellRun, Kind};
use crate::grid::GridRun;
use crate::isolated::Isolated;
use crate::util::{median, ratio, Metrics};
use crate::workloads::{grid_fidelity, CellPass};
use memsim::stats::Counters;

/// Every per-layer metric with its unit, in emission order. `BENCHMARK.json`
/// lists the same names.
const LAYER_METRICS: [(&str, &str); 70] = [
    ("driver.machine_build_s", "s"),
    ("driver.sched_self_s", "s"),
    ("driver.sched_share", "ratio"),
    ("app.ops", "count"),
    ("app.ops_failed", "count"),
    ("app.op_ns_p50", "ns"),
    ("app.op_ns_p999", "ns"),
    ("app.preload_s", "s"),
    ("fs.create_map_s", "s"),
    ("fs.verify_s", "s"),
    ("tx.manager_create_s", "s"),
    ("tx.commit_ns_none", "ns"),
    ("tx.commit_ns_txbobject", "ns"),
    ("tx.commit_ns_txbpage", "ns"),
    ("tx.host_overhead_ratio", "ratio"),
    ("engine.sim_cycles", "cycles"),
    ("engine.sim_mcycles_per_s", "Mcycles/s"),
    ("engine.l1d_accesses", "count"),
    ("engine.host_ns_per_access", "ns"),
    ("engine.l1d_miss_ratio", "ratio"),
    ("engine.l2_miss_ratio", "ratio"),
    ("engine.llc_miss_ratio", "ratio"),
    ("engine.llc_red_accesses", "count"),
    ("engine.demand_queue_cycles", "cycles"),
    ("engine.hit_ns", "ns"),
    ("engine.flush_s", "s"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.est_share", "ratio"),
    ("mem.nvm_data_reads", "count"),
    ("mem.nvm_data_writes", "count"),
    ("mem.nvm_red_reads", "count"),
    ("mem.nvm_red_writes", "count"),
    ("mem.read_line_ns", "ns"),
    ("mem.write_line_ns", "ns"),
    ("mem.content_hash_s", "s"),
    ("mem.est_share", "ratio"),
    ("csum.line_ns", "ns"),
    ("csum.page_ns", "ns"),
    ("parity.delta_ns", "ns"),
    ("csum.est_share", "ratio"),
    ("ctrl.computes", "count"),
    ("ctrl.reads_verified", "count"),
    ("ctrl.cache_hit_ratio", "ratio"),
    ("ctrl.red_per_data", "ratio"),
    ("ctrl.host_overhead_ratio", "ratio"),
    ("init.region_ns_per_page", "ns"),
    ("init.reinit_s", "s"),
    ("weave.speedup", "ratio"),
    ("weave.woven_share", "ratio"),
    ("weave.divergences", "count"),
    ("weave.events", "count"),
    ("weave.events_per_s", "1/s"),
    ("weave.shard_occupancy", "ratio"),
    ("weave.seq_run_s", "s"),
    ("runner.cells_per_s", "1/s"),
    ("runner.jobs1_s", "s"),
    ("runner.jobs_speedup", "ratio"),
    ("runner.straggler_share", "ratio"),
    ("runner.cell_wall_p50_s", "s"),
    ("runner.cell_wall_max_s", "s"),
    ("runner.cpu_s", "s"),
    ("runner.cells_failed", "count"),
    ("report.render_s", "s"),
    ("stats.collect_ns", "ns"),
    ("model.norm_runtime", "ratio"),
    ("model.baseline_sim_cycles", "cycles"),
    ("trace.overhead_pct", "%"),
    ("est.unattributed_share", "ratio"),
];

struct Layers([f64; LAYER_METRICS.len()]);

impl Layers {
    fn new() -> Self {
        Layers([0.0; LAYER_METRICS.len()])
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }

    fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit), v) in LAYER_METRICS.iter().zip(self.0) {
            m.put(name, v, unit);
        }
        m
    }
}

/// Pages TxB-Page checksummed, estimated from the L1-D accesses it adds over
/// Baseline: per page it reads 64 lines, reads 2 stripe siblings per line,
/// writes 64 parity lines and one checksum slot. No counter records them.
const TXB_PAGE_L1D_PER_PAGE: f64 = 64.0 + 2.0 * 64.0 + 64.0 + 1.0;

/// Counts, isolated timings and the shares estimated from them (exact count
/// x isolated ns / measured host ns), common to cells and the grid.
/// `host_s` is the host time the counted work ran in; `sw_pages` the pages a
/// software scheme checksummed. Returns the summed estimated share.
fn counted(
    l: &mut Layers,
    c: &Counters,
    sim_cycles: u64,
    host_s: f64,
    sw_pages: f64,
    iso: &Isolated,
) -> f64 {
    let l1d = c.l1d_hits + c.l1d_misses;
    l.set("engine.sim_cycles", sim_cycles as f64);
    l.set(
        "engine.sim_mcycles_per_s",
        ratio(sim_cycles as f64 / 1e6, host_s),
    );
    l.set("engine.l1d_accesses", l1d as f64);
    l.set("engine.host_ns_per_access", ratio(host_s * 1e9, l1d as f64));
    l.set(
        "engine.l1d_miss_ratio",
        ratio(c.l1d_misses as f64, l1d as f64),
    );
    l.set(
        "engine.l2_miss_ratio",
        ratio(c.l2_misses as f64, c.l2_accesses() as f64),
    );
    l.set(
        "engine.llc_miss_ratio",
        ratio(c.llc_misses as f64, (c.llc_hits + c.llc_misses) as f64),
    );
    l.set("engine.llc_red_accesses", c.llc_redundancy_accesses as f64);
    l.set("engine.demand_queue_cycles", c.demand_queue_cycles as f64);
    l.set("engine.hit_ns", iso.engine_hit_ns);
    l.set("mem.nvm_data_reads", c.nvm_data_reads as f64);
    l.set("mem.nvm_data_writes", c.nvm_data_writes as f64);
    l.set("mem.nvm_red_reads", c.nvm_red_reads as f64);
    l.set("mem.nvm_red_writes", c.nvm_red_writes as f64);
    l.set("ctrl.computes", c.controller_computes as f64);
    l.set("ctrl.reads_verified", c.reads_verified as f64);
    l.set(
        "ctrl.cache_hit_ratio",
        ratio(c.tvarak_cache_hits as f64, c.tvarak_accesses() as f64),
    );
    l.set(
        "ctrl.red_per_data",
        ratio(c.nvm_redundancy() as f64, c.nvm_data() as f64),
    );

    l.set("cache.lookup_hit_ns", iso.cache_lookup_hit_ns);
    l.set("cache.lookup_miss_ns", iso.cache_lookup_miss_ns);
    l.set("cache.insert_evict_ns", iso.cache_insert_evict_ns);
    l.set("mem.read_line_ns", iso.mem_read_line_ns);
    l.set("mem.write_line_ns", iso.mem_write_line_ns);
    l.set("csum.line_ns", iso.csum_line_ns);
    l.set("csum.page_ns", iso.csum_page_ns);
    l.set("parity.delta_ns", iso.parity_delta_ns);
    l.set("tx.commit_ns_none", iso.tx_commit_ns_none);
    l.set("tx.commit_ns_txbobject", iso.tx_commit_ns_txbobject);
    l.set("tx.commit_ns_txbpage", iso.tx_commit_ns_txbpage);
    l.set("init.region_ns_per_page", iso.init_region_ns_per_page);
    l.set("stats.collect_ns", iso.stats_collect_ns);
    l.set("report.render_s", iso.report_render_s);

    let host_ns = host_s * 1e9;
    let hits = (c.l1d_hits + c.l2_hits + c.llc_hits + c.llc_redundancy_accesses) as f64;
    let misses = (c.l1d_misses + c.l2_misses + c.llc_misses) as f64;
    let cache = ratio(
        hits * iso.cache_lookup_hit_ns
            + misses * (iso.cache_lookup_miss_ns + iso.cache_insert_evict_ns),
        host_ns,
    );
    let mem = ratio(
        (c.nvm_data_reads + c.nvm_red_reads) as f64 * iso.mem_read_line_ns
            + (c.nvm_data_writes + c.nvm_red_writes) as f64 * iso.mem_write_line_ns,
        host_ns,
    );
    let csum = ratio(
        c.controller_computes as f64 * iso.csum_line_ns
            + c.nvm_red_writes as f64 * iso.parity_delta_ns
            + sw_pages * iso.csum_page_ns,
        host_ns,
    );
    l.set("cache.est_share", cache);
    l.set("mem.est_share", mem);
    l.set("csum.est_share", csum);
    cache + mem + csum
}

/// Per-layer metrics of a cell workload's traced pass. `ops_failed` is the
/// number of cells an application error aborted.
pub fn cell_layers(pass: &CellPass, ops_failed: u64, iso: &Isolated) -> Metrics {
    let mut l = Layers::new();
    let run_s = |reps: &[CellRun]| median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let untraced = &pass.design[0];
    let untraced_run_s = run_s(&pass.design);
    // Spans come from the last traced rep; if none completed, the gate has
    // already failed the run and the untraced rep's phase spans stand in.
    let traced = pass.traced.last().unwrap_or(untraced);
    let c = &untraced.stats.counters;
    let sim_cycles = untraced.stats.runtime_cycles();
    let base = pass.baseline.as_ref();

    let sw_pages = match (pass.kind, base) {
        (Kind::BtreeInsert, Some(b)) => {
            let bc = &b.stats.counters;
            ((c.l1d_hits + c.l1d_misses) as f64 - (bc.l1d_hits + bc.l1d_misses) as f64)
                / TXB_PAGE_L1D_PER_PAGE
        }
        _ => 0.0,
    };
    let est = counted(&mut l, c, sim_cycles, untraced_run_s, sw_pages, iso);

    l.set("driver.machine_build_s", traced.setup.machine_build_s);
    let sched_self_s = traced.run_s - traced.ops_s - traced.flush_s;
    let sched_share = sched_self_s / traced.run_s;
    l.set("driver.sched_self_s", sched_self_s);
    l.set("driver.sched_share", sched_share);
    l.set("app.ops", pass.kind.total_ops() as f64);
    l.set("app.ops_failed", ops_failed as f64);
    l.set("app.op_ns_p50", traced.op_ns_p50);
    l.set("app.op_ns_p999", traced.op_ns_p999);
    l.set("app.preload_s", traced.setup.preload_s);
    l.set("fs.create_map_s", traced.setup.create_map_s);
    l.set("fs.verify_s", traced.verify_s);
    l.set("tx.manager_create_s", traced.setup.tx_manager_s);
    l.set("engine.flush_s", traced.flush_s);
    l.set("mem.content_hash_s", traced.hash_s);
    l.set("init.reinit_s", traced.setup.reinit_s);
    // Host noise only ever adds time, so each side's fastest rep is the
    // one compared.
    let fastest = |reps: &[CellRun]| reps.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min);
    if !pass.traced.is_empty() {
        let (on, off) = (fastest(&pass.traced), fastest(&pass.design));
        l.set("trace.overhead_pct", 100.0 * (on - off) / off);
    }
    l.set("est.unattributed_share", 1.0 - est - sched_share);

    if let Some(b) = base {
        let overhead = untraced_run_s / b.run_s;
        if pass.kind.design().has_controller() {
            l.set("ctrl.host_overhead_ratio", overhead);
        } else {
            l.set("tx.host_overhead_ratio", overhead);
        }
        l.set(
            "model.norm_runtime",
            sim_cycles as f64 / b.stats.runtime_cycles() as f64,
        );
        l.set("model.baseline_sim_cycles", b.stats.runtime_cycles() as f64);
    }

    if !pass.sequential.is_empty() {
        let seq_run_s = run_s(&pass.sequential);
        let woven = pass.design.iter().filter(|r| r.weave.is_some()).count();
        l.set("weave.speedup", seq_run_s / untraced_run_s);
        l.set("weave.woven_share", woven as f64 / pass.design.len() as f64);
        l.set(
            "weave.divergences",
            pass.design.iter().filter(|r| r.diverged).count() as f64,
        );
        l.set("weave.seq_run_s", seq_run_s);
        if let Some(w) = &untraced.weave {
            l.set("weave.events", w.events as f64);
            l.set("weave.events_per_s", w.events as f64 / untraced.run_s);
            l.set("weave.shard_occupancy", w.occupancy());
        }
    }
    l.into_metrics()
}

/// Per-layer metrics of `quickgrid-j2`: the runner's view of the campaign,
/// plus counts summed over its cells. Host shares are of the campaign's CPU
/// seconds, since two cells run at a time.
pub fn grid_layers(grid: &GridRun, serial: &GridRun, iso: &Isolated) -> Metrics {
    let mut l = Layers::new();
    let mut c = Counters::default();
    let mut sim_cycles = 0;
    for (_, o) in grid.outcomes() {
        c += o.stats.counters;
        sim_cycles += o.stats.runtime_cycles();
    }
    let cpu_s = grid.cpu_s();
    let est = counted(&mut l, &c, sim_cycles, cpu_s, 0.0, iso);
    // Not reachable from outside `bench::workloads`: everything but the
    // machine builds and the kernels estimated above stays unattributed.
    l.set("driver.machine_build_s", grid.machines_s);
    l.set(
        "est.unattributed_share",
        1.0 - est - grid.machines_s / cpu_s,
    );
    l.set("app.ops", grid.ops() as f64);
    l.set("app.ops_failed", grid.failed_cells() as f64);

    let mut walls: Vec<f64> = grid.results.iter().map(|r| r.wall.as_secs_f64()).collect();
    walls.sort_by(f64::total_cmp);
    let longest = walls.last().copied().unwrap_or(0.0);
    l.set(
        "runner.cells_per_s",
        grid.results.len() as f64 / grid.wall_s,
    );
    l.set("runner.jobs1_s", serial.wall_s);
    l.set("runner.jobs_speedup", serial.wall_s / grid.wall_s);
    l.set("runner.straggler_share", longest / grid.wall_s);
    l.set("runner.cell_wall_p50_s", median(&walls));
    l.set("runner.cell_wall_max_s", longest);
    l.set("runner.cpu_s", cpu_s);
    l.set("runner.cells_failed", grid.failed_cells() as f64);

    if let Some((_, norm)) = grid_fidelity(grid) {
        l.set("model.norm_runtime", norm);
    }
    l.into_metrics()
}
