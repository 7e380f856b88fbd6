//! `quickgrid-j2`: the quick-scale Fig. 8 fio + KV + Redis grids (48 cells,
//! 4 designs) as one campaign through `bench::runner::run_cells`, the way
//! users run it. The cells come from `bench::workloads` unchanged, so they
//! use the seeds built into that module: `--seed` does not reach them.

use apps::driver::Design;
use apps::fio::Pattern;
use bench::runner::{run_cells, Cell, CellResult};
use bench::workloads::{
    machine, run_fio_threads, run_kv_threads, run_redis_threads, KvKind, KvWorkload, Outcome,
    RedisWorkload, Scale,
};
use memsim::PAGE;
use std::time::Instant;

/// What one grid cell is, kept beside its result so the harness can find
/// the cells that have a paper reference.
#[derive(Debug, Clone, PartialEq)]
pub struct CellId {
    pub workload: String,
    pub design: Design,
    /// Simulated application ops the cell's measured phase runs.
    pub ops: u64,
    /// Pool size the cell's machine is built with (`bench::workloads`).
    data_pages: u64,
}

type CellValue = (CellId, Result<Outcome, String>);
type CellFn = Box<dyn FnOnce() -> Result<Outcome, String> + Send>;

fn specs(s: &Scale) -> Vec<(CellId, CellFn)> {
    let mut out: Vec<(CellId, CellFn)> = Vec::new();
    let mut push = |id: CellId, run: CellFn| out.push((id, run));
    let fio_pages = s.fio_region_bytes / PAGE as u64 * s.fio_threads as u64 + 1024;
    for pattern in Pattern::all() {
        for design in Design::fig8() {
            let id = CellId {
                workload: format!("fio {}", pattern.label()),
                design,
                ops: s.fio_threads as u64 * s.fio_ops_per_thread,
                data_pages: fio_pages,
            };
            let s = s.clone();
            push(
                id,
                Box::new(move || {
                    run_fio_threads(design, pattern, &s, 1).map_err(|e| e.to_string())
                }),
            );
        }
    }
    let kv_heap = (s.kv_keys * 96 + s.kv_ops * 96).max(1 << 20);
    let kv_pages = (kv_heap / PAGE as u64 + 81) * s.kv_instances as u64 + 1500;
    for kind in KvKind::all() {
        for wl in [KvWorkload::InsertOnly, KvWorkload::Balanced] {
            for design in Design::fig8() {
                let id = CellId {
                    workload: format!("{}/{}", kind.label(), wl.label()),
                    design,
                    ops: s.kv_instances as u64 * s.kv_ops,
                    data_pages: kv_pages,
                };
                let s = s.clone();
                push(
                    id,
                    Box::new(move || {
                        run_kv_threads(design, kind, wl, &s, 1).map_err(|e| e.to_string())
                    }),
                );
            }
        }
    }
    let redis_heap =
        (s.redis_keys * (24 + s.redis_val as u64 + 16) * 2 + s.redis_keys * 64).max(1 << 20);
    let redis_pages = (redis_heap / PAGE as u64 + 81) * s.redis_instances as u64 + 1500;
    for wl in [RedisWorkload::SetOnly, RedisWorkload::GetOnly] {
        for design in Design::fig8() {
            let id = CellId {
                workload: format!("redis {}", wl.label()),
                design,
                ops: s.redis_instances as u64 * s.redis_ops,
                data_pages: redis_pages,
            };
            let s = s.clone();
            push(
                id,
                Box::new(move || run_redis_threads(design, wl, &s, 1).map_err(|e| e.to_string())),
            );
        }
    }
    out
}

#[derive(Debug)]
pub struct GridRun {
    /// Host seconds to build (and drop) the machine of every cell in the
    /// grid: the part of the campaign's set-up the harness can reach from
    /// outside. Preload runs inside `bench::workloads` and counts in `wall_s`.
    pub machines_s: f64,
    pub wall_s: f64,
    pub results: Vec<CellResult<CellValue>>,
}

impl GridRun {
    pub fn ops(&self) -> u64 {
        self.results.iter().map(|r| r.value.0.ops).sum()
    }

    pub fn failed_cells(&self) -> usize {
        self.results.iter().filter(|r| r.value.1.is_err()).count()
    }

    /// Sum of the cells' own wall times: the campaign's CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.results.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    pub fn outcomes(&self) -> impl Iterator<Item = (&CellId, &Outcome)> {
        self.results
            .iter()
            .filter_map(|r| r.value.1.as_ref().ok().map(|o| (&r.value.0, o)))
    }

    /// Simulated runtime of `workload` under `design` normalized to the
    /// grid's Baseline cell of the same workload.
    pub fn norm_runtime(&self, workload: &str, design: Design) -> Option<f64> {
        let cycles = |d: Design| {
            self.outcomes()
                .find(|(id, _)| id.workload == workload && id.design == d)
                .map(|(_, o)| o.stats.runtime_cycles() as f64)
        };
        Some(cycles(design)? / cycles(Design::Baseline)?)
    }

    /// Bit-identical simulated results (stats and media digest per cell).
    pub fn same_results(&self, other: &GridRun) -> bool {
        self.results.len() == other.results.len()
            && self.results.iter().zip(&other.results).all(|(a, b)| {
                a.value.0 == b.value.0
                    && match (&a.value.1, &b.value.1) {
                        (Ok(x), Ok(y)) => x.stats == y.stats && x.content_hash == y.content_hash,
                        _ => false,
                    }
            })
    }
}

pub fn run_grid(jobs: usize) -> GridRun {
    let scale = Scale::quick();
    let specs = specs(&scale);
    let t = Instant::now();
    for (id, _) in &specs {
        drop(std::hint::black_box(machine(id.design, id.data_pages)));
    }
    let machines_s = t.elapsed().as_secs_f64();
    let cells = specs
        .into_iter()
        .map(|(id, run)| {
            Cell::new(format!("{} {}", id.workload, id.design), move || {
                (id, run())
            })
        })
        .collect();
    let t = Instant::now();
    let results = run_cells(cells, jobs);
    let wall_s = t.elapsed().as_secs_f64();
    GridRun {
        machines_s,
        wall_s,
        results,
    }
}
