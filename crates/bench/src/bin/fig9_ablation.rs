//! Fig. 9: impact of TVARAK's design choices.
//!
//! One workload per application class (the paper's selection): Redis
//! set-only, C-Tree insert-only, N-Store balanced, fio random-write, stream
//! triad — under the naive controller and then adding each design element:
//!
//! 1. `Naive` — page-granular checksums, no caching, no diffs (Fig. 4/5)
//! 2. `+DAX-CL-csums` — cache-line granular checksums
//! 3. `+Red-caching` — on-controller cache + LLC redundancy partition
//!    (this row is also TVARAK for systems with *exclusive* LLCs, §IV-G)
//! 4. `+Data-diffs` — the complete TVARAK design
//!
//! Emits `results/fig9_ablation.csv` and `.gp`.

use apps::driver::Design;
use bench::campaign::{figure, Campaign, FigCell};
use bench::workloads::{class_representatives, Variant};
use tvarak::controller::TvarakConfig;

fn variants() -> Vec<(&'static str, Design)> {
    let naive = TvarakConfig::naive();
    let mut cl = naive;
    cl.cl_granular_csums = true;
    let mut cl_cache = cl;
    cl_cache.redundancy_caching = true;
    vec![
        ("Baseline", Design::Baseline),
        ("Naive", Design::TvarakAblated(naive)),
        ("+DAX-CL-csums", Design::TvarakAblated(cl)),
        ("+Red-caching", Design::TvarakAblated(cl_cache)),
        ("+Data-diffs(=Tvarak)", Design::Tvarak),
    ]
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig9_ablation", |cfg, jobs| {
        let mut cells = Vec::new();
        for (workload, run) in class_representatives() {
            for (label, design) in variants() {
                let (s, t) = (cfg.scale.workloads(), cfg.threads);
                cells.push(FigCell::new(workload, label, design, move || {
                    run(Variant::of(design), &s, t)
                }));
            }
        }
        let title = "Fig. 9 — Impact of TVARAK's design choices (runtime)";
        figure(title, "fig9_ablation", false, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
