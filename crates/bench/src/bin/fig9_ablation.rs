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
//! An optional group argument lets long sweeps fit in bounded CI slots:
//! `a` = redis+ctree, `b` = nstore+fio+stream, default = all.

use apps::driver::Design;
use bench::campaign::{figure, Campaign, Config, FigCell, Kind, Opt};
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

/// The campaign this binary runs; the option is the group (`a` or `b`).
pub fn campaign() -> Campaign<Option<String>> {
    Campaign::new("fig9_ablation", |cfg: &Config<Option<String>>, jobs| {
        let (classes, name) = match cfg.opts.as_deref() {
            Some("a") => (0..2, "fig9_ablation_a"),
            Some("b") => (2..5, "fig9_ablation_b"),
            _ => (0..5, "fig9_ablation"),
        };
        let mut cells = Vec::new();
        for (workload, run) in &class_representatives()[classes] {
            for (label, design) in variants() {
                let (run, s, t) = (*run, cfg.scale.workloads(), cfg.threads);
                cells.push(FigCell::new(*workload, label, design, move || {
                    run(Variant::of(design), &s, t)
                }));
            }
        }
        let title = "Fig. 9 — Impact of TVARAK's design choices (runtime)";
        figure(title, name, false, cells, jobs)
    })
    .options(vec![Opt::new(
        Kind::Positional(0),
        "",
        "a|b",
        |group, v| match v {
            "a" | "b" if group.is_none() => {
                *group = Some(v.to_string());
                Ok(())
            }
            _ => Err("expected one group, a or b".into()),
        },
    )])
}

fn main() {
    campaign().main()
}
