//! Fig. 10: sensitivity of TVARAK to the LLC way-partition sizes.
//!
//! (a) sweep the redundancy-caching ways over {1, 2, 4, 8} with 1 diff
//! way; (b) sweep the data-diff ways over {1, 2, 4, 8} with 2 redundancy
//! ways — for the same five workloads as Fig. 9. Emits both sweeps,
//! `results/fig10a_redundancy_ways.{csv,gp}` and
//! `results/fig10b_diff_ways.{csv,gp}`.

use apps::driver::Design;
use bench::campaign::{figure, Campaign, Config, FigCell, Output};
use bench::workloads::{class_representatives, Variant};

const WAYS: [usize; 4] = [1, 2, 4, 8];

/// One sweep: Baseline rows for normalization, then one variant per way
/// count, each over the five class representatives.
fn sweep(
    cfg: &Config<()>,
    jobs: usize,
    title: &str,
    name: &str,
    variant: impl Fn(usize) -> (String, Variant),
) -> Output {
    let mut variants = vec![("Baseline".to_string(), Variant::of(Design::Baseline))];
    variants.extend(WAYS.map(variant));
    let mut cells = Vec::new();
    for (label, v) in variants {
        for (workload, run) in class_representatives() {
            let (v, s, t) = (v.clone(), cfg.scale.workloads(), cfg.threads);
            cells.push(FigCell::new(workload, label.clone(), v.design, move || {
                run(v, &s, t)
            }));
        }
    }
    figure(title, name, false, cells, jobs)
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig10_sensitivity", |cfg, jobs| {
        let title = "Fig. 10(a) — sensitivity to LLC ways for redundancy caching";
        let mut out = sweep(cfg, jobs, title, "fig10a_redundancy_ways", |ways| {
            let v = Variant::of(Design::Tvarak)
                .redundancy_ways(ways)
                .diff_ways(1);
            (format!("Tvarak(red={ways})"), v)
        });
        let title = "Fig. 10(b) — sensitivity to LLC ways for data diffs";
        out.append(sweep(cfg, jobs, title, "fig10b_diff_ways", |ways| {
            let v = Variant::of(Design::Tvarak)
                .redundancy_ways(2)
                .diff_ways(ways);
            (format!("Tvarak(diff={ways})"), v)
        }));
        out
    })
}

fn main() {
    campaign().main()
}
