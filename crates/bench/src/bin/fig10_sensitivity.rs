//! Fig. 10: sensitivity of TVARAK to the LLC way-partition sizes.
//!
//! (a) sweep the redundancy-caching ways over {1, 2, 4, 8} with 1 diff
//! way; (b) sweep the data-diff ways over {1, 2, 4, 8} with 2 redundancy
//! ways — for the same five workloads as Fig. 9. Pass `redundancy`, `diffs`,
//! or nothing (both) as an argument.

use apps::driver::Design;
use bench::campaign::{figure, Campaign, Config, FigCell, Kind, Opt, Output};
use bench::workloads::{class_representatives, Variant};

const WAYS: [usize; 4] = [1, 2, 4, 8];

/// One sweep: Baseline rows for normalization, then one variant per way
/// count, each over the five class representatives.
fn sweep(
    cfg: &Config<Option<String>>,
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

/// The campaign this binary runs; the option is the sweep (`redundancy` or
/// `diffs`).
pub fn campaign() -> Campaign<Option<String>> {
    Campaign::new("fig10_sensitivity", |cfg: &Config<Option<String>>, jobs| {
        let mut out = Output::default();
        if cfg.opts.as_deref() != Some("diffs") {
            let title = "Fig. 10(a) — sensitivity to LLC ways for redundancy caching";
            out.append(sweep(cfg, jobs, title, "fig10a_redundancy_ways", |ways| {
                let v = Variant::of(Design::Tvarak)
                    .redundancy_ways(ways)
                    .diff_ways(1);
                (format!("Tvarak(red={ways})"), v)
            }));
        }
        if cfg.opts.as_deref() != Some("redundancy") {
            let title = "Fig. 10(b) — sensitivity to LLC ways for data diffs";
            out.append(sweep(cfg, jobs, title, "fig10b_diff_ways", |ways| {
                let v = Variant::of(Design::Tvarak)
                    .redundancy_ways(2)
                    .diff_ways(ways);
                (format!("Tvarak(diff={ways})"), v)
            }));
        }
        out
    })
    .options(vec![Opt::new(
        Kind::Positional(0),
        "",
        "redundancy|diffs",
        |which, v| match v {
            "redundancy" | "diffs" if which.is_none() => {
                *which = Some(v.to_string());
                Ok(())
            }
            _ => Err("expected one sweep, redundancy or diffs".into()),
        },
    )])
}

fn main() {
    campaign().main()
}
