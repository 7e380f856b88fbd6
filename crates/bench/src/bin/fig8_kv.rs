//! Fig. 8(e–h): C-Tree / B-Tree / RB-Tree insert-only and balanced
//! workloads under all four designs.

use apps::driver::Design;
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::{run_kv_threads, KvKind, KvWorkload};

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig8_kv", |cfg, jobs| {
        let mixes = KvKind::all().into_iter().flat_map(|kind| {
            [KvWorkload::InsertOnly, KvWorkload::Balanced]
                .map(|wl| (format!("{}/{}", kind.label(), wl.label()), (kind, wl)))
        });
        let cells = grid(cfg, mixes, &Design::fig8(), |d, (kind, wl), s, t| {
            run_kv_threads(d, kind, wl, s, t)
        });
        let title = "Fig. 8(e-h) — Key-value structures (runtime, energy, NVM & cache accesses)";
        figure(title, "fig8_kv", true, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
