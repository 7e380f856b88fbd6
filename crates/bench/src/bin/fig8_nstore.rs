//! Fig. 8(i–l): N-Store YCSB read-heavy / balanced / update-heavy under all
//! four designs.

use apps::driver::Design;
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::{run_nstore_threads, NstoreWorkload};

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig8_nstore", |cfg, jobs| {
        let mixes = NstoreWorkload::all().map(|wl| (wl.label().to_string(), wl));
        let cells = grid(cfg, mixes, &Design::fig8(), |d, wl, s, t| {
            run_nstore_threads(d, wl, s, t)
        });
        let title = "Fig. 8(i-l) — N-Store (runtime, energy, NVM & cache accesses)";
        figure(title, "fig8_nstore", true, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
