//! Fig. 8(m–p): fio sequential/random read/write under all four designs.

use apps::driver::Design;
use apps::fio::Pattern;
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::run_fio_threads;

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig8_fio", |cfg, jobs| {
        let patterns = Pattern::all().map(|p| (p.label().to_string(), p));
        let cells = grid(cfg, patterns, &Design::fig8(), |d, p, s, t| {
            run_fio_threads(d, p, s, t)
        });
        let title = "Fig. 8(m-p) — fio (runtime, energy, NVM & cache accesses)";
        figure(title, "fig8_fio", true, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
