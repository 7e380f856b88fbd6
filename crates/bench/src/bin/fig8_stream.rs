//! Fig. 8(q–t): stream copy/scale/add/triad under all four designs.

use apps::driver::Design;
use apps::stream::Kernel;
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::run_stream_threads;

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig8_stream", |cfg, jobs| {
        let kernels = Kernel::all().map(|k| (k.label().to_string(), k));
        let cells = grid(cfg, kernels, &Design::fig8(), |d, k, s, t| {
            run_stream_threads(d, k, s, t)
        });
        let title = "Fig. 8(q-t) — stream (runtime, energy, NVM & cache accesses)";
        figure(title, "fig8_stream", true, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
