//! Fig. 8(a–d): Redis set-only and get-only under all four designs.

use apps::driver::Design;
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::{run_redis_threads, RedisWorkload};

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("fig8_redis", |cfg, jobs| {
        let mixes =
            [RedisWorkload::SetOnly, RedisWorkload::GetOnly].map(|wl| (wl.label().to_string(), wl));
        let cells = grid(cfg, mixes, &Design::fig8(), |d, wl, s, t| {
            run_redis_threads(d, wl, s, t)
        });
        let title = "Fig. 8(a-d) — Redis (runtime, energy, NVM & cache accesses)";
        figure(title, "fig8_redis", true, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
