//! Extension experiment (Table I / Vilamb \[33\]): asynchronous software
//! redundancy with configurable epochs, on the Redis set-only workload.
//!
//! Sweeping the epoch length shows the Vilamb trade-off the paper's Table I
//! summarizes: overhead falls toward Baseline as the epoch grows, but every
//! transaction inside an epoch sits in a vulnerability window where silent
//! corruption would go undetected.

use apps::driver::Design;
use bench::campaign::{figure, Campaign, FigCell};
use bench::workloads::{run_redis_threads, RedisWorkload};

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("vilamb_sweep", |cfg, jobs| {
        let designs = [
            Design::Baseline,
            Design::Tvarak,
            Design::Vilamb { epoch_txs: 1 },
            Design::Vilamb { epoch_txs: 10 },
            Design::Vilamb { epoch_txs: 100 },
            Design::Vilamb { epoch_txs: 1000 },
            Design::TxbPage,
        ];
        let cells = designs.map(|design| {
            let label = match design {
                Design::Vilamb { epoch_txs } => format!("Vilamb(epoch={epoch_txs})"),
                d => d.label().to_string(),
            };
            let (s, t) = (cfg.scale.workloads(), cfg.threads);
            FigCell::new("set-only", label, design, move || {
                run_redis_threads(design, RedisWorkload::SetOnly, &s, t)
            })
        });
        let title = "Extension — Vilamb epoch sweep (Redis set-only)";
        figure(title, "vilamb_sweep", false, cells.into(), jobs)
    })
}

fn main() {
    campaign().main()
}
