//! Every campaign binary's source, included as a module so the tests can
//! call its pure `campaign().run` in-process (a binary target cannot be
//! imported), plus the quick-scale registry the suites iterate.

#![allow(dead_code)] // each file's `main`, and helpers only one suite uses

use bench::campaign::{Campaign, Config, Output, UsageError};

#[path = "../../src/bin/chaos_campaign.rs"]
pub mod chaos_campaign;
#[path = "../../src/bin/coverage_campaign.rs"]
pub mod coverage_campaign;
#[path = "../../src/bin/crashsim_campaign.rs"]
pub mod crashsim_campaign;
#[path = "../../src/bin/degraded_campaign.rs"]
pub mod degraded_campaign;
#[path = "../../src/bin/fig10_sensitivity.rs"]
pub mod fig10_sensitivity;
#[path = "../../src/bin/fig8_fio.rs"]
pub mod fig8_fio;
#[path = "../../src/bin/fig8_kv.rs"]
pub mod fig8_kv;
#[path = "../../src/bin/fig8_nstore.rs"]
pub mod fig8_nstore;
#[path = "../../src/bin/fig8_redis.rs"]
pub mod fig8_redis;
#[path = "../../src/bin/fig8_stream.rs"]
pub mod fig8_stream;
#[path = "../../src/bin/fig9_ablation.rs"]
pub mod fig9_ablation;
#[path = "../../src/bin/sec4h_scaling.rs"]
pub mod sec4h_scaling;
#[path = "../../src/bin/soak_campaign.rs"]
pub mod soak_campaign;
#[path = "../../src/bin/vilamb_sweep.rs"]
pub mod vilamb_sweep;

/// Parse `args` under `env` as the binary would: the config and the
/// `--jobs` width.
pub fn parse<O: Default>(
    campaign: &Campaign<O>,
    args: &[&str],
    env: &[(&str, &str)],
) -> Result<(Config<O>, usize), UsageError> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let lookup = |k: &str| env.iter().find(|e| e.0 == k).map(|e| e.1.to_string());
    campaign.cli.parse(&args, &lookup)
}

/// Run at quick scale and `jobs` workers with arguments the campaign must
/// accept.
pub fn quick<O: Default>(campaign: Campaign<O>, args: &[&str], jobs: usize) -> Output {
    let parsed = parse(&campaign, args, &[("TVARAK_SCALE", "quick")]);
    let (cfg, _) = parsed.expect("valid arguments");
    (campaign.run)(&cfg, jobs)
}

/// A campaign at quick scale, as a function of the worker count.
pub type Quick = fn(usize) -> Output;

/// Every campaign at quick scale and default flags — soak also at the short
/// 3 × 256 horizon.
pub const ALL: [(&str, Quick); 15] = [
    ("chaos_campaign", |j| {
        quick(chaos_campaign::campaign(), &[], j)
    }),
    ("coverage_campaign", |j| {
        quick(coverage_campaign::campaign(), &[], j)
    }),
    ("crashsim_campaign", |j| {
        quick(crashsim_campaign::campaign(), &[], j)
    }),
    ("degraded_campaign", |j| {
        quick(degraded_campaign::campaign(), &[], j)
    }),
    ("fig10_sensitivity", |j| {
        quick(fig10_sensitivity::campaign(), &[], j)
    }),
    ("fig8_fio", |j| quick(fig8_fio::campaign(), &[], j)),
    ("fig8_kv", |j| quick(fig8_kv::campaign(), &[], j)),
    ("fig8_nstore", |j| quick(fig8_nstore::campaign(), &[], j)),
    ("fig8_redis", |j| quick(fig8_redis::campaign(), &[], j)),
    ("fig8_stream", |j| quick(fig8_stream::campaign(), &[], j)),
    ("fig9_ablation", |j| {
        quick(fig9_ablation::campaign(), &[], j)
    }),
    ("sec4h_scaling", |j| {
        quick(sec4h_scaling::campaign(), &[], j)
    }),
    ("soak_campaign", |j| {
        quick(soak_campaign::campaign(), &[], j)
    }),
    ("soak_campaign 3x256", |j| {
        let horizon = ["--intervals", "3", "--ops-per-interval", "256"];
        quick(soak_campaign::campaign(), &horizon, j)
    }),
    ("vilamb_sweep", |j| quick(vilamb_sweep::campaign(), &[], j)),
];
