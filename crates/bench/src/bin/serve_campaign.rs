//! Open-loop request-serving campaign: throughput vs offered load and
//! p50/p99/p999 tail latency for every redundancy design.
//!
//! Sweeps the offered-load ladder (`bench::serve::gap_ladder`) for each
//! (app, design) pair: a seeded open-loop arrival stream (design-independent,
//! so designs compete on identical request sequences) drains through
//! per-core bounded queues with admission control into the app running on
//! the simulated machine. Emits `results/serve_campaign.csv` plus a stdout
//! table; cells run on the `--jobs` worker pool and the output is
//! byte-identical at any width.
//!
//! Flags (in addition to `--jobs N`):
//!
//! - `--knee` — after the ladder, run 3 geometric-bisection rounds per
//!   (app, design) pair to bracket the saturation knee (the heaviest load
//!   served without shedding) and report the estimate.
//! - `--arrival <uniform|poisson|bursty[:mult]>` — arrival process
//!   (default `poisson`).
//! - `--policy <shed|block>` — admission policy (default `shed`).
//!
//! Environment: `TVARAK_SCALE=quick|reduced` shrinks the sweep;
//! `SERVE_APPS=fio,kv,redis` selects apps (default `fio,kv`).
//!
//! Exits non-zero if any accounting invariant breaks (offered must equal
//! accepted + shed at every point, every admitted request must complete)
//! or — under the shed policy — if no sweep point lands past the
//! saturation knee.

use bench::campaign::{render, Campaign, Column, Config, Kind, Opt, Output};
use bench::serve::{check_invariants, run_campaign, CampaignConfig, ServeScale, ServedApp, SweepRow};

/// The offered rate (requests per kilocycle) of a mean gap in cycles.
fn rate(gap: f64) -> String {
    format!("{:.4}", 1000.0 / gap)
}

fn run(cfg: &Config<CampaignConfig>, jobs: usize) -> Output {
    let c = CampaignConfig { scale: ServeScale::of(cfg.scale), ..cfg.opts.clone() };
    let (rows, estimates) = run_campaign(&c, jobs);

    type Col = Column<SweepRow>;
    let cols = [
        Col::new("phase", "phase", -6, |r| r.phase),
        Col::new("app", "app", -6, |r| r.app.label()),
        Col::new("design", "design", -17, |r| r.design.label()),
        Col::csv("arrival", |r| r.process),
        Col::csv("policy", |r| r.policy),
        Col::csv("depth", |r| r.depth),
        Col::new("mean_gap_cycles", "gap", 9, |r| format!("{:.2}", r.mean_gap)),
        Col::table("off/kc", 9, |r| rate(r.mean_gap)),
        Col::table("srv/kc", 9, |r| format!("{:.4}", r.report.throughput_per_kcycle())),
        Col::csv("offered", |r| r.report.offered),
        Col::csv("accepted", |r| r.report.accepted),
        Col::new("shed", "shed", 6, |r| r.report.shed),
        Col::csv("blocked", |r| r.report.blocked),
        Col::new("peak_depth", "peakq", 6, |r| r.report.peak_depth),
        Col::csv("offered_per_kcycle", |r| rate(r.mean_gap)),
        Col::csv("served_per_kcycle", |r| format!("{:.4}", r.report.throughput_per_kcycle())),
        Col::new("lat_p50", "p50", 8, |r| r.report.latency.p50()),
        Col::new("lat_p99", "p99", 8, |r| r.report.latency.p99()),
        Col::new("lat_p999", "p999", 8, |r| r.report.latency.p999()),
        Col::csv("lat_mean", |r| format!("{:.1}", r.report.latency.mean())),
        Col::csv("queue_p50", |r| r.report.queueing.p50()),
        Col::csv("queue_p99", |r| r.report.queueing.p99()),
        Col::csv("span_cycles", |r| r.report.span_cycles),
    ];
    let (mut table, mut csv) = render(&cols, &rows, |_| true);
    // A knee estimate is one more CSV record — blank except under the
    // columns that identify the pair and carry the estimate — and a
    // free-form table line.
    let header = csv.lines().next().unwrap_or_default().to_string();
    for e in &estimates {
        let (app, design) = (e.app.label(), e.design.label());
        let cells = header.split(',').map(|column| match (column, e.knee_gap) {
            ("phase", _) => "knee-est".to_string(),
            ("app", _) => app.to_string(),
            ("design", _) => design.to_string(),
            ("mean_gap_cycles", Some(g)) => format!("{g:.2}"),
            ("offered_per_kcycle", Some(g)) => rate(g),
            _ => String::new(),
        });
        csv += &(cells.collect::<Vec<_>>().join(",") + "\n");
        table += &match e.knee_gap {
            Some(g) => format!(
                "knee   {app:<6} {design:<17} gap {g:>9.2} cycles ({} req/kcycle sustained)\n",
                rate(g)
            ),
            None => format!("knee   {app:<6} {design:<17} not bracketed by the ladder\n"),
        };
    }
    let title = format!(
        "# Open-loop serving campaign — {} arrivals, {} policy, {} requests/point, \
         {} serving cores, queue depth {}",
        c.process, c.policy, c.scale.requests, c.scale.serving_cores, c.scale.depth
    );
    Output {
        table: format!("{title}\n{table}"),
        files: vec![("serve_campaign.csv".into(), csv.into_bytes())],
        violations: check_invariants(&rows).err().into_iter().collect(),
        rows: rows.len(),
    }
}

/// The campaign this binary runs; its options edit the default
/// [`CampaignConfig`] (whose scale `run` replaces with `TVARAK_SCALE`'s).
pub fn campaign() -> Campaign<CampaignConfig> {
    Campaign::new("serve_campaign", run).ok_line("all serving invariants held").options(vec![
        Opt::new(Kind::Switch, "--knee", "", |c: &mut CampaignConfig, _| {
            c.knee_rounds = 3;
            Ok(())
        }),
        Opt::new(Kind::Value, "--arrival", "<uniform|poisson|bursty[:mult]>", |c, v| {
            v.parse().map(|p| c.process = p).map_err(|e| format!("{e}"))
        }),
        Opt::new(Kind::Value, "--policy", "<shed|block>", |c, v| {
            v.parse().map(|p| c.policy = p).map_err(|e| format!("{e}"))
        }),
        Opt::new(Kind::Env, "SERVE_APPS", "fio,kv,redis", |c, v| {
            ServedApp::parse_list(v).map(|apps| c.apps = apps)
        }),
    ])
}

fn main() {
    campaign().main()
}
