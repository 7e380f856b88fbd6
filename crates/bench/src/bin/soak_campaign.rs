//! Long-horizon soak campaign: fio and KV under every design, measured as
//! interval snapshots streaming to CSV (DESIGN.md §16).
//!
//! Each cell drives one (app × design) pair for `--intervals` measurement
//! intervals of `--ops-per-interval` ops per instance, capturing per-interval
//! throughput, cache hit rates, NVM traffic, and `serve::Hist` latency tails
//! without ever holding whole-horizon state. After every cell, the merged
//! interval rows are checked bit-identical against the machine's own
//! monolithic accumulation (`Stats::delta_since` oracle) — any mismatch
//! makes the campaign exit non-zero.
//!
//! Output: `results/soak_campaign.csv` plus a stdout table. Cells execute
//! on the `bench::runner` pool; CSV and stdout are byte-identical at any
//! `--jobs` width. Peak-RSS telemetry goes to stderr only (it is
//! host-dependent and must not enter the deterministic artifacts).

use apps::driver::Design;
use apps::fio::Pattern;
use bench::campaign::{positive, Campaign, Column, Config, Kind, Opt, Output};
use bench::runner::{self, Cell};
use bench::soak::{soak_fio, soak_kv, IntervalRow, SoakConfig, SoakOutcome};
use bench::workloads::{KvKind, KvWorkload};
use serve::Hist;

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// `--intervals` and `--ops-per-interval` (default: from the scale).
#[derive(Default)]
pub struct Flags {
    intervals: Option<u64>,
    ops_per_interval: Option<u64>,
}

/// One CSV row: a closed interval, or (with the media digest) a cell's
/// whole-horizon total — the machine's own monolithic accumulation.
struct Row {
    app: &'static str,
    design: Design,
    r: IntervalRow,
    total_hash: Option<u64>,
}

fn run(cfg: &Config<Flags>, jobs: usize) -> Output {
    let scale = cfg.scale.workloads();
    let mut soak = SoakConfig::from_scale(&scale);
    soak.intervals = cfg.opts.intervals.unwrap_or(soak.intervals);
    soak.ops_per_interval = cfg.opts.ops_per_interval.unwrap_or(soak.ops_per_interval);

    let mut cells: Vec<Cell<(&'static str, Design, SoakOutcome)>> = Vec::new();
    for design in Design::all() {
        let (s, c) = (scale.clone(), soak.clone());
        cells.push(Cell::new(
            format!("soak fio-randwrite {design}"),
            move || {
                let out = soak_fio(design, Pattern::RandWrite, &s, &c).expect("fio soak failed");
                ("fio-randwrite", design, out)
            },
        ));
        let (s, c) = (scale.clone(), soak.clone());
        cells.push(Cell::new(
            format!("soak kv-btree-bal {design}"),
            move || {
                let out = soak_kv(design, KvKind::BTree, KvWorkload::Balanced, &s, &c)
                    .expect("kv soak failed");
                ("kv-btree-bal", design, out)
            },
        ));
    }
    let results = runner::run_cells(cells, jobs);
    runner::eprint_rates(&results, |(_, _, out)| out.monolithic.runtime_cycles());

    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for r in results {
        let (app, design, out) = r.value;
        if let Err(e) = out.verify() {
            violations.push(format!("[{app} {design}] snapshot-merge: {e}"));
        }
        let (total, hash) = (out.total_row(), Some(out.content_hash));
        rows.extend(out.rows.into_iter().map(|r| Row {
            app,
            design,
            r,
            total_hash: None,
        }));
        rows.push(Row {
            app,
            design,
            r: total,
            total_hash: hash,
        });
    }

    type Col = Column<Row>;
    let lat = |f: fn(&Hist) -> u64| {
        move |r: &Row| {
            r.total_hash
                .map_or_else(|| f(&r.r.lat).to_string(), |_| "-".into())
        }
    };
    let hit = |hits: u64, misses: u64| percent(hits, hits + misses);
    let l1d = move |r: &Row| hit(r.r.delta.counters.l1d_hits, r.r.delta.counters.l1d_misses);
    let llc = move |r: &Row| hit(r.r.delta.counters.llc_hits, r.r.delta.counters.llc_misses);
    let tv = |r: &Row| {
        percent(
            r.r.delta.counters.tvarak_cache_hits,
            r.r.delta.counters.tvarak_accesses(),
        )
    };
    let cols = [
        Col::new("app", "app", -14, |r| r.app),
        Col::new("design", "design", -17, |r| r.design.label()),
        Col::new("interval", "interval", 8, |r| {
            r.total_hash
                .map_or_else(|| r.r.interval.to_string(), |_| "total".into())
        }),
        Col::new("ops", "ops", 7, |r| r.r.ops),
        Col::csv("cum_cycles", |r| r.r.cum_runtime_cycles),
        Col::new("interval_cycles", "cycles", 12, |r| r.r.interval_cycles),
        Col::new("ops_per_mcycle", "ops/Mcyc", 9, |r| {
            format!(
                "{:.3}",
                r.r.ops as f64 * 1e6 / r.r.interval_cycles.max(1) as f64
            )
        }),
        Col::csv("l1d_hit_pct", move |r| format!("{:.4}", l1d(r))),
        Col::csv("llc_hit_pct", move |r| format!("{:.4}", llc(r))),
        Col::csv("tvarak_hit_pct", move |r| format!("{:.4}", tv(r))),
        Col::table("llc%", 7, move |r| format!("{:.2}", llc(r))),
        Col::table("tv$%", 7, move |r| format!("{:.2}", tv(r))),
        Col::csv("nvm_data", |r| r.r.delta.counters.nvm_data()),
        Col::csv("nvm_red", |r| r.r.delta.counters.nvm_redundancy()),
        Col::csv("dram", |r| r.r.delta.counters.dram_accesses),
        Col::new("lat_p50", "p50", 8, lat(Hist::p50)),
        Col::new("lat_p99", "p99", 8, lat(Hist::p99)),
        Col::new("lat_p999", "p999", 8, lat(Hist::p999)),
        Col::csv("lat_max", lat(Hist::max)),
        Col::csv("content_hash", |r| {
            r.total_hash.map_or("-".into(), |h| format!("{h:016x}"))
        }),
    ];
    let title = format!(
        "# Soak campaign — {} intervals x {} ops/instance/interval, fio {} threads / kv {} instances",
        soak.intervals, soak.ops_per_interval, scale.fio_threads, scale.kv_instances
    );
    let interval = |r: &Row| r.total_hash.is_none();
    let mut out = Output::sheet(&title, "soak_campaign.csv", &cols, &rows, interval);
    out.violations = violations;
    out
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<Flags> {
    Campaign::new("soak_campaign", run).options(vec![
        Opt::new(Kind::Value, "--intervals", "N", |f: &mut Flags, v| {
            positive(v).map(|n| f.intervals = Some(n))
        }),
        Opt::new(
            Kind::Value,
            "--ops-per-interval",
            "N",
            |f: &mut Flags, v| positive(v).map(|n| f.ops_per_interval = Some(n)),
        ),
    ])
}

fn main() {
    campaign().main()
}
