//! Crash-simulation campaign: sweep app × design × crash point and verify
//! that every design recovers every crash to a consistent state (ISSUE 3;
//! DESIGN.md §10 crash model).
//!
//! Two deterministic phases, both on the [`bench::runner`] worker pool:
//!
//! 1. **Count**: one reference run per (app, design) cell with an unlimited
//!    writeback budget measures the window's total NVM writebacks `N`.
//! 2. **Replay**: a [`CrashPlan`] picks crash points from `0..=N`
//!    (exhaustive when `N` is small, reservoir sampling from a fixed seed
//!    otherwise, capped per cell by the scale) and each point replays the
//!    run with that budget, power-fails, recovers, and verifies.
//!
//! Emits `results/crashsim_campaign.csv` from the in-input-order results, so
//! the file is byte-identical at every `--jobs` setting. Exits non-zero if
//! any crash point reports unrecoverable loss. `TVARAK_SCALE=quick` keeps
//! the windows tiny (CI smoke).

use apps::driver::Design;
use apps::fio::Pattern;
use bench::campaign::{Campaign, Column, Config, Output};
use bench::runner::{self, Cell};
use crashsim::{AppKind, CrashPlan, CrashReport, Scenario};

/// The crash-point sampling seed.
const SEED: u64 = 0x7c4a_51c3;

/// One replayed crash point.
struct Row {
    sc: Scenario,
    k: u64,
    report: CrashReport,
}

fn run(cfg: &Config<()>, jobs: usize) -> Output {
    // Workload sizes and the per-cell crash-point cap: quick keeps windows
    // small enough that most cells enumerate exhaustively.
    let (fio_ops, stream_iters, ctree_keys, samples) =
        cfg.scale.pick((3, 2, 4, 8), (6, 4, 8, 16), (8, 6, 12, 24));
    let apps = [
        AppKind::Fio {
            threads: 2,
            region_bytes: 4096,
            pattern: Pattern::SeqWrite,
            ops: fio_ops,
        },
        AppKind::StreamCopy {
            threads: 2,
            array_bytes: 8 * 1024,
            iters: stream_iters,
        },
        AppKind::CtreeInsert { keys: ctree_keys },
    ];
    let scenarios: Vec<Scenario> = apps
        .iter()
        .flat_map(|&app| Design::all().map(|design| Scenario { app, design }))
        .collect();

    // Phase 1: reference runs count each cell's writeback window.
    let count_cells: Vec<Cell<u64>> = scenarios
        .iter()
        .map(|&sc| {
            Cell::new(format!("count {}", sc.label()), move || {
                sc.count_writebacks()
            })
        })
        .collect();
    let totals = runner::run_cells(count_cells, jobs);

    // Phase 2: replay every planned crash point of every cell.
    let mut replay_cells: Vec<Cell<Row>> = Vec::new();
    for (&sc, total) in scenarios.iter().zip(&totals) {
        let plan = CrashPlan::sampled(total.value, samples, SEED);
        for &k in &plan.points {
            replay_cells.push(Cell::new(
                format!("{} k={k}/{}", sc.label(), plan.total),
                move || Row {
                    sc,
                    k,
                    report: sc.run_crash_point(k),
                },
            ));
        }
    }
    let results = runner::run_cells(replay_cells, jobs);
    runner::eprint_rates(&results, |_| 0);
    let rows: Vec<Row> = results.into_iter().map(|r| r.value).collect();

    type Col = Column<Row>;
    let cols = [
        Col::new("app", "app", -14, |r| r.sc.app.label()),
        Col::new("design", "design", -17, |r| r.sc.design.label()),
        Col::new("crash_point", "k", 7, |r| r.k),
        Col::new("total_writebacks", "total", 7, |r| {
            r.report.total_writebacks
        }),
        Col::new("crashed", "crashed", 7, |r| r.report.crashed as u8),
        Col::new("rolled_back", "rolled", 6, |r| r.report.rolled_back),
        Col::new("unverifiable_pages", "unverif", 8, |r| {
            r.report.unverifiable_pages
        }),
        Col::new("vilamb_pending", "vilamb", 7, |r| r.report.vilamb_pending),
        Col::csv("violations", |r| r.report.violations.len()),
        Col::new("outcome", "outcome", 9, |r| r.report.outcome.label()),
        Col::csv("image_hash", |r| format!("{:#018x}", r.report.image_hash)),
    ];
    let title = format!(
        "# Crash-simulation campaign — {} cells, ≤{samples} crash points each, seed {SEED:#x}",
        scenarios.len()
    );
    let mut out = Output::sheet(&title, "crashsim_campaign.csv", &cols, &rows, |_| true);
    for r in &rows {
        let lost = r.report.violations.iter();
        out.violations
            .extend(lost.map(|v| format!("{} k={}: {v}", r.sc.label(), r.k)));
    }
    out
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("crashsim_campaign", run)
        .ok_line("every crash point recovered to a consistent state")
}

fn main() {
    campaign().main()
}
