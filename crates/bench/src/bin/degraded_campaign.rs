//! Degraded-mode campaign: drive every design × fio/kv under sustained
//! foreground load through whole-device failures and measure what
//! broken-and-serving actually costs.
//!
//! A DIMM failure is fail-stop: a blank spare takes the device's place and
//! every line it held is lost, a media error the device signals on read
//! (`memsim::Memory::fail_bank`). The design's own cross-DIMM parity is
//! the only redundancy. Each cell walks the device-replacement lifecycle
//! (`pmemfs::rebuild`) through four phases — **healthy → degraded** (a
//! DIMM fails; its redundancy pages are rebuilt at once, and reads repair
//! the lost data pages they touch from parity) **→ rebuilding** (a hot
//! spare attaches and the resilver races foreground traffic under the
//! maintenance token bucket) **→ recovered** — and reports per-phase
//! throughput and tail latency, pages repaired on read and by the
//! resilver, and pages declared lost. Scenarios:
//!
//! - `rebuild`: one failure; the baseline lifecycle.
//! - `double`: a second DIMM fails mid-resilver, leaving two erasures in
//!   every stripe whose first-failure page no read, scrub or resilver step
//!   had repaired yet: those pages are declared lost and quarantined (fail
//!   closed).
//!
//! Baseline keeps no parity: every page its failed DIMMs held is declared
//! lost, and its reads are signalled. Invariants, enforced per cell and
//! fatal to the campaign:
//!
//! 1. The resilver completes under load (within a generous op cap) for
//!    every design and scenario.
//! 2. No silent wrong data under any design: a lost line is signalled, so
//!    no read returns a byte that differs from the acknowledged write
//!    stream, and no application crashes on fabricated bytes.
//! 3. Under `rebuild`, for every design with parity (Tvarak, the naive
//!    ablation, TxB-Object, TxB-Page): nothing is lost or quarantined,
//!    the degraded phase repairs through reads (reconstruct-on-read), the
//!    post-resilver media of the striped region (every data and parity
//!    page) equals a never-faulted oracle run of the same design, seed and
//!    op count, and the workload file audits clean. The checksum tables
//!    are audited, not hashed: a design keeps one granularity current,
//!    and a rebuilt table page cannot restore the other's stale entries.
//!
//! Each cell also checks its declared losses: Baseline declares some page
//! lost, and a design with parity quarantines every page it declares lost.
//!
//! `--filter <substring>` runs matching cells only. Emits
//! `results/degraded_campaign.csv` (byte-identical at any `--jobs`) and
//! exits non-zero on any invariant violation.

use apps::driver::{Design, Machine};
use bench::campaign::{Campaign, Column, Config, Output};
use bench::faulted::{
    designs, enable_pipeline, seed_for, small_machine, workload, Tally, Workload, FLUSH_EVERY,
};
use bench::runner::{self, Cell};
use memsim::addr::{nvm_page, LINES_PER_PAGE};
use pmemfs::rebuild::PoolState;
use serve::Hist;

const SEED_BASE: u64 = 0x00de_64ad;
/// Per-core transaction-log bytes.
const TX_LOG: u64 = 64 * 1024;
/// First device to fail; the mid-rebuild second failure takes the next one.
const FAIL_BANK: usize = 1;
const SECOND_BANK: usize = 2;
/// Rebuilding-phase ops before the second failure: the resilver has
/// repaired its first pages and the rest of the bank is still lost.
const SECOND_AT: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// One device failure, clean resilver.
    Rebuild,
    /// A second device fails mid-resilver: declared data loss, lost pages
    /// quarantined, serving fails closed.
    Double,
}

impl Scenario {
    fn all() -> [Scenario; 2] {
        [Scenario::Rebuild, Scenario::Double]
    }

    fn label(self) -> &'static str {
        match self {
            Scenario::Rebuild => "rebuild",
            Scenario::Double => "double",
        }
    }
}

/// Whether the cell's post-resilver media must equal the never-faulted
/// oracle: one failure, under a design with parity to rebuild from.
fn oracle_strict(design: Design, scenario: Scenario) -> bool {
    scenario == Scenario::Rebuild && design != Design::Baseline
}

/// Per-phase measurement: foreground ops, simulated cycles on the serving
/// core, pages repaired from parity in the window, and the per-op latency
/// distribution (each op's serving-core cycle delta, including any
/// maintenance work piggybacked on it — QoS pacing spikes are exactly what
/// the tail shows).
#[derive(Debug, Clone, Default)]
struct Phase {
    ops: u64,
    cycles: u64,
    recovered: u64,
    lat: Hist,
}

impl Phase {
    /// Throughput in ops per kilocycle (the per-phase cost headline).
    fn ops_per_kcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 * 1000.0 / self.cycles as f64
        }
    }
}

#[derive(Debug, Default)]
struct Outcome {
    phases: [Phase; 4],
    total_ops: u64,
    tally: Tally,
    detections: u64,
    recoveries: u64,
    quarantines: u64,
    pages_resilvered: u64,
    pages_lost: u64,
    rebuilds_completed: u64,
    content_hash: u64,
    oracle_hash: u64,
    violations: Vec<String>,
}

/// A phase's measurement window on the serving core.
struct Window {
    clock0: u64,
    recovered0: u64,
    lat: Hist,
}

impl Window {
    fn open(m: &Machine) -> Self {
        Window {
            clock0: m.sys.clock(0),
            recovered0: m.stats().counters.pages_recovered,
            lat: Hist::new(),
        }
    }

    fn close(self, m: &Machine, ops: u64) -> Phase {
        Phase {
            ops,
            cycles: m.sys.clock(0) - self.clock0,
            recovered: m.stats().counters.pages_recovered - self.recovered0,
            lat: self.lat,
        }
    }
}

/// Drive up to `limit` foreground ops (a crash stops the phase), ticking
/// maintenance after every op and flushing on the global cadence. Returns
/// the ops actually run.
fn drive(
    m: &mut Machine,
    w: &mut dyn Workload,
    out: &mut Outcome,
    op: &mut u64,
    limit: u64,
    lat: &mut Hist,
) -> u64 {
    let mut ran = 0;
    while ran < limit {
        let start = m.sys.clock(0);
        if w.step(m, *op, &mut out.tally).is_err() {
            break; // crashed (already recorded)
        }
        let _ = m.tick_maintenance(0);
        lat.record(m.sys.clock(0) - start);
        *op += 1;
        ran += 1;
        if (*op).is_multiple_of(FLUSH_EVERY) {
            m.flush();
        }
    }
    ran
}

/// FNV-1a over the striped region (every data and parity page): the media
/// the design's parity protects.
fn striped_hash(m: &Machine) -> u64 {
    let layout = m.fs.layout();
    let pages = layout.geometry().total_pages_for(layout.data_pages());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in (0..pages).flat_map(|i| (0..LINES_PER_PAGE).map(move |o| nvm_page(i).line(o))) {
        for b in m.sys.memory().peek_line(line) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run one faulted cell end to end; `ctx` labels violations.
fn run_faulted(app: &str, design: Design, scenario: Scenario, ctx: &str, n: u64) -> Outcome {
    let seed = seed_for(SEED_BASE, app, scenario.label());
    let mut out = Outcome::default();
    let mut m = small_machine(design);
    let mut w = workload(app, &mut m, seed, TX_LOG);
    let file = *w.file();
    m.flush();
    enable_pipeline(&mut m, &file);
    m.flush();
    m.enable_replacement();
    // Generous completion cap: 32 ops per region page covers both banks
    // and scrub's minimum share many times over. Exceeding it means the
    // rebuild did not complete under load.
    let cap = 64 + 32 * m.fs.layout().total_pages();

    let mut op = 0u64;

    // Phase 0: healthy.
    let mut win = Window::open(&m);
    let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, n, &mut win.lat);
    out.phases[0] = win.close(&m, ran);

    // Phase 1: degraded — the device dies, serving continues from parity.
    m.fail_device(FAIL_BANK);
    let mut win = Window::open(&m);
    let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, n, &mut win.lat);
    out.phases[1] = win.close(&m, ran);

    // Phase 2: rebuilding — hot spare attached, resilver races foreground
    // traffic; `double` fails a second device mid-resilver.
    m.attach_spare(FAIL_BANK);
    let mut win = Window::open(&m);
    let mut rebuilding_ops = 0u64;
    let mut second_fired = scenario == Scenario::Rebuild;
    loop {
        if !second_fired && rebuilding_ops >= SECOND_AT {
            m.fail_device(SECOND_BANK);
            second_fired = true;
        }
        match m.pool_state() {
            // The second failed bank waits for the first resilver.
            PoolState::Degraded => m.attach_spare(SECOND_BANK),
            PoolState::Healthy if second_fired => break,
            _ => {}
        }
        if out.tally.crashed || rebuilding_ops >= cap {
            break;
        }
        let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, 1, &mut win.lat);
        if ran == 0 {
            break;
        }
        rebuilding_ops += ran;
    }
    out.phases[2] = win.close(&m, rebuilding_ops);
    if m.pool_state() != PoolState::Healthy {
        out.violations.push(format!(
            "{ctx}: resilver did not complete under load ({rebuilding_ops} ops, cap {cap})"
        ));
    }

    // Phase 3: recovered.
    let mut win = Window::open(&m);
    let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, n, &mut win.lat);
    out.phases[3] = win.close(&m, ran);

    m.flush();
    out.total_ops = op;
    out.content_hash = striped_hash(&m);
    if let Some(r) = m.replacement() {
        out.pages_resilvered = r.pages_resilvered();
        out.pages_lost = r.pages_lost();
        out.rebuilds_completed = r.rebuilds_completed();
    }
    if let Some(orch) = m.orchestrator() {
        out.detections = orch.detections();
        out.recoveries = orch.recoveries();
        out.quarantines = orch.quarantines();
    }
    if oracle_strict(design, scenario) {
        if m.sys.memory().any_lost() {
            out.violations
                .push(format!("{ctx}: lost lines survive the resilver"));
        }
        let granularity = design.checksum_granularity().expect("a design with parity");
        let findings = m.fs.audit(&m.sys, &file, granularity);
        if !findings.is_empty() {
            out.violations
                .push(format!("{ctx}: post-resilver audit findings {findings:?}"));
        }
    }
    out
}

/// Replay the identical op stream on a never-faulted machine and return
/// its final striped-region hash.
fn run_oracle(app: &str, design: Design, scenario: Scenario, total_ops: u64) -> u64 {
    let seed = seed_for(SEED_BASE, app, scenario.label());
    let mut m = small_machine(design);
    let mut w = workload(app, &mut m, seed, TX_LOG);
    let file = *w.file();
    m.flush();
    enable_pipeline(&mut m, &file);
    m.flush();
    let mut out = Outcome::default();
    let mut op = 0u64;
    let _ = drive(
        &mut m,
        w.as_mut(),
        &mut out,
        &mut op,
        total_ops,
        &mut Hist::new(),
    );
    m.flush();
    striped_hash(&m)
}

fn check_invariants(ctx: &str, design: Design, scenario: Scenario, out: &mut Outcome) {
    let mut fail = |what: String| out.violations.push(format!("{ctx}: {what}"));
    // A lost line is signalled under every design: nothing may diverge
    // from the acknowledged write stream, and nothing may crash on
    // fabricated bytes.
    if out.tally.wrong_data > 0 {
        fail(format!("{} silent wrong-data reads", out.tally.wrong_data));
    }
    if out.tally.crashed {
        fail("app crash on fabricated bytes".into());
    }
    let expected_rebuilds = if scenario == Scenario::Double { 2 } else { 1 };
    if out.rebuilds_completed != expected_rebuilds {
        let done = out.rebuilds_completed;
        fail(format!(
            "{done} rebuilds completed, expected {expected_rebuilds}"
        ));
    }
    if design == Design::Baseline {
        if out.pages_lost == 0 {
            fail("Baseline keeps no parity, yet declared nothing lost".into());
        }
    } else if oracle_strict(design, scenario) {
        if out.pages_lost > 0 || out.quarantines > 0 {
            fail(format!(
                "{} pages lost and {} quarantines after one failure",
                out.pages_lost, out.quarantines
            ));
        }
        if out.phases[1].recovered == 0 {
            fail("no page was repaired on read while degraded".into());
        }
        if out.content_hash != out.oracle_hash {
            fail(format!(
                "post-resilver media diverges from never-faulted oracle ({:#018x} != {:#018x})",
                out.content_hash, out.oracle_hash
            ));
        }
    } else if out.quarantines < out.pages_lost {
        fail(format!(
            "{} pages lost but {} quarantines",
            out.pages_lost, out.quarantines
        ));
    }
}

/// One (app, design, scenario) cell.
struct Row {
    app: &'static str,
    design: Design,
    scenario: Scenario,
    out: Outcome,
}

impl Row {
    fn hash_match(&self) -> bool {
        oracle_strict(self.design, self.scenario) && self.out.content_hash == self.out.oracle_hash
    }
}

fn run(cfg: &Config<()>, jobs: usize) -> Output {
    // Ops per steady phase (healthy / degraded / recovered).
    let n = cfg.scale.pick(60, 150, 300);
    let mut cells: Vec<Cell<Row>> = Vec::new();
    for app in ["fio", "kv"] {
        for design in designs() {
            for scenario in Scenario::all() {
                let ctx = format!(
                    "app={app} design={} scenario={}",
                    design.label(),
                    scenario.label()
                );
                if !cfg.selects(&ctx) {
                    continue;
                }
                cells.push(Cell::new(ctx.clone(), move || {
                    let mut out = run_faulted(app, design, scenario, &ctx, n);
                    out.oracle_hash = if oracle_strict(design, scenario) && !out.tally.crashed {
                        run_oracle(app, design, scenario, out.total_ops)
                    } else {
                        0
                    };
                    check_invariants(&ctx, design, scenario, &mut out);
                    Row {
                        app,
                        design,
                        scenario,
                        out,
                    }
                }));
            }
        }
    }
    let rows: Vec<Row> = runner::run_cells(cells, jobs)
        .into_iter()
        .map(|r| r.value)
        .collect();

    type Col = Column<Row>;
    const PHASES: [&str; 4] = ["healthy", "degraded", "rebuilding", "recovered"];
    let mut cols = vec![
        Col::new("app", "app", -4, |r| r.app),
        Col::new("design", "design", -17, |r| r.design.label()),
        Col::new("scenario", "scenario", -8, |r| r.scenario.label()),
        Col::new("ops", "ops", 7, |r| r.out.total_ops),
    ];
    for (p, head) in ["h_op/kc", "d_op/kc", "r_op/kc", "ok_op/kc"]
        .into_iter()
        .enumerate()
    {
        cols.push(Col::table(head, 8, move |r| {
            format!("{:.3}", r.out.phases[p].ops_per_kcycle())
        }));
    }
    for (p, phase) in PHASES.into_iter().enumerate() {
        cols.push(Col::csv(format!("{phase}_ops"), move |r| {
            r.out.phases[p].ops
        }));
        cols.push(Col::csv(format!("{phase}_cycles"), move |r| {
            r.out.phases[p].cycles
        }));
    }
    for (p, phase) in PHASES.into_iter().enumerate() {
        // The table shows the healthy and rebuilding p99 only.
        let (p99, head) = (format!("{phase}_p99"), ["h_p99", "", "r_p99", ""][p]);
        cols.push(Col::csv(format!("{phase}_p50"), move |r| {
            r.out.phases[p].lat.p50()
        }));
        cols.push(Col::new(p99, head, 8, move |r| r.out.phases[p].lat.p99()));
        cols.push(Col::csv(format!("{phase}_p999"), move |r| {
            r.out.phases[p].lat.p999()
        }));
    }
    cols.extend([
        Col::new("degraded_recovered", "d_rec", 5, |r| {
            r.out.phases[1].recovered
        }),
        Col::new("pages_resilvered", "resilv", 6, |r| r.out.pages_resilvered),
        Col::new("pages_lost", "lost", 5, |r| r.out.pages_lost),
        Col::csv("rebuilds_completed", |r| r.out.rebuilds_completed),
        Col::csv("detections", |r| r.out.detections),
        Col::csv("recoveries", |r| r.out.recoveries),
        Col::new("quarantines", "quar", 5, |r| r.out.quarantines),
        Col::csv("wrong_data", |r| r.out.tally.wrong_data),
        Col::new("fail_closed", "closed", 6, |r| r.out.tally.fail_closed),
        Col::csv("crashed", |r| r.out.tally.crashed as u8),
        Col::csv("content_hash", |r| format!("{:#018x}", r.out.content_hash)),
        Col::csv("oracle_hash", |r| format!("{:#018x}", r.out.oracle_hash)),
        Col::csv("hash_match", |r| r.hash_match() as u8),
        Col::table("hash", 5, |r| {
            match (oracle_strict(r.design, r.scenario), r.hash_match()) {
                (false, _) => "-",
                (true, true) => "ok",
                (true, false) => "FAIL",
            }
        }),
        Col::csv("seed", |r| {
            format!("{:#018x}", seed_for(SEED_BASE, r.app, r.scenario.label()))
        }),
        Col::csv("repro", |r| {
            let (design, scenario) = (r.design.label(), r.scenario.label());
            let ctx = format!("app={} design={design} scenario={scenario}", r.app);
            format!("./target/release/degraded_campaign --filter '{ctx}'")
        }),
    ]);
    let title = format!("# Degraded-mode campaign — scenario × design × app, {n} ops/steady phase");
    let mut out = Output::sheet(&title, "degraded_campaign.csv", &cols, &rows, |_| true);
    for r in rows {
        out.violations.extend(r.out.violations);
    }
    out
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("degraded_campaign", run)
        .filtered()
        .ok_line("all degraded-mode invariants held")
}

fn main() {
    campaign().main()
}
