//! Degraded-mode campaign: drive every design × fio/kv under sustained
//! foreground load through whole-device fault storms and measure what
//! broken-and-serving actually costs.
//!
//! Each cell walks the device-replacement lifecycle through four phases —
//! **healthy → degraded** (a DIMM fails, reads reconstruct from firmware
//! shadow parity) **→ rebuilding** (a hot spare attaches and the online
//! resilver races foreground traffic under the maintenance QoS token
//! bucket) **→ recovered** — and reports per-phase throughput, degraded
//! read amplification, and rebuild counters. Scenarios:
//!
//! - `rebuild`: single fault at RAID-P; the baseline lifecycle.
//! - `double-pq`: RAID-P+Q with a *second* device failing mid-resilver —
//!   two-erasure reconstruction carries the rebuild through.
//! - `double-p`: the same storm at P-only, where the second fault makes
//!   stripes unreconstructible — pages are abandoned, poisoned, and
//!   quarantined (fail closed), never fabricated.
//!
//! Invariants, enforced per cell and fatal to the campaign:
//!
//! 1. The resilver completes under load (within a generous op cap) in every
//!    scenario, for every design.
//! 2. No silent wrong data: in the clean-recovery scenarios (`rebuild`,
//!    `double-pq`) *no* design may return a byte that differs from the
//!    acknowledged write stream; under `double-p`, designs with inline
//!    cache-line verification must still never be silently wrong (poisoned
//!    pages fail closed), while page-granular and Baseline exposure is
//!    measured and reported.
//! 3. Oracle bit-identity: after the final resilver and flush, the NVM
//!    media `content_hash` equals a never-faulted oracle run of the same
//!    design, seed, and op count (`rebuild`, `double-pq`; `double-p`
//!    declares data loss, so its hash is reported, not asserted).
//!
//! `DEGRADED_FILTER=substring` runs matching cells only;
//! `DEGRADED_FAULTS='lost-write@128,misdir-write@256->512'` (parsed via
//! `pmemfs::fault::Fault`'s `FromStr`) arms an extra firmware-fault mix
//! against the fio file at the start of the degraded phase. Emits
//! `results/degraded_campaign.csv` (byte-identical at any `--jobs`) and
//! exits non-zero on any invariant violation.

use apps::driver::{Design, Machine};
use bench::campaign::{Campaign, Column, Config, Kind, Opt, Output};
use bench::faulted::{
    designs, enable_pipeline, inline_cl_verified, seed_for, small_machine, workload, Tally,
    Workload, FLUSH_EVERY,
};
use bench::runner::{self, Cell};
use memsim::{BankState, RaidLevel};
use pmemfs::fault::{self, Fault};
use pmemfs::rebuild::{bank_in, PoolState};
use serve::Hist;

const SEED_BASE: u64 = 0x00de_64ad;
/// Per-core transaction-log bytes.
const TX_LOG: u64 = 64 * 1024;
/// First device to fail; the mid-rebuild second fault takes the next one.
const FAIL_BANK: usize = 1;
const SECOND_BANK: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Single device failure, P parity, clean resilver.
    Rebuild,
    /// Second device fails mid-resilver; P+Q carries the rebuild through.
    DoublePq,
    /// Second device fails mid-resilver at P-only: declared data loss,
    /// abandoned pages quarantined, serving fails closed.
    DoubleP,
}

impl Scenario {
    fn all() -> [Scenario; 3] {
        [Scenario::Rebuild, Scenario::DoublePq, Scenario::DoubleP]
    }

    fn label(self) -> &'static str {
        match self {
            Scenario::Rebuild => "rebuild",
            Scenario::DoublePq => "double-pq",
            Scenario::DoubleP => "double-p",
        }
    }

    fn level(self) -> RaidLevel {
        match self {
            Scenario::DoublePq => RaidLevel::PQ,
            _ => RaidLevel::P,
        }
    }

    fn second_fault(self) -> bool {
        !matches!(self, Scenario::Rebuild)
    }

    /// Whether the post-resilver media must bit-match the never-faulted
    /// oracle. `double-p` declares data loss (abandoned pages are poisoned
    /// by design), so only its *behaviour* is asserted, not its bytes.
    fn oracle_strict(self) -> bool {
        !matches!(self, Scenario::DoubleP)
    }
}

/// Per-phase measurement: foreground ops, simulated cycles on the serving
/// core, degraded reconstruct-on-read fills charged in the window, and the
/// per-op latency distribution (each op's serving-core cycle delta,
/// including any maintenance work piggybacked on it — QoS pacing spikes are
/// exactly what the tail shows).
#[derive(Debug, Clone, Default)]
struct Phase {
    ops: u64,
    cycles: u64,
    degraded_fills: u64,
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
    pages_abandoned: u64,
    lines_reconstructed: u64,
    write_intent_lines: u64,
    dropped_writes: u64,
    reconstructed_reads: u64,
    rebuilds_completed: u64,
    faults_armed: u64,
    content_hash: u64,
    oracle_hash: u64,
    violations: Vec<String>,
}

/// A phase's measurement window on the serving core.
struct Window {
    clock0: u64,
    fills0: u64,
    lat: Hist,
}

impl Window {
    fn open(m: &Machine) -> Self {
        Window {
            clock0: m.sys.clock(0),
            fills0: m.stats().counters.degraded_fills,
            lat: Hist::new(),
        }
    }

    fn close(self, m: &Machine, ops: u64) -> Phase {
        Phase {
            ops,
            cycles: m.sys.clock(0) - self.clock0,
            degraded_fills: m.stats().counters.degraded_fills - self.fills0,
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

/// Run one faulted cell end to end; `ctx` labels violations.
fn run_faulted(
    app: &str,
    design: Design,
    scenario: Scenario,
    ctx: &str,
    n: u64,
    faults: &[Fault],
) -> Outcome {
    let seed = seed_for(SEED_BASE, app, scenario.label());
    let mut out = Outcome::default();
    let mut m = small_machine(design);
    let mut w = workload(app, &mut m, seed, TX_LOG);
    let file = *w.file();
    m.flush();
    enable_pipeline(&mut m, &file);
    m.flush();
    m.enable_raid(scenario.level());

    let striped = m.sys.memory().striped_pages();
    let pages_per_bank = striped / m.sys.memory().nvm_dimms() as u64;
    // The maintenance bucket resilvers one page per two foreground ops, so
    // the second fault lands about halfway through the first resilver.
    let second_at = pages_per_bank;
    // Generous completion cap: 32 ops per striped page covers both banks
    // and scrub's minimum share many times over. Exceeding it means the
    // rebuild did not complete under load.
    let cap = 64 + 32 * striped;

    let mut op = 0u64;

    // Phase 0: healthy.
    let mut win = Window::open(&m);
    let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, n, &mut win.lat);
    out.phases[0] = win.close(&m, ran);

    // Phase 1: degraded — the device dies, serving continues from parity.
    m.fail_device(FAIL_BANK);
    if app == "fio" {
        for f in faults {
            fault::inject(&mut m.sys, &file, *f);
            out.faults_armed += 1;
        }
    }
    let mut win = Window::open(&m);
    let ran = drive(&mut m, w.as_mut(), &mut out, &mut op, n, &mut win.lat);
    out.phases[1] = win.close(&m, ran);

    // Phase 2: rebuilding — hot spare attached, resilver races foreground
    // traffic; the storm scenarios fail a second device mid-resilver.
    m.attach_spare(FAIL_BANK);
    let mut win = Window::open(&m);
    let mut rebuilding_ops = 0u64;
    let mut second_fired = !scenario.second_fault();
    loop {
        if !second_fired && rebuilding_ops >= second_at {
            m.fail_device(SECOND_BANK);
            second_fired = true;
        }
        if m.rebuild_idle() {
            match bank_in(m.sys.memory(), BankState::Failed) {
                // Second spare only once the storm has fired; until then an
                // idle manager with no failed banks means we are done.
                Some(b) => m.attach_spare(b),
                None if second_fired => break,
                None => {}
            }
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
    out.content_hash = m.sys.memory().content_hash();
    let rs = m.sys.memory().raid_stats();
    out.reconstructed_reads = rs.reconstructed_reads;
    out.dropped_writes = rs.dropped_writes;
    out.write_intent_lines = rs.write_intent_lines;
    if let Some(r) = m.replacement() {
        out.pages_resilvered = r.pages_resilvered();
        out.pages_abandoned = r.pages_abandoned();
        out.lines_reconstructed = r.lines_reconstructed();
        out.rebuilds_completed = r.rebuilds_completed();
    }
    if let Some(orch) = m.orchestrator() {
        out.detections = orch.detections();
        out.recoveries = orch.recoveries();
        out.quarantines = orch.quarantines();
    }
    out
}

/// Replay the identical op stream on a never-faulted machine (no firmware
/// RAID, no device failures) and return its final media hash.
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
    let _ = drive(&mut m, w.as_mut(), &mut out, &mut op, total_ops, &mut Hist::new());
    m.flush();
    m.sys.memory().content_hash()
}

fn check_invariants(ctx: &str, design: Design, scenario: Scenario, out: &mut Outcome) {
    let strict = scenario.oracle_strict();
    if strict {
        // Clean recovery: nothing may diverge from the acknowledged write
        // stream for ANY design — there is no data loss to excuse.
        if out.tally.wrong_data > 0 {
            out.violations.push(format!(
                "{ctx}: {} wrong-data reads in a clean-recovery scenario",
                out.tally.wrong_data
            ));
        }
        if out.tally.crashed {
            out.violations
                .push(format!("{ctx}: app crash in a clean-recovery scenario"));
        }
        if out.content_hash != out.oracle_hash {
            out.violations.push(format!(
                "{ctx}: post-resilver media diverges from never-faulted oracle \
                 ({:#018x} != {:#018x})",
                out.content_hash, out.oracle_hash
            ));
        }
        if out.pages_abandoned > 0 {
            out.violations.push(format!(
                "{ctx}: {} pages abandoned in a clean-recovery scenario",
                out.pages_abandoned
            ));
        }
    } else {
        // Declared data loss: inline-verified designs must still never be
        // silently wrong — poison fails closed at first consumption.
        if inline_cl_verified(design) && out.tally.wrong_data > 0 {
            out.violations.push(format!(
                "{ctx}: {} silent wrong-data reads under a verifying design",
                out.tally.wrong_data
            ));
        }
        // The P-only storm must actually declare the loss, not paper over
        // it: unreconstructible pages are abandoned and (when an
        // orchestrator exists) quarantined.
        if out.pages_abandoned == 0 {
            out.violations.push(format!(
                "{ctx}: mid-rebuild double fault at P-only abandoned nothing \
                 (expected fail-closed data loss)"
            ));
        } else if design != Design::Baseline && out.quarantines == 0 {
            out.violations.push(format!(
                "{ctx}: {} abandoned pages but no quarantines (poison not routed)",
                out.pages_abandoned
            ));
        }
    }
    let expected_rebuilds = if scenario.second_fault() { 2 } else { 1 };
    if out.rebuilds_completed != expected_rebuilds {
        out.violations.push(format!(
            "{ctx}: {} rebuilds completed, expected {expected_rebuilds}",
            out.rebuilds_completed
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
        self.scenario.oracle_strict() && self.out.content_hash == self.out.oracle_hash
    }
}

fn run(cfg: &Config<Vec<Fault>>, jobs: usize) -> Output {
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
                let faults = cfg.opts.clone();
                cells.push(Cell::new(ctx.clone(), move || {
                    let mut out = run_faulted(app, design, scenario, &ctx, n, &faults);
                    out.oracle_hash = if scenario.oracle_strict() && !out.tally.crashed {
                        run_oracle(app, design, scenario, out.total_ops)
                    } else {
                        0
                    };
                    check_invariants(&ctx, design, scenario, &mut out);
                    Row { app, design, scenario, out }
                }));
            }
        }
    }
    let rows: Vec<Row> = runner::run_cells(cells, jobs).into_iter().map(|r| r.value).collect();

    type Col = Column<Row>;
    const PHASES: [&str; 4] = ["healthy", "degraded", "rebuilding", "recovered"];
    let mut cols = vec![
        Col::new("app", "app", -4, |r| r.app),
        Col::new("design", "design", -17, |r| r.design.label()),
        Col::new("scenario", "scenario", -10, |r| r.scenario.label()),
        Col::csv("level", |r| match r.scenario.level() {
            RaidLevel::P => "P",
            RaidLevel::PQ => "PQ",
        }),
        Col::new("ops", "ops", 7, |r| r.out.total_ops),
    ];
    for (p, head) in ["h_op/kc", "d_op/kc", "r_op/kc", "ok_op/kc"].into_iter().enumerate() {
        cols.push(Col::table(head, 8, move |r| format!("{:.3}", r.out.phases[p].ops_per_kcycle())));
    }
    for (p, phase) in PHASES.into_iter().enumerate() {
        cols.push(Col::csv(format!("{phase}_ops"), move |r| r.out.phases[p].ops));
        cols.push(Col::csv(format!("{phase}_cycles"), move |r| r.out.phases[p].cycles));
    }
    for (p, phase) in PHASES.into_iter().enumerate() {
        // The table shows the healthy and rebuilding p99 only.
        let (p99, head) = (format!("{phase}_p99"), ["h_p99", "", "r_p99", ""][p]);
        cols.push(Col::csv(format!("{phase}_p50"), move |r| r.out.phases[p].lat.p50()));
        cols.push(Col::new(p99, head, 8, move |r| r.out.phases[p].lat.p99()));
        cols.push(Col::csv(format!("{phase}_p999"), move |r| r.out.phases[p].lat.p999()));
    }
    let dfills = |r: &Row, phases: std::ops::Range<usize>| -> u64 {
        r.out.phases[phases].iter().map(|p| p.degraded_fills).sum()
    };
    cols.extend([
        Col::csv("degraded_fills", move |r| dfills(r, 0..4)),
        Col::csv("reconstructed_reads", |r| r.out.reconstructed_reads),
        Col::csv("dropped_writes", |r| r.out.dropped_writes),
        Col::csv("write_intent_lines", |r| r.out.write_intent_lines),
        Col::new("pages_resilvered", "resilv", 6, |r| r.out.pages_resilvered),
        Col::new("pages_abandoned", "aband", 6, |r| r.out.pages_abandoned),
        Col::table("dfill", 6, move |r| dfills(r, 1..3)),
        Col::csv("lines_reconstructed", |r| r.out.lines_reconstructed),
        Col::csv("rebuilds_completed", |r| r.out.rebuilds_completed),
        Col::csv("detections", |r| r.out.detections),
        Col::csv("recoveries", |r| r.out.recoveries),
        Col::new("quarantines", "quar", 5, |r| r.out.quarantines),
        Col::csv("wrong_data", |r| r.out.tally.wrong_data),
        Col::new("fail_closed", "closed", 6, |r| r.out.tally.fail_closed),
        Col::csv("crashed", |r| r.out.tally.crashed as u8),
        Col::csv("faults_armed", |r| r.out.faults_armed),
        Col::csv("content_hash", |r| format!("{:#018x}", r.out.content_hash)),
        Col::csv("oracle_hash", |r| format!("{:#018x}", r.out.oracle_hash)),
        Col::csv("hash_match", |r| r.hash_match() as u8),
        Col::table("hash", 5, |r| match (r.scenario.oracle_strict(), r.hash_match()) {
            (false, _) => "-",
            (true, true) => "ok",
            (true, false) => "FAIL",
        }),
        Col::csv("seed", |r| format!("{:#018x}", seed_for(SEED_BASE, r.app, r.scenario.label()))),
        Col::csv("repro", |r| {
            let (design, scenario) = (r.design.label(), r.scenario.label());
            let ctx = format!("app={} design={design} scenario={scenario}", r.app);
            format!("DEGRADED_FILTER='{ctx}' ./target/release/degraded_campaign")
        }),
    ]);
    let title =
        format!("# Degraded-mode campaign — scenario × design × app, {n} ops/steady phase");
    let mut out = Output::sheet(&title, "degraded_campaign.csv", &cols, &rows, |_| true);
    for r in rows {
        out.violations.extend(r.out.violations);
    }
    out
}

/// The campaign this binary runs; the option is the `DEGRADED_FAULTS` mix.
pub fn campaign() -> Campaign<Vec<Fault>> {
    Campaign::new("degraded_campaign", run)
        .filter_env("DEGRADED_FILTER")
        .ok_line("all degraded-mode invariants held")
        .options(vec![Opt::new(
            Kind::Env,
            "DEGRADED_FAULTS",
            "'lost-write@128,misdir-write@256->512'",
            |faults: &mut Vec<Fault>, spec| {
                for s in spec.split([',', ' ']).filter(|s| !s.trim().is_empty()) {
                    faults.push(s.trim().parse::<Fault>().map_err(|e| e.to_string())?);
                }
                Ok(())
            },
        )])
}

fn main() {
    campaign().main()
}
