//! Chaos campaign: sweep firmware-fault type × design × application and
//! assert the survival invariants of the detection → recovery → degradation
//! pipeline (§II-A fault taxonomy, §III recovery path):
//!
//! 1. **No silent wrong data** under designs with inline cache-line-granular
//!    verification (TVARAK proper): a read either returns the acknowledged
//!    bytes, is transparently recovered, or fails closed with a structured
//!    `Poisoned` error — never fabricated values. Page-granular checksums
//!    (the naive ablation, TxB-Page) cannot make this promise: their update
//!    path re-reads the rest of the page from media, so a sticky misread or
//!    stale line gets *laundered* into the recomputed checksum and later
//!    verification agrees with the wrong bytes. The campaign measures that
//!    exposure (`wrong`/`crash` columns) instead of asserting it away;
//!    Baseline runs as the no-checksum contrast row.
//! 2. **End-state convergence**: once the fault episode ends (the campaign
//!    disarms surviving sticky faults — device replaced), continued
//!    scrubbing settles every remaining media inconsistency: repaired,
//!    checksum-rebuilt (two-of-three vote), parity-re-silvered, or
//!    quarantined — nothing stays silently inconsistent.
//! 3. **Degraded mode fails closed**: every quarantined page rejects reads
//!    with `Poisoned`; the rest of the file keeps serving.
//!
//! Faults are injected from a deterministic seeded [`FaultPlan`], identical
//! across designs for a given (app, fault-kind) cell. `--filter
//! <substring>` runs matching cells only. Emits
//! `results/chaos_campaign.csv` plus a structured event log in
//! `results/chaos_events.log`; exits non-zero on any invariant violation.

use apps::driver::{Design, Machine};
use apps::rng::splitmix64;
use bench::campaign::{Campaign, Column, Config, Output};
use bench::faulted::{
    designs, enable_pipeline, inline_cl_verified, seed_for, small_machine, workload, Tally,
    FLUSH_EVERY,
};
use bench::runner::{self, Cell};
use memsim::addr::{LineAddr, CACHE_LINE, PAGE};
use memsim::FirmwareFault;
use pmemfs::fs::FileHandle;
use pmemfs::recover::{RecoveryEvent, MAX_RETRIES};
use tvarak::scrub::{ScrubGranularity, SCRUB_INTERVAL, SCRUB_PAGES};

const SEED_BASE: u64 = 0x00c4_a05c;

/// The §II-A firmware-fault kinds the campaign sweeps, one per cell. A
/// kind speaks in abstract selectors until an event comes due, so one
/// [`FaultPlan`] replays identically across designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    LostWrite,
    MisdirectedWrite,
    MisdirectedRead,
    TornWrite,
    StickyLostWrite,
    StickyMisdirectedRead,
}

impl FaultKind {
    /// All kinds, in §II-A taxonomy order (one-shot first, then sticky).
    const ALL: [FaultKind; 6] = [
        FaultKind::LostWrite,
        FaultKind::MisdirectedWrite,
        FaultKind::MisdirectedRead,
        FaultKind::TornWrite,
        FaultKind::StickyLostWrite,
        FaultKind::StickyMisdirectedRead,
    ];

    fn label(self) -> &'static str {
        match self {
            FaultKind::LostWrite => "lost-write",
            FaultKind::MisdirectedWrite => "misdir-write",
            FaultKind::MisdirectedRead => "misdir-read",
            FaultKind::TornWrite => "torn-write",
            FaultKind::StickyLostWrite => "sticky-lost-write",
            FaultKind::StickyMisdirectedRead => "sticky-misdir-read",
        }
    }

    /// Whether a fired fault of this kind leaves the media inconsistent
    /// with the acknowledged write stream (read-path misdirections corrupt
    /// what's *returned*, not what's stored).
    fn corrupts_media(self) -> bool {
        !matches!(
            self,
            FaultKind::MisdirectedRead | FaultKind::StickyMisdirectedRead
        )
    }

    /// The firmware fault to arm; `aux` is the misdirection's other line.
    fn fault(self, aux: LineAddr, torn_bytes: usize) -> FirmwareFault {
        match self {
            FaultKind::LostWrite => FirmwareFault::LostWrite,
            FaultKind::MisdirectedWrite => FirmwareFault::MisdirectedWrite { actual: aux },
            FaultKind::MisdirectedRead => FirmwareFault::MisdirectedRead { actual: aux },
            FaultKind::TornWrite => FirmwareFault::TornWrite {
                persist_bytes: torn_bytes,
            },
            FaultKind::StickyLostWrite => FirmwareFault::StickyLostWrite,
            FaultKind::StickyMisdirectedRead => {
                FirmwareFault::StickyMisdirectedRead { actual: aux }
            }
        }
    }
}

/// One scheduled fault of a [`FaultPlan`].
#[derive(Debug, PartialEq)]
struct PlannedFault {
    /// Operation index at which the fault arms.
    at_op: u64,
    /// Target selector, reduced modulo the candidate lines.
    target_sel: u64,
    /// Selector for the misdirection's other line.
    aux_sel: u64,
    /// Persisted prefix of a torn write (1..=63: genuinely torn).
    torn_bytes: usize,
}

/// A deterministic, seeded schedule of one kind's faults over an operation
/// timeline: the same arguments give the same plan.
struct FaultPlan {
    events: Vec<PlannedFault>,
    next: usize,
}

impl FaultPlan {
    /// `events` faults spread uniformly over `0..total_ops`.
    fn new(seed: u64, total_ops: u64, events: usize) -> Self {
        // Perturb the seed so plan draws decorrelate from any other
        // splitmix64 user sharing it.
        let mut s = seed ^ 0x5eed_0000_fa17_0000;
        let mut events: Vec<PlannedFault> = (0..events)
            .map(|_| {
                let at_op = splitmix64(&mut s) % total_ops;
                // A discarded draw: the pinned chaos schedules depend on it.
                splitmix64(&mut s);
                PlannedFault {
                    at_op,
                    target_sel: splitmix64(&mut s),
                    aux_sel: splitmix64(&mut s),
                    torn_bytes: 1 + (splitmix64(&mut s) % (CACHE_LINE as u64 - 1)) as usize,
                }
            })
            .collect();
        events.sort_by_key(|e| e.at_op);
        FaultPlan { events, next: 0 }
    }

    /// Drain every event scheduled at or before `op` (call with a
    /// monotonically increasing `op`).
    fn due(&mut self, op: u64) -> &[PlannedFault] {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at_op <= op {
            self.next += 1;
        }
        &self.events[start..self.next]
    }
}

/// Per-run tallies and invariant violations.
#[derive(Default)]
struct Outcome {
    armed: u64,
    fired: u64,
    media_fired: u64,
    detections: u64,
    recoveries: u64,
    quarantines: u64,
    /// What the foreground stream observed.
    tally: Tally,
    first_fire_op: Option<u64>,
    first_detect_op: Option<u64>,
    final_bad_pages: usize,
    violations: Vec<String>,
}

impl Outcome {
    fn detect_latency(&self) -> Option<u64> {
        match (self.first_fire_op, self.first_detect_op) {
            (Some(f), Some(d)) if d >= f => Some(d - f),
            _ => None,
        }
    }
}

/// The fault-injection scaffold shared by all apps: arms planned faults,
/// forces periodic writebacks, ticks the scrub daemon, and collects the
/// structured event log.
struct ChaosCtl {
    plan: FaultPlan,
    /// Candidate target lines (the app's hot region).
    lines: Vec<LineAddr>,
    kind: FaultKind,
    fired_seen: usize,
    out: Outcome,
    log: Vec<String>,
    ctx: String,
}

impl ChaosCtl {
    fn new(
        seed: u64,
        (ops, events): (u64, usize),
        kind: FaultKind,
        lines: Vec<LineAddr>,
        ctx: String,
    ) -> Self {
        ChaosCtl {
            plan: FaultPlan::new(seed, ops, events),
            lines,
            kind,
            fired_seen: 0,
            out: Outcome::default(),
            log: Vec::new(),
            ctx,
        }
    }

    fn before_op(&mut self, m: &mut Machine, op: u64) {
        for ev in self.plan.due(op) {
            let target = self.lines[(ev.target_sel % self.lines.len() as u64) as usize];
            let mut aux = self.lines[(ev.aux_sel % self.lines.len() as u64) as usize];
            if aux == target {
                aux = self.lines[((ev.aux_sel + 1) % self.lines.len() as u64) as usize];
            }
            m.sys
                .memory_mut()
                .arm_fault(target, self.kind.fault(aux, ev.torn_bytes));
            self.out.armed += 1;
            // Read-path faults (the ones that leave the media intact) only
            // fire on a demand miss; flush (which writes back dirty lines
            // and drains the hierarchy) so the next access goes to the
            // device. A bare invalidate would discard acknowledged dirty
            // data — the campaign must not inject faults the fault model
            // doesn't define.
            if !self.kind.corrupts_media() {
                m.flush();
            }
            self.log.push(format!(
                "{} op={} event=Armed kind={} line={:?} aux={:?}",
                self.ctx,
                op,
                self.kind.label(),
                target,
                aux
            ));
        }
    }

    fn after_op(&mut self, m: &mut Machine, op: u64) {
        if (op + 1).is_multiple_of(FLUSH_EVERY) {
            m.flush();
        }
        // Scrub daemon tick (no device replacement here, so maintenance is the
        // scrub daemon alone); detections route through the orchestrator. Only
        // Baseline runs without one, and Baseline detects nothing.
        let _ = m.tick_maintenance(0);
        // Newly fired firmware faults.
        let fired = m.sys.memory().fired_faults();
        for f in &fired[self.fired_seen..] {
            self.out.fired += 1;
            if self.kind.corrupts_media() {
                self.out.media_fired += 1;
                self.out.first_fire_op.get_or_insert(op);
            }
            self.log.push(format!(
                "{} op={} event=Fired fault={:?} line={:?}",
                self.ctx, op, f.fault, f.target
            ));
        }
        self.fired_seen = fired.len();
        // Orchestrator events, stamped with the op index.
        if let Some(orch) = m.orchestrator_mut() {
            for ev in orch.take_events() {
                if matches!(ev, RecoveryEvent::Detected { .. }) {
                    self.out.first_detect_op.get_or_insert(op);
                }
                self.log
                    .push(format!("{} op={} event={:?}", self.ctx, op, ev));
            }
        }
    }

    /// End the fault episode and converge. The final flush still races the
    /// armed faults; then the failed device region is "replaced" (every
    /// surviving fault disarmed) and the scrub daemon keeps running until a
    /// full pass settles nothing new — every residual inconsistency gets
    /// repaired, checksum-rebuilt, parity-re-silvered, or quarantined.
    fn finish(&mut self, m: &mut Machine, file: &FileHandle, ops: u64) {
        m.flush();
        let disarmed = m.sys.memory_mut().disarm_all_faults();
        if disarmed > 0 {
            self.log.push(format!(
                "{} op={ops} event=Disarmed remaining={disarmed}",
                self.ctx
            ));
        }
        if m.scrub_daemon().is_some() {
            let settled = |m: &Machine| {
                m.orchestrator().map_or((0, 0, 0, 0), |o| {
                    (
                        o.detections(),
                        o.recoveries(),
                        o.quarantines(),
                        o.parity_rebuilds(),
                    )
                })
            };
            let period = file.pages() * SCRUB_INTERVAL / SCRUB_PAGES;
            // Each stuck page can absorb MAX_RETRIES error-steps before its
            // quarantine; size the tick budget so convergence is decided by
            // the no-new-findings test, not budget exhaustion.
            let mut budget = period * (6 + 2 * u64::from(MAX_RETRIES));
            // Align to a pass boundary first: the cursor is mid-range, and
            // "settles nothing new" is only meaningful over a FULL pass —
            // a partial wrap can miss the corrupt page entirely.
            let run_one_pass = |m: &mut Machine, budget: &mut u64| {
                let pass = m.scrub_daemon().unwrap().passes();
                while m.scrub_daemon().unwrap().passes() == pass && *budget > 0 {
                    let _ = m.tick_maintenance(0);
                    *budget -= 1;
                }
            };
            run_one_pass(m, &mut budget);
            loop {
                let before = settled(m);
                run_one_pass(m, &mut budget);
                if settled(m) == before || budget == 0 {
                    break;
                }
            }
            let s = m.scrub_daemon().unwrap();
            self.log.push(format!(
                "{} op={ops} event=Converged passes={} checked={} budget_left={budget} settled={:?}",
                self.ctx,
                s.passes(),
                s.pages_checked(),
                settled(m)
            ));
            self.after_op(m, ops);
        }
        if let Some(orch) = m.orchestrator() {
            self.out.detections = orch.detections();
            self.out.recoveries = orch.recoveries();
            self.out.quarantines = orch.quarantines();
        }
    }

    /// The cross-design invariants. `verifying` = inline cache-line-granular
    /// verification on every read (see [`inline_cl_verified`]).
    fn check_invariants(&mut self, m: &mut Machine, file: &FileHandle, verifying: bool) {
        if verifying && self.out.tally.wrong_data > 0 {
            self.out.violations.push(format!(
                "{}: {} silent wrong-data reads under a verifying design",
                self.ctx, self.out.tally.wrong_data
            ));
        }
        // Degraded mode fails closed on every poisoned page.
        let poisoned: Vec<_> = match m.orchestrator() {
            Some(orch) => orch.poisoned_pages().to_vec(),
            None => Vec::new(),
        };
        for p in &poisoned {
            if let Some(n) = (0..file.pages()).find(|&n| file.page(n) == *p) {
                let mut buf = [0u8; 8];
                if m.read_file(file, 0, n * PAGE as u64, &mut buf).is_ok() {
                    self.out.violations.push(format!(
                        "{}: poisoned {:?} served a read (fail-open)",
                        self.ctx, p
                    ));
                }
            }
        }
        // No *silent* media inconsistency survives the final sweep: every
        // inconsistent page must be on the poison list. (Baseline maintains
        // no redundancy, so verify_all is trivially empty there.) A violation
        // carries the per-check page lists — the audit at both granularities
        // and the poison list — so a failing cell explains itself.
        let bad = m.verify_all(file).err().unwrap_or_default();
        self.out.final_bad_pages = bad.len();
        let silent: Vec<_> = (bad.iter())
            .filter(|&&n| !poisoned.contains(&file.page(n)))
            .collect();
        if silent.is_empty() {
            return;
        }
        let cl = m.fs.audit(&m.sys, file, ScrubGranularity::CacheLine);
        let page = m.fs.audit(&m.sys, file, ScrubGranularity::Page);
        for n in silent {
            self.out.violations.push(format!(
                "{}: file page {n} inconsistent but not quarantined (silent); \
                 bad={bad:?} cl={cl:?} page={page:?} poisoned={poisoned:?}",
                self.ctx
            ));
        }
    }
}

/// One (app, design, fault) cell and everything it produced.
struct Row {
    app: &'static str,
    design: Design,
    kind: FaultKind,
    out: Outcome,
    log: Vec<String>,
}

/// Run one cell: `app`'s shadow-checked stream (`bench::faulted`) under the
/// seeded fault plan, then convergence and the invariant checks. The plan
/// seed depends on (app, fault) only, so designs face identical chaos.
fn run_cell(
    app: &'static str,
    design: Design,
    kind: FaultKind,
    (ops, events): (u64, usize),
) -> Row {
    let mut m = small_machine(design);
    let ctx = format!("app={app} design={} fault={}", design.label(), kind.label());
    let seed = seed_for(SEED_BASE, app, kind.label());
    let raw = app == "fio";
    let mut w = workload(app, &mut m, seed, 256 * 1024);
    let file = *w.file();
    if !raw {
        m.flush();
    }
    enable_pipeline(&mut m, &file);
    // Fault targets: the whole raw file, or the node region a tree actually
    // exercises (its first pages).
    let hot_pages = if raw {
        file.pages()
    } else {
        4.min(file.pages())
    };
    let lines: Vec<LineAddr> = (0..hot_pages)
        .flat_map(|n| (0..memsim::LINES_PER_PAGE).map(move |i| (n, i)))
        .map(|(n, i)| file.page(n).line(i))
        .collect();
    let mut ctl = ChaosCtl::new(seed, (ops, events), kind, lines, ctx);
    if !raw {
        let page_map: Vec<_> = (0..file.pages()).map(|n| file.page(n)).collect();
        ctl.log.push(format!(
            "{} geometry: pages={:?} first_data_index={} hot_pages={hot_pages}",
            ctl.ctx,
            page_map,
            file.first_data_index()
        ));
    }
    for op in 0..ops {
        ctl.before_op(&mut m, op);
        match w.step(&mut m, op, &mut ctl.out.tally) {
            Ok(None) => {}
            Ok(Some(detail)) => ctl.log.push(format!("{} op={op} event={detail}", ctl.ctx)),
            Err(info) => {
                // The panic message (no source location) goes to the event log.
                let info = info.replace('\n', " | ");
                ctl.log
                    .push(format!("{} op={op} event=AppCrash info={info}", ctl.ctx));
                if inline_cl_verified(design) && !w.suspect() {
                    ctl.out.violations.push(format!(
                        "{}: app crash on fabricated bytes under a verifying design",
                        ctl.ctx
                    ));
                }
                break;
            }
        }
        ctl.after_op(&mut m, op);
    }
    ctl.finish(&mut m, &file, ops);
    ctl.check_invariants(&mut m, &file, inline_cl_verified(design));
    Row {
        app,
        design,
        kind,
        out: ctl.out,
        log: ctl.log,
    }
}

fn run(cfg: &Config<()>, jobs: usize) -> Output {
    // Ops per run and fault events per run.
    let (ops, events) = cfg.scale.pick((240, 5), (600, 8), (1200, 12));
    let mut cells: Vec<Cell<Row>> = Vec::new();
    for app in ["btree", "rbtree", "fio"] {
        for design in designs() {
            for kind in FaultKind::ALL {
                let ctx = format!("app={app} design={} fault={}", design.label(), kind.label());
                if cfg.selects(&ctx) {
                    cells.push(Cell::new(ctx, move || {
                        run_cell(app, design, kind, (ops, events))
                    }));
                }
            }
        }
    }
    let rows: Vec<Row> = runner::run_cells(cells, jobs)
        .into_iter()
        .map(|r| r.value)
        .collect();

    type Col = Column<Row>;
    let cols = [
        Col::new("app", "app", -6, |r| r.app),
        Col::new("design", "design", -17, |r| r.design.label()),
        Col::new("fault", "fault", -18, |r| r.kind.label()),
        Col::csv("ops", move |_| ops),
        Col::new("armed", "armed", 5, |r| r.out.armed),
        Col::new("fired", "fired", 5, |r| r.out.fired),
        Col::csv("media_fired", |r| r.out.media_fired),
        Col::new("detections", "detect", 6, |r| r.out.detections),
        Col::new("recoveries", "recover", 7, |r| r.out.recoveries),
        Col::new("quarantines", "quar", 5, |r| r.out.quarantines),
        Col::new("wrong_data", "wrong", 5, |r| r.out.tally.wrong_data),
        Col::new("degraded_miss", "dmiss", 7, |r| r.out.tally.degraded_miss),
        Col::new("fail_closed", "closed", 7, |r| r.out.tally.fail_closed),
        Col::new("crashed", "crash", 5, |r| r.out.tally.crashed as u8),
        Col::new("first_detect_latency_ops", "latency", 8, |r| {
            r.out.detect_latency().map_or("-".into(), |l| l.to_string())
        }),
        Col::csv("final_bad_pages", |r| r.out.final_bad_pages),
        Col::csv("seed", |r| {
            format!("{:#018x}", seed_for(SEED_BASE, r.app, r.kind.label()))
        }),
        // Provenance: a one-command repro. The filter string pins app,
        // design, and fault, and the seed is a pure function of that cell,
        // so the single command re-runs this exact row (single-quoted,
        // comma-free — CSV-safe unescaped).
        Col::csv("repro", |r| {
            let (design, fault) = (r.design.label(), r.kind.label());
            let ctx = format!("app={} design={design} fault={fault}", r.app);
            format!("./target/release/chaos_campaign --filter '{ctx}'")
        }),
    ];
    let title = format!(
        "# Chaos campaign — fault type × design × app, {ops} ops, {events} fault events/run"
    );
    let mut out = Output::sheet(&title, "chaos_campaign.csv", &cols, &rows, |_| true);
    let log: String = rows
        .iter()
        .flat_map(|r| &r.log)
        .map(|l| format!("{l}\n"))
        .collect();
    out.files
        .push(("chaos_events.log".into(), log.into_bytes()));
    for r in rows {
        out.violations.extend(r.out.violations);
    }
    out
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("chaos_campaign", run)
        .filtered()
        .ok_line("all survival invariants held")
}

fn main() {
    campaign().main()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_sorted() {
        let p1 = FaultPlan::new(42, 1000, 16);
        assert_eq!(p1.events, FaultPlan::new(42, 1000, 16).events);
        assert!(p1.events.windows(2).all(|w| w[0].at_op <= w[1].at_op));
        assert!(p1.events.iter().all(|e| e.at_op < 1000));
        assert!(p1
            .events
            .iter()
            .all(|e| e.torn_bytes >= 1 && e.torn_bytes < CACHE_LINE));
        assert_ne!(p1.events, FaultPlan::new(43, 1000, 16).events);
    }

    #[test]
    fn fault_plan_due_drains_in_order() {
        let mut p = FaultPlan::new(7, 100, 10);
        let mut seen = 0;
        for op in 0..100 {
            let due = p.due(op);
            assert!(due.iter().all(|e| e.at_op <= op));
            seen += due.len();
        }
        assert_eq!(seen, 10);
        assert!(p.due(1000).is_empty());
    }
}
