//! One (application, design) crash-simulation cell: deterministic replay up
//! to a crash point, simulated power loss, recovery, and verification.
//!
//! The crash model (DESIGN.md §10): power fails after the `k`-th LLC→NVM
//! writeback of the measured window. The NVM keeps exactly the admitted
//! prefix of media writes; *everything* volatile — private caches, all LLC
//! partitions, the redundancy controller's SRAM, the transaction library's
//! DRAM state — is lost. Recovery then proceeds the way a real mount would:
//!
//! 1. **Audit**: scrub every file (including the transaction-log metadata
//!    file) against its design's redundancy *before* repair. Mismatching
//!    pages are the design's post-crash vulnerability window — e.g. Vilamb's
//!    delayed checksums legitimately trail the data by up to an epoch.
//! 2. **Resilver**: rebuild checksums and parity from the surviving data so
//!    the recovery code's own demand reads verify.
//! 3. **Log recovery**: [`TxManager::recover_all`] rolls every in-flight
//!    (STARTED) transaction back from its undo log; COMMITTED ones are kept
//!    (their data was `clwb`-ordered ahead of the COMMITTED record).
//! 4. **Resilver again**: rollback writes bypass the software schemes'
//!    commit-time redundancy updates, so the tables are rebuilt once more,
//!    and every file must now verify clean — the redundancy-consistency
//!    invariant.
//! 5. **Application invariants**: oracle checkers
//!    ([`apps::crashcheck`]) assert that every surviving value is one the
//!    application legally wrote and that nothing durably committed was lost.
//!
//! Any failure in 3–5 is a [`Outcome::Lost`] verdict: committed data did not
//! survive the crash, which no design in the paper is allowed to do.

use apps::crashcheck::{CrashChecker, KvCrashChecker};
use apps::ctree::CTree;
use apps::driver::{Design, Machine};
use apps::fio::{Fio, Pattern};
use apps::kv::PersistentKv;
use apps::stream::{Kernel, Stream};
use memsim::addr::PAGE;
use pmemfs::fs::FileHandle;
use pmemfs::tx::{SwScheme, TxManager};
use std::fmt;

/// Undo-log bytes reserved per core for transactional scenarios.
pub const LOG_BYTES_PER_CORE: u64 = 64 * 1024;

/// Persistent heap bytes for the ctree scenario.
const CTREE_HEAP_BYTES: u64 = 256 * 1024;

/// Bytes of a TxB-Object element (the object-granular commit unit).
const ELEM_BYTES: u64 = 8;

/// The workload half of a crash-simulation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// fio write microbenchmark: `ops` 64 B stores per thread.
    Fio {
        /// Worker threads (each its own region).
        threads: usize,
        /// Region bytes per thread.
        region_bytes: u64,
        /// Access pattern (use a write pattern — reads cannot lose data).
        pattern: Pattern,
        /// Ops per thread.
        ops: u64,
    },
    /// stream Copy kernel: `iters` line-copies `a → c` per thread.
    StreamCopy {
        /// Worker threads.
        threads: usize,
        /// Bytes per array (split across threads).
        array_bytes: u64,
        /// Line-copies per thread.
        iters: u64,
    },
    /// ctree: `keys` transactional inserts into a persistent radix tree.
    CtreeInsert {
        /// Number of keys to insert.
        keys: u64,
    },
}

impl AppKind {
    /// Short label for reports (`fio-seq-write`, `stream-copy`, ...).
    pub fn label(&self) -> String {
        match self {
            AppKind::Fio { pattern, .. } => format!("fio-{}", pattern.label()),
            AppKind::StreamCopy { .. } => "stream-copy".to_string(),
            AppKind::CtreeInsert { .. } => "ctree-insert".to_string(),
        }
    }
}

/// Verdict of one crash-point replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The budget was never exhausted (crash point at or past the window's
    /// end), or it was but the image needed no repair: nothing was lost and
    /// nothing had to be rolled back or resilvered.
    Survived,
    /// The crash happened and recovery had work to do — transactions rolled
    /// back, redundancy resilvered, or a Vilamb epoch still pending — but
    /// every invariant holds afterwards.
    Recovered,
    /// An invariant failed: committed data lost, an illegal value surviving,
    /// or redundancy that cannot be made consistent. The design failed.
    Lost,
}

impl Outcome {
    /// CSV-friendly label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Survived => "survived",
            Outcome::Recovered => "recovered",
            Outcome::Lost => "lost",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything one crash-point replay learned.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// The writeback budget this replay ran with.
    pub crash_point: u64,
    /// NVM writebacks the measured window issued (admitted + suppressed).
    pub total_writebacks: u64,
    /// Whether the budget was exhausted mid-window (a crash actually
    /// happened; `false` means the window fit under the budget).
    pub crashed: bool,
    /// File pages whose redundancy mismatched *before* resilvering — the
    /// design's post-crash vulnerability window.
    pub unverifiable_pages: usize,
    /// In-flight transactions the log recovery rolled back.
    pub rolled_back: usize,
    /// Pages whose Vilamb redundancy update was still pending at the crash.
    pub vilamb_pending: usize,
    /// Invariant violations (empty unless [`Outcome::Lost`]).
    pub violations: Vec<String>,
    /// `memsim` content hash of the final recovered + resilvered NVM image.
    pub image_hash: u64,
    /// The verdict.
    pub outcome: Outcome,
}

/// One (application, design) cell of a crash campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The workload.
    pub app: AppKind,
    /// The redundancy design under test.
    pub design: Design,
}

/// The booted workload plus its oracle checker.
enum AppState {
    Fio { fio: Fio, chk: CrashChecker },
    Stream { st: Stream, chk: CrashChecker },
    Ctree { kv: CTree, chk: KvCrashChecker },
}

/// A machine with the scenario set up and the crash window armed.
struct Booted {
    m: Machine,
    txm: Option<TxManager>,
    app: AppState,
}

/// Deterministic key/value for ctree insert `j` (multiplier is odd, so the
/// key map is a bijection on `u64` — no accidental duplicate keys).
fn ctree_kv(j: u64) -> (u64, u64) {
    ((j + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), j + 1)
}

impl Scenario {
    /// Cell label for reports: `<app>/<design>`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.label(), self.design)
    }

    /// Whether the scenario runs through the transactional library: always
    /// for the KV structure, and for raw stores whenever the design's
    /// software scheme requires interposition (Table I).
    fn needs_txm(&self) -> bool {
        matches!(self.app, AppKind::CtreeInsert { .. })
            || !matches!(self.design.sw_scheme(), SwScheme::None)
    }

    /// Pool pages: the app's footprint doubled (redundancy tables, heap
    /// rounding) plus headroom for the per-core transaction logs.
    fn data_pages(&self) -> u64 {
        let page = PAGE as u64;
        let app = match self.app {
            AppKind::Fio {
                threads,
                region_bytes,
                ..
            } => threads as u64 * region_bytes.div_ceil(page),
            AppKind::StreamCopy { array_bytes, .. } => 3 * array_bytes.div_ceil(page),
            AppKind::CtreeInsert { .. } => CTREE_HEAP_BYTES.div_ceil(page),
        };
        app * 2 + 160
    }

    /// Every file the scenario touches, including the transaction metadata
    /// file (its log and state records must survive crashes too).
    fn files(app: &AppState, txm: &Option<TxManager>) -> Vec<FileHandle> {
        let mut v: Vec<FileHandle> = match app {
            AppState::Fio { fio, .. } => (0..fio.threads()).map(|t| *fio.region(t)).collect(),
            AppState::Stream { st, .. } => st.arrays().map(|f| *f).to_vec(),
            AppState::Ctree { kv, .. } => vec![*kv.file()],
        };
        if let Some(t) = txm {
            v.push(*t.meta_file());
        }
        v
    }

    /// Build the machine, create and initialize the workload, settle the
    /// setup image (flush + redundancy rebuild), and arm the crash window.
    /// Setup is deliberately *outside* the window: crash points measure the
    /// workload, not pool construction.
    fn boot(&self, budget: Option<u64>) -> Booted {
        let mut m = Machine::builder()
            .small()
            .design(self.design)
            .data_pages(self.data_pages())
            .build();
        let txm = if self.needs_txm() {
            Some(
                m.tx_manager(LOG_BYTES_PER_CORE)
                    .expect("pool sized for transaction metadata"),
            )
        } else {
            None
        };
        let object_granular = matches!(self.design.sw_scheme(), SwScheme::TxbObject);
        let app = match self.app {
            AppKind::Fio {
                threads,
                region_bytes,
                ..
            } => {
                let fio =
                    Fio::create(&mut m, threads, region_bytes).expect("pool sized for fio regions");
                // Fresh DAX pages read as zeros: seed every line so even
                // never-written lines are checked to stay zero.
                let mut chk = CrashChecker::new();
                for t in 0..fio.threads() {
                    let f = *fio.region(t);
                    for line in 0..fio.lines_per_region() {
                        chk.seed(&f, line * 64, &[0u8; 64]);
                    }
                }
                AppState::Fio { fio, chk }
            }
            AppKind::StreamCopy {
                threads,
                array_bytes,
                ..
            } => {
                let mut st = Stream::create(&mut m, threads, array_bytes)
                    .expect("pool sized for stream arrays");
                st.init(&mut m).expect("stream init on a fresh pool");
                let mut chk = CrashChecker::new();
                let [a, b, c] = st.arrays().map(|f| *f);
                for line in 0..st.lines_per_thread() * st.threads() as u64 {
                    let (la, lb) = st.init_line(line);
                    chk.seed(&a, line * 64, &la);
                    chk.seed(&b, line * 64, &lb);
                    // Seed `c` at the granularity the design commits at —
                    // TxB-Object persists each 8 B element in its own
                    // transaction, so a line may legally land element-torn.
                    if object_granular {
                        for e in 0..64 / ELEM_BYTES {
                            chk.seed(&c, line * 64 + e * ELEM_BYTES, &[0u8; 8]);
                        }
                    } else {
                        chk.seed(&c, line * 64, &[0u8; 64]);
                    }
                }
                AppState::Stream { st, chk }
            }
            AppKind::CtreeInsert { .. } => {
                let kv = CTree::create(&mut m, 0, CTREE_HEAP_BYTES)
                    .expect("pool sized for the ctree heap");
                AppState::Ctree {
                    kv,
                    chk: KvCrashChecker::new(),
                }
            }
        };
        // Settle setup on the media and rebuild redundancy from the settled
        // image, so every design starts the window consistent.
        m.flush();
        for f in Self::files(&app, &txm) {
            m.reinit_redundancy(&f);
        }
        m.sys.crash_window_start(budget);
        Booted { m, txm, app }
    }

    /// Run the measured window (ops + final flush) against the armed
    /// budget, advancing the oracle checkers' durability floors after each
    /// op that completed with *every* media write admitted. Returns op-level
    /// violations (errors before the budget ran out — there should be none).
    fn run(&self, b: &mut Booted) -> Vec<String> {
        let mut violations = Vec::new();
        let object_granular = matches!(self.design.sw_scheme(), SwScheme::TxbObject);
        match (&mut b.app, self.app) {
            (AppState::Fio { fio, chk }, AppKind::Fio { pattern, ops, .. }) => {
                'outer: for i in 0..ops {
                    for t in 0..fio.threads() {
                        let file = *fio.region(t);
                        let (off, payload) = fio.op_target(t, pattern, i);
                        if pattern.is_write() {
                            chk.record_write(&file, off, &payload);
                        }
                        let r = fio.op(&mut b.m, b.txm.as_mut(), t, pattern, i);
                        if b.m.sys.crash_suppressed() > 0 {
                            break 'outer; // crashed during (or before) this op
                        }
                        match r {
                            Ok(()) => {
                                // A completed transactional op ordered its
                                // data ahead of the COMMITTED record.
                                if pattern.is_write() && b.txm.is_some() {
                                    chk.commit(&file, off);
                                }
                            }
                            Err(e) => {
                                violations
                                    .push(format!("fio op t{t} i{i} failed before crash: {e}"));
                                break 'outer;
                            }
                        }
                    }
                }
            }
            (AppState::Stream { st, chk }, AppKind::StreamCopy { iters, .. }) => {
                let c = *st.arrays()[2];
                'outer: for i in 0..iters {
                    for t in 0..st.threads() {
                        let (off, payload) = st.copy_target(t, i);
                        if object_granular {
                            for e in 0..64 / ELEM_BYTES {
                                let lo = (e * ELEM_BYTES) as usize;
                                chk.record_write(&c, off + e * ELEM_BYTES, &payload[lo..lo + 8]);
                            }
                        } else {
                            chk.record_write(&c, off, &payload);
                        }
                        let r = st.op(&mut b.m, b.txm.as_mut(), t, Kernel::Copy, i);
                        if b.m.sys.crash_suppressed() > 0 {
                            break 'outer;
                        }
                        match r {
                            Ok(()) if b.txm.is_some() => {
                                if object_granular {
                                    for e in 0..64 / ELEM_BYTES {
                                        chk.commit(&c, off + e * ELEM_BYTES);
                                    }
                                } else {
                                    chk.commit(&c, off);
                                }
                            }
                            Ok(()) => {}
                            Err(e) => {
                                violations
                                    .push(format!("stream op t{t} i{i} failed before crash: {e}"));
                                break 'outer;
                            }
                        }
                    }
                }
            }
            (AppState::Ctree { kv, chk }, AppKind::CtreeInsert { keys }) => {
                let txm = b.txm.as_mut().expect("ctree always runs transactionally");
                for j in 0..keys {
                    let (key, val) = ctree_kv(j);
                    chk.record_insert(key, val);
                    let r = kv.insert(&mut b.m, txm, key, val);
                    if b.m.sys.crash_suppressed() > 0 {
                        break;
                    }
                    match r {
                        Ok(()) => chk.commit_insert(key, val),
                        Err(e) => {
                            violations.push(format!("ctree insert {j} failed before crash: {e}"));
                            break;
                        }
                    }
                }
            }
            _ => unreachable!("app state is built from app kind"),
        }
        // A clean shutdown's final flush belongs to the measured window: its
        // writebacks are crash points too.
        if b.m.sys.crash_suppressed() == 0 {
            b.m.flush();
        }
        if b.m.sys.crash_suppressed() == 0 {
            // Raw-store designs guarantee durability only at this completed
            // flush; transactional floors are already at their final state.
            match &mut b.app {
                AppState::Fio { chk, .. } | AppState::Stream { chk, .. } => chk.commit_all(),
                AppState::Ctree { .. } => {}
            }
        }
        violations
    }

    /// Simulated power loss, recovery, and verification (module docs, steps
    /// 1–5). Consumes the run and produces the verdict.
    fn power_fail_and_recover(
        &self,
        mut b: Booted,
        crash_point: u64,
        mut violations: Vec<String>,
    ) -> CrashReport {
        let total_writebacks = b.m.sys.crash_events();
        let crashed = b.m.sys.crash_suppressed() > 0;
        let vilamb_pending = b.txm.as_ref().map_or(0, |t| t.vilamb_pending_pages().len());

        // Power loss: caches, controller SRAM, and the library's DRAM state
        // vanish; the media keeps the admitted prefix.
        b.m.sys.lose_volatile_state();
        if let Some(t) = b.txm.as_mut() {
            t.clear_volatile();
        }

        // 1. Audit the raw image: pre-repair redundancy mismatches are the
        //    design's crash-vulnerability window.
        let files = Self::files(&b.app, &b.txm);
        let mut unverifiable_pages = 0usize;
        for f in &files {
            if let Err(bad) = b.m.verify_all(f) {
                unverifiable_pages += bad.len();
            }
        }

        // 2. Resilver so recovery's own demand reads verify.
        for f in &files {
            b.m.reinit_redundancy(f);
        }

        // 3. Roll back in-flight transactions from the undo logs.
        let rolled_back = match b.txm.as_mut() {
            Some(t) => match t.recover_all(&mut b.m.sys) {
                Ok(r) => r.len(),
                Err(e) => {
                    violations.push(format!("transaction-log recovery failed: {e}"));
                    0
                }
            },
            None => 0,
        };
        b.m.flush();

        // 4. Rollback writes bypass commit-time software redundancy: rebuild
        //    once more, after which every file must verify clean.
        for f in &files {
            b.m.reinit_redundancy(f);
        }
        for f in &files {
            if let Err(bad) = b.m.verify_all(f) {
                violations.push(format!(
                    "file {}: {} page(s) still fail redundancy verification after recovery",
                    f.first_data_index(),
                    bad.len()
                ));
            }
        }
        let image_hash = b.m.sys.memory().content_hash();

        // 5. Application-level crash invariants against the recovered image.
        match &mut b.app {
            AppState::Fio { fio, chk } => {
                for t in 0..fio.threads() {
                    for v in chk.check(&b.m, fio.region(t)) {
                        violations.push(format!("fio thread {t}: {v}"));
                    }
                }
            }
            AppState::Stream { st, chk } => {
                for (name, f) in ["a", "b", "c"].iter().zip(st.arrays().map(|f| *f)) {
                    for v in chk.check(&b.m, &f) {
                        violations.push(format!("stream array {name}: {v}"));
                    }
                }
            }
            AppState::Ctree { kv, chk } => {
                violations.extend(chk.check(&mut b.m, kv));
            }
        }

        let outcome = if !violations.is_empty() {
            Outcome::Lost
        } else if crashed && (rolled_back > 0 || unverifiable_pages > 0 || vilamb_pending > 0) {
            Outcome::Recovered
        } else {
            Outcome::Survived
        };
        CrashReport {
            crash_point,
            total_writebacks,
            crashed,
            unverifiable_pages,
            rolled_back,
            vilamb_pending,
            violations,
            image_hash,
            outcome,
        }
    }

    /// Reference run: execute the window with an unlimited budget and count
    /// its NVM writebacks — the `total` a [`crate::CrashPlan`] enumerates.
    ///
    /// # Panics
    ///
    /// Panics if the reference run itself hits an error (a scenario must be
    /// violation-free when no crash is injected).
    pub fn count_writebacks(&self) -> u64 {
        let mut b = self.boot(None);
        let violations = self.run(&mut b);
        assert!(
            violations.is_empty(),
            "reference run of {} must be clean: {violations:?}",
            self.label()
        );
        b.m.sys.crash_events()
    }

    /// Replay the window with writeback budget `k`, then power-fail,
    /// recover, and verify. Deterministic: the same `(scenario, k)` always
    /// yields the same report.
    pub fn run_crash_point(&self, k: u64) -> CrashReport {
        let mut b = self.boot(Some(k));
        let violations = self.run(&mut b);
        self.power_fail_and_recover(b, k, violations)
    }

    /// The clean-shutdown baseline: the full window with no budget, then the
    /// *same* recovery pipeline. Its `image_hash` is what
    /// `run_crash_point(total)` must reproduce — the "crash after the last
    /// writeback" image is indistinguishable from a clean shutdown.
    pub fn clean_report(&self) -> CrashReport {
        let mut b = self.boot(None);
        let violations = self.run(&mut b);
        let total = b.m.sys.crash_events();
        self.power_fail_and_recover(b, total, violations)
    }
}
