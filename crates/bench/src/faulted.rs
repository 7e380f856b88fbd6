//! Shadow-checked foreground workloads for the fault campaigns
//! (`chaos_campaign`, `degraded_campaign`): a deterministic op stream over a
//! small machine, with a shadow of every acknowledged write so each read is
//! classified as correct, silently wrong, or failed closed — plus the
//! design list, the detection → recovery pipeline switch, seed derivation
//! and quiet panic capture both campaigns share.

use apps::btree::BTree;
use apps::driver::{AppError, Design, Machine};
use apps::kv::PersistentKv;
use apps::rbtree::RbTree;
use apps::rng::Rng;
use memsim::addr::PAGE;
use pmemfs::fs::FileHandle;
use pmemfs::tx::{SwScheme, TxError, TxManager};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use tvarak::controller::TvarakConfig;

/// Foreground ops between forced writebacks.
pub const FLUSH_EVERY: u64 = 16;

/// The designs the fault campaigns sweep: the Fig. 8 four plus the naive
/// page-granular controller ablation.
pub fn designs() -> [Design; 5] {
    [
        Design::Baseline,
        Design::Tvarak,
        Design::TvarakAblated(TvarakConfig::naive()),
        Design::TxbObject,
        Design::TxbPage,
    ]
}

/// Inline cache-line-granular verification — the only designs that can
/// promise "no silent wrong data" under every fault kind. Page-granular
/// checksums are launderable: recomputing them re-reads the rest of the
/// page from media, folding a sticky misread or stale line into the stored
/// checksum, after which verification agrees with the wrong bytes.
pub fn inline_cl_verified(design: Design) -> bool {
    design.has_controller()
        && design.checksum_granularity() == Some(tvarak::scrub::ScrubGranularity::CacheLine)
}

/// The small machine every fault cell runs on.
pub fn small_machine(design: Design) -> Machine {
    Machine::builder()
        .small()
        .design(design)
        .data_pages(256)
        .build()
}

/// Switch on the detection → recovery → scrub pipeline over `file`
/// (Baseline has none).
pub fn enable_pipeline(m: &mut Machine, file: &FileHandle) {
    if m.design() != Design::Baseline {
        m.enable_recovery().expect("poison store fits");
        m.enable_scrub_daemon(file);
    }
}

/// A cell's seed: a function of the campaign's `base`, the app and the
/// fault/scenario `tag` only, so every design faces the identical op stream
/// and fault schedule.
pub fn seed_for(base: u64, app: &str, tag: &str) -> u64 {
    app.bytes()
        .chain(tag.bytes())
        .fold(base, |s, b| s.wrapping_mul(31).wrapping_add(b as u64))
}

thread_local! {
    /// Set while this thread runs an op that may legitimately panic.
    static IN_STEP: Cell<bool> = const { Cell::new(false) };
    /// The most recent panic message captured on this thread.
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Fabricated bytes legitimately send the index structures chasing garbage:
/// a loud, per-op-caught failure. Chain one process-wide hook (a per-run
/// `set_hook`/`take_hook` pair would race on the worker pool) that records
/// the message of a panic raised inside a caught step instead of spamming
/// stderr; every other panic still reaches the previous hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_STEP.get() {
                // The payload only: a source location would tie the golden-pinned
                // event log to line numbers.
                let msg = info.payload_as_str().unwrap_or("<non-string panic>");
                LAST_PANIC.set(Some(msg.to_string()));
            } else {
                prev(info);
            }
        }));
    });
}

/// What the foreground stream observed, accumulated over a cell.
#[derive(Debug, Default)]
pub struct Tally {
    /// Reads that returned a *value* different from the acknowledged one.
    pub wrong_data: u64,
    /// Reads that returned nothing where a value was expected (collateral
    /// of a degraded structure; reported, not an invariant).
    pub degraded_miss: u64,
    /// Accesses rejected with a signalled error: a structured `Poisoned`,
    /// or, with no orchestrator to repair it, the media error itself.
    pub fail_closed: u64,
    /// The application panicked chasing fabricated bytes (only reachable
    /// when the stack returned wrong data — i.e. non-verifying designs).
    pub crashed: bool,
}

/// One foreground workload: a deterministic op stream over a machine,
/// replayable op-for-op (the degraded campaign's never-faulted oracle).
pub trait Workload {
    /// The file the stream runs against.
    fn file(&self) -> &FileHandle;

    /// Run op `op`, accounting into `t`. `Ok(Some(detail))` describes a
    /// wrong-data read for the event log; `Err(info)` means the application
    /// crashed (a loud failure; the cell stops) with the panic message.
    fn step(&mut self, m: &mut Machine, op: u64, t: &mut Tally) -> Result<Option<String>, String>;

    /// Whether the structure itself is legitimately suspect (see
    /// [`ShadowKv`]); always `false` for raw file I/O.
    fn suspect(&self) -> bool {
        false
    }
}

/// Whether `e` fails an access closed: the page is quarantined, or the
/// corruption it hit was signalled with no orchestrator to repair it.
fn signalled(e: &AppError) -> bool {
    matches!(
        e,
        AppError::Poisoned(_) | AppError::Corruption(_) | AppError::Tx(TxError::Corruption(_))
    )
}

/// Build `app`'s workload on `m`: `fio` is [`ShadowFio`], `rbtree` a
/// red-black tree and anything else a B-tree under [`ShadowKv`]. `tx_log`
/// sizes the per-core transaction log.
pub fn workload(app: &str, m: &mut Machine, seed: u64, tx_log: u64) -> Box<dyn Workload> {
    match app {
        "fio" => Box::new(ShadowFio::new(m, seed, tx_log)),
        _ => Box::new(ShadowKv::new(m, app, seed, tx_log)),
    }
}

/// fio-style raw file I/O: 64 B reads/writes at seeded random line offsets
/// with a per-line shadow of the acknowledged version. Writes go through
/// the transactional interface under software designs so their checksums
/// stay maintained.
pub struct ShadowFio {
    file: FileHandle,
    txm: Option<TxManager>,
    shadow: Vec<Option<u64>>,
    rng: Rng,
    nlines: u64,
}

fn fio_pattern(l: u64, v: u64) -> [u8; 64] {
    let mut p = [0u8; 64];
    p[..8].copy_from_slice(&l.to_le_bytes());
    p[8..16].copy_from_slice(&v.to_le_bytes());
    p[16] = (l ^ v) as u8;
    p
}

impl ShadowFio {
    fn new(m: &mut Machine, seed: u64, tx_log: u64) -> Self {
        let txm = match m.design().sw_scheme() {
            SwScheme::None => None,
            _ => Some(m.tx_manager(tx_log).expect("pool fits tx log")),
        };
        let file = m
            .create_dax_file("fio", 16 * PAGE as u64)
            .expect("pool fits");
        let nlines = file.pages() * memsim::LINES_PER_PAGE as u64;
        // Preload every line out-of-band (unmeasured setup), then rebuild
        // redundancy from media ground truth.
        for l in 0..nlines {
            m.sys
                .memory_mut()
                .poke_line(file.addr(l * 64).line(), &fio_pattern(l, 0));
        }
        m.reinit_redundancy(&file);
        ShadowFio {
            file,
            txm,
            shadow: vec![Some(0); nlines as usize],
            rng: Rng::new(0xf10_0000 ^ seed),
            nlines,
        }
    }
}

impl Workload for ShadowFio {
    fn file(&self) -> &FileHandle {
        &self.file
    }

    fn step(&mut self, m: &mut Machine, op: u64, t: &mut Tally) -> Result<Option<String>, String> {
        let l = self.rng.below(self.nlines);
        let off = l * 64;
        let file = self.file;
        let is_write = self.rng.below(2) == 0;
        let mut event = None;
        if is_write {
            let data = fio_pattern(l, op + 1);
            let result = match self.txm.as_mut() {
                // The transactional path has no inline poison gate; check
                // explicitly so degraded pages fail closed.
                Some(txm) => m.check_poison(&file, off, 64).and_then(|()| {
                    m.with_recovery(|m| {
                        let mut tx = txm.begin(&mut m.sys, 0)?;
                        tx.write(&mut m.sys, &file, off, &data)?;
                        Ok(tx.commit(&mut m.sys)?)
                    })
                }),
                None => m.write_file(&file, 0, off, &data),
            };
            match result {
                Ok(()) => self.shadow[l as usize] = Some(op + 1),
                Err(e) if signalled(&e) => {
                    t.fail_closed += 1;
                    self.shadow[l as usize] = None;
                }
                Err(e) => panic!("unexpected app error: {e}"),
            }
        } else {
            let mut buf = [0u8; 64];
            match m.read_file(&file, 0, off, &mut buf) {
                Ok(()) => {
                    if let Some(v) = self.shadow[l as usize].filter(|&v| buf != fio_pattern(l, v)) {
                        t.wrong_data += 1;
                        event = Some(format!(
                            "WrongData line={l} want_ver={v} got={:02x?}",
                            &buf[..17]
                        ));
                    }
                }
                Err(e) if signalled(&e) => t.fail_closed += 1,
                Err(e) => panic!("unexpected app error: {e}"),
            }
        }
        Ok(event)
    }
}

/// Key-value load: a persistent tree under a 60:40 overwrite:lookup mix
/// with a shadow map. Keys whose op failed closed are tainted (their
/// durable value is legitimately unknown) and excluded from comparisons.
///
/// Silent-wrong-data accounting stops once the index structure itself is
/// legitimately suspect: after the stack raises a structured `Poisoned`
/// error, or after recovery interrupts a *mutation* mid-op (the dropped
/// transaction's partial writes may have left the index mid-split; the
/// retried insert runs on that state). Neither is *silent* — the stack
/// detected and signalled in both cases. Reads interrupted by recovery stay
/// fully checked: they mutate nothing.
pub struct ShadowKv {
    kv: Box<dyn PersistentKv>,
    txm: TxManager,
    file: FileHandle,
    shadow: HashMap<u64, u64>,
    tainted: HashSet<u64>,
    rng: Rng,
    suspect: bool,
}

const KV_KEYSPACE: u64 = 240;

impl ShadowKv {
    fn new(m: &mut Machine, app: &str, seed: u64, tx_log: u64) -> Self {
        install_quiet_panic_hook();
        let mut txm = m.tx_manager(tx_log).expect("pool fits tx log");
        let heap = 32 * 1024;
        let mut kv: Box<dyn PersistentKv> = match app {
            "rbtree" => Box::new(RbTree::create(m, 0, heap).expect("pool fits")),
            _ => Box::new(BTree::create(m, 0, heap).expect("pool fits")),
        };
        let mut shadow = HashMap::new();
        for k in 0..160u64 {
            kv.insert(m, &mut txm, k, k ^ 0xa5a5).expect("preload");
            shadow.insert(k, k ^ 0xa5a5);
        }
        let file = *kv.file();
        ShadowKv {
            kv,
            txm,
            file,
            shadow,
            tainted: HashSet::new(),
            rng: Rng::new(0xdead_0000 ^ seed),
            suspect: false,
        }
    }
}

impl Workload for ShadowKv {
    fn file(&self) -> &FileHandle {
        &self.file
    }

    fn suspect(&self) -> bool {
        self.suspect
    }

    fn step(&mut self, m: &mut Machine, op: u64, t: &mut Tally) -> Result<Option<String>, String> {
        let key = self.rng.below(KV_KEYSPACE);
        let write = self.rng.below(10) < 6;
        let d_before = m.orchestrator().map_or(0, |o| o.detections());
        let ShadowKv {
            kv,
            txm,
            file,
            shadow,
            tainted,
            suspect,
            ..
        } = self;
        let mut event = None;
        // Fabricated bytes can send the index chasing garbage pointers; a
        // panic is a loud (not silent) failure, caught per op.
        IN_STEP.set(true);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if write {
                match m.with_recovery(|m| kv.insert(m, txm, key, op)) {
                    Ok(()) => {
                        shadow.insert(key, op);
                        tainted.remove(&key);
                        false
                    }
                    Err(e) if signalled(&e) => {
                        t.fail_closed += 1;
                        tainted.insert(key);
                        true
                    }
                    Err(e) => panic!("unexpected app error: {e}"),
                }
            } else if !m.design().has_controller()
                && m.check_poison(file, 0, (file.pages() * PAGE as u64) as usize)
                    .is_err()
            {
                // Software designs cannot detect a poisoned page inline;
                // the coarse pre-check is their fail-closed gate.
                t.fail_closed += 1;
                true
            } else {
                match m.with_recovery(|m| kv.get(m, key)) {
                    Ok(got) => {
                        match (got, shadow.get(&key)) {
                            (Some(v), Some(&want))
                                if v != want && !tainted.contains(&key) && !*suspect =>
                            {
                                t.wrong_data += 1;
                                event = Some(format!("WrongData key={key} got={v} want={want}"));
                            }
                            (None, Some(_)) if !tainted.contains(&key) => t.degraded_miss += 1,
                            _ => {}
                        }
                        false
                    }
                    Err(e) if signalled(&e) => {
                        t.fail_closed += 1;
                        true
                    }
                    Err(e) => panic!("unexpected app error: {e}"),
                }
            }
        }));
        IN_STEP.set(false);
        match outcome {
            Ok(poisoned_now) => {
                *suspect |= poisoned_now;
                if write && m.orchestrator().map_or(0, |o| o.detections()) > d_before {
                    // A mutation was interrupted and retried; the index may
                    // be structurally disturbed from here on.
                    *suspect = true;
                    tainted.insert(key);
                }
                Ok(event)
            }
            Err(_) => {
                t.crashed = true;
                Err(LAST_PANIC.take().unwrap_or_default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_ignore_the_design_and_separate_cells() {
        let a = seed_for(0x00c4_a05c, "btree", "lost-write");
        assert_eq!(a, seed_for(0x00c4_a05c, "btree", "lost-write"));
        assert_ne!(a, seed_for(0x00c4_a05c, "rbtree", "lost-write"));
        assert_ne!(a, seed_for(0x00de_64ad, "btree", "lost-write"));
    }

    #[test]
    fn clean_streams_never_report_wrong_data() {
        for app in ["fio", "btree", "rbtree"] {
            let mut m = small_machine(Design::Tvarak);
            let mut w = workload(app, &mut m, 7, 64 * 1024);
            let mut t = Tally::default();
            for op in 0..200 {
                assert_eq!(w.step(&mut m, op, &mut t), Ok(None), "{app} op {op}");
            }
            assert_eq!(
                (t.wrong_data, t.fail_closed, t.crashed),
                (0, 0, false),
                "{app}"
            );
            assert!(!w.suspect());
        }
    }
}
