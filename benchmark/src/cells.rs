//! The four single-cell workloads: set-up, measured phase and output checks
//! of one cell on a fresh machine, driven through the crates' public API
//! only. Input sizes are fixed here and must not change once committed.

use crate::trace::Tracer;
use apps::btree::BTree;
use apps::driver::{run_clocked_threads, AppError, Design, Machine, ThreadedRun};
use apps::fio::{Fio, Pattern};
use apps::kv::PersistentKv;
use apps::rng::Rng;
use memsim::config::SystemConfig;
use memsim::stats::Stats;
use memsim::weave::WeaveReport;
use memsim::PAGE;
use pmemfs::fs::FileHandle;
use pmemfs::tx::{SwScheme, TxManager};

/// Parallel application instances in every cell (the paper's 12 threads).
pub const INSTANCES: usize = 12;
/// fio: 64 B ops per instance (`Scale::full().fio_ops_per_thread`).
const FIO_OPS: u64 = 65_536;
/// fio: bytes per instance region at full scale (exceeds the 24 MB LLC).
const FIO_REGION: u64 = 8 << 20;
/// fio: bytes per instance region that fits the LLC, so the weave does not
/// diverge on inclusion victims.
const LLCFIT_REGION: u64 = 512 << 10;
/// B-Tree: keys preloaded per instance (`Scale::reduced().kv_keys`).
const KV_KEYS: u64 = 25_000;
/// B-Tree: measured inserts per instance (`Scale::reduced().kv_ops`).
const KV_OPS: u64 = 4_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FioRandWrite,
    FioRandRead,
    BtreeInsert,
    FioLlcfit,
}

impl Kind {
    /// The redundancy design the workload measures.
    pub fn design(self) -> Design {
        match self {
            Kind::BtreeInsert => Design::TxbPage,
            _ => Design::Tvarak,
        }
    }

    /// Engine threads the measured reps request.
    pub fn threads(self) -> usize {
        match self {
            Kind::FioLlcfit => 2,
            _ => 1,
        }
    }

    /// The paper's Fig. 8 runtime normalized to Baseline for this op mix and
    /// design (EXPERIMENTS.md). `FioLlcfit` borrows the rand-write
    /// reference: its geometry is smaller than anything the paper ran.
    pub fn paper_ref(self) -> f64 {
        match self {
            Kind::FioRandWrite | Kind::FioLlcfit => 1.33,
            Kind::FioRandRead => 1.02,
            Kind::BtreeInsert => 2.71,
        }
    }

    /// Measured application ops per instance.
    pub fn ops(self) -> u64 {
        match self {
            Kind::BtreeInsert => KV_OPS,
            _ => FIO_OPS,
        }
    }

    pub fn total_ops(self) -> u64 {
        self.ops() * INSTANCES as u64
    }

    fn region(self) -> u64 {
        match self {
            Kind::FioLlcfit => LLCFIT_REGION,
            _ => FIO_REGION,
        }
    }

    /// Which closure calls of a traced rep get a per-op span: fio ops take
    /// 1.5–4 us of host time, so spanning each would cost up to 20 %; every
    /// 7th (coprime with the 12 instances, so the samples rotate over them)
    /// keeps it near 2 %. B-Tree inserts take ~70 us; each is spanned.
    fn op_span_stride(self) -> u64 {
        match self {
            Kind::BtreeInsert => 1,
            _ => 7,
        }
    }

    /// NVM data pages the workload's files occupy (shapes the isolated
    /// page-store timings).
    pub fn file_pages(self) -> u64 {
        match self {
            Kind::BtreeInsert => kv_heap_bytes() / PAGE as u64 * INSTANCES as u64,
            _ => self.region() / PAGE as u64 * INSTANCES as u64,
        }
    }
}

fn kv_heap_bytes() -> u64 {
    (KV_KEYS * 96 + KV_OPS * 96).max(1 << 20)
}

/// An independent seeded stream per (purpose, instance).
fn stream(seed: u64, purpose: u64, inst: usize) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (purpose << 56) ^ inst as u64)
}

/// A fresh key for measured insert `op`: the top bit keeps it clear of the
/// preloaded keys (all below 2^32).
fn fresh_key(rng: &mut Rng) -> u64 {
    rng.next_u64() | 1 << 63
}

// One per cell, never in a collection: the size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum App {
    Fio {
        fio: Fio,
        pattern: Pattern,
        /// Seeded per-instance starting offset into the fio permutation.
        base: Vec<u64>,
    },
    Btree {
        trees: Vec<BTree>,
        txm: TxManager,
        keys: Vec<Rng>,
    },
}

impl App {
    #[inline]
    fn step(&mut self, m: &mut Machine, inst: usize, op: u64) -> Result<(), AppError> {
        match self {
            App::Fio { fio, pattern, base } => fio.op(m, None, inst, *pattern, base[inst] + op),
            App::Btree { trees, txm, keys } => {
                let key = fresh_key(&mut keys[inst]);
                trees[inst].insert(m, txm, key, op)
            }
        }
    }

    fn files(&self) -> Vec<FileHandle> {
        match self {
            App::Fio { fio, .. } => (0..fio.threads()).map(|t| *fio.region(t)).collect(),
            App::Btree { trees, txm, .. } => trees
                .iter()
                .map(|t| *t.file())
                .chain([*txm.meta_file()])
                .collect(),
        }
    }
}

/// Host seconds of each set-up phase, by the layer whose public function
/// the span wraps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub total_s: f64,
    pub machine_build_s: f64,
    pub create_map_s: f64,
    pub tx_manager_s: f64,
    pub preload_s: f64,
    pub reinit_s: f64,
}

/// One cell run on a fresh machine.
#[derive(Debug)]
pub struct CellRun {
    pub setup: Setup,
    /// Measured phase: `run_clocked_threads` + final flush, and — if the
    /// weave diverged — the rebuild and sequential rerun as well.
    pub run_s: f64,
    pub flush_s: f64,
    /// Seconds inside the workload closure, from the per-op spans (traced
    /// reps only).
    pub ops_s: f64,
    pub op_ns_p50: f64,
    pub op_ns_p999: f64,
    pub hash_s: f64,
    pub verify_s: f64,
    pub stats: Stats,
    pub content_hash: u64,
    pub verify_clean: bool,
    pub outputs_ok: bool,
    pub weave: Option<WeaveReport>,
    pub diverged: bool,
}

fn setup(
    kind: Kind,
    design: Design,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Machine, App, Setup), AppError> {
    let mut s = Setup::default();
    let whole = tr.enter("setup");
    let data_pages = match kind {
        Kind::BtreeInsert => (kv_heap_bytes() / PAGE as u64 + 81) * INSTANCES as u64 + 1500,
        _ => kind.region() / PAGE as u64 * INSTANCES as u64 + 1024,
    };
    let mut cfg = SystemConfig::default();
    if kind == Kind::FioLlcfit {
        // Bound thread + one replay worker = the host's two cores.
        cfg.weave_shards = 1;
    }
    let id = tr.enter("driver.machine_build");
    let mut m = Machine::builder()
        .system_config(cfg)
        .design(design)
        .data_pages(data_pages)
        .build();
    s.machine_build_s = tr.exit(id);

    let app = match kind {
        Kind::BtreeInsert => {
            let id = tr.enter("tx.manager_create");
            let mut txm = m.tx_manager(256 * 1024)?;
            s.tx_manager_s = tr.exit(id);
            // Preload with the software scheme off, then rebuild redundancy
            // functionally — as `bench::workloads` does for every KV cell.
            txm.set_scheme(SwScheme::None);
            let cores = m.sys.num_cores();
            let id = tr.enter("fs.create_map");
            let mut trees = Vec::with_capacity(INSTANCES);
            for i in 0..INSTANCES {
                trees.push(BTree::create(&mut m, i % cores, kv_heap_bytes())?);
            }
            s.create_map_s = tr.exit(id);
            let id = tr.enter("app.preload");
            for k in 0..KV_KEYS {
                for t in trees.iter_mut() {
                    t.insert(&mut m, &mut txm, k.wrapping_mul(0x9e37), k)?;
                }
            }
            m.flush();
            s.preload_s = tr.exit(id);
            let id = tr.enter("init.reinit");
            for t in &trees {
                m.reinit_redundancy(t.file());
            }
            let meta = *txm.meta_file();
            m.reinit_redundancy(&meta);
            s.reinit_s = tr.exit(id);
            txm.set_scheme(design.sw_scheme());
            let keys = (0..INSTANCES).map(|i| stream(seed, 3, i)).collect();
            App::Btree { trees, txm, keys }
        }
        _ => {
            let id = tr.enter("fs.create_map");
            let fio = Fio::create(&mut m, INSTANCES, kind.region())?;
            s.create_map_s = tr.exit(id);
            let lines = fio.lines_per_region();
            if kind == Kind::FioRandRead {
                // Seeded line contents straight onto the media, so measured
                // reads hit the page-store arena instead of lazy zero pages.
                let id = tr.enter("app.preload");
                for t in 0..INSTANCES {
                    let f = *fio.region(t);
                    let mut rng = stream(seed, 2, t);
                    let mut line = [0u8; 64];
                    for l in 0..lines {
                        for c in line.chunks_exact_mut(8) {
                            c.copy_from_slice(&rng.next_u64().to_le_bytes());
                        }
                        m.sys.memory_mut().poke_line(f.addr(l * 64).line(), &line);
                    }
                }
                s.preload_s = tr.exit(id);
                let id = tr.enter("init.reinit");
                for t in 0..INSTANCES {
                    let f = *fio.region(t);
                    m.reinit_redundancy(&f);
                }
                s.reinit_s = tr.exit(id);
            }
            let pattern = match kind {
                Kind::FioRandRead => Pattern::RandRead,
                _ => Pattern::RandWrite,
            };
            let base = (0..INSTANCES)
                .map(|i| stream(seed, 1, i).below(lines))
                .collect();
            App::Fio { fio, pattern, base }
        }
    };
    m.reset_stats();
    s.total_s = tr.exit(whole);
    Ok((m, app, s))
}

/// Time set-up alone (the machine is dropped): extra `setup_s` samples for
/// workloads whose set-up is too short for one sample per rep to be steady.
pub fn setup_only(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<f64, AppError> {
    tr.begin_rep(0);
    Ok(setup(kind, kind.design(), seed, tr)?.2.total_s)
}

/// The measured phase; returns how it ran and the seconds of its flush.
fn measured(
    kind: Kind,
    m: &mut Machine,
    app: &mut App,
    threads: usize,
    tr: &mut Tracer,
) -> Result<(ThreadedRun, f64), AppError> {
    let run = tr.enter("run");
    let mode = run_clocked_threads(m, INSTANCES, kind.ops(), threads, |m, inst, op| {
        tr.op(inst, || app.step(m, inst, op))
    })?;
    let id = tr.enter("engine.flush");
    m.flush();
    let flush_s = tr.exit(id);
    tr.exit(run);
    Ok((mode, flush_s))
}

/// Check the program's outputs beyond the redundancy scrub: written fio
/// lines hold their payload on media, inserted keys read back their value.
fn outputs_ok(kind: Kind, seed: u64, m: &mut Machine, app: &mut App) -> bool {
    match app {
        App::Fio { pattern, .. } if !pattern.is_write() => true,
        App::Fio { fio, pattern, base } => {
            // The permutation has period `lines`, so each line's last writer
            // is among the final `lines` ops; sample those.
            let window = kind.ops().min(fio.lines_per_region());
            (0..INSTANCES).all(|t| {
                (kind.ops() - window..kind.ops()).step_by(997).all(|i| {
                    let (off, payload) = fio.op_target(t, *pattern, base[t] + i);
                    let line = fio.region(t).addr(off).line();
                    m.sys.memory().peek_line(line) == payload
                })
            })
        }
        App::Btree { trees, .. } => trees.iter_mut().enumerate().all(|(i, t)| {
            let mut keys = stream(seed, 3, i);
            (0..kind.ops()).all(|op| {
                let key = fresh_key(&mut keys);
                op % 61 != 0 || matches!(t.get(m, key), Ok(Some(v)) if v == op)
            })
        }),
    }
}

fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize] as f64
}

/// Run one cell: set-up, measured phase, then statistics, content hash,
/// redundancy scrub and output checks. `traced` adds the per-op spans.
pub fn run_cell(
    kind: Kind,
    design: Design,
    threads: usize,
    seed: u64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<CellRun, AppError> {
    let stride = if traced { kind.op_span_stride() } else { 0 };
    tr.begin_rep(stride);
    if traced {
        tr.ops.reserve((kind.total_ops() / stride) as usize);
    }
    let (mut m, mut app, setup_phases) = setup(kind, design, seed, tr)?;
    let timed = tr.enter("measured");
    let (mut mode, mut flush_s) = measured(kind, &mut m, &mut app, threads, tr)?;
    let mut diverged = false;
    if let ThreadedRun::Diverged(_) = mode {
        // The attempt's state is unspecified: rebuild and rerun on the
        // sequential oracle, inside the timed region, as campaigns do.
        diverged = true;
        tr.restart_ops();
        (m, app, _) = setup(kind, design, seed, tr)?;
        (mode, flush_s) = measured(kind, &mut m, &mut app, 1, tr)?;
    }
    let run_s = tr.exit(timed);

    let mut durs: Vec<u32> = tr.ops.iter().map(|o| o.dur_ns).collect();
    durs.sort_unstable();

    let id = tr.enter("stats.collect");
    let stats = m.stats();
    tr.exit(id);
    let id = tr.enter("mem.content_hash");
    let content_hash = m.sys.memory().content_hash();
    let hash_s = tr.exit(id);
    let id = tr.enter("fs.verify");
    let verify_clean = app.files().iter().all(|f| m.verify_all(f).is_ok());
    let verify_s = tr.exit(id);
    let outputs_ok = outputs_ok(kind, seed, &mut m, &mut app);

    Ok(CellRun {
        setup: setup_phases,
        run_s,
        flush_s,
        ops_s: tr.ops_total_s(),
        op_ns_p50: percentile(&durs, 0.5),
        op_ns_p999: percentile(&durs, 0.999),
        hash_s,
        verify_s,
        stats,
        content_hash,
        verify_clean,
        outputs_ok,
        weave: match mode {
            ThreadedRun::Woven(r) => Some(r),
            _ => None,
        },
        diverged,
    })
}
