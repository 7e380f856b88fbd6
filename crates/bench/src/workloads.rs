//! The paper's workloads (Table II), runnable under any design at a
//! configurable scale. Every Fig. 8/9/10 binary builds on these functions so
//! that all experiments share one implementation per workload.
//!
//! The paper's absolute dataset sizes (512 MB fio regions, 1 M requests) are
//! scaled down so runs finish in minutes while preserving the property that
//! matters: working sets exceed the 24 MB LLC, so steady-state NVM traffic
//! occurs. `Scale::quick` shrinks further for smoke tests; campaigns select
//! a scale through `crate::campaign::ScaleKind` (`TVARAK_SCALE`).

use apps::btree::BTree;
use apps::ctree::CTree;
use apps::driver::{AppError, Design, Machine, ThreadedRun};
use apps::fio::{Fio, Pattern};
use apps::kv::PersistentKv;
use apps::nstore::NStore;
use apps::rbtree::RbTree;
use apps::redis::Redis;
use apps::rng::Rng;
use apps::stream::{Kernel, Stream};
use apps::ycsb::{Op, YcsbMix};
use memsim::config::SystemConfig;
use memsim::stats::Stats;
use memsim::weave::DivergenceKind;
use memsim::PAGE;
use pmemfs::fs::FileHandle;
use pmemfs::tx::{SwScheme, TxManager};

/// Workload sizing knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Redis: parallel instances (paper: 1–6; results shown for 6).
    pub redis_instances: usize,
    /// Redis: keyspace per instance.
    pub redis_keys: u64,
    /// Redis: measured requests per instance.
    pub redis_ops: u64,
    /// Redis: value size in bytes.
    pub redis_val: usize,
    /// KV structures: parallel instances (paper: 12).
    pub kv_instances: usize,
    /// KV structures: keys preloaded / inserted per instance.
    pub kv_keys: u64,
    /// KV structures: measured ops per instance (balanced workloads).
    pub kv_ops: u64,
    /// N-Store: client threads (paper: 4).
    pub nstore_clients: usize,
    /// N-Store: tuples in the table.
    pub nstore_tuples: u64,
    /// N-Store: total transactions.
    pub nstore_txs: u64,
    /// fio: threads (paper: 12).
    pub fio_threads: usize,
    /// fio: bytes per thread region.
    pub fio_region_bytes: u64,
    /// fio: 64 B ops per thread.
    pub fio_ops_per_thread: u64,
    /// stream: threads (paper: 12).
    pub stream_threads: usize,
    /// stream: bytes per array.
    pub stream_array_bytes: u64,
}

impl Scale {
    /// The default evaluation scale (working sets exceed the 24 MB LLC).
    pub fn full() -> Self {
        Scale {
            redis_instances: 6,
            redis_keys: 30_000,
            redis_ops: 10_000,
            redis_val: 64,
            kv_instances: 12,
            kv_keys: 25_000,
            kv_ops: 8_000,
            nstore_clients: 4,
            nstore_tuples: 400_000,
            nstore_txs: 40_000,
            fio_threads: 12,
            fio_region_bytes: 8 * 1024 * 1024,
            fio_ops_per_thread: 65_536,
            stream_threads: 12,
            stream_array_bytes: 30 * 1024 * 1024,
        }
    }

    /// A fast smoke-test scale (used by integration tests and
    /// `TVARAK_SCALE=quick`).
    pub fn quick() -> Self {
        Scale {
            redis_instances: 2,
            redis_keys: 2_000,
            redis_ops: 2_000,
            redis_val: 64,
            kv_instances: 2,
            kv_keys: 2_000,
            kv_ops: 2_000,
            nstore_clients: 2,
            nstore_tuples: 20_000,
            nstore_txs: 4_000,
            fio_threads: 2,
            fio_region_bytes: 512 * 1024,
            fio_ops_per_thread: 4_096,
            stream_threads: 2,
            stream_array_bytes: 1024 * 1024,
        }
    }

    /// Half-sized measured phases for the many-configuration sweeps
    /// (Fig. 9/10): working sets still exceed the LLC, op counts halve.
    pub fn reduced() -> Self {
        let mut s = Scale::full();
        s.redis_ops = 5_000;
        s.kv_ops = 4_000;
        s.nstore_txs = 20_000;
        s.fio_ops_per_thread = 32_768;
        s.stream_array_bytes = 12 * 1024 * 1024;
        s
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The design that ran.
    pub design: Design,
    /// Measured statistics.
    pub stats: Stats,
    /// The machine configuration (for energy pricing).
    pub cfg: SystemConfig,
    /// Bound-weave report when the measured phase ran on the parallel
    /// engine (`None`: sequential path). Stats are identical either way;
    /// this only carries wall-clock/occupancy telemetry.
    pub weave: Option<memsim::weave::WeaveReport>,
    /// Canonical digest of the final media content, for determinism
    /// differentials (sequential vs bound-weave, any `--jobs` width).
    pub content_hash: u64,
    /// Bound-weave eligibility of this cell's configuration, as a stable
    /// label (see [`memsim::weave::WeaveEligibility::as_str`]). Classified
    /// from the machine alone, so the value — and the CSV column built from
    /// it — is identical at every engine-thread count.
    pub weave_eligibility: &'static str,
    /// Why a parallel attempt was abandoned in favour of the sequential
    /// rerun (`None`: no fallback happened). Telemetry only — divergence
    /// depends on the engine-thread count, so this never feeds CSVs.
    pub divergence: Option<&'static str>,
    /// Per-NVM-DIMM (demand, posted) access counts, for calibration
    /// (`probe` prints them).
    pub dimm_accesses: Vec<(u64, u64)>,
}

/// A design plus the machine it runs on: the Fig. 10 way-partition sweeps
/// and the §IV-H DIMM-count / NVM-technology studies edit the machine while
/// reusing the same workload code.
#[derive(Debug, Clone)]
pub struct Variant {
    /// The redundancy design.
    pub design: Design,
    /// The machine (default: the paper's Table III).
    pub cfg: SystemConfig,
}

impl Variant {
    /// A plain design with the paper's default machine.
    pub fn of(design: Design) -> Self {
        Variant {
            design,
            cfg: SystemConfig::default(),
        }
    }

    /// Set the LLC redundancy-caching way count (Fig. 10(a)).
    pub fn redundancy_ways(mut self, w: usize) -> Self {
        self.cfg.controller.redundancy_ways = w;
        self
    }

    /// Set the LLC data-diff way count (Fig. 10(b)).
    pub fn diff_ways(mut self, w: usize) -> Self {
        self.cfg.controller.diff_ways = w;
        self
    }

    /// Set the NVM DIMM count (§IV-H).
    pub fn nvm_dimms(mut self, d: usize) -> Self {
        self.cfg.nvm.dimms = d;
        self
    }

    /// Use battery-backed DRAM timing for the "NVM" devices (§IV-H): DRAM
    /// latency, with the DIMM occupancy scaled with it.
    pub fn dram_as_nvm(mut self) -> Self {
        let nvm = &mut self.cfg.nvm;
        (nvm.read_ns, nvm.write_ns) = (15.0, 15.0);
        (nvm.read_occupancy_ns, nvm.write_occupancy_ns) = (7.5, 7.5);
        self
    }
}

impl From<Design> for Variant {
    fn from(d: Design) -> Self {
        Variant::of(d)
    }
}

/// Build a variant's machine with `data_pages` pool pages.
pub fn machine(v: impl Into<Variant>, data_pages: u64) -> Machine {
    let v = v.into();
    Machine::builder()
        .system_config(v.cfg)
        .design(v.design)
        .data_pages(data_pages)
        .build()
}

/// Close out a measured machine into its [`Outcome`] (sequential path).
pub fn finish(m: &Machine) -> Outcome {
    Outcome {
        design: m.design(),
        stats: m.stats(),
        cfg: m.sys.config().clone(),
        weave: None,
        content_hash: m.sys.memory().content_hash(),
        weave_eligibility: apps::driver::weave_eligibility(m).as_str(),
        divergence: None,
        dimm_accesses: m.sys.dimm_access_counts(),
    }
}

/// Close out a cell whose measured phase ran under
/// [`apps::driver::run_clocked_threads`]: `Err` carries the divergence kind
/// (when known) and means the bound-weave attempt was abandoned — the whole
/// cell (setup included) must be redone sequentially.
fn finish_threaded(m: &mut Machine, mode: ThreadedRun) -> Result<Outcome, Option<DivergenceKind>> {
    if let ThreadedRun::Diverged(kind) = mode {
        return Err(kind);
    }
    m.flush();
    let mut out = finish(m);
    if let ThreadedRun::Woven(r) = mode {
        out.weave = Some(r);
    }
    Ok(out)
}

/// Run a cell at the requested bound-weave width, falling back to a fresh
/// sequential run when the parallel attempt diverges, errors, or panics:
/// any of those may stem from mispredicted fill data, so the attempt is
/// discarded wholesale and the sequential oracle is authoritative (it
/// reproduces genuine failures deterministically). `cell(t)` must build the
/// machine and all application state from scratch each call. The fallback
/// cause (divergence kind, workload error, panic) is logged to stderr and
/// stamped on the rerun's [`Outcome::divergence`].
fn retry_sequential(
    threads: usize,
    mut cell: impl FnMut(usize) -> Result<Result<Outcome, Option<DivergenceKind>>, AppError>,
) -> Result<Outcome, AppError> {
    let mut fallback: Option<&'static str> = None;
    if threads >= 2 {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell(threads)));
        match attempt {
            Ok(Ok(Ok(out))) => return Ok(out),
            Ok(Ok(Err(kind))) => {
                let label = kind.map_or("unknown", DivergenceKind::as_str);
                eprintln!("  bound-weave diverged ({label}); rerunning sequentially");
                fallback = Some(label);
            }
            Ok(Err(_)) => {
                eprintln!("  bound-weave attempt errored; rerunning sequentially");
                fallback = Some("attempt-error");
            }
            Err(_) => {
                eprintln!("  bound-weave attempt panicked; rerunning sequentially");
                fallback = Some("attempt-panic");
            }
        }
    }
    match cell(1)? {
        Ok(mut out) => {
            out.divergence = fallback;
            Ok(out)
        }
        Err(_) => unreachable!("sequential cell cannot diverge"),
    }
}

/// A pool sized for `instances` heaps of `heap_bytes` plus its transaction
/// manager, with the software scheme off for the unmeasured preload.
fn preload_pool(
    v: &Variant,
    heap_bytes: u64,
    instances: usize,
) -> Result<(Machine, TxManager), AppError> {
    let data_pages = (heap_bytes / PAGE as u64 + 81) * instances as u64 + 1500;
    let mut m = machine(v.clone(), data_pages);
    let mut txm = m.tx_manager(256 * 1024)?;
    txm.set_scheme(SwScheme::None);
    Ok((m, txm))
}

/// End a preload: rebuild redundancy functionally over the populated
/// `files` and the tx log, switch on the measured scheme, zero the stats.
fn seal_preload(m: &mut Machine, txm: &mut TxManager, files: &[FileHandle], scheme: SwScheme) {
    m.flush();
    for f in files {
        m.reinit_redundancy(f);
    }
    let meta = *txm.meta_file();
    m.reinit_redundancy(&meta);
    txm.set_scheme(scheme);
    m.reset_stats();
}

/// `instances` Redis tables (instance `i` on core `i`) preloaded with
/// `keys` entries of `val_len` bytes under key `scramble(k) ^ i`, ready at
/// `reset_stats`. Returns the value buffer the preload wrote. The preload
/// is fast-forwarded ([`Machine::fast_forward`]).
///
/// # Errors
///
/// Propagates [`AppError`] from pool set-up or the preload.
pub fn preloaded_redis(
    v: &Variant,
    instances: usize,
    keys: u64,
    val_len: usize,
) -> Result<(Machine, TxManager, Vec<Redis>, Vec<u8>), AppError> {
    // Entry ≈ 24 B header + value; tables grow to ~2×keys slots.
    let heap_bytes = (keys * (24 + val_len as u64 + 16) * 2 + keys * 64).max(1 << 20);
    let (mut m, mut txm) = preload_pool(v, heap_bytes, instances)?;
    let mut tables = Vec::new();
    for i in 0..instances {
        tables.push(Redis::create(&mut m, i, heap_bytes, 1024)?);
    }
    let val = vec![0xabu8; val_len];
    m.fast_forward(|m| {
        for k in 0..keys {
            for (i, r) in tables.iter_mut().enumerate() {
                r.set(m, &mut txm, scramble(k) ^ i as u64, &val)?;
            }
        }
        Ok::<_, AppError>(())
    })?;
    let files: Vec<FileHandle> = tables.iter().map(|r| *r.file()).collect();
    seal_preload(&mut m, &mut txm, &files, v.design.sw_scheme());
    Ok((m, txm, tables, val))
}

/// KV structures of one kind, one per instance.
pub type KvSet = Vec<Box<dyn PersistentKv>>;

/// `instances` KV structures (instance `i` on core `i % cores`) preloaded
/// with `keys` scrambled keys, with heap room for `growth_ops` further
/// inserts each, ready at `reset_stats`. The preload is fast-forwarded
/// ([`Machine::fast_forward`]).
///
/// # Errors
///
/// Propagates [`AppError`] from pool set-up or the preload.
pub fn preloaded_kv(
    v: &Variant,
    kind: KvKind,
    instances: usize,
    keys: u64,
    growth_ops: u64,
) -> Result<(Machine, TxManager, KvSet), AppError> {
    // Upper bound across structures: rbtree nodes are 48 B, btree amortizes
    // ~20 B/key, ctree ~40 B/key (leaf+internal).
    let heap_bytes = (keys * 96 + growth_ops * 96).max(1 << 20);
    let (mut m, mut txm) = preload_pool(v, heap_bytes, instances)?;
    let cores = m.sys.num_cores();
    let mut kvs = Vec::new();
    for i in 0..instances {
        kvs.push(kind.build(&mut m, i % cores, heap_bytes)?);
    }
    m.fast_forward(|m| {
        for k in 0..keys {
            for kv in kvs.iter_mut() {
                kv.insert(m, &mut txm, scramble(k), k)?;
            }
        }
        Ok::<_, AppError>(())
    })?;
    let files: Vec<FileHandle> = kvs.iter().map(|kv| *kv.file()).collect();
    seal_preload(&mut m, &mut txm, &files, v.design.sw_scheme());
    Ok((m, txm, kvs))
}

/// `threads` fio regions of `region_bytes` on a fresh machine at
/// `reset_stats`, with the transaction manager the software schemes need.
///
/// # Errors
///
/// Propagates [`AppError`] from pool set-up.
pub fn fresh_fio(
    v: &Variant,
    threads: usize,
    region_bytes: u64,
) -> Result<(Machine, Fio, Option<TxManager>), AppError> {
    let data_pages = region_bytes / PAGE as u64 * threads as u64 + 1024;
    let mut m = machine(v.clone(), data_pages);
    let fio = Fio::create(&mut m, threads, region_bytes)?;
    let txm = match v.design.sw_scheme() {
        SwScheme::None => None,
        _ => Some(m.tx_manager(64 * 1024)?),
    };
    m.reset_stats();
    Ok((m, fio, txm))
}

/// Spread a dense key index over the keyspace (preloads and request
/// streams share it, so requests hit preloaded entries).
fn scramble(k: u64) -> u64 {
    k.wrapping_mul(0x9e37)
}

/// Redis workloads (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisWorkload {
    /// 100% SET requests.
    SetOnly,
    /// 100% GET requests over a preloaded keyspace.
    GetOnly,
}

impl RedisWorkload {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RedisWorkload::SetOnly => "set-only",
            RedisWorkload::GetOnly => "get-only",
        }
    }
}

/// Run a Redis workload (Fig. 8(a–d) cells) at `threads` bound-weave engine
/// threads (see `memsim::weave`). Results are bit-identical to `threads == 1`.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn run_redis_threads(
    v: impl Into<Variant>,
    wl: RedisWorkload,
    s: &Scale,
    threads: usize,
) -> Result<Outcome, AppError> {
    let v = &v.into();
    retry_sequential(threads, |threads| {
        let (mut m, mut txm, mut instances, val) =
            preloaded_redis(v, s.redis_instances, s.redis_keys, s.redis_val)?;
        let mut rngs: Vec<Rng> = (0..s.redis_instances)
            .map(|i| Rng::new(0xbeef + i as u64))
            .collect();
        let mode = apps::driver::run_clocked_threads(
            &mut m,
            s.redis_instances,
            s.redis_ops,
            threads,
            |m, i, _op| {
                let key = scramble(rngs[i].below(s.redis_keys)) ^ i as u64;
                match wl {
                    RedisWorkload::SetOnly => instances[i].set(m, &mut txm, key, &val)?,
                    RedisWorkload::GetOnly => {
                        let mut out = Vec::new();
                        instances[i].get(m, &mut txm, key, &mut out)?;
                    }
                }
                Ok(())
            },
        )?;
        Ok(finish_threaded(&mut m, mode))
    })
}

/// Which key-value structure (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    /// PMDK-style crit-bit tree.
    CTree,
    /// PMDK-style B+tree.
    BTree,
    /// PMDK-style red-black tree.
    RbTree,
}

impl KvKind {
    /// All three structures.
    pub fn all() -> [KvKind; 3] {
        [KvKind::CTree, KvKind::BTree, KvKind::RbTree]
    }

    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KvKind::CTree => "ctree",
            KvKind::BTree => "btree",
            KvKind::RbTree => "rbtree",
        }
    }

    pub(crate) fn build(
        &self,
        m: &mut Machine,
        core: usize,
        heap: u64,
    ) -> Result<Box<dyn PersistentKv>, AppError> {
        Ok(match self {
            KvKind::CTree => Box::new(CTree::create(m, core, heap)?),
            KvKind::BTree => Box::new(BTree::create(m, core, heap)?),
            KvKind::RbTree => Box::new(RbTree::create(m, core, heap)?),
        })
    }
}

/// KV-structure workloads (pmembench mixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWorkload {
    /// Fresh keys inserted throughout.
    InsertOnly,
    /// 100:0 updates:reads over preloaded keys.
    UpdateOnly,
    /// 50:50 updates:reads over preloaded keys.
    Balanced,
    /// 0:100 updates:reads over preloaded keys.
    ReadOnly,
}

impl KvWorkload {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KvWorkload::InsertOnly => "insert-only",
            KvWorkload::UpdateOnly => "update-only",
            KvWorkload::Balanced => "balanced",
            KvWorkload::ReadOnly => "read-only",
        }
    }

    fn update_fraction(&self) -> f64 {
        match self {
            KvWorkload::InsertOnly | KvWorkload::UpdateOnly => 1.0,
            KvWorkload::Balanced => 0.5,
            KvWorkload::ReadOnly => 0.0,
        }
    }
}

/// The pmembench op mix of a [`KvWorkload`]: one RNG per instance, so an
/// instance's op stream is one continuous sequence however it is observed
/// (closed-loop cell or soak intervals).
pub(crate) struct KvMix {
    wl: KvWorkload,
    keys: u64,
    rngs: Vec<Rng>,
}

impl KvMix {
    pub(crate) fn new(wl: KvWorkload, keys: u64, instances: usize) -> Self {
        let rngs = (0..instances)
            .map(|i| Rng::new(0xfeed + i as u64))
            .collect();
        KvMix { wl, keys, rngs }
    }

    /// Run instance `i`'s op number `op` against `kv`.
    pub(crate) fn op(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        kv: &mut dyn PersistentKv,
        i: usize,
        op: u64,
    ) -> Result<(), AppError> {
        if self.wl == KvWorkload::InsertOnly {
            // Fresh keys beyond the preloaded range.
            let key = (self.keys + op).wrapping_mul(0x9e37_79b9) ^ i as u64;
            return kv.insert(m, txm, key, op);
        }
        let key = scramble(self.rngs[i].below(self.keys));
        if self.rngs[i].unit_f64() < self.wl.update_fraction() {
            kv.insert(m, txm, key, op)
        } else {
            kv.get(m, key).map(|_| ())
        }
    }
}

/// Run a KV-structure workload (Fig. 8(e–h) cells) at `threads` bound-weave
/// engine threads (see `memsim::weave`). Results are bit-identical to
/// `threads == 1`.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn run_kv_threads(
    v: impl Into<Variant>,
    kind: KvKind,
    wl: KvWorkload,
    s: &Scale,
    threads: usize,
) -> Result<Outcome, AppError> {
    let v = &v.into();
    retry_sequential(threads, |threads| {
        let (mut m, mut txm, mut instances) =
            preloaded_kv(v, kind, s.kv_instances, s.kv_keys, s.kv_ops)?;
        let mut mix = KvMix::new(wl, s.kv_keys, s.kv_instances);
        let mode = apps::driver::run_clocked_threads(
            &mut m,
            s.kv_instances,
            s.kv_ops,
            threads,
            |m, i, op| mix.op(m, &mut txm, instances[i].as_mut(), i, op),
        )?;
        Ok(finish_threaded(&mut m, mode))
    })
}

/// N-Store YCSB mixes (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NstoreWorkload {
    /// 10:90 updates:reads.
    ReadHeavy,
    /// 50:50 updates:reads.
    Balanced,
    /// 90:10 updates:reads.
    UpdateHeavy,
}

impl NstoreWorkload {
    /// All three mixes.
    pub fn all() -> [NstoreWorkload; 3] {
        [
            NstoreWorkload::ReadHeavy,
            NstoreWorkload::Balanced,
            NstoreWorkload::UpdateHeavy,
        ]
    }

    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NstoreWorkload::ReadHeavy => "read-heavy",
            NstoreWorkload::Balanced => "balanced",
            NstoreWorkload::UpdateHeavy => "update-heavy",
        }
    }

    fn update_fraction(&self) -> f64 {
        match self {
            NstoreWorkload::ReadHeavy => 0.1,
            NstoreWorkload::Balanced => 0.5,
            NstoreWorkload::UpdateHeavy => 0.9,
        }
    }
}

/// Run an N-Store workload (Fig. 8(i–l) cells) at `threads` bound-weave
/// engine threads. Results are bit-identical to `threads == 1`. N-Store
/// clients share the table and WAL, so parallel attempts typically detect
/// cache-line sharing and fall back — the knob is still honoured for
/// uniformity and future sharding.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn run_nstore_threads(
    v: impl Into<Variant>,
    wl: NstoreWorkload,
    s: &Scale,
    threads: usize,
) -> Result<Outcome, AppError> {
    let v = &v.into();
    retry_sequential(threads, |threads| {
        let wal_bytes = s.nstore_txs * 160 + (1 << 20);
        let data_pages = s.nstore_tuples * 64 / PAGE as u64 + wal_bytes / PAGE as u64 + 1500;
        let mut m = machine(v.clone(), data_pages);
        let mut txm = m.tx_manager(256 * 1024)?;
        let mut store = NStore::create(&mut m, s.nstore_tuples, wal_bytes)?;
        m.reset_stats();
        let mut mixes: Vec<YcsbMix> = (0..s.nstore_clients)
            .map(|i| YcsbMix::new(s.nstore_tuples, wl.update_fraction(), 0xace + i as u64))
            .collect();
        let per_client = s.nstore_txs / s.nstore_clients as u64;
        let mode = apps::driver::run_clocked_threads(
            &mut m,
            s.nstore_clients,
            per_client,
            threads,
            |m, c, op| {
                match mixes[c].next_op() {
                    Op::Update(k) => {
                        let payload = [(op ^ k) as u8; 64];
                        store.update(m, &mut txm, c, k, &payload)?;
                    }
                    Op::Read(k) => {
                        store.read(m, c, k)?;
                    }
                }
                Ok(())
            },
        )?;
        Ok(finish_threaded(&mut m, mode))
    })
}

/// Run an fio workload (Fig. 8(m–p) cells) at `threads` bound-weave engine
/// threads (see `memsim::weave`). Results are bit-identical to `threads == 1`.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn run_fio_threads(
    v: impl Into<Variant>,
    pattern: Pattern,
    s: &Scale,
    threads: usize,
) -> Result<Outcome, AppError> {
    let v = &v.into();
    retry_sequential(threads, |threads| {
        let (mut m, mut fio, mut txm) = fresh_fio(v, s.fio_threads, s.fio_region_bytes)?;
        let mode = apps::driver::run_clocked_threads(
            &mut m,
            s.fio_threads,
            s.fio_ops_per_thread,
            threads,
            |m, t, i| fio.op(m, txm.as_mut(), t, pattern, i),
        )?;
        Ok(finish_threaded(&mut m, mode))
    })
}

/// Run one stream kernel (Fig. 8(q–t) cells) at `threads` bound-weave engine
/// threads (see `memsim::weave`). Results are bit-identical to `threads == 1`.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn run_stream_threads(
    v: impl Into<Variant>,
    kernel: Kernel,
    s: &Scale,
    threads: usize,
) -> Result<Outcome, AppError> {
    let v = &v.into();
    retry_sequential(threads, |threads| {
        let data_pages = 3 * s.stream_array_bytes / PAGE as u64 + 1024;
        let mut m = machine(v.clone(), data_pages);
        let mut st = Stream::create(&mut m, s.stream_threads, s.stream_array_bytes)?;
        let mut txm = match v.design.sw_scheme() {
            SwScheme::None => None,
            _ => Some(m.tx_manager(64 * 1024)?),
        };
        st.init(&mut m)?;
        m.flush();
        m.reset_stats();
        let lines = st.lines_per_thread();
        let mode = apps::driver::run_clocked_threads(
            &mut m,
            s.stream_threads,
            lines,
            threads,
            |m, t, i| st.op(m, txm.as_mut(), t, kernel, i),
        )?;
        Ok(finish_threaded(&mut m, mode))
    })
}

/// A workload runner with the variant, sizing and engine-thread count bound
/// late, so sweeps can tabulate workloads.
pub type RunFn = fn(Variant, &Scale, usize) -> Result<Outcome, AppError>;

/// One workload per application class — the paper's selection for the
/// Fig. 9 ablation and Fig. 10 sensitivity sweeps.
pub fn class_representatives() -> [(&'static str, RunFn); 5] {
    [
        ("redis/set", |v, s, t| {
            run_redis_threads(v, RedisWorkload::SetOnly, s, t)
        }),
        ("ctree/insert", |v, s, t| {
            run_kv_threads(v, KvKind::CTree, KvWorkload::InsertOnly, s, t)
        }),
        ("nstore/bal", |v, s, t| {
            run_nstore_threads(v, NstoreWorkload::Balanced, s, t)
        }),
        ("fio/rand-wr", |v, s, t| {
            run_fio_threads(v, Pattern::RandWrite, s, t)
        }),
        ("stream/triad", |v, s, t| {
            run_stream_threads(v, Kernel::Triad, s, t)
        }),
    ]
}
