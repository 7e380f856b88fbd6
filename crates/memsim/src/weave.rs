//! Bound-weave parallel execution (zsim-style) for [`crate::engine::System`],
//! sharded by LLC bank across multiple weave workers.
//!
//! Sequential simulation interleaves private-cache work (L1/L2 hits, the
//! vast majority of accesses) with shared-state work (LLC, redundancy hooks,
//! NVM devices and DIMM timing) on one thread. Bound-weave splits them:
//!
//! - **Bound phase** (caller's thread): the application instances run against
//!   their private L1/L2 only. Every shared-state access — an LLC fill, a
//!   private-cache spill, a `clwb` reaching the LLC — is *predicted* from a
//!   dirty-line overlay ∪ media snapshot and emitted as an [`Event`] carrying
//!   the core's bound-local timestamp.
//! - **Weave phase** (`shards` worker threads): events are replayed against
//!   the real shared state. For each event the true core clock is
//!   reconstructed as `bound_local_ts + stall_offset[core]`, the operation is
//!   applied exactly as sequential execution would apply it, and the newly
//!   charged shared-state cycles are folded back into the core's stall
//!   offset, published for the bound-side scheduler to read.
//!
//! # Transport: epochs, SPSC rings, per-emitter directories
//!
//! - **Per-(core × shard) bounded SPSC rings** ([`crate::spsc::SpscRing`]):
//!   an event emitted by core `c` targeting LLC bank `b` travels on ring
//!   `(c, b mod S)` — allocation-free, lock-free, one release store per
//!   event. `S` is the shard count ([`crate::config::SystemConfig::weave_shards`],
//!   0 = auto).
//! - **Epoch batching**: the bound side batches every event of one scheduler
//!   step (one application instruction, same emitter core) into one *epoch*.
//!   At step end it publishes a descriptor to the emitter's directory ring
//!   and then streams the events to the per-shard rings. Publishing the
//!   descriptor *before* the events makes the protocol deadlock-free: a
//!   producer blocked on a full ring is always blocked on an epoch whose
//!   descriptor is already visible, so its owner is already draining it.
//!
//! # Dependency-vector admission (concurrent state mutation)
//!
//! Earlier generations serialized *all* epoch application behind a single
//! atomic turn token, so the speedup was transport-only. This generation
//! partitions the shared state by shard — LLC bank arrays, per-(DIMM × bank)
//! queue lanes, per-core replay clocks, the hooks' bank-partitioned caches —
//! behind [`crate::spsc::ShardCell`]s, and admits epochs by *dependency
//! vector*:
//!
//! - At publish time the bound side knows the epoch's **shard footprint**:
//!   the shards of every event's own line, plus every shard the redundancy
//!   hooks will touch during replay. The latter is computed from a
//!   [`ShadowLlc`] — a bound-side mirror of the LLC data/diff partitions fed
//!   the same events replay will apply — plus the controller's
//!   [`FootprintOracle`] (checksum/parity line routing). Most epochs are
//!   single-shard by construction of the bank interleave.
//! - The descriptor carries, per footprint shard `s`, a **dependency ticket**
//!   `deps[s]`: how many earlier epochs touch `s`. A worker may apply epoch
//!   `e` exactly when `shard_turn[s] == deps[e][s]` for every `s` in the
//!   mask, and afterwards release-stores `deps[e][s] + 1` into each. Epochs
//!   with disjoint footprints therefore apply concurrently, while epochs
//!   sharing a shard apply in publish order on that shard — the sequential
//!   order projected onto the shard.
//! - Worker `c mod S` owns every epoch core `c` emits and round-robins its
//!   owned emitters with a one-deep pending slot per emitter. Same-emitter
//!   epochs thus apply in emission order (their stall offsets accumulate in
//!   order, which clock reconstruction `ts + stall` depends on), while
//!   different emitters' epochs interleave freely under the dependency
//!   vectors.
//!
//! Deadlock-freedom: tickets are assigned by the single bound thread in
//! publish order, so the per-shard orders embed into one total order. The
//! earliest unapplied epoch in that order always has its tickets matched
//! (every earlier epoch has applied), sits at the head of its emitter's
//! FIFO directory (earlier same-emitter epochs are applied, hence popped),
//! and its events are fully streamed (descriptors precede events and
//! `close_epoch` is synchronous) — so some worker can always make progress.
//!
//! Replay itself is safe because every piece of replay-mutable state is
//! either **shard-local** (LLC bank, DIMM lane — guarded by the admission
//! protocol and cross-checked by `assert_weave_shard`), **single-writer**
//! (core clocks and stall offsets: core `c`'s epochs all apply on worker
//! `c mod S`), or a **commutative merge** (worker-private counter shards and
//! crash tallies, merged at join).
//!
//! # Mergeable per-shard statistics
//!
//! Workers never touch a shared counter: while applying an epoch, a worker
//! installs its *own* [`Counters`] shard in thread-local storage, so every
//! increment on the replay hot path lands in worker-private memory. The
//! shards are merged once at session join via [`Counters::merge`]
//! (associative, commutative, identity = `Counters::default()` — see
//! `memsim/tests/stats_merge.rs`).
//!
//! # Determinism
//!
//! The bound-side scheduler (see `apps::driver`) only advances the instance
//! that the sequential clock-driven scheduler would have picked, using
//! published stall offsets that are *exact* (all of that core's events woven)
//! for the candidate and monotone lower bounds for its competitors. Events
//! are therefore emitted in exactly the sequential shared-access order, and
//! per-shard application order equals that order projected onto the shard —
//! so every LLC eviction, hook invocation, DIMM queue transition, and stall
//! cycle is bit-identical to the sequential oracle, at any thread count and
//! any shard count. If a prediction is ever wrong (private-cache sharing
//! between instances, an exclusivity upgrade, a hook fault), the session
//! flags *divergence* with a [`DivergenceKind`] and the caller reruns the
//! cell sequentially — correctness never depends on the predictions, only
//! the speedup does. An epoch that touches a shard outside its declared
//! footprint is a protocol bug; replay panics on it (`assert_weave_shard`)
//! and the worker converts the panic into a `WorkerPanic` divergence, so
//! even an oracle bug degrades to the sequential oracle instead of silent
//! corruption.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::addr::{LineAddr, CACHE_LINE};
use crate::cache::CacheArray;
use crate::engine::{
    bank_interleave, weave_tls_clear, weave_tls_install, FootprintOracle, RedFootprint, System,
};
use crate::hash::FxHashMap;
use crate::mem::MemSnapshot;
use crate::spsc::SpscRing;
use crate::stats::Counters;

/// Upper bound on shard workers (descriptor vectors are fixed-size arrays).
pub const MAX_SHARDS: usize = 8;

/// Capacity of each per-(core × shard) event ring. A producer meeting a
/// full ring spins (its consumer is guaranteed to be draining; see the
/// deadlock-freedom argument in the module docs), so this only sizes the
/// in-flight window, not correctness.
const RING_CAP: usize = 256;

/// Capacity of each emitter's epoch-directory ring.
const DIR_CAP: usize = 256;

/// Why a bound-weave session abandoned the parallel path and fell back to
/// the sequential oracle.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Bound-side fill found another core privately caching the line
    /// (cross-instance sharing the overlay cannot predict).
    ForeignPrivateCopy = 1,
    /// A write-permission upgrade on a pre-session shared private copy
    /// needed the LLC directory the bound phase cannot see.
    WriteUpgrade = 2,
    /// Weave replay served different data (or non-exclusive permission)
    /// than the bound phase predicted.
    FillMismatch = 3,
    /// Weave-side replay needed a private-cache back-invalidation
    /// (remote-owner pull, sharer shootdown, or inclusion victim).
    InclusionVictim = 4,
    /// A redundancy hook faulted during replay (e.g. detected corruption).
    HookFault = 5,
    /// The bound-side workload errored mid-run; the error may have been
    /// computed from mispredicted data, so the sequential rerun decides.
    StepError = 6,
    /// A weave worker panicked; session state is unrecoverable.
    WorkerPanic = 7,
}

impl DivergenceKind {
    /// Stable lower-case label (campaign stderr notes, `Outcome`).
    pub fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::ForeignPrivateCopy => "foreign-private-copy",
            DivergenceKind::WriteUpgrade => "write-upgrade",
            DivergenceKind::FillMismatch => "fill-mismatch",
            DivergenceKind::InclusionVictim => "inclusion-victim",
            DivergenceKind::HookFault => "hook-fault",
            DivergenceKind::StepError => "step-error",
            DivergenceKind::WorkerPanic => "worker-panic",
        }
    }

    fn from_u8(v: u8) -> Option<DivergenceKind> {
        Some(match v {
            1 => DivergenceKind::ForeignPrivateCopy,
            2 => DivergenceKind::WriteUpgrade,
            3 => DivergenceKind::FillMismatch,
            4 => DivergenceKind::InclusionVictim,
            5 => DivergenceKind::HookFault,
            6 => DivergenceKind::StepError,
            7 => DivergenceKind::WorkerPanic,
            _ => return None,
        })
    }
}

/// Outcome of the bound-weave *configuration* eligibility check. The check
/// depends only on the machine configuration (never on the requested thread
/// count), so the per-cause counters it feeds are identical at any
/// `MEMSIM_ENGINE_THREADS` — campaign CSVs carrying them stay byte-identical
/// across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeaveEligibility {
    /// Every check passed; the run weaves whenever ≥ 2 engine threads are
    /// requested.
    Eligible,
    /// A software checksum scheme mutates shared file metadata inline.
    SwScheme,
    /// A scrub daemon is attached (engine-global scan state).
    ScrubDaemon,
    /// A crash window is armed (crashsim run).
    CrashWindow,
    /// Firmware faults are armed.
    ArmedFaults,
    /// Firmware shadow-RAID is enabled (degraded-mode state is global).
    Raid,
}

impl WeaveEligibility {
    /// Stable lower-case label (campaign CSV `weave` column).
    pub fn as_str(self) -> &'static str {
        match self {
            WeaveEligibility::Eligible => "eligible",
            WeaveEligibility::SwScheme => "sw-scheme",
            WeaveEligibility::ScrubDaemon => "scrub",
            WeaveEligibility::CrashWindow => "crash-window",
            WeaveEligibility::ArmedFaults => "armed-faults",
            WeaveEligibility::Raid => "raid",
        }
    }
}

/// One shared-state access emitted by the bound phase, replayed by a weave
/// worker in emission order.
#[derive(Debug)]
pub(crate) enum Event {
    /// A private-cache miss that must be served by the LLC/NVM.
    /// `predicted` is what the bound phase told the application the line
    /// contains; the weave replay verifies it.
    Fill {
        /// Requesting core.
        core: usize,
        /// Line being filled.
        line: LineAddr,
        /// Whether the access wants write (exclusive) permission.
        for_write: bool,
        /// Bound-local clock of `core` at emission.
        ts: u64,
        /// Line content served to the application by the bound phase.
        predicted: [u8; CACHE_LINE],
    },
    /// A line evicted from a private cache into the LLC (clean spills are
    /// replayed too: they clear LLC sharer bits).
    Spill {
        /// Evicting core.
        core: usize,
        /// Line being spilled.
        line: LineAddr,
        /// Line content.
        data: [u8; CACHE_LINE],
        /// Whether the private copy was dirty.
        dirty: bool,
        /// Bound-local clock of `core` at emission.
        ts: u64,
    },
    /// The shared-side half of a `clwb`: the private sweep already ran on
    /// the bound thread; `newest` carries the freshest private copy (if any)
    /// for the LLC/NVM writeback.
    Clwb {
        /// Flushing core.
        core: usize,
        /// Line being flushed.
        line: LineAddr,
        /// Freshest dirty private copy found by the bound-side sweep.
        newest: Option<[u8; CACHE_LINE]>,
        /// Bound-local clock of `core` at emission.
        ts: u64,
    },
}

impl Event {
    /// The core this event charges cycles to.
    pub(crate) fn core(&self) -> usize {
        match self {
            Event::Fill { core, .. } | Event::Spill { core, .. } | Event::Clwb { core, .. } => *core,
        }
    }

    /// The line this event targets (shard routing key).
    pub(crate) fn line(&self) -> LineAddr {
        match self {
            Event::Fill { line, .. } | Event::Spill { line, .. } | Event::Clwb { line, .. } => *line,
        }
    }
}

/// An [`Event`] tagged with its within-epoch emission sequence number and
/// its shard, as carried on the per-shard rings.
#[derive(Debug)]
struct SeqEvent {
    /// Emission index within the epoch (drain order key).
    seq: u32,
    /// Shard the event was routed to (stats attribution).
    shard: u8,
    ev: Event,
}

/// Epoch descriptor published to the emitter's directory ring *before* the
/// epoch's events hit the per-shard rings.
#[derive(Debug, Clone, Copy)]
struct EpochDesc {
    /// Emitting core, or `u32::MAX` for the close sentinel.
    emitter: u32,
    /// Shard footprint: bit `s` set ⇔ replaying this epoch touches shard `s`.
    mask: u8,
    /// Dependency vector: for each footprint shard `s`, the number of
    /// earlier epochs touching `s`. The epoch is admitted on `s` when
    /// `shard_turn[s] == deps[s]`.
    deps: [u64; MAX_SHARDS],
    /// Events routed to each shard ring.
    counts: [u32; MAX_SHARDS],
}

const SENTINEL: u32 = u32::MAX;

/// One per-shard turn counter, padded to a cache line so concurrent release
/// stores on different shards never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct ShardTurn(AtomicU64);

/// Shared transport and synchronization state of one weave session.
#[derive(Debug)]
struct WeaveCore {
    /// Per-(core × shard) event rings, indexed `core * shards + shard`.
    /// Ring `(c, s)` has one producer (the bound thread) and one consumer
    /// (worker `c mod shards`, the owner of every epoch core `c` emits).
    rings: Vec<SpscRing<SeqEvent>>,
    /// Per-emitter epoch-directory rings (consumer: worker `c mod shards`).
    /// FIFO per emitter is what keeps same-emitter epochs in emission order.
    dir: Vec<SpscRing<EpochDesc>>,
    /// Per-shard turn counters: how many epochs have applied on each shard.
    shard_turn: Vec<ShardTurn>,
    /// Per-core count of emitted-but-not-yet-woven events.
    unwoven: Vec<AtomicUsize>,
    /// Per-core published stall offsets (weave-charged cycles).
    stall_offs: Vec<AtomicU64>,
    /// Session divergence flag (either side may set it).
    diverged: AtomicBool,
    /// First divergence cause (a `DivergenceKind` as u8; 0 = none).
    cause: AtomicU8,
    /// A worker died; every spin loop bails out through this.
    defunct: AtomicBool,
    shards: usize,
}

impl WeaveCore {
    fn flag(&self, kind: DivergenceKind) {
        // First cause wins; later flags only keep the boolean asserted.
        let _ = self
            .cause
            .compare_exchange(0, kind as u8, Ordering::Relaxed, Ordering::Relaxed);
        self.diverged.store(true, Ordering::Release);
    }

    fn divergence(&self) -> Option<DivergenceKind> {
        DivergenceKind::from_u8(self.cause.load(Ordering::Acquire))
    }

    /// Whether every footprint shard of `desc` has reached its dependency
    /// ticket. Acquire loads pair with the applying workers' release stores,
    /// so admission also publishes their state writes.
    fn admitted(&self, desc: &EpochDesc) -> bool {
        for s in 0..self.shards {
            if desc.mask >> s & 1 == 1 && self.shard_turn[s].0.load(Ordering::Acquire) != desc.deps[s]
            {
                return false;
            }
        }
        true
    }

    /// Release the epoch's shards: advance each footprint shard's turn to
    /// the successor ticket, publishing this worker's state writes.
    fn release(&self, desc: &EpochDesc) {
        for s in 0..self.shards {
            if desc.mask >> s & 1 == 1 {
                self.shard_turn[s].0.store(desc.deps[s] + 1, Ordering::Release);
            }
        }
    }
}

/// Adaptive wait: brief busy-spin for cross-core latency, then yield so a
/// host with fewer cores than runnable threads (the 1-core CI box) keeps
/// making progress instead of burning whole timeslices.
struct Backoff(u32);

impl Backoff {
    /// Spin rounds before falling back to `yield_now`. Kept short (≤ 63
    /// pause hints total): the rings are typically non-empty when real
    /// work exists, so long spins only pay when the peer is mid-push —
    /// and on an oversubscribed host they actively steal the producer's
    /// quantum.
    const SPIN_ROUNDS: u32 = 6;

    fn new() -> Backoff {
        Backoff(0)
    }

    fn reset(&mut self) {
        self.0 = 0;
    }

    fn snooze(&mut self) {
        // On a single-hardware-thread host the peer cannot be running, so
        // spinning is pure waste — yield immediately and let it in.
        if self.0 < Self::SPIN_ROUNDS && host_can_spin() {
            for _ in 0..(1 << self.0) {
                std::hint::spin_loop();
            }
            self.0 += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// Whether busy-waiting can ever be productive here: false on a
/// single-hardware-thread host, where the peer thread only makes progress
/// if the waiter yields. Cached — `available_parallelism` may syscall.
fn host_can_spin() -> bool {
    static CAN: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CAN.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) > 1)
}

/// Bound-side mirror of the replay-visible LLC partitions, used to compute
/// each epoch's shard footprint *before* the epoch is published.
///
/// The footprint of an event is the shard of its own line plus every shard
/// the redundancy hooks touch while replaying it — checksum and parity line
/// banks (from the controller's [`FootprintOracle`]) and, on a diff-partition
/// eviction, the redundancy of the *evicted diff's* data line. Which line a
/// partition evicts depends on LRU state, so the shadow applies every event
/// to cloned LLC bank arrays, mirroring exactly the data-way and diff-way
/// transitions replay will perform.
///
/// The mirror is exact because per-bank victim choice depends only on the
/// relative order of stamping operations within a way partition: the shadow
/// performs the same data-way and diff-way operations in the same (emission)
/// order as replay, and replay's only non-mirrored divergences (private-cache
/// back-invalidation merges) flag session divergence anyway, discarding the
/// run. Redundancy-way operations are *not* mirrored: a red-partition victim
/// resident in bank `b` always has `bank_of(line) == b`, so its writeback
/// lands in an already-declared shard, and red-way stamps never influence
/// data/diff-way victim choice.
struct ShadowLlc {
    /// Clones of the LLC bank arrays at session start.
    banks: Vec<CacheArray>,
    /// The controller's redundancy-line routing, `None` for hook-less runs
    /// (every footprint is then just the event's own line).
    oracle: Option<Box<dyn FootprintOracle>>,
    /// LLC bank count (shard routing: `bank_of(line) mod shards`).
    nbanks: usize,
    /// Session shard count.
    shards: usize,
    /// LLC way range reserved for application data.
    data_ways: std::ops::Range<usize>,
    /// LLC way range reserved for data diffs.
    diff_ways: std::ops::Range<usize>,
    /// Bit set covering every shard (page-wide hook work).
    all_mask: u8,
}

impl std::fmt::Debug for ShadowLlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowLlc")
            .field("banks", &self.banks.len())
            .field("shards", &self.shards)
            .field("oracle", &self.oracle.is_some())
            .finish_non_exhaustive()
    }
}

impl ShadowLlc {
    fn new(sys: &System, shards: usize) -> ShadowLlc {
        let cfg = sys.config();
        let d = cfg.llc_data_ways();
        let r = cfg.controller.redundancy_ways;
        let df = cfg.controller.diff_ways;
        ShadowLlc {
            banks: sys.clone_llc_arrays(),
            oracle: sys.footprint_oracle(),
            nbanks: sys.llc_banks(),
            shards,
            data_ways: 0..d,
            diff_ways: d + r..d + r + df,
            all_mask: ((1u32 << shards) - 1) as u8,
        }
    }

    #[inline]
    fn bank_of(&self, line: LineAddr) -> usize {
        bank_interleave(line, self.nbanks)
    }

    #[inline]
    fn line_bit(&self, line: LineAddr) -> u8 {
        1 << (self.bank_of(line) % self.shards)
    }

    /// Shards of the redundancy lines covering `fp` (writeback path:
    /// checksum + parity update).
    fn red_mask(&self, fp: &RedFootprint) -> u8 {
        if fp.page_wide {
            return self.all_mask;
        }
        let mut m = 0;
        if let Some(cs) = fp.cs {
            m |= self.line_bit(cs);
        }
        if let Some(p) = fp.parity {
            m |= self.line_bit(p);
        }
        m
    }

    /// Footprint of verifying an NVM fill of `line` (`on_nvm_fill`): the
    /// checksum line's shard, or every shard for page-granular schemes.
    fn verify_mask(&self, line: LineAddr) -> u8 {
        match self.oracle.as_ref() {
            Some(o) if o.verify_reads() => match o.red_lines(line) {
                Some(fp) if fp.page_wide => self.all_mask,
                Some(fp) => fp.cs.map_or(0, |cs| self.line_bit(cs)),
                None => 0,
            },
            _ => 0,
        }
    }

    /// Footprint of an NVM writeback of `line` (`on_nvm_writeback`),
    /// mirroring its diff-partition consumption (`old_data_for`).
    fn writeback_mask(&mut self, line: LineAddr) -> u8 {
        if !line.is_nvm() {
            return 0;
        }
        let (fp, diffs) = match self.oracle.as_ref() {
            Some(o) => match o.red_lines(line) {
                Some(fp) => (fp, o.data_diffs()),
                None => return 0,
            },
            None => return 0,
        };
        if diffs {
            // `old_data_for` consumes the diff before the delta update.
            let bank = self.bank_of(line);
            let ways = self.diff_ways.clone();
            self.banks[bank].invalidate(line, ways);
        }
        self.red_mask(&fp)
    }

    /// Footprint of a clean→dirty transition on `line`
    /// (`on_llc_clean_to_dirty`): mirror the diff-partition insert; when it
    /// evicts a diff, mirror the early writeback of the evicted diff's data
    /// line (marked clean) and charge that line's redundancy shards.
    fn clean_to_dirty_mask(&mut self, line: LineAddr, old_data: &[u8; CACHE_LINE]) -> u8 {
        let mapped = match self.oracle.as_ref() {
            Some(o) if o.data_diffs() => o.red_lines(line).is_some(),
            _ => false,
        };
        if !mapped {
            return 0;
        }
        let bank = self.bank_of(line);
        let ways = self.diff_ways.clone();
        let evicted = self.banks[bank].insert(line, old_data, false, ways);
        let mut m = 0;
        if let Some(d) = evicted {
            // §III-D early writeback: the diff's data line (same bank — the
            // diff partition routes by the data line's bank) is written back
            // and marked clean, if still cached dirty.
            let ways = self.data_ways.clone();
            let dirty = match self.banks[bank].lookup_idx(d.line, ways) {
                Some(idx) => {
                    let mut e = self.banks[bank].entry_mut(idx);
                    let was = e.dirty();
                    if was {
                        e.set_dirty(false);
                    }
                    was
                }
                None => false,
            };
            if dirty {
                if let Some(fp) = self.oracle.as_ref().and_then(|o| o.red_lines(d.line)) {
                    m |= self.red_mask(&fp);
                }
            }
        }
        m
    }

    /// Apply one bound-phase event to the mirror and return its full shard
    /// footprint (own line ∪ hook work), exactly as replay will perform it.
    fn apply(&mut self, ev: &Event) -> u8 {
        let mut mask = self.line_bit(ev.line());
        match ev {
            Event::Fill { line, predicted, .. } => {
                // Mirrors `llc_access`.
                let line = *line;
                let bank = self.bank_of(line);
                let ways = self.data_ways.clone();
                if self.banks[bank].lookup_idx(line, ways).is_none() {
                    // Miss: the demand read verifies (hook), then the line
                    // installs and a dirty victim writes back (hook).
                    if line.is_nvm() {
                        mask |= self.verify_mask(line);
                    }
                    let ways = self.data_ways.clone();
                    let (victim, _) =
                        self.banks[bank].insert_absent_get(line, predicted, false, ways);
                    if let Some(v) = victim {
                        if v.dirty {
                            mask |= self.writeback_mask(v.line);
                        }
                    }
                }
                // Hit: directory-only updates, no hook work, no victim.
            }
            Event::Spill { line, data, dirty, .. } => {
                // Mirrors `spill_to_llc_shared`.
                let line = *line;
                let bank = self.bank_of(line);
                let ways = self.data_ways.clone();
                match self.banks[bank].lookup_idx(line, ways) {
                    Some(idx) => {
                        let (old_data, was_dirty) = {
                            let e = self.banks[bank].entry_mut(idx);
                            (*e.data, e.dirty())
                        };
                        if *dirty && !was_dirty && line.is_nvm() {
                            mask |= self.clean_to_dirty_mask(line, &old_data);
                        }
                        let mut e = self.banks[bank].entry_mut(idx);
                        if *dirty {
                            *e.data = *data;
                            e.set_dirty(true);
                        }
                    }
                    None => {
                        // Inclusion violated: straight writeback if dirty.
                        if *dirty {
                            mask |= self.writeback_mask(line);
                        }
                    }
                }
            }
            Event::Clwb { line, newest, .. } => {
                // Mirrors `clwb_shared`.
                let line = *line;
                let bank = self.bank_of(line);
                let ways = self.data_ways.clone();
                let mut write = false;
                if let Some(idx) = self.banks[bank].lookup_idx(line, ways) {
                    let mut e = self.banks[bank].entry_mut(idx);
                    if let Some(d) = newest {
                        *e.data = *d;
                        e.set_dirty(false);
                        write = true;
                    } else if e.dirty() {
                        e.set_dirty(false);
                        write = true;
                    }
                } else if newest.is_some() {
                    write = true;
                }
                if write {
                    mask |= self.writeback_mask(line);
                }
            }
        }
        mask
    }
}

/// Bound-phase state owned by the [`System`] while a session is active:
/// the current epoch batch, the fill predictor (overlay ∪ snapshot), the
/// footprint mirror, and the shared transport handle.
#[derive(Debug)]
pub(crate) struct BoundCtx {
    core: Arc<WeaveCore>,
    /// Freshest content of every line that is dirty somewhere in the
    /// hierarchy, keyed by raw line address. Lines absent here are clean
    /// everywhere, so the media snapshot is exact for them.
    overlay: FxHashMap<u64, [u8; CACHE_LINE]>,
    snapshot: MemSnapshot,
    /// Events of the currently open epoch (one scheduler step).
    batch: Vec<Event>,
    /// Accumulated shard footprint of the open epoch.
    epoch_mask: u8,
    /// Next dependency ticket per shard (= epochs published so far that
    /// touch the shard).
    next_dep: [u64; MAX_SHARDS],
    /// LLC bank count (shard routing: `bank_of(line) mod shards`).
    banks: usize,
    /// Footprint mirror of the replay-side LLC partitions.
    shadow: ShadowLlc,
}

impl BoundCtx {
    /// Predict the content an LLC/NVM fill of `line` will return.
    pub(crate) fn predict(&self, line: LineAddr) -> [u8; CACHE_LINE] {
        match self.overlay.get(&line.0) {
            Some(d) => *d,
            None => self.snapshot.read_line(line),
        }
    }

    /// Record the freshest dirty content of `line` (on spill or clwb) so
    /// later fills predict it.
    pub(crate) fn overlay_insert(&mut self, line: LineAddr, data: [u8; CACHE_LINE]) {
        self.overlay.insert(line.0, data);
    }

    /// Queue an event on the open epoch, folding its shard footprint (own
    /// line ∪ predicted hook work) into the epoch mask. The unwoven counter
    /// is bumped immediately so the scheduler can never observe the event as
    /// woven while it is still batched or in flight.
    pub(crate) fn send(&mut self, ev: Event) {
        self.epoch_mask |= self.shadow.apply(&ev);
        self.core.unwoven[ev.core()].fetch_add(1, Ordering::Relaxed);
        self.batch.push(ev);
    }

    /// Flag bound-side divergence (private-cache sharing, write upgrade).
    pub(crate) fn flag_divergence(&self, kind: DivergenceKind) {
        self.core.flag(kind);
    }

    fn shard_of(&self, ev: &Event) -> usize {
        bank_interleave(ev.line(), self.banks) % self.core.shards
    }

    /// Close the open epoch: stamp the descriptor with the epoch's shard
    /// footprint and per-shard dependency tickets, publish it to the
    /// emitter's directory ring, then stream the events to the
    /// per-(core × shard) rings in emission order. Empty epochs are not
    /// published (tickets only advance for epochs that exist).
    pub(crate) fn close_epoch(&mut self) {
        if self.batch.is_empty() {
            debug_assert_eq!(self.epoch_mask, 0, "footprint without events");
            return;
        }
        let shards = self.core.shards;
        let emitter = self.batch[0].core();
        debug_assert!(
            self.batch.iter().all(|e| e.core() == emitter),
            "an epoch is one scheduler step: all events share the emitter core"
        );
        let mut counts = [0u32; MAX_SHARDS];
        let mut batch = std::mem::take(&mut self.batch);
        for ev in &batch {
            counts[self.shard_of(ev)] += 1;
        }
        let mask = self.epoch_mask;
        self.epoch_mask = 0;
        debug_assert_ne!(mask, 0, "every event contributes its own shard");
        let mut deps = [0u64; MAX_SHARDS];
        for (s, dep) in deps.iter_mut().enumerate().take(shards) {
            if mask >> s & 1 == 1 {
                *dep = self.next_dep[s];
            }
        }
        let desc = EpochDesc {
            emitter: emitter as u32,
            mask,
            deps,
            counts,
        };
        self.push_dir(emitter, desc);
        for (seq, ev) in batch.drain(..).enumerate() {
            let shard = self.shard_of(&ev);
            self.push_event(
                emitter * shards + shard,
                SeqEvent {
                    seq: seq as u32,
                    shard: shard as u8,
                    ev,
                },
            );
        }
        self.batch = batch; // hand the (now empty) buffer back, keeping its capacity
        for s in 0..shards {
            if mask >> s & 1 == 1 {
                self.next_dep[s] += 1;
            }
        }
    }

    fn push_dir(&self, emitter: usize, mut desc: EpochDesc) {
        let mut bo = Backoff::new();
        loop {
            if self.core.defunct.load(Ordering::Acquire) {
                self.core.flag(DivergenceKind::WorkerPanic);
                return;
            }
            match self.core.dir[emitter].try_push(desc) {
                Ok(()) => return,
                Err(d) => {
                    desc = d;
                    bo.snooze();
                }
            }
        }
    }

    fn push_event(&self, ring: usize, mut ev: SeqEvent) {
        let mut bo = Backoff::new();
        loop {
            if self.core.defunct.load(Ordering::Acquire) {
                self.core.flag(DivergenceKind::WorkerPanic);
                return;
            }
            match self.core.rings[ring].try_push(ev) {
                Ok(()) => return,
                Err(e) => {
                    ev = e;
                    bo.snooze();
                }
            }
        }
    }

    /// Tear down the producer side: discard any open batch (only possible
    /// on an error/divergence exit mid-step — flag it so the caller reruns
    /// sequentially) and post the close sentinel to every emitter directory.
    pub(crate) fn finish(&mut self) {
        if !self.batch.is_empty() {
            self.core.flag(DivergenceKind::StepError);
            for ev in self.batch.drain(..) {
                self.core.unwoven[ev.core()].fetch_sub(1, Ordering::Relaxed);
            }
            self.epoch_mask = 0;
        }
        let sentinel = EpochDesc {
            emitter: SENTINEL,
            mask: 0,
            deps: [0; MAX_SHARDS],
            counts: [0; MAX_SHARDS],
        };
        for c in 0..self.core.dir.len() {
            self.push_dir(c, sentinel);
        }
    }
}

/// What one worker thread hands back at join time.
#[derive(Debug)]
struct WorkerOut {
    /// This worker's private counter shard (merged at join).
    counters: Counters,
    /// NVM media-write events tallied during this worker's replay (summed
    /// into the crash window's event counter at join).
    crash_events: u64,
    /// Replay time attributed to each shard's events.
    shard_busy: [Duration; MAX_SHARDS],
    /// Events applied per shard.
    shard_events: [u64; MAX_SHARDS],
    /// Worker thread lifetime.
    wall: Duration,
    panicked: bool,
}

/// Handle to a running set of weave workers, returned by
/// [`System::weave_begin`](crate::engine::System::weave_begin). The
/// bound-side scheduler polls [`Self::core_view`] and [`Self::diverged`];
/// [`System::weave_end`](crate::engine::System::weave_end) consumes it.
pub struct WeaveSession {
    core: Arc<WeaveCore>,
    sys: Arc<System>,
    handles: Vec<JoinHandle<WorkerOut>>,
}

impl std::fmt::Debug for WeaveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeaveSession")
            .field("shards", &self.core.shards)
            .field("diverged", &self.core.diverged.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WeaveSession {
    /// Spawn `shards` weave workers over the moved-out shared-state system
    /// and return the session handle plus the bound-phase context the live
    /// system keeps.
    pub(crate) fn spawn(
        sys: System,
        cores: usize,
        shards: usize,
        snapshot: MemSnapshot,
        overlay: FxHashMap<u64, [u8; CACHE_LINE]>,
    ) -> (WeaveSession, BoundCtx) {
        let shards = shards.clamp(1, MAX_SHARDS);
        let banks = sys.llc_banks();
        let shadow = ShadowLlc::new(&sys, shards);
        let core = Arc::new(WeaveCore {
            rings: (0..cores * shards).map(|_| SpscRing::new(RING_CAP)).collect(),
            dir: (0..cores).map(|_| SpscRing::new(DIR_CAP)).collect(),
            shard_turn: (0..shards).map(|_| ShardTurn(AtomicU64::new(0))).collect(),
            unwoven: (0..cores).map(|_| AtomicUsize::new(0)).collect(),
            stall_offs: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            diverged: AtomicBool::new(false),
            cause: AtomicU8::new(0),
            defunct: AtomicBool::new(false),
            shards,
        });
        let sys = Arc::new(sys);

        let handles = (0..shards)
            .map(|id| {
                let core = Arc::clone(&core);
                let sys = Arc::clone(&sys);
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let mut out = WorkerOut {
                        counters: Counters::default(),
                        crash_events: 0,
                        shard_busy: [Duration::ZERO; MAX_SHARDS],
                        shard_events: [0; MAX_SHARDS],
                        wall: Duration::ZERO,
                        panicked: false,
                    };
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        worker_loop(id, cores, &core, &sys, &mut out);
                    }));
                    if body.is_err() {
                        out.panicked = true;
                        core.defunct.store(true, Ordering::Release);
                        core.flag(DivergenceKind::WorkerPanic);
                    }
                    out.wall = start.elapsed();
                    out
                })
            })
            .collect();

        let ctx = BoundCtx {
            core: Arc::clone(&core),
            overlay,
            snapshot,
            batch: Vec::with_capacity(64),
            epoch_mask: 0,
            next_dep: [0; MAX_SHARDS],
            banks,
            shadow,
        };
        (WeaveSession { core, sys, handles }, ctx)
    }

    /// Whether the session has diverged from the sequential oracle
    /// (bound-side sharing detected, or weave-side replay mismatch). Once
    /// true, the caller should stop scheduling, end the session, and rerun
    /// the cell sequentially.
    pub fn diverged(&self) -> bool {
        self.core.diverged.load(Ordering::Acquire)
    }

    /// Flag a bound-side workload error: replay results may rest on
    /// mispredicted data, so the session is abandoned and the sequential
    /// rerun decides whether the error is real.
    pub fn flag_step_error(&self) {
        self.core.flag(DivergenceKind::StepError);
    }

    /// Snapshot one core's published stall offset and whether it is
    /// *exact* (every event that core emitted has been woven). When not
    /// exact, the returned offset is still a valid monotone lower bound on
    /// the true offset, because weave replay only ever adds stall cycles.
    pub fn core_view(&self, core: usize) -> (u64, bool) {
        // Read unwoven first: if it says zero, the matching Release
        // decrement ordered the final stall store before it.
        let exact = self.core.unwoven[core].load(Ordering::Acquire) == 0;
        let stall = self.core.stall_offs[core].load(Ordering::Acquire);
        (stall, exact)
    }

    /// Join every worker, returning the shared-state system, the final
    /// per-core stall offsets, the merged worker counter shards, the summed
    /// crash-event tally, and the session report.
    pub(crate) fn join(self) -> (System, Vec<u64>, Counters, u64, WeaveReport) {
        let shards = self.core.shards;
        let mut report = WeaveReport {
            diverged: false,
            divergence: None,
            events: 0,
            busy_s: 0.0,
            wall_s: 0.0,
            shard_busy_s: vec![0.0; shards],
            shard_events: vec![0; shards],
        };
        let mut merged = Counters::default();
        let mut crash_events = 0u64;
        let mut panicked = false;
        for h in self.handles {
            match h.join() {
                Ok(out) => {
                    panicked |= out.panicked;
                    merged.merge(&out.counters);
                    crash_events += out.crash_events;
                    for s in 0..shards {
                        report.shard_busy_s[s] += out.shard_busy[s].as_secs_f64();
                        report.shard_events[s] += out.shard_events[s];
                    }
                    report.wall_s = report.wall_s.max(out.wall.as_secs_f64());
                }
                Err(_) => panicked = true,
            }
        }
        if panicked {
            self.core.flag(DivergenceKind::WorkerPanic);
        }
        report.events = report.shard_events.iter().sum();
        report.busy_s = report.shard_busy_s.iter().sum();
        report.diverged = self.core.diverged.load(Ordering::Acquire);
        report.divergence = self.core.divergence();
        let stalls = self
            .core
            .stall_offs
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect();
        let sys = Arc::try_unwrap(self.sys)
            .unwrap_or_else(|_| panic!("weave workers joined; no other System references remain"));
        (sys, stalls, merged, crash_events, report)
    }
}

/// One weave worker: round-robin the owned emitters (`id`, `id + shards`, …)
/// with a one-deep pending descriptor per emitter; apply an epoch as soon as
/// its dependency vector is satisfied, then release its shards.
///
/// All hot accumulation lands in locals (counter shard, crash tally, stall
/// offsets, per-shard timing) and is copied into `out` once at exit, so the
/// TLS-installed raw pointers never alias a live `&mut` of `out`.
fn worker_loop(id: usize, cores: usize, core: &WeaveCore, sys: &System, out: &mut WorkerOut) {
    let shards = core.shards;
    let mut ctrs = Counters::default();
    let mut crash_events = 0u64;
    // Core c's epochs are all owned by worker c % shards, so these slots
    // are written by exactly one worker across the session.
    let mut stall = vec![0u64; cores];
    let mut shard_busy = [Duration::ZERO; MAX_SHARDS];
    let mut shard_events = [0u64; MAX_SHARDS];
    let mut scratch: Vec<SeqEvent> = Vec::with_capacity(64);

    // Emitters whose epochs this worker owns.
    let owned: Vec<usize> = (id..cores).step_by(shards).collect();
    // One-deep pending slot per owned emitter: same-emitter epochs must
    // apply in emission order (stall offsets accumulate in order), so the
    // next descriptor is only popped once the previous one applied.
    let mut pending: Vec<Option<EpochDesc>> = owned.iter().map(|_| None).collect();
    let mut live = owned.len();

    let mut bo = Backoff::new();
    'session: while live > 0 {
        let mut progressed = false;
        for (i, &emitter) in owned.iter().enumerate() {
            let desc = match &pending[i] {
                Some(d) => *d,
                None => match core.dir[emitter].try_pop() {
                    Some(d) if d.emitter == SENTINEL => {
                        pending[i] = Some(d);
                        live -= 1;
                        progressed = true;
                        continue;
                    }
                    Some(d) => {
                        pending[i] = Some(d);
                        progressed = true;
                        d
                    }
                    None => continue,
                },
            };
            if desc.emitter == SENTINEL || !core.admitted(&desc) {
                continue;
            }
            // Admitted on every footprint shard: drain the epoch's events.
            // Round-robin across the emitter's shard rings (the producer
            // streams in seq order, so draining whatever is available can
            // never deadlock, even when one epoch overflows a single ring).
            scratch.clear();
            let mut remaining = desc.counts;
            let total: u32 = remaining.iter().sum();
            let mut got = 0u32;
            let mut dbo = Backoff::new();
            while got < total {
                let mut popped = false;
                for (s, rem) in remaining.iter_mut().enumerate().take(shards) {
                    if *rem == 0 {
                        continue;
                    }
                    let ring = &core.rings[emitter * shards + s];
                    while *rem > 0 {
                        match ring.try_pop() {
                            Some(ev) => {
                                scratch.push(ev);
                                *rem -= 1;
                                got += 1;
                                popped = true;
                            }
                            None => break,
                        }
                    }
                }
                if !popped {
                    if core.defunct.load(Ordering::Acquire) {
                        break 'session;
                    }
                    dbo.snooze();
                }
            }
            // Per-ring order is emission order, so a seq sort restores the
            // epoch's exact global emission order across shards.
            scratch.sort_unstable_by_key(|e| e.seq);
            // Hot-path counter and crash tallies land in this worker's
            // locals; the footprint mask arms `assert_weave_shard`.
            weave_tls_install(&mut ctrs, &mut crash_events, desc.mask, shards as u8);
            for sev in scratch.drain(..) {
                let c = sev.ev.core();
                let shard = sev.shard as usize;
                shard_events[shard] += 1;
                if !core.diverged.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if let Some(kind) = sys.weave_apply(sev.ev, &mut stall[c]) {
                        core.flag(kind);
                    }
                    shard_busy[shard] += t0.elapsed();
                }
                // Publish the stall offset before marking the event woven:
                // a scheduler that observes unwoven == 0 (Acquire) is then
                // guaranteed to read a stall offset at least this fresh.
                core.stall_offs[c].store(stall[c], Ordering::Release);
                core.unwoven[c].fetch_sub(1, Ordering::Release);
            }
            weave_tls_clear();
            core.release(&desc);
            pending[i] = None;
            progressed = true;
        }
        if core.defunct.load(Ordering::Acquire) {
            break 'session;
        }
        if progressed {
            bo.reset();
        } else {
            bo.snooze();
        }
    }
    out.counters = ctrs;
    out.crash_events = crash_events;
    out.shard_busy = shard_busy;
    out.shard_events = shard_events;
}

/// Outcome of a bound-weave session, returned by
/// [`System::weave_end`](crate::engine::System::weave_end).
#[derive(Debug, Clone)]
pub struct WeaveReport {
    /// The session diverged; its results were discarded and the caller must
    /// rerun sequentially.
    pub diverged: bool,
    /// First divergence cause, when `diverged`.
    pub divergence: Option<DivergenceKind>,
    /// Shared-state events replayed.
    pub events: u64,
    /// Seconds all workers together spent applying events.
    pub busy_s: f64,
    /// Seconds the longest-lived worker was alive.
    pub wall_s: f64,
    /// Seconds spent applying each shard's events (length = shard count).
    pub shard_busy_s: Vec<f64>,
    /// Events applied per shard (length = shard count).
    pub shard_events: Vec<u64>,
}

impl WeaveReport {
    /// Number of shard workers the session ran with.
    pub fn shards(&self) -> usize {
        self.shard_busy_s.len()
    }

    /// Fraction of the session's lifetime spent applying events, summed
    /// over workers — the pipeline-occupancy figure the benchmark reports
    /// as `weave.shard_occupancy`.
    pub fn occupancy(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Resolve the shard-worker count for a session: `cfg.weave_shards` when
/// set, else auto (min of LLC banks and host parallelism, capped at 4 —
/// more spinning workers than cores only adds scheduler pressure).
pub(crate) fn resolve_shards(cfg_shards: usize, llc_banks: usize) -> usize {
    let n = if cfg_shards > 0 {
        cfg_shards
    } else {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        host.min(llc_banks).min(4)
    };
    n.clamp(1, MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::engine::NullHooks;

    /// splitmix64 — the repo's standard seeded generator.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A bound context over a manual core with NO workers attached: every
    /// published descriptor and event stays in the rings for the test to
    /// harvest, so the exact publication protocol is observable.
    fn harness(cores: usize, shards: usize) -> BoundCtx {
        let sys = System::new(SystemConfig::small(), Box::new(NullHooks));
        let snapshot = sys.memory().snapshot();
        let banks = sys.llc_banks();
        let shadow = ShadowLlc::new(&sys, shards);
        let core = Arc::new(WeaveCore {
            rings: (0..cores * shards).map(|_| SpscRing::new(RING_CAP)).collect(),
            dir: (0..cores).map(|_| SpscRing::new(DIR_CAP)).collect(),
            shard_turn: (0..shards).map(|_| ShardTurn(AtomicU64::new(0))).collect(),
            unwoven: (0..cores).map(|_| AtomicUsize::new(0)).collect(),
            stall_offs: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            diverged: AtomicBool::new(false),
            cause: AtomicU8::new(0),
            defunct: AtomicBool::new(false),
            shards,
        });
        BoundCtx {
            core,
            overlay: FxHashMap::default(),
            snapshot,
            batch: Vec::new(),
            epoch_mask: 0,
            next_dep: [0; MAX_SHARDS],
            banks,
            shadow,
        }
    }

    fn event(state: &mut u64, emitter: usize, line: LineAddr) -> Event {
        let ts = splitmix64(state);
        match splitmix64(state) % 3 {
            0 => Event::Fill { core: emitter, line, for_write: ts & 1 == 1, ts, predicted: [0; CACHE_LINE] },
            1 => Event::Spill { core: emitter, line, data: [0; CACHE_LINE], dirty: ts & 1 == 1, ts },
            _ => Event::Clwb { core: emitter, line, newest: None, ts },
        }
    }

    /// The publication protocol's core invariant, property-tested over an
    /// adversarial epoch mix: for every shard `s`, the subsequence of
    /// published epochs whose footprint contains `s` carries tickets
    /// `deps[s] = 0, 1, 2, …` — strictly monotone, dense, and equal to the
    /// count of earlier `s`-touching epochs. Alongside it: events are only
    /// routed to declared-footprint shards, and `counts` match what
    /// actually landed on each ring.
    #[test]
    fn dependency_vectors_are_monotone_per_shard() {
        let cores = 3usize;
        for shards in [1usize, 2, 4, 8] {
            let mut ctx = harness(cores, shards);
            let banks = ctx.banks;
            let mut state = 0x0de9_0001 ^ shards as u64;
            let mut expect = [0u64; MAX_SHARDS];
            let mut last: [Option<u64>; MAX_SHARDS] = [None; MAX_SHARDS];
            for epoch in 0..600u64 {
                let emitter = (splitmix64(&mut state) % cores as u64) as usize;
                // Adversarial phases: random scatter, all-bank fan-out
                // (every shard in one epoch, back to back), and a
                // single-shard storm (all events on one bank).
                let lines: Vec<LineAddr> = match epoch % 3 {
                    0 => {
                        let n = 1 + splitmix64(&mut state) % 8;
                        (0..n).map(|_| LineAddr(splitmix64(&mut state) % 4096)).collect()
                    }
                    1 => (0..banks as u64).map(LineAddr).collect(),
                    _ => {
                        let bank = splitmix64(&mut state) % banks as u64;
                        (0..4).map(|k| LineAddr(bank + k * banks as u64)).collect()
                    }
                };
                for l in lines {
                    let ev = event(&mut state, emitter, l);
                    ctx.send(ev);
                }
                ctx.close_epoch();
                let desc = ctx.core.dir[emitter].try_pop().expect("one descriptor per epoch");
                assert!(ctx.core.dir[emitter].is_empty(), "exactly one descriptor");
                assert_eq!(desc.emitter, emitter as u32, "epoch {epoch}");
                assert_ne!(desc.mask, 0, "epoch {epoch}: empty footprint published");
                for s in 0..shards {
                    let mut drained = 0u32;
                    while ctx.core.rings[emitter * shards + s].try_pop().is_some() {
                        drained += 1;
                    }
                    assert_eq!(
                        drained, desc.counts[s],
                        "epoch {epoch} shard {s}: ring traffic vs descriptor counts"
                    );
                    let in_footprint = desc.mask >> s & 1 == 1;
                    assert!(
                        drained == 0 || in_footprint,
                        "epoch {epoch} shard {s}: events routed outside the declared footprint"
                    );
                    if in_footprint {
                        assert_eq!(
                            desc.deps[s], expect[s],
                            "epoch {epoch} shard {s}: ticket must equal prior touch count"
                        );
                        if let Some(prev) = last[s] {
                            assert!(desc.deps[s] > prev, "epoch {epoch} shard {s}: not monotone");
                        }
                        last[s] = Some(desc.deps[s]);
                        expect[s] += 1;
                    }
                }
            }
            // Every shard of every footprint mask stayed in range.
            for (s, &e) in expect.iter().enumerate().skip(shards) {
                assert_eq!(e, 0, "shard {s} beyond the configured count was touched");
            }
        }
    }

    /// Admission/release against hand-built descriptors: an epoch is
    /// admitted iff every footprint shard sits at its ticket, and release
    /// advances exactly the footprint shards.
    #[test]
    fn admission_requires_every_footprint_shard() {
        let ctx = harness(1, 4);
        let core = &ctx.core;
        let mk = |mask: u8, deps: [u64; 4]| EpochDesc {
            emitter: 0,
            mask,
            deps: {
                let mut d = [0u64; MAX_SHARDS];
                d[..4].copy_from_slice(&deps);
                d
            },
            counts: [0; MAX_SHARDS],
        };
        // All turns start at 0: a {0,2} epoch at tickets (0,0) admits.
        let a = mk(0b0101, [0, 0, 0, 0]);
        assert!(core.admitted(&a));
        // A {1} epoch needing ticket 1 does not admit yet.
        let b = mk(0b0010, [0, 1, 0, 0]);
        assert!(!core.admitted(&b));
        core.release(&a); // shards 0 and 2 advance to 1
        assert!(!core.admitted(&b), "release must not advance non-footprint shards");
        // A DIMM-global epoch waits for ALL shards, then releases all.
        let g = mk(0b1111, [1, 0, 1, 0]);
        assert!(core.admitted(&g));
        core.release(&g);
        let g2 = mk(0b1111, [2, 1, 2, 1]);
        assert!(core.admitted(&g2), "back-to-back global epochs chain on all shards");
        core.release(&g2);
        assert!(core.admitted(&mk(0b0010, [0, 2, 0, 0])));
    }
}
