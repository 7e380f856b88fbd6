//! Bound-weave parallel execution (zsim-style) for [`crate::engine::System`]:
//! one bound thread, one replay worker.
//!
//! Sequential simulation interleaves private-cache work (L1/L2 hits, the
//! vast majority of accesses) with shared-state work (LLC, redundancy hooks,
//! NVM devices and DIMM timing) on one thread. Bound-weave splits them:
//!
//! - **Bound phase** (caller's thread): the application instances run against
//!   their private L1/L2 only. Every shared-state access — an LLC fill, a
//!   private-cache spill, a `clwb` reaching the LLC — is *predicted* from a
//!   dirty-line overlay ∪ media snapshot and emitted as an `Event` carrying
//!   the core's bound-local timestamp.
//! - **Weave phase** (one worker thread): the worker receives the shared-state
//!   `System` by value and replays the events against it. For each event the
//!   true core clock is reconstructed as `bound_local_ts + stall_offset[core]`,
//!   the operation is applied exactly as sequential execution would apply it,
//!   and the newly charged shared-state cycles are folded back into the core's
//!   stall offset, published for the bound-side scheduler to read. At session
//!   end the worker hands the `System` back through `join`.
//!
//! # Transport and ordering
//!
//! One bounded SPSC ring ([`crate::spsc::SpscRing`]) carries every event in
//! emission order: the bound thread is its only producer, the worker its only
//! consumer, and a push is one release store — no allocation, no lock. A
//! producer meeting a full ring waits for the worker, which never waits for
//! anything but an empty ring, so the pipeline cannot deadlock.
//!
//! The worker owns the LLC, memory, DIMM model, hooks, counters and crash
//! window outright, so nothing else touches them while it replays; the two
//! threads share only the ring and the per-core progress atomics.
//!
//! # Determinism
//!
//! The bound-side scheduler (see `apps::driver`) only advances the instance
//! that the sequential clock-driven scheduler would have picked, using
//! published stall offsets that are *exact* (all of that core's events woven)
//! for the candidate and monotone lower bounds for its competitors. Events
//! are therefore emitted in exactly the sequential shared-access order, and
//! the worker applies them in that order — so every LLC eviction, hook
//! invocation, DIMM queue transition, and stall cycle is bit-identical to
//! the sequential oracle. If a prediction is ever wrong (private-cache sharing
//! between instances, an exclusivity upgrade, a hook fault), the session
//! flags *divergence* with a [`DivergenceKind`] and the caller reruns the
//! cell sequentially — correctness never depends on the predictions, only
//! the speedup does. A worker panic is caught and reported the same way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::addr::{LineAddr, CACHE_LINE};
use crate::engine::System;
use crate::hash::FxHashMap;
use crate::mem::MemSnapshot;
use crate::spsc::SpscRing;

/// Capacity of the event ring. A producer meeting a full ring waits for the
/// worker to drain it, so this only sizes the in-flight window.
const RING_CAP: usize = 1024;

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
    /// The weave worker panicked; session state is unrecoverable.
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

/// One shared-state access emitted by the bound phase, replayed by the weave
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
            Event::Fill { core, .. } | Event::Spill { core, .. } | Event::Clwb { core, .. } => {
                *core
            }
        }
    }

    /// Bound-local clock of the emitting core at emission.
    pub(crate) fn ts(&self) -> u64 {
        match self {
            Event::Fill { ts, .. } | Event::Spill { ts, .. } | Event::Clwb { ts, .. } => *ts,
        }
    }
}

/// What the bound thread and the weave worker share for one session.
#[derive(Debug)]
struct WeaveCore {
    /// Every event, in emission order.
    ring: SpscRing<Event>,
    /// Set by the bound side after its last push: an empty ring seen after
    /// this flag is final.
    closed: AtomicBool,
    /// Per-core count of emitted-but-not-yet-woven events.
    unwoven: Vec<AtomicUsize>,
    /// Per-core published stall offsets (weave-charged cycles).
    stall_offs: Vec<AtomicU64>,
    /// Session divergence flag (either side may set it).
    diverged: AtomicBool,
    /// First divergence cause (a `DivergenceKind` as u8; 0 = none).
    cause: AtomicU8,
    /// The worker died; the bound side's push loop bails out through this.
    defunct: AtomicBool,
}

impl WeaveCore {
    fn new(cores: usize, ring_cap: usize) -> WeaveCore {
        WeaveCore {
            ring: SpscRing::new(ring_cap),
            closed: AtomicBool::new(false),
            unwoven: (0..cores).map(|_| AtomicUsize::new(0)).collect(),
            stall_offs: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            diverged: AtomicBool::new(false),
            cause: AtomicU8::new(0),
            defunct: AtomicBool::new(false),
        }
    }

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
}

/// Adaptive wait: brief busy-spin for cross-core latency, then yield so a
/// host with fewer cores than runnable threads (the 1-core CI box) keeps
/// making progress instead of burning whole timeslices.
struct Backoff(u32);

impl Backoff {
    /// Spin rounds before falling back to `yield_now`. Kept short (≤ 63
    /// pause hints total): the ring is typically non-empty when real work
    /// exists, so long spins only pay when the peer is mid-push — and on an
    /// oversubscribed host they actively steal the producer's quantum.
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

/// Bound-phase state owned by the [`System`] while a session is active: the
/// fill predictor (overlay ∪ snapshot) and the producer end of the ring.
#[derive(Debug)]
pub(crate) struct BoundCtx {
    core: Arc<WeaveCore>,
    /// Freshest content of every line that is dirty somewhere in the
    /// hierarchy, keyed by raw line address. Lines absent here are clean
    /// everywhere, so the media snapshot is exact for them.
    overlay: FxHashMap<u64, [u8; CACHE_LINE]>,
    snapshot: MemSnapshot,
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

    /// Hand an event to the worker. The unwoven counter is bumped before the
    /// push, so the scheduler can never observe the event as woven while it
    /// is still in flight.
    pub(crate) fn send(&mut self, mut ev: Event) {
        self.core.unwoven[ev.core()].fetch_add(1, Ordering::Relaxed);
        let mut bo = Backoff::new();
        loop {
            match self.core.ring.try_push(ev) {
                Ok(()) => return,
                Err(back) => {
                    if self.core.defunct.load(Ordering::Acquire) {
                        self.core.flag(DivergenceKind::WorkerPanic);
                        return;
                    }
                    ev = back;
                    bo.snooze();
                }
            }
        }
    }

    /// Flag bound-side divergence (private-cache sharing, write upgrade).
    pub(crate) fn flag_divergence(&self, kind: DivergenceKind) {
        self.core.flag(kind);
    }
}

/// What the worker thread hands back at join time.
struct WorkerOut {
    /// The shared-state system it replayed into.
    sys: System,
    /// Events popped off the ring.
    events: u64,
    /// Time spent waiting on an empty ring.
    idle: Duration,
    /// Worker thread lifetime.
    wall: Duration,
}

/// Handle to a running weave worker, returned by
/// [`System::weave_begin`](crate::engine::System::weave_begin). The
/// bound-side scheduler polls [`Self::core_view`] and [`Self::diverged`];
/// [`System::weave_end`](crate::engine::System::weave_end) consumes it.
pub struct WeaveSession {
    core: Arc<WeaveCore>,
    handle: Option<JoinHandle<WorkerOut>>,
}

impl std::fmt::Debug for WeaveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeaveSession")
            .field("diverged", &self.core.diverged.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WeaveSession {
    /// Spawn the weave worker over the moved-out shared-state system and
    /// return the session handle plus the bound-phase context the live
    /// system keeps.
    pub(crate) fn spawn(
        sys: System,
        cores: usize,
        snapshot: MemSnapshot,
        overlay: FxHashMap<u64, [u8; CACHE_LINE]>,
    ) -> (WeaveSession, BoundCtx) {
        let core = Arc::new(WeaveCore::new(cores, RING_CAP));
        let handle = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let start = Instant::now();
                let mut sys = sys;
                let body = catch_unwind(AssertUnwindSafe(|| {
                    replay(&core, |ev, stall| sys.weave_apply(ev, stall))
                }));
                let (events, idle) = body.unwrap_or_else(|_| {
                    core.defunct.store(true, Ordering::Release);
                    core.flag(DivergenceKind::WorkerPanic);
                    (0, Duration::ZERO)
                });
                WorkerOut {
                    sys,
                    events,
                    idle,
                    wall: start.elapsed(),
                }
            })
        };
        let ctx = BoundCtx {
            core: Arc::clone(&core),
            overlay,
            snapshot,
        };
        (
            WeaveSession {
                core,
                handle: Some(handle),
            },
            ctx,
        )
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

    /// Close the ring and join the worker, returning the shared-state
    /// system, the final per-core stall offsets, and the session report.
    pub(crate) fn join(mut self) -> (System, Vec<u64>, WeaveReport) {
        self.core.closed.store(true, Ordering::Release);
        let out = self
            .handle
            .take()
            .expect("a session is joined once")
            .join()
            .expect("the weave worker catches its own panics");
        let report = WeaveReport {
            diverged: self.diverged(),
            divergence: self.core.divergence(),
            events: out.events,
            busy_s: out.wall.saturating_sub(out.idle).as_secs_f64(),
            wall_s: out.wall.as_secs_f64(),
        };
        let stalls = self
            .core
            .stall_offs
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect();
        (out.sys, stalls, report)
    }
}

impl Drop for WeaveSession {
    /// A session dropped without [`System::weave_end`](crate::engine::System::weave_end)
    /// (the bound side unwound mid-run) still closes the ring and joins the
    /// worker, which drains and exits instead of waiting forever.
    fn drop(&mut self) {
        self.core.closed.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The worker loop: pop events in emission order and `apply` each (unless
/// the session already diverged), publishing the core's stall offset before
/// marking the event woven. Returns once the ring is closed and drained,
/// with the number of events popped and the time spent waiting on an empty
/// ring — busy time is measured without a clock read per event.
fn replay(
    core: &WeaveCore,
    mut apply: impl FnMut(Event, &mut u64) -> Option<DivergenceKind>,
) -> (u64, Duration) {
    let (mut events, mut idle) = (0, Duration::ZERO);
    let mut stall = vec![0u64; core.stall_offs.len()];
    let mut bo = Backoff::new();
    let mut idle_since: Option<Instant> = None;
    loop {
        // Read the flag before popping: every push precedes the flag's
        // release store, so an empty pop after seeing it is final.
        let closed = core.closed.load(Ordering::Acquire);
        let Some(ev) = core.ring.try_pop() else {
            if closed {
                break;
            }
            idle_since.get_or_insert_with(Instant::now);
            bo.snooze();
            continue;
        };
        if let Some(t) = idle_since.take() {
            idle += t.elapsed();
            bo.reset();
        }
        events += 1;
        let c = ev.core();
        if !core.diverged.load(Ordering::Relaxed) {
            if let Some(kind) = apply(ev, &mut stall[c]) {
                core.flag(kind);
            }
        }
        // Publish the stall offset before marking the event woven: a
        // scheduler that observes unwoven == 0 (Acquire) is then guaranteed
        // to read a stall offset at least this fresh.
        core.stall_offs[c].store(stall[c], Ordering::Release);
        core.unwoven[c].fetch_sub(1, Ordering::Release);
    }
    if let Some(t) = idle_since {
        idle += t.elapsed();
    }
    (events, idle)
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
    /// Seconds the worker spent replaying: its lifetime minus its waits on
    /// an empty ring.
    pub busy_s: f64,
    /// Seconds the worker was alive.
    pub wall_s: f64,
}

impl WeaveReport {
    /// Fraction of the worker's lifetime spent replaying — the pipeline
    /// occupancy the benchmark reports as `weave.shard_occupancy`.
    pub fn occupancy(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s / self.wall_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;

    /// splitmix64 — the repo's standard seeded generator.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Many emitters feed a ring far smaller than the stream (so it wraps
    /// and the producer keeps meeting a full ring) while a worker replays
    /// concurrently: the worker must apply every event exactly once, in
    /// exact emission order, and leave every core's stall offset published
    /// and its unwoven count at zero.
    #[test]
    fn replay_applies_events_in_emission_order() {
        const CORES: usize = 7;
        const EVENTS: u64 = 20_000;
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let core = Arc::new(WeaveCore::new(CORES, 4));
            let worker = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let (events, _) = replay(&core, |ev, stall| {
                        seen.push((ev.core(), ev.ts()));
                        *stall += 1;
                        None
                    });
                    (seen, events)
                })
            };
            let mut ctx = BoundCtx {
                core: Arc::clone(&core),
                overlay: FxHashMap::default(),
                snapshot: Memory::new(4).snapshot(),
            };
            let mut state = seed;
            let mut emitted = Vec::new();
            let mut per_core = [0u64; CORES];
            for ts in 0..EVENTS {
                let c = (splitmix64(&mut state) % CORES as u64) as usize;
                let line = LineAddr(splitmix64(&mut state) % 4096);
                ctx.send(match splitmix64(&mut state) % 3 {
                    0 => Event::Fill {
                        core: c,
                        line,
                        for_write: ts & 1 == 1,
                        ts,
                        predicted: [0; CACHE_LINE],
                    },
                    1 => Event::Spill {
                        core: c,
                        line,
                        data: [0; CACHE_LINE],
                        dirty: ts & 1 == 1,
                        ts,
                    },
                    _ => Event::Clwb {
                        core: c,
                        line,
                        newest: None,
                        ts,
                    },
                });
                emitted.push((c, ts));
                per_core[c] += 1;
            }
            core.closed.store(true, Ordering::Release);
            let (seen, events) = worker.join().unwrap();
            assert_eq!(events, EVENTS, "seed {seed:#x}");
            assert_eq!(
                seen, emitted,
                "seed {seed:#x}: replay order != emission order"
            );
            for (c, &n) in per_core.iter().enumerate() {
                assert_eq!(core.unwoven[c].load(Ordering::Acquire), 0, "core {c}");
                assert_eq!(core.stall_offs[c].load(Ordering::Acquire), n, "core {c}");
            }
            assert!(!core.diverged.load(Ordering::Acquire));
        }
    }
}
