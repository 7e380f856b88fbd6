//! Long-horizon soak harness: interval-snapshot measurement on top of the
//! streaming-stats contract (DESIGN.md §16).
//!
//! A soak run drives one workload for many *intervals*. After each interval
//! the machine's cumulative [`Stats`] are snapshotted and the interval's
//! accrual is extracted with [`Stats::delta_since`]; per-op latencies are
//! drained from a live [`serve::Hist`] with `Hist::take`. Both primitives
//! obey the PR 7 merge contract, so re-merging every interval row is
//! **bit-identical** to the one monolithic delta the machine accumulated
//! across the whole horizon — [`SoakOutcome::verify`] checks exactly that,
//! and `soak_campaign` exits non-zero if it ever fails. Memory therefore
//! stays O(interval row), not O(horizon): nothing references the full op
//! stream once an interval closes.
//!
//! The measured phase runs on the sequential clock-driven scheduler
//! ([`apps::driver::run_clocked`]): interval boundaries are epoch barriers,
//! and imposing them on a bound-weave session would change cross-instance
//! scheduling with the interval count. Cell-level parallelism still comes
//! from `bench::runner` (`--jobs`), which is where campaign throughput
//! lives.

use crate::workloads::{fresh_fio, preloaded_kv, KvKind, KvMix, KvWorkload, Scale, Variant};
use apps::driver::{AppError, Machine};
use apps::fio::Pattern;
use memsim::stats::Stats;
use serve::Hist;

/// Soak horizon knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Measurement intervals per cell.
    pub intervals: u64,
    /// Measured ops per instance per interval.
    pub ops_per_interval: u64,
}

impl SoakConfig {
    /// Horizon derived from the workload scale: the full horizon is
    /// `intervals ×` a Fig. 8 measured phase, split so every interval still
    /// does enough work to reach steady-state NVM traffic.
    pub fn from_scale(s: &Scale) -> Self {
        SoakConfig {
            intervals: 6,
            ops_per_interval: s.fio_ops_per_thread / 2,
        }
    }
}

/// One closed measurement interval.
#[derive(Debug, Clone)]
pub struct IntervalRow {
    /// Interval index (0-based).
    pub interval: u64,
    /// Ops completed in this interval (all instances).
    pub ops: u64,
    /// Stats accrued within the interval ([`Stats::delta_since`] of the
    /// bracketing cumulative snapshots).
    pub delta: Stats,
    /// Cumulative simulated runtime at the interval's close.
    pub cum_runtime_cycles: u64,
    /// Simulated cycles elapsed within the interval.
    pub interval_cycles: u64,
    /// Per-op service-latency histogram for this interval alone
    /// (`Hist::take`n at the boundary).
    pub lat: Hist,
}

/// A completed soak cell: every interval row plus the whole-run oracle.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Interval rows, in time order.
    pub rows: Vec<IntervalRow>,
    /// Monolithic oracle: the machine's own cumulative accrual across the
    /// whole measured horizon (`final.delta_since(&baseline)`), untouched
    /// by any interval bookkeeping.
    pub monolithic: Stats,
    /// Final media digest (determinism differential across `--jobs`).
    pub content_hash: u64,
}

impl SoakOutcome {
    /// The whole horizon as one more row: the monolithic oracle's totals,
    /// numbered one past the last interval, with no latency samples.
    pub fn total_row(&self) -> IntervalRow {
        let cycles = self.monolithic.runtime_cycles();
        IntervalRow {
            interval: self.rows.len() as u64,
            ops: self.rows.iter().map(|r| r.ops).sum(),
            delta: self.monolithic.clone(),
            cum_runtime_cycles: cycles,
            interval_cycles: cycles,
            lat: Hist::new(),
        }
    }

    /// Re-merge every interval row and compare against the monolithic
    /// oracle — the ISSUE 9 acceptance invariant.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch (stats or latency-sample count).
    pub fn verify(&self) -> Result<(), String> {
        let mut merged = Stats::identity();
        let mut lat_count = 0u64;
        let mut op_count = 0u64;
        for row in &self.rows {
            merged.merge(&row.delta);
            lat_count += row.lat.count();
            op_count += row.ops;
        }
        merged
            .core_cycles
            .resize(self.monolithic.core_cycles.len(), 0);
        if merged != self.monolithic {
            return Err(format!(
                "interval snapshots diverge from monolithic oracle:\n merged: {merged}\n oracle: {}",
                self.monolithic
            ));
        }
        if lat_count != op_count {
            return Err(format!(
                "latency histogram drained {lat_count} samples for {op_count} ops"
            ));
        }
        Ok(())
    }
}

/// Drive `op` for `cfg.intervals × cfg.ops_per_interval` ops per instance,
/// snapshotting stats and draining latencies at every interval boundary.
///
/// The final interval includes the teardown `flush`, so the last snapshot
/// (and hence the merged total) covers every access the measured phase
/// caused.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload closure.
pub fn soak_loop<F>(
    m: &mut Machine,
    instances: usize,
    cfg: &SoakConfig,
    mut op: F,
) -> Result<SoakOutcome, AppError>
where
    F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
{
    let cores = m.sys.num_cores();
    let baseline = m.stats();
    let mut prev = baseline.clone();
    let mut hist = Hist::new();
    let mut rows = Vec::with_capacity(cfg.intervals as usize);
    for interval in 0..cfg.intervals {
        let lat = &mut hist;
        apps::driver::run_clocked(m, instances, cfg.ops_per_interval, |m, i, o| {
            let t0 = m.sys.clock(i % cores);
            op(m, i, o)?;
            lat.record(m.sys.clock(i % cores).saturating_sub(t0));
            Ok(())
        })?;
        if interval + 1 == cfg.intervals {
            m.flush();
        }
        let cur = m.stats();
        rows.push(IntervalRow {
            interval,
            ops: instances as u64 * cfg.ops_per_interval,
            delta: cur.delta_since(&prev),
            cum_runtime_cycles: cur.runtime_cycles(),
            interval_cycles: cur.runtime_cycles() - prev.runtime_cycles(),
            lat: hist.take(),
        });
        prev = cur;
    }
    Ok(SoakOutcome {
        rows,
        monolithic: prev.delta_since(&baseline),
        content_hash: m.sys.memory().content_hash(),
    })
}

/// Soak one fio pattern under `v` for the configured horizon.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn soak_fio(
    v: impl Into<Variant>,
    pattern: Pattern,
    s: &Scale,
    cfg: &SoakConfig,
) -> Result<SoakOutcome, AppError> {
    let (mut m, mut fio, mut txm) = fresh_fio(&v.into(), s.fio_threads, s.fio_region_bytes)?;
    soak_loop(&mut m, s.fio_threads, cfg, |m, t, i| {
        fio.op(m, txm.as_mut(), t, pattern, i)
    })
}

/// Soak one KV structure/workload under `v` for the configured horizon.
///
/// # Errors
///
/// Propagates [`AppError`] from the workload.
pub fn soak_kv(
    v: impl Into<Variant>,
    kind: KvKind,
    wl: KvWorkload,
    s: &Scale,
    cfg: &SoakConfig,
) -> Result<SoakOutcome, AppError> {
    let total_ops = cfg.intervals * cfg.ops_per_interval;
    let (mut m, mut txm, mut instances) =
        preloaded_kv(&v.into(), kind, s.kv_instances, s.kv_keys, total_ops)?;
    // Per-instance RNGs persist across intervals, so the soak's op stream
    // is one continuous long run, merely observed at interval boundaries.
    let mut mix = KvMix::new(wl, s.kv_keys, s.kv_instances);
    soak_loop(&mut m, s.kv_instances, cfg, |m, i, op| {
        mix.op(m, &mut txm, instances[i].as_mut(), i, op)
    })
}
