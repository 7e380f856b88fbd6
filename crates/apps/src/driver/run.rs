//! The clock-driven run drivers: the sequential scheduler and its
//! bound-weave counterpart.

use super::{AppError, Machine};
use memsim::weave::{DivergenceKind, WeaveEligibility};
use pmemfs::tx::SwScheme;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run `instances` workload instances for `ops` operations each,
/// *clock-driven*: the instance whose core has the smallest simulated clock
/// runs next. This is how concurrent threads actually interleave — an
/// instance delayed by a busy NVM DIMM falls behind and the others advance,
/// so threads drift apart naturally instead of staying in the artificial
/// lockstep a fixed round-robin would impose. Does **not** flush; the caller
/// decides what the measured phase includes.
///
/// # Errors
///
/// Propagates the first workload error.
pub fn run_clocked<F>(m: &mut Machine, instances: usize, ops: u64, mut f: F) -> Result<(), AppError>
where
    F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
{
    let cores = m.sys.num_cores();
    let mut done = vec![0u64; instances];
    // Lazy min-heap over (clock, instance): each entry snapshots the owning
    // core's clock at push time. Clocks only grow, so a popped entry whose
    // snapshot is stale (another instance on the same core ran meanwhile) is
    // re-pushed at the current clock; a popped entry that is still current is
    // the true lex-min (clock, instance), which is exactly the linear scan's
    // strict-< first-lowest-index choice.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..instances)
        .map(|inst| Reverse((m.sys.clock(inst % cores), inst)))
        .collect();
    while let Some(Reverse((clock, inst))) = heap.pop() {
        if done[inst] >= ops {
            continue;
        }
        let now = m.sys.clock(inst % cores);
        if clock < now {
            heap.push(Reverse((now, inst)));
            continue;
        }
        f(m, inst, done[inst])?;
        m.tick_maintenance(inst % cores)?;
        done[inst] += 1;
        if done[inst] < ops {
            heap.push(Reverse((m.sys.clock(inst % cores), inst)));
        }
    }
    Ok(())
}

/// How [`run_clocked_threads`] executed a workload.
#[derive(Debug, Clone)]
pub enum ThreadedRun {
    /// The cell ran on the sequential path: either a single thread was
    /// requested, or the configuration was ineligible for bound-weave (the
    /// carried [`WeaveEligibility`] says which). Results authoritative.
    Sequential(WeaveEligibility),
    /// Bound-weave ran to completion; results are bit-identical to the
    /// sequential oracle by construction (see `memsim::weave`).
    Woven(memsim::weave::WeaveReport),
    /// Bound-weave detected divergence and was abandoned; the carried
    /// [`DivergenceKind`] (when known) says why — cross-instance cache-line
    /// sharing, a mispredicted fill, a workload error. The machine's state
    /// is unspecified: rebuild it and rerun sequentially.
    Diverged(Option<DivergenceKind>),
}

/// Classify a machine's bound-weave configuration eligibility. Depends only
/// on the machine (never the requested thread count): software checksum
/// schemes mutate shared file metadata inline, a scrub daemon keeps
/// engine-global scan state, crashsim arms a crash window, and chaos arms
/// firmware faults — each forces the sequential path.
pub fn weave_eligibility(m: &Machine) -> WeaveEligibility {
    if m.design().sw_scheme() != SwScheme::None {
        WeaveEligibility::SwScheme
    } else if m.scrub_daemon().is_some() {
        WeaveEligibility::ScrubDaemon
    } else if m.sys.crash_armed() {
        WeaveEligibility::CrashWindow
    } else if m.sys.memory().armed_faults() != 0 {
        WeaveEligibility::ArmedFaults
    } else {
        WeaveEligibility::Eligible
    }
}

/// Clock-driven run of `instances` workload instances on the bound-weave
/// parallel engine when `threads >= 2` and the cell is eligible; otherwise
/// falls back to the sequential [`run_clocked`] (trivially identical).
///
/// Eligibility is classified by [`WeaveEligibility`] (hardware-offload
/// designs only, no scrub daemon, no armed firmware faults, no armed crash
/// window) and recorded in the per-cause stats
/// counters at every thread count. Instances must not share writable cache
/// lines; if they do, the engine detects it and the run reports
/// [`ThreadedRun::Diverged`] — the caller rebuilds the machine and reruns
/// sequentially, so correctness never depends on the predictions.
///
/// # Errors
///
/// Propagates workload errors from the sequential path. On the parallel
/// path an erroring workload reports [`ThreadedRun::Diverged`] instead: the
/// error may have been computed from mispredicted data, and the sequential
/// rerun reproduces any genuine failure deterministically.
pub fn run_clocked_threads<F>(
    m: &mut Machine,
    instances: usize,
    ops: u64,
    threads: usize,
    mut f: F,
) -> Result<ThreadedRun, AppError>
where
    F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
{
    // The eligibility check (and its per-cause counters) runs at every
    // thread count, so campaign stats and CSVs stay byte-identical across
    // engine thread counts.
    let eligibility = weave_eligibility(m);
    m.sys.note_weave_eligibility(eligibility);
    if threads < 2 || eligibility != WeaveEligibility::Eligible {
        run_clocked(m, instances, ops, f)?;
        return Ok(ThreadedRun::Sequential(eligibility));
    }
    let cores = m.sys.num_cores();
    let session = m.sys.weave_begin();
    let mut done = vec![0u64; instances];
    let mut diverged = false;
    loop {
        if session.diverged() {
            diverged = true;
            break;
        }
        // Lex-min (lower-bound clock, instance) over active instances. A
        // core's published stall offset is exact once all its events are
        // woven, and a monotone lower bound otherwise. Competitors' bounds
        // can only grow, and growth never changes the lex-min winner (ties
        // break toward the lower index, which the winner already holds), so
        // the winner may run as soon as its *own* core is exact — that
        // reproduces the sequential scheduler's choice precisely.
        let mut best: Option<(u64, usize, bool)> = None;
        for (inst, &d) in done.iter().enumerate() {
            if d < ops {
                let core = inst % cores;
                let (stall, exact) = session.core_view(core);
                let lb = m.sys.clock(core) + stall;
                if best.is_none_or(|(blb, binst, _)| (lb, inst) < (blb, binst)) {
                    best = Some((lb, inst, exact));
                }
            }
        }
        let Some((_, inst, exact)) = best else { break };
        if !exact {
            std::thread::yield_now();
            continue;
        }
        if f(m, inst, done[inst]).is_err() || m.tick_maintenance(inst % cores).is_err() {
            session.flag_step_error();
            diverged = true;
            break;
        }
        done[inst] += 1;
    }
    let report = m.sys.weave_end(session);
    if diverged || report.diverged {
        return Ok(ThreadedRun::Diverged(report.divergence));
    }
    Ok(ThreadedRun::Woven(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Design;
    use memsim::stats::Stats;

    /// The pre-heap clock-driven scheduler: linear scan for the strictly
    /// smallest core clock, first (lowest-index) instance winning ties.
    /// Kept verbatim as the ordering oracle for [`run_clocked`].
    fn run_clocked_linear_reference<F>(
        m: &mut Machine,
        instances: usize,
        ops: u64,
        mut f: F,
    ) -> Result<(), AppError>
    where
        F: FnMut(&mut Machine, usize, u64) -> Result<(), AppError>,
    {
        let cores = m.sys.num_cores();
        let mut done = vec![0u64; instances];
        loop {
            let mut next: Option<(usize, u64)> = None;
            for (inst, &d) in done.iter().enumerate() {
                if d < ops {
                    let clock = m.sys.clock(inst % cores);
                    if next.is_none_or(|(_, c)| clock < c) {
                        next = Some((inst, clock));
                    }
                }
            }
            let Some((inst, _)) = next else { break };
            f(m, inst, done[inst])?;
            m.tick_maintenance(inst % cores)?;
            done[inst] += 1;
        }
        Ok(())
    }

    #[test]
    fn heap_scheduler_matches_linear_scan_order() {
        // Skewed per-instance work so core clocks drift apart and ties,
        // staleness, and multi-instance-per-core reinsertion all occur.
        let run = |use_heap: bool| -> (Vec<(usize, u64)>, u64) {
            let mut m = Machine::builder()
                .small()
                .design(Design::Tvarak)
                .data_pages(128)
                .build();
            let f = m.create_dax_file("t", 10 * 8192).unwrap();
            let mut order = Vec::new();
            let body = |m: &mut Machine, inst: usize, op: u64| {
                let span = (inst as u64 % 3) + 1;
                let core = inst % m.sys.num_cores();
                for k in 0..span {
                    f.write_u64(
                        &mut m.sys,
                        core,
                        inst as u64 * 8192 + (op * span + k) % 1000 * 8,
                        op ^ k,
                    )?;
                }
                Ok(())
            };
            let instances = 5;
            let ops = 40;
            if use_heap {
                run_clocked(&mut m, instances, ops, |m, inst, op| {
                    order.push((inst, op));
                    body(m, inst, op)
                })
                .unwrap();
            } else {
                run_clocked_linear_reference(&mut m, instances, ops, |m, inst, op| {
                    order.push((inst, op));
                    body(m, inst, op)
                })
                .unwrap();
            }
            m.flush();
            (order, m.stats().runtime_cycles())
        };
        let (heap_order, heap_cycles) = run(true);
        let (linear_order, linear_cycles) = run(false);
        assert_eq!(heap_order, linear_order);
        assert_eq!(heap_cycles, linear_cycles);
    }

    #[test]
    fn bound_weave_matches_sequential_oracle() {
        // Per-instance disjoint page-aligned regions on a hardware design:
        // eligible for bound-weave, and every stat must come out identical.
        let run = |threads: usize| -> (Stats, u64, ThreadedRun) {
            let mut m = Machine::builder()
                .small()
                .design(Design::Tvarak)
                .data_pages(128)
                .build();
            let f = m.create_dax_file("t", 12 * 8192).unwrap();
            m.reset_stats();
            let outcome = run_clocked_threads(&mut m, 4, 200, threads, |m, inst, op| {
                let core = inst % m.sys.num_cores();
                f.write_u64(
                    &mut m.sys,
                    core,
                    inst as u64 * 3 * 8192 + (op * 37 % 3000) * 8,
                    op.wrapping_mul(0x9e37_79b9),
                )?;
                if op % 5 == 0 {
                    let mut buf = [0u8; 8];
                    f.read(&mut m.sys, core, inst as u64 * 3 * 8192, &mut buf)?;
                }
                Ok(())
            })
            .unwrap();
            m.flush();
            (m.stats(), m.sys.memory().content_hash(), outcome)
        };
        let (seq_stats, seq_hash, seq_mode) = run(1);
        assert!(matches!(
            seq_mode,
            ThreadedRun::Sequential(WeaveEligibility::Eligible)
        ));
        let (par_stats, par_hash, par_mode) = run(4);
        assert!(
            matches!(par_mode, ThreadedRun::Woven(_)),
            "expected woven completion, got {par_mode:?}"
        );
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_hash, par_hash);
    }

    #[test]
    fn bound_weave_detects_shared_line_divergence() {
        // Both instances hammer the same cache line from different cores:
        // the bound-phase foreign-copy probe must flag divergence rather
        // than silently serve stale private data.
        let mut m = Machine::builder()
            .small()
            .design(Design::Baseline)
            .data_pages(64)
            .build();
        let f = m.create_dax_file("t", 8192).unwrap();
        let outcome = run_clocked_threads(&mut m, 2, 50, 4, |m, inst, op| {
            let core = inst % m.sys.num_cores();
            f.write_u64(&mut m.sys, core, 0, op.wrapping_mul(inst as u64 + 1))?;
            Ok(())
        })
        .unwrap();
        assert!(
            matches!(outcome, ThreadedRun::Diverged(_)),
            "expected divergence on a shared line, got {outcome:?}"
        );
    }

    #[test]
    fn bound_weave_ineligible_cells_run_sequentially() {
        let mut m = Machine::builder()
            .small()
            .design(Design::TxbPage)
            .data_pages(64)
            .build();
        let f = m.create_dax_file("t", 8192).unwrap();
        let outcome = run_clocked_threads(&mut m, 2, 5, 4, |m, inst, op| {
            let core = inst % m.sys.num_cores();
            f.write_u64(&mut m.sys, core, op * 8, op)?;
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            outcome,
            ThreadedRun::Sequential(WeaveEligibility::SwScheme)
        ));
    }
}
