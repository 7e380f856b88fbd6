//! Parallel cell execution for the campaign binaries.
//!
//! Every evaluation artifact in this repo is a grid of fully independent
//! deterministic simulations — (design × app × workload × fault) cells that
//! each build their own `Machine` and share nothing. The campaign binaries
//! declare that grid as a `Vec<Cell>` and hand it to [`run_cells`], which
//! executes the cells on a worker pool and returns the results **in input
//! order**, so tables and CSV files are byte-identical at every `--jobs`
//! setting.
//!
//! Determinism argument: a cell's closure owns every piece of state its
//! simulation touches (the `Machine`, app instances, RNGs are all built
//! inside it); the pool only chooses *when* and *on which thread* a cell
//! runs, never what it computes. The only shared mutable state is the
//! work-queue index and the slot each cell writes its own result into.
//!
//! The worker count is resolved once by `crate::campaign` (`--jobs`, else
//! `available_parallelism()`) and passed down.
//! Progress lines go to stderr only, so piped stdout stays clean.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of work: a label for progress display plus the closure that
/// runs the simulation. The closure owns all of its state (machines are
/// built inside it), which is what keeps parallel execution deterministic.
pub struct Cell<R> {
    /// Shown in the progress line and in [`CellResult`].
    pub label: String,
    run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Cell<R> {
    /// Package a closure as a runnable cell.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// A completed cell: its label, wall-clock duration, and return value.
#[derive(Debug, Clone)]
pub struct CellResult<R> {
    /// The cell's label.
    pub label: String,
    /// Wall-clock time the cell's closure took.
    pub wall: Duration,
    /// The closure's return value.
    pub value: R,
}

impl<R> CellResult<R> {
    /// Simulated cycles per wall-clock second, given the cell's simulated
    /// cycle count.
    fn sim_cycles_per_sec(&self, sim_cycles: u64) -> f64 {
        sim_cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Execute `cells` on `jobs` worker threads and return their results in
/// input order. With `jobs <= 1` the cells run serially on the calling
/// thread (no pool), which is the reference order the determinism test
/// compares against. A panicking cell propagates and aborts the campaign,
/// matching the old serial `.expect()` behavior.
///
/// # Panics
///
/// Re-raises the first cell panic after the remaining workers finish their
/// current cells.
pub fn run_cells<R: Send>(cells: Vec<Cell<R>>, jobs: usize) -> Vec<CellResult<R>> {
    let total = cells.len();
    if total == 0 {
        return Vec::new();
    }
    let progress = |done: usize, label: &str, wall: Duration| {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "[{done}/{total}] {label} ({:.2}s)", wall.as_secs_f64());
    };
    // Work queue: an atomic cursor over the cell vector; each claimed index
    // is run exactly once and its result stored in the same slot, so the
    // output order equals the input order regardless of completion order.
    let queue: Vec<Mutex<Option<Cell<R>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult<R>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return;
        }
        let cell = queue[i]
            .lock()
            .expect("cell slot poisoned")
            .take()
            .expect("cell claimed twice");
        let start = Instant::now();
        let value = (cell.run)();
        let wall = start.elapsed();
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        progress(n, &cell.label, wall);
        *slots[i].lock().expect("result slot poisoned") = Some(CellResult {
            label: cell.label,
            wall,
            value,
        });
    };
    if jobs <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(total) {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("cell produced no result")
        })
        .collect()
}

/// Print a per-cell wall-time / simulated-throughput summary to stderr.
/// `sim_cycles` extracts each cell's simulated cycle count from its value;
/// a cell that reports none (0) gets its wall time only.
pub fn eprint_rates<R>(results: &[CellResult<R>], sim_cycles: impl Fn(&R) -> u64) {
    let mut err = std::io::stderr().lock();
    let total_wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    let _ = writeln!(err, "# per-cell wall time and simulated throughput");
    for r in results {
        let _ = write!(err, "#   {:<40} {:>8.2}s", r.label, r.wall.as_secs_f64());
        let _ = match sim_cycles(&r.value) {
            0 => writeln!(err),
            cyc => writeln!(err, " {:>10.2} Mcyc/s", r.sim_cycles_per_sec(cyc) / 1e6),
        };
    }
    let _ = writeln!(
        err,
        "#   total cell wall time {total_wall:.2}s across {} cells",
        results.len()
    );
}

/// Peak resident set size of this process (`VmHWM`) in KiB, when the
/// platform exposes it (`/proc/self/status`). A host-dependent gauge for
/// stderr telemetry and the benchmark's `rss_peak_mib` — never for
/// deterministic CSVs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order_any_jobs() {
        for jobs in [1usize, 2, 4, 9] {
            let cells: Vec<Cell<usize>> = (0..20)
                .map(|i| Cell::new(format!("cell{i}"), move || i * i))
                .collect();
            let results = run_cells(cells, jobs);
            assert_eq!(results.len(), 20);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.label, format!("cell{i}"), "jobs={jobs}");
                assert_eq!(r.value, i * i, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let results = run_cells(Vec::<Cell<u32>>::new(), 4);
        assert!(results.is_empty());
    }

    #[test]
    fn sim_rate_uses_wall_time() {
        let r = CellResult {
            label: "x".into(),
            wall: Duration::from_secs(2),
            value: (),
        };
        assert!((r.sim_cycles_per_sec(4_000_000) - 2_000_000.0).abs() < 1.0);
    }
}
