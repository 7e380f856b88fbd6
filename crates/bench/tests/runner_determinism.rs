//! Golden determinism tests for the parallel cell runner: scheduling must
//! not change any simulated number. One representative cell runs serially
//! and through the pool at `--jobs 4`; `Stats` (every counter, every core
//! clock) and the emitted report rows must be byte-identical.

use apps::driver::Design;
use apps::fio::Pattern;
use bench::runner::{run_cells, Cell};
use bench::workloads::{run_fio_threads, Outcome, Scale};
use bench::{Report, Row};

/// A small fixed scale so the test grid stays fast in CI.
fn tiny() -> Scale {
    let mut s = Scale::quick();
    s.fio_threads = 2;
    s.fio_region_bytes = 128 * 1024;
    s.fio_ops_per_thread = 512;
    s
}

fn grid() -> Vec<Cell<(&'static str, Design, Outcome)>> {
    let mut cells = Vec::new();
    for pattern in [Pattern::SeqWrite, Pattern::RandRead, Pattern::RandWrite] {
        for design in [Design::Baseline, Design::Tvarak] {
            let s = tiny();
            cells.push(Cell::new(
                format!("fio {} {design}", pattern.label()),
                move || {
                    let out = run_fio_threads(design, pattern, &s, 1).expect("workload failed");
                    (pattern.label(), design, out)
                },
            ));
        }
    }
    cells
}

fn report_of(results: &[bench::CellResult<(&'static str, Design, Outcome)>]) -> Report {
    let mut rep = Report::new("determinism");
    for r in results {
        let (label, design, out) = &r.value;
        rep.push(Row::new(label, *design, &out.stats, &out.cfg));
    }
    rep
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let serial = run_cells(grid(), 1);
    let parallel = run_cells(grid(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "result order changed");
        let (sl, sd, so) = &s.value;
        let (pl, pd, po) = &p.value;
        assert_eq!(sl, pl);
        assert_eq!(sd, pd);
        // Stats derives PartialEq over every counter and core clock: any
        // cross-cell interference whatsoever shows up here.
        assert_eq!(so.stats, po.stats, "simulated stats differ for {sl} {sd}");
    }
    // The rendered report rows — what lands in results/*.csv — must be
    // byte-identical too (stable ordering, no scheduling leakage).
    let rs = report_of(&serial);
    let rp = report_of(&parallel);
    assert_eq!(rs.to_csv(), rp.to_csv());
    assert_eq!(rs.to_table(), rp.to_table());
    assert_eq!(rs.to_gnuplot("det"), rp.to_gnuplot("det"));
}

/// A scale big enough that every cell's access stream spills the private
/// caches and the LLC, so the eviction-order digest actually observes
/// victim choices. (The `tiny()` scale above fits entirely in L1 and would
/// make the digest a constant.)
fn golden_scale() -> Scale {
    let mut s = Scale::quick();
    s.fio_threads = 2;
    s.fio_region_bytes = 2 * 1024 * 1024;
    s.fio_ops_per_thread = 8 * 1024;
    s
}

fn golden_grid() -> Vec<Cell<(&'static str, Design, Outcome)>> {
    let mut cells = Vec::new();
    for pattern in [Pattern::SeqWrite, Pattern::RandRead, Pattern::RandWrite] {
        for design in [Design::Baseline, Design::Tvarak] {
            let s = golden_scale();
            cells.push(Cell::new(
                format!("fio {} {design}", pattern.label()),
                move || {
                    let out = run_fio_threads(design, pattern, &s, 1).expect("workload failed");
                    (pattern.label(), design, out)
                },
            ));
        }
    }
    cells
}

/// Captured per-cell goldens: (label, eviction-order digest, runtime
/// cycles) for the golden fio grid. A cache data-layout refactor must
/// reproduce every digest — `Stats::evict_hash` folds each array's
/// victim-choice history, so any change to eviction order or victim
/// selection shows up here even when the aggregate counters happen to
/// agree. Re-recorded for the sharded weave engine: DIMM queueing is now
/// per-(dimm × LLC-bank) lane with weighted busy accounting, and
/// redundancy lines are homed with the bank of their *own* interleave
/// (both deliberate model changes; the digests moved with them).
const CELL_GOLDENS: [(&str, u64, u64); 6] = [
    ("fio seq-write Baseline", 6011100812734918193, 1507329),
    ("fio seq-write Tvarak", 2300232934720110932, 1554085),
    ("fio rand-read Baseline", 15666639143644649525, 1507186),
    ("fio rand-read Tvarak", 15666639143644649525, 1708633),
    ("fio rand-write Baseline", 17216780476607221409, 1507186),
    ("fio rand-write Tvarak", 12555696862574539594, 1714843),
];

/// The digest a machine reports when no array ever evicted: the fixed-order
/// fold of each array's FNV basis. Goldens must differ from it, proving the
/// cells exercised the victim-selection path at all.
const NO_EVICTIONS: u64 = 18253574493392921649;

#[test]
fn campaign_cells_match_eviction_goldens() {
    let results = run_cells(golden_grid(), 1);
    assert_eq!(results.len(), CELL_GOLDENS.len());
    for (r, (label, evict, runtime)) in results.iter().zip(CELL_GOLDENS) {
        let (_, _, out) = &r.value;
        assert_eq!(r.label, label);
        assert_ne!(
            out.stats.evict_hash, NO_EVICTIONS,
            "cell {label}: stream never evicted; golden would be vacuous"
        );
        assert_eq!(
            (out.stats.evict_hash, out.stats.runtime_cycles()),
            (evict, runtime),
            "cell {label}: eviction order or runtime diverged from golden"
        );
    }
}

#[test]
fn rerunning_the_same_cell_is_deterministic() {
    // The premise behind the pool: a cell owns all of its state, so running
    // it twice (anywhere, anytime) gives the same simulated numbers.
    let s = tiny();
    let a = run_fio_threads(Design::Tvarak, Pattern::SeqRead, &s, 1).expect("run a");
    let b = run_fio_threads(Design::Tvarak, Pattern::SeqRead, &s, 1).expect("run b");
    assert_eq!(a.stats, b.stats);
}
