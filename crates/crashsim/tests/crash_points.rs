//! Crash-point acceptance tests (ISSUE 3):
//!
//! - a small fio job survives *every* crash point, for all five campaign
//!   designs, with zero invariant violations;
//! - crashing at `k = N` (after the window's last writeback) recovers to an
//!   image identical to a clean shutdown, for all five designs;
//! - replays are deterministic: the same `(scenario, k)` gives the same
//!   image hash.

use apps::driver::Design;
use apps::fio::Pattern;
use crashsim::{AppKind, Outcome, Scenario};

/// A deliberately tiny fio job: 2 threads × 1 page × 6 sequential writes —
/// small enough to enumerate every writeback exhaustively in a unit test.
fn small_fio(design: Design) -> Scenario {
    Scenario {
        app: AppKind::Fio {
            threads: 2,
            region_bytes: 4096,
            pattern: Pattern::SeqWrite,
            ops: 6,
        },
        design,
    }
}

#[test]
fn small_fio_survives_every_crash_point_all_designs() {
    for design in Design::all() {
        let sc = small_fio(design);
        let total = sc.count_writebacks();
        assert!(total > 0, "{}: window must issue writebacks", sc.label());
        for k in 0..=total {
            let r = sc.run_crash_point(k);
            assert!(
                r.violations.is_empty(),
                "{} at k={k}/{total}: {:?}",
                sc.label(),
                r.violations
            );
            assert_ne!(
                r.outcome,
                Outcome::Lost,
                "{} at k={k}/{total} reported loss",
                sc.label()
            );
        }
    }
}

#[test]
fn crash_after_last_writeback_equals_clean_shutdown() {
    for design in Design::all() {
        let sc = small_fio(design);
        let clean = sc.clean_report();
        assert!(
            clean.violations.is_empty(),
            "{} clean shutdown: {:?}",
            sc.label(),
            clean.violations
        );
        assert!(
            !clean.crashed,
            "{}: unlimited budget cannot crash",
            sc.label()
        );
        let at_end = sc.run_crash_point(clean.total_writebacks);
        assert!(
            !at_end.crashed,
            "{}: budget = total must admit the whole window",
            sc.label()
        );
        assert_eq!(
            at_end.image_hash,
            clean.image_hash,
            "{}: crash at k=N must recover to the clean-shutdown image",
            sc.label()
        );
    }
}

#[test]
fn crash_one_writeback_short_actually_crashes() {
    // Sanity for the budget plumbing itself: one writeback less than the
    // full window must register as a crash (one suppressed write).
    let sc = small_fio(Design::Tvarak);
    let total = sc.count_writebacks();
    let r = sc.run_crash_point(total - 1);
    assert!(r.crashed, "k = N-1 must suppress the final writeback");
    let r0 = sc.run_crash_point(0);
    assert!(r0.crashed, "k = 0 loses the whole window");
}

#[test]
fn replays_are_deterministic() {
    let sc = small_fio(Design::Vilamb { epoch_txs: 4 });
    let total = sc.count_writebacks();
    assert_eq!(total, sc.count_writebacks(), "counting must be stable");
    let k = total / 2;
    let a = sc.run_crash_point(k);
    let b = sc.run_crash_point(k);
    assert_eq!(a.image_hash, b.image_hash);
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.rolled_back, b.rolled_back);
    assert_eq!(a.unverifiable_pages, b.unverifiable_pages);
    assert_eq!(a.outcome, b.outcome);
}

#[test]
fn stream_and_ctree_survive_sampled_crash_points() {
    let apps = [
        AppKind::StreamCopy {
            threads: 2,
            array_bytes: 8 * 1024,
            iters: 4,
        },
        AppKind::CtreeInsert { keys: 8 },
    ];
    for app in apps {
        for design in Design::all() {
            let sc = Scenario { app, design };
            let total = sc.count_writebacks();
            let plan = crashsim::CrashPlan::sampled(total, 8, 0xC0FFEE);
            for &k in &plan.points {
                let r = sc.run_crash_point(k);
                assert!(
                    r.violations.is_empty(),
                    "{} at k={k}/{total}: {:?}",
                    sc.label(),
                    r.violations
                );
            }
        }
    }
}
