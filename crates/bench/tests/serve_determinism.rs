//! The serve campaign's admission counters and knee estimates must not
//! depend on the `--jobs` width — checked structurally here, across the
//! knee-bisection rounds (whose probe loads are *decided* from earlier
//! parallel results), so a failure names the counter. The byte-identity of
//! the rendered CSV at two widths is `campaign_determinism.rs`'s.

use bench::serve::{check_invariants, run_campaign, CampaignConfig, ServeScale, ServedApp};
use serve::{AdmissionPolicy, ArrivalProcess};

fn test_config() -> CampaignConfig {
    CampaignConfig {
        apps: vec![ServedApp::Fio],
        process: ArrivalProcess::Poisson,
        policy: AdmissionPolicy::Shed,
        knee_rounds: 1,
        scale: ServeScale {
            requests: 400,
            serving_cores: 2,
            keys: 256,
            depth: 8,
        },
    }
}

#[test]
fn counters_and_knees_invariant_across_jobs() {
    let cfg = test_config();
    let (rows1, est1) = run_campaign(&cfg, 1);
    let (rows4, est4) = run_campaign(&cfg, 4);
    assert_eq!(rows1.len(), rows4.len(), "probe count differs across --jobs");
    for (e1, e4) in est1.iter().zip(&est4) {
        assert_eq!(e1.knee_gap, e4.knee_gap, "{}/{} knee", e1.app, e1.design);
    }
    assert!(est1.iter().any(|e| e.knee_gap.is_some()), "no knee bracketed");
    for (r1, r4) in rows1.iter().zip(&rows4) {
        assert_eq!(r1.mean_gap, r4.mean_gap, "{}/{} probe load", r1.app, r1.design);
        assert_eq!(r1.report.shed, r4.report.shed, "{}/{}", r1.app, r1.design);
        assert_eq!(
            r1.report.accepted, r4.report.accepted,
            "{}/{}",
            r1.app, r1.design
        );
        assert_eq!(
            r1.report.blocked, r4.report.blocked,
            "{}/{}",
            r1.app, r1.design
        );
    }

    check_invariants(&rows1).expect("campaign invariants");
    // The ladder's heaviest point must land past the saturation knee.
    assert!(
        rows1
            .iter()
            .any(|r| r.phase == "sweep" && r.report.shed > 0),
        "no sweep point shed — ladder never saturated"
    );
}
