//! `--jobs` width-independence, for every campaign: the pure
//! `run(cfg, jobs)` must return the same table, CSV and extra files (event
//! log, gnuplot scripts) at 1 and at 4 workers. Replaces the per-campaign
//! temp-dir `diff -q` stanzas `scripts/ci.sh` used to carry.
//!
//! `crashsim_campaign` is the strongest stressor: it is the one campaign
//! with two phases, and its replay cells are *decided* from the count
//! phase's parallel results (each cell's writeback total seeds its crash
//! plan), so a width-dependent count would change which points are replayed.

mod bins;

#[test]
fn every_campaign_is_identical_at_jobs_1_and_4() {
    for (name, run) in bins::ALL {
        // The two widths share nothing, so overlap them.
        let (pooled, serial) = std::thread::scope(|s| {
            let serial = s.spawn(|| run(1));
            (run(4), serial.join().expect("serial run panicked"))
        });
        assert!(serial.rows > 0, "{name}: produced no rows");
        assert!(
            serial.violations.is_empty(),
            "{name}: {:?}",
            serial.violations
        );
        assert_eq!(
            serial.table, pooled.table,
            "{name}: table differs across --jobs"
        );
        for (s, p) in serial.files.iter().zip(&pooled.files) {
            assert_eq!(s, p, "{name}: artefact {} differs across --jobs", s.0);
        }
        assert_eq!(serial, pooled, "{name}");
    }
}

/// An argument a binary does not take, or a malformed value of one it does,
/// is a usage error, never a silent no-op: `fig10_sensitivity --jobs 2`
/// once took `--jobs` for a sweep name and ran nothing, and
/// `crashsim_campaign --seed abc` fell back to a default seed.
#[test]
fn reproduced_silent_no_ops_fail_closed() {
    let fig10 = bins::fig10_sensitivity::campaign();
    let (_, jobs) = bins::parse(&fig10, &["--jobs", "2"], &[]).unwrap();
    assert_eq!(jobs, 2);
    assert!(bins::parse(&fig10, &["ways"], &[]).is_err(), "fig10 ways");
    let fig9 = bins::fig9_ablation::campaign();
    assert!(bins::parse(&fig9, &["a"], &[]).is_err(), "fig9 a");

    let crashsim = bins::crashsim_campaign::campaign();
    for bad in [
        &["--seed", "7"][..],
        &["--crash-samples", "8"],
        &["--quick"],
        &["--filter", "app=fio"],
    ] {
        assert!(bins::parse(&crashsim, bad, &[]).is_err(), "{bad:?}");
    }
    let qick = [("TVARAK_SCALE", "qick")];
    assert!(bins::parse(&crashsim, &[], &qick).is_err());

    let soak = bins::soak_campaign::campaign();
    for bad in [&["--intervals", "0"][..], &["--intervals", "abc"]] {
        assert!(bins::parse(&soak, bad, &[]).is_err(), "{bad:?}");
    }
    let chaos = bins::chaos_campaign::campaign();
    assert!(
        bins::parse(&chaos, &["--filter"], &[]).is_err(),
        "bare --filter"
    );
}
