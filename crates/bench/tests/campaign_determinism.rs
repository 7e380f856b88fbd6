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

/// The two silent no-ops reproduced at the parent commit: `fig10_sensitivity
/// --jobs 2` took `--jobs` for its sweep name and ran nothing;
/// `crashsim_campaign --seed abc` fell back to the default seed.
#[test]
fn reproduced_silent_no_ops_fail_closed() {
    let fig10 = bins::fig10_sensitivity::campaign();
    let (cfg, jobs) = fig10
        .cli
        .parse(&["--jobs".into(), "2".into()], &|_| None)
        .unwrap();
    assert_eq!(
        (cfg.opts, jobs),
        (None, 2),
        "no sweep named: both run, on 2 workers"
    );
    assert!(
        fig10.cli.parse(&["ways".into()], &|_| None).is_err(),
        "unknown sweep"
    );

    let crashsim = bins::crashsim_campaign::campaign();
    for bad in [
        &["--seed", "abc"][..],
        &["--quick"],
        &["--crash-samples", "0"],
    ] {
        let err = bins::run(&crashsim, bad, &[], 1).expect_err("must be a usage error");
        assert!(!err.0.is_empty(), "{bad:?}");
    }
    assert!(bins::run(&crashsim, &[], &[("TVARAK_SCALE", "qick")], 1).is_err());
}
