//! Tier-1 reach into the campaign oracles: the root package's `cargo test`
//! compiles `bench` and drives four campaigns through its driver at two
//! worker counts — coverage and crash simulation whole, chaos and degraded
//! on one filtered cell-set each — asserting that every invariant holds and
//! that the output does not depend on the width. The full matrix (every
//! campaign, golden digests) lives in `crates/bench/tests/`.

#![allow(dead_code)] // each included binary's `main`

use bench::campaign::{Campaign, Output};

#[path = "../crates/bench/src/bin/chaos_campaign.rs"]
mod chaos_campaign;
#[path = "../crates/bench/src/bin/coverage_campaign.rs"]
mod coverage_campaign;
#[path = "../crates/bench/src/bin/crashsim_campaign.rs"]
mod crashsim_campaign;
#[path = "../crates/bench/src/bin/degraded_campaign.rs"]
mod degraded_campaign;

/// Run at quick scale with `args` at 1 and 3 workers; the two must agree.
fn two_widths<O: Default>(campaign: Campaign<O>, args: &[&str]) -> Output {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let quick = |k: &str| (k == "TVARAK_SCALE").then(|| "quick".to_string());
    let (cfg, _) = campaign.cli.parse(&args, &quick).expect("valid arguments");
    let (serial, pooled) = ((campaign.run)(&cfg, 1), (campaign.run)(&cfg, 3));
    assert_eq!(
        serial, pooled,
        "{}: output depends on --jobs",
        campaign.cli.name
    );
    assert_eq!(
        serial.violations,
        Vec::<String>::new(),
        "{}",
        campaign.cli.name
    );
    serial
}

fn csv(out: &Output) -> &str {
    std::str::from_utf8(&out.files[0].1).expect("CSV is UTF-8")
}

#[test]
fn coverage_matches_table_one() {
    use coverage_campaign::TRIALS;
    let out = two_widths(coverage_campaign::campaign(), &[]);
    // design,inline,wrong_reads,by_scrub,undetected,recovered
    let row = |design: &str| -> Vec<u64> {
        let line = csv(&out)
            .lines()
            .find(|l| l.starts_with(design))
            .expect("design row");
        line.split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect()
    };
    assert_eq!(
        row("Tvarak,"),
        [TRIALS, 0, 0, 0, TRIALS],
        "detects on first touch, recovers"
    );
    for software in ["TxB-Object-Csums,", "TxB-Page-Csums,"] {
        let r = row(software);
        assert!(
            r[0] == 0 && r[1] > 0 && r[2] > 0 && r[4] == 0,
            "{software} consumes it silently, a scrub finds it: {r:?}"
        );
    }
    let baseline = row("Baseline,");
    assert!(baseline[1] > 0, "Baseline consumes it silently");
    assert_eq!(
        (baseline[0], baseline[2], baseline[3]),
        (0, 0, TRIALS),
        "Baseline keeps no checksums: nothing ever finds it"
    );
}

#[test]
fn every_crash_point_recovers() {
    let out = two_widths(crashsim_campaign::campaign(), &[]);
    assert!(
        out.rows > 15,
        "three apps x five designs, several points each"
    );
    assert!(!csv(&out).contains(",lost,"), "an unrecoverable-loss row");
}

#[test]
fn chaos_cell_set_survives() {
    let filter = ["--filter", "design=Tvarak fault=sticky"];
    let out = two_widths(chaos_campaign::campaign(), &filter);
    assert_eq!(out.rows, 6, "three apps x two sticky faults under Tvarak");
    assert!(out
        .files
        .iter()
        .any(|f| f.0 == "chaos_events.log" && !f.1.is_empty()));
}

#[test]
fn degraded_cell_set_matches_its_oracle() {
    let filter = ["--filter", "design=Tvarak scenario=rebuild"];
    let out = two_widths(degraded_campaign::campaign(), &filter);
    assert_eq!(out.rows, 2, "fio and kv");
    // ...,content_hash,oracle_hash,hash_match,seed,repro
    let matched = |l: &str| l.rsplit(',').nth(2) == Some("1");
    assert!(
        csv(&out).lines().skip(1).all(matched),
        "post-resilver media != oracle"
    );
}
