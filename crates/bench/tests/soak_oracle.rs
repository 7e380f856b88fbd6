//! Soak-harness acceptance tests (ISSUE 9): interval-snapshot totals must
//! be bit-identical to the machine's monolithic accumulation, and the whole
//! soak must be deterministic across reruns.

use apps::driver::Design;
use apps::fio::Pattern;
use bench::soak::{soak_fio, soak_kv, SoakConfig, SoakOutcome};
use bench::workloads::{KvKind, KvWorkload, Scale};
use memsim::stats::Stats;

fn quick_cfg() -> (Scale, SoakConfig) {
    let s = Scale::quick();
    let cfg = SoakConfig {
        intervals: 4,
        ops_per_interval: 512,
    };
    (s, cfg)
}

fn assert_soak_invariants(out: &SoakOutcome, cfg: &SoakConfig, instances: u64, label: &str) {
    assert_eq!(
        out.rows.len() as u64,
        cfg.intervals,
        "{label}: interval count"
    );
    for row in &out.rows {
        assert_eq!(
            row.ops,
            instances * cfg.ops_per_interval,
            "{label}: row ops"
        );
        assert_eq!(
            row.lat.count(),
            row.ops,
            "{label}: one latency sample per op"
        );
        assert!(
            row.interval_cycles > 0,
            "{label}: time advances each interval"
        );
    }
    out.verify().unwrap_or_else(|e| panic!("{label}: {e}"));
    // verify() already re-merges; double-check the headline equality here
    // so a regression in verify() itself cannot silently pass.
    let mut merged = Stats::identity();
    for row in &out.rows {
        merged.merge(&row.delta);
    }
    merged
        .core_cycles
        .resize(out.monolithic.core_cycles.len(), 0);
    assert_eq!(merged, out.monolithic, "{label}: merged == monolithic");
}

#[test]
fn fio_soak_snapshots_match_monolithic_for_every_design() {
    let (s, cfg) = quick_cfg();
    for design in Design::all() {
        let out = soak_fio(design, Pattern::RandWrite, &s, &cfg).expect("soak failed");
        assert_soak_invariants(&out, &cfg, s.fio_threads as u64, &format!("fio {design}"));
    }
}

#[test]
fn kv_soak_snapshots_match_monolithic() {
    let (s, cfg) = quick_cfg();
    for design in [Design::Baseline, Design::Tvarak] {
        let out =
            soak_kv(design, KvKind::BTree, KvWorkload::Balanced, &s, &cfg).expect("soak failed");
        assert_soak_invariants(&out, &cfg, s.kv_instances as u64, &format!("kv {design}"));
    }
}

#[test]
fn soak_is_deterministic_across_reruns() {
    let (s, cfg) = quick_cfg();
    let a = soak_fio(Design::Tvarak, Pattern::RandWrite, &s, &cfg).expect("soak failed");
    let b = soak_fio(Design::Tvarak, Pattern::RandWrite, &s, &cfg).expect("soak failed");
    assert_eq!(a.content_hash, b.content_hash, "media digest");
    assert_eq!(a.monolithic.counters, b.monolithic.counters, "totals");
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.delta, rb.delta, "interval {} stats", ra.interval);
        assert_eq!(ra.lat, rb.lat, "interval {} latencies", ra.interval);
    }
}
