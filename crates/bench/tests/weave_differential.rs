//! Bound-weave differential: every design × {fio, kv} run at two engine
//! threads (the bound thread plus the one replay worker) must reproduce the
//! sequential oracle exactly — same `Stats` (counters, per-core cycles,
//! eviction-order digest) and same final media content. Hardware designs
//! exercise the real bound-weave path; software designs exercise the
//! transparent sequential fallback. Any thread count ≥ 2 runs the same
//! engine, so one woven run per cell is the whole sweep.

use apps::driver::Design;
use apps::fio::Pattern;
use bench::workloads::{run_fio_threads, run_kv_threads, KvKind, KvWorkload};
use bench::Scale;

/// Engine threads of the woven run.
const THREADS: usize = 2;

fn small_scale() -> Scale {
    let mut s = Scale::quick();
    s.fio_threads = 4;
    s.fio_ops_per_thread = 768;
    s.fio_region_bytes = 256 * 1024;
    s.kv_instances = 4;
    s.kv_keys = 400;
    s.kv_ops = 400;
    s
}

/// Hardware-offload designs must actually complete on the weave path —
/// a silent divergence fallback would make the differential vacuous.
fn assert_mode(design: Design, out: &bench::Outcome, what: &str) {
    use pmemfs::tx::SwScheme;
    if design.sw_scheme() == SwScheme::None {
        assert!(
            out.weave.is_some(),
            "{what}: {design:?} fell back to sequential instead of weaving"
        );
        assert_eq!(out.weave_eligibility, "eligible");
    } else {
        assert!(out.weave.is_none());
        assert_eq!(out.weave_eligibility, "sw-scheme");
    }
}

#[test]
fn fio_woven_matches_sequential() {
    let s = small_scale();
    for design in Design::all() {
        let seq = run_fio_threads(design, Pattern::RandWrite, &s, 1).unwrap();
        let par = run_fio_threads(design, Pattern::RandWrite, &s, THREADS).unwrap();
        assert_mode(design, &par, "fio");
        assert_eq!(seq.stats, par.stats, "fio stats mismatch: {design:?}");
        assert_eq!(
            seq.content_hash, par.content_hash,
            "fio media mismatch: {design:?}"
        );
    }
}

#[test]
fn kv_woven_matches_sequential() {
    let s = small_scale();
    for design in Design::all() {
        let seq = run_kv_threads(design, KvKind::BTree, KvWorkload::Balanced, &s, 1).unwrap();
        let par = run_kv_threads(design, KvKind::BTree, KvWorkload::Balanced, &s, THREADS).unwrap();
        assert_mode(design, &par, "kv");
        assert_eq!(seq.stats, par.stats, "kv stats mismatch: {design:?}");
        assert_eq!(
            seq.content_hash, par.content_hash,
            "kv media mismatch: {design:?}"
        );
    }
}
