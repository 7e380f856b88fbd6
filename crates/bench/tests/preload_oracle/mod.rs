//! The fast-forward oracle's shared half: the seal, the comparison of a
//! timed and a fast-forwarded cell, and the timed Redis preload that
//! `preloaded_redis` replaced, written out. `fast_forward.rs` drives it
//! over every design; the root `tests/oracles.rs` includes this file
//! alone, for its one tiny case. That case is a Redis one because
//! `Redis::create` leaves dirty lines in the caches, so it also checks the
//! flush on entry to `fast_forward`.

use apps::driver::{run_clocked, Design, Machine};
use apps::redis::Redis;
use bench::report::{Report, Row};
use bench::workloads::{finish, machine, preloaded_redis, Outcome, RedisWorkload, Variant};
use memsim::stats::Stats;
use memsim::PAGE;
use pmemfs::fs::FileHandle;
use pmemfs::tx::{SwScheme, TxManager};

pub const INSTANCES: usize = 2;
pub const KEYS: u64 = 48;
/// Measured ops per instance (also the KV heap's growth room).
pub const OPS: u64 = 24;
const REDIS_VAL: usize = 64;

/// `bench::workloads`' key scramble.
pub fn scramble(k: u64) -> u64 {
    k.wrapping_mul(0x9e37)
}

/// `preload_pool`, written out.
pub fn pool(v: &Variant, heap_bytes: u64) -> (Machine, TxManager) {
    let data_pages = (heap_bytes / PAGE as u64 + 81) * INSTANCES as u64 + 1500;
    let mut m = machine(v.clone(), data_pages);
    let mut txm = m.tx_manager(256 * 1024).expect("tx manager");
    txm.set_scheme(SwScheme::None);
    (m, txm)
}

/// `seal_preload`, written out.
pub fn seal(m: &mut Machine, txm: &mut TxManager, files: &[FileHandle], scheme: SwScheme) {
    m.flush();
    for f in files {
        m.reinit_redundancy(f);
    }
    let meta = *txm.meta_file();
    m.reinit_redundancy(&meta);
    txm.set_scheme(scheme);
    m.reset_stats();
}

fn without_evict_hash(s: &Stats) -> Stats {
    Stats {
        evict_hash: 0,
        ..s.clone()
    }
}

/// The media digest and stats a sealed machine starts its measured phase
/// with.
pub fn at_seal(m: &Machine) -> (u64, Stats) {
    (
        m.sys.memory().content_hash(),
        without_evict_hash(&m.stats()),
    )
}

fn report_row(label: &str, out: &Outcome) -> String {
    let mut rep = Report::new(label);
    rep.push(Row::new(label, out.design, &out.stats, &out.cfg));
    rep.to_csv()
}

/// A timed and a fast-forwarded cell reported the same measured phase:
/// equal stats (all but `evict_hash`), media and report row.
pub fn assert_same_run(label: &str, timed: &Outcome, fast: &Outcome) {
    assert!(
        timed.stats.runtime_cycles() > 0,
        "{label}: the measured phase ran"
    );
    assert_eq!(
        without_evict_hash(&timed.stats),
        without_evict_hash(&fast.stats),
        "{label}: measured stats"
    );
    assert_eq!(
        timed.content_hash, fast.content_hash,
        "{label}: media after the run"
    );
    assert_eq!(
        report_row(label, timed),
        report_row(label, fast),
        "{label}: report row"
    );
}

type RedisCell = (Machine, TxManager, Vec<Redis>, Vec<u8>);

/// The timed preload `preloaded_redis` replaced.
fn timed_redis(v: &Variant) -> RedisCell {
    let heap_bytes = (KEYS * (24 + REDIS_VAL as u64 + 16) * 2 + KEYS * 64).max(1 << 20);
    let (mut m, mut txm) = pool(v, heap_bytes);
    let mut tables = Vec::new();
    for i in 0..INSTANCES {
        tables.push(Redis::create(&mut m, i, heap_bytes, 1024).unwrap());
    }
    let val = vec![0xabu8; REDIS_VAL];
    for k in 0..KEYS {
        for (i, r) in tables.iter_mut().enumerate() {
            r.set(&mut m, &mut txm, scramble(k) ^ i as u64, &val)
                .unwrap();
        }
    }
    let files: Vec<FileHandle> = tables.iter().map(|r| *r.file()).collect();
    seal(&mut m, &mut txm, &files, v.design.sw_scheme());
    (m, txm, tables, val)
}

fn measure_redis(wl: RedisWorkload, (mut m, mut txm, mut tables, val): RedisCell) -> Outcome {
    run_clocked(&mut m, INSTANCES, OPS, |m, i, op| {
        let key = scramble(op * 7 % KEYS) ^ i as u64;
        match wl {
            RedisWorkload::SetOnly => tables[i].set(m, &mut txm, key, &val),
            RedisWorkload::GetOnly => {
                let mut out = Vec::new();
                assert!(
                    tables[i].get(m, &mut txm, key, &mut out)?,
                    "preloaded key {key}"
                );
                Ok(())
            }
        }
    })
    .unwrap();
    m.flush();
    finish(&m)
}

/// Redis `wl` under `design`, preloaded both ways, sealed and measured.
pub fn check_redis(design: Design, wl: RedisWorkload) {
    let label = format!("redis {} {design}", wl.label());
    let v = Variant::of(design);
    let timed = timed_redis(&v);
    let fast = preloaded_redis(&v, INSTANCES, KEYS, REDIS_VAL).expect("fast-forwarded preload");
    assert_eq!(
        at_seal(&timed.0),
        at_seal(&fast.0),
        "{label}: sealed media and stats"
    );
    assert_same_run(&label, &measure_redis(wl, timed), &measure_redis(wl, fast));
}

#[test]
fn redis_set_under_tvarak_matches_the_timed_preload() {
    check_redis(Design::Tvarak, RedisWorkload::SetOnly);
}
