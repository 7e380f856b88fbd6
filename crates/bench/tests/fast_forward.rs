//! Fast-forwarded preloads ≡ timed preloads. `preloaded_kv` and
//! `preloaded_redis` run their preload loops under `Machine::fast_forward`;
//! this suite writes the timed preload out (the same pool, structures,
//! keys and seal, with every access through the full timing model) and
//! requires both paths to agree on the media at seal and on everything a
//! measured phase then reports. The one value allowed to differ is
//! `Stats::evict_hash`, which digests victim choices made by timed
//! accesses only (DESIGN.md §18, "Fast-forwarded set-up").

mod preload_oracle;

use apps::btree::BTree;
use apps::ctree::CTree;
use apps::driver::{run_clocked, Design, Machine};
use apps::rbtree::RbTree;
use bench::workloads::{finish, preloaded_kv, KvKind, KvSet, Outcome, RedisWorkload, Variant};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;
use preload_oracle::{
    assert_same_run, at_seal, check_redis, pool, scramble, seal, INSTANCES, KEYS, OPS,
};

/// The four Fig. 8 designs and one Vilamb epoch short enough to close
/// inside the measured phase.
fn designs() -> [Design; 5] {
    let [b, t, o, p] = Design::fig8();
    [b, t, o, p, Design::Vilamb { epoch_txs: 8 }]
}

/// The timed preload `preloaded_kv` replaced.
fn timed_kv(v: &Variant, kind: KvKind) -> (Machine, TxManager, KvSet) {
    let heap_bytes = (KEYS * 96 + OPS * 96).max(1 << 20);
    let (mut m, mut txm) = pool(v, heap_bytes);
    let cores = m.sys.num_cores();
    let mut kvs: KvSet = Vec::new();
    for i in 0..INSTANCES {
        let core = i % cores;
        kvs.push(match kind {
            KvKind::CTree => Box::new(CTree::create(&mut m, core, heap_bytes).unwrap()),
            KvKind::BTree => Box::new(BTree::create(&mut m, core, heap_bytes).unwrap()),
            KvKind::RbTree => Box::new(RbTree::create(&mut m, core, heap_bytes).unwrap()),
        });
    }
    for k in 0..KEYS {
        for kv in kvs.iter_mut() {
            kv.insert(&mut m, &mut txm, scramble(k), k).unwrap();
        }
    }
    let files: Vec<FileHandle> = kvs.iter().map(|kv| *kv.file()).collect();
    seal(&mut m, &mut txm, &files, v.design.sw_scheme());
    (m, txm, kvs)
}

/// Gets, updates of preloaded keys and fresh inserts.
fn measure_kv((mut m, mut txm, mut kvs): (Machine, TxManager, KvSet)) -> Outcome {
    run_clocked(&mut m, INSTANCES, OPS, |m, i, op| {
        let key = scramble((op * 7 + i as u64) % KEYS);
        match op % 3 {
            0 => kvs[i].get(m, key).map(|_| ()),
            1 => kvs[i].insert(m, &mut txm, key, op),
            _ => kvs[i].insert(m, &mut txm, scramble(KEYS + op), op),
        }
    })
    .unwrap();
    m.flush();
    finish(&m)
}

fn check_kv(design: Design, kind: KvKind) {
    let label = format!("{} {design}", kind.label());
    let v = Variant::of(design);
    let timed = timed_kv(&v, kind);
    let fast = preloaded_kv(&v, kind, INSTANCES, KEYS, OPS).expect("fast-forwarded preload");
    assert_eq!(
        at_seal(&timed.0),
        at_seal(&fast.0),
        "{label}: sealed media and stats"
    );
    assert_same_run(&label, &measure_kv(timed), &measure_kv(fast));
}

#[test]
fn every_kv_kind_and_redis_workload_matches_the_timed_preload() {
    for design in designs() {
        for kind in KvKind::all() {
            check_kv(design, kind);
        }
        for wl in [RedisWorkload::SetOnly, RedisWorkload::GetOnly] {
            check_redis(design, wl);
        }
    }
}
