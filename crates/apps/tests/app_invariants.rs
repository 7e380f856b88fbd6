//! Application-level property tests on seeded random cases (12 per
//! property): data-structure correctness against reference models under
//! mixed operations including deletions, and redundancy consistency under
//! TVARAK. Every assertion names its case's seed.

use apps::btree::BTree;
use apps::ctree::CTree;
use apps::driver::{Design, Machine};
use apps::kv::PersistentKv;
use apps::rbtree::RbTree;
use apps::redis::Redis;
use std::collections::HashMap;

const CASES: u64 = 12;

/// splitmix64 — the repo's standard seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The seeds of a property's cases.
fn seeds(property: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| (property << 32) | case)
}

fn machine(design: Design) -> Machine {
    Machine::builder()
        .small()
        .design(design)
        .data_pages(1024)
        .build()
}

#[derive(Debug, Clone, Copy)]
enum KvOp {
    Insert(u64, u16),
    Remove(u64),
    Get(u64),
}

/// `1..max_len` operations over keys `0..256`, weighted insert : remove :
/// get = 3 : 2 : 2.
fn gen_ops(rng: &mut u64, max_len: u64) -> Vec<KvOp> {
    (0..range(rng, 1, max_len))
        .map(|_| {
            let key = range(rng, 0, 256);
            match range(rng, 0, 7) {
                0..=2 => KvOp::Insert(key, splitmix64(rng) as u16),
                3..=4 => KvOp::Remove(key),
                _ => KvOp::Get(key),
            }
        })
        .collect()
}

/// A persistent tree with deletions matches a reference map under random
/// ops; structure corruption would surface as a wrong result, during the
/// run or in the final sweep over every surviving key.
fn tree_mixed_ops_vs_reference<T: PersistentKv>(
    property: u64,
    max_ops: u64,
    create: impl Fn(&mut Machine) -> T,
) {
    for seed in seeds(property) {
        let mut rng = seed;
        let ops = gen_ops(&mut rng, max_ops);
        let mut m = machine(Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = create(&mut m);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                KvOp::Insert(k, v) => {
                    t.insert(&mut m, &mut txm, k, v as u64).unwrap();
                    reference.insert(k, v as u64);
                }
                KvOp::Remove(k) => {
                    let got = t.remove(&mut m, &mut txm, k).unwrap();
                    assert_eq!(got, reference.remove(&k), "seed {seed:#x}: remove {k}");
                }
                KvOp::Get(k) => {
                    let got = t.get(&mut m, k).unwrap();
                    assert_eq!(got, reference.get(&k).copied(), "seed {seed:#x}: get {k}");
                }
            }
        }
        for (k, v) in &reference {
            assert_eq!(t.get(&mut m, *k).unwrap(), Some(*v), "seed {seed:#x}: final get {k}");
        }
    }
}

#[test]
fn btree_mixed_ops_vs_reference() {
    tree_mixed_ops_vs_reference(1, 150, |m| BTree::create(m, 0, 1024 * 1024).unwrap());
}

#[test]
fn rbtree_mixed_ops_vs_reference() {
    tree_mixed_ops_vs_reference(2, 120, |m| RbTree::create(m, 0, 1024 * 1024).unwrap());
}

#[test]
fn ctree_mixed_ops_vs_reference() {
    tree_mixed_ops_vs_reference(3, 150, |m| CTree::create(m, 0, 1024 * 1024).unwrap());
}

/// Redis SET/GET/DEL matches a reference map, across rehashes, under
/// TVARAK, with redundancy consistent at the end.
#[test]
fn redis_mixed_ops_under_tvarak() {
    for seed in seeds(4) {
        let mut rng = seed;
        let ops = gen_ops(&mut rng, 100);
        let mut m = machine(Design::Tvarak);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut r = Redis::create(&mut m, 0, 256 * 1024, 8).unwrap();
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut out = Vec::new();
        for op in ops {
            match op {
                KvOp::Insert(k, v) => {
                    let val = v.to_le_bytes().to_vec();
                    r.set(&mut m, &mut txm, k, &val).unwrap();
                    reference.insert(k, val);
                }
                KvOp::Remove(k) => {
                    let existed = r.del(&mut m, &mut txm, k).unwrap();
                    assert_eq!(existed, reference.remove(&k).is_some(), "seed {seed:#x}: del {k}");
                }
                KvOp::Get(k) => {
                    let found = r.get(&mut m, &mut txm, k, &mut out).unwrap();
                    let got = found.then_some(&out);
                    assert_eq!(got, reference.get(&k), "seed {seed:#x}: get {k}");
                }
            }
        }
        assert_eq!(r.len(&mut m).unwrap(), reference.len() as u64, "seed {seed:#x}");
        m.flush();
        assert_eq!(m.verify_all(r.file()), Ok(()), "seed {seed:#x}");
    }
}
