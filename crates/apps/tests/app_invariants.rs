//! Application-level property tests on seeded random cases (12 per
//! property): Redis correctness against a reference map under mixed SETs
//! and GETs, and redundancy consistency under TVARAK. Every assertion names
//! its case's seed. The trees' insert/get differentials live beside each
//! tree, in `apps::kv`'s test harness.

use apps::driver::{Design, Machine};
use apps::redis::Redis;
use apps::rng::splitmix64;
use std::collections::HashMap;

const CASES: u64 = 12;

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
    Get(u64),
}

/// `1..max_len` operations over keys `0..256`, weighted insert : get =
/// 5 : 2.
fn gen_ops(rng: &mut u64, max_len: u64) -> Vec<KvOp> {
    (0..range(rng, 1, max_len))
        .map(|_| {
            let key = range(rng, 0, 256);
            match range(rng, 0, 7) {
                0..=4 => KvOp::Insert(key, splitmix64(rng) as u16),
                _ => KvOp::Get(key),
            }
        })
        .collect()
}

/// Redis SET/GET matches a reference map, across rehashes, under TVARAK,
/// with redundancy consistent at the end. The final count check is the
/// randomised test that an overwriting SET never increments the stored key
/// count.
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
                KvOp::Get(k) => {
                    let found = r.get(&mut m, &mut txm, k, &mut out).unwrap();
                    let got = found.then_some(&out);
                    assert_eq!(got, reference.get(&k), "seed {seed:#x}: get {k}");
                }
            }
        }
        assert_eq!(
            r.len(&mut m).unwrap(),
            reference.len() as u64,
            "seed {seed:#x}"
        );
        m.flush();
        assert_eq!(m.verify_all(r.file()), Ok(()), "seed {seed:#x}");
    }
}
