//! Common interface for the persistent key-value data structures
//! (C-Tree, B-Tree, RB-Tree — §IV-C), mirroring PMDK's pmembench drivers:
//! `insert` (new tuples), `update` (overwrite), `get` (read-only).

use crate::driver::{AppError, Machine};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

/// A persistent ordered/unordered map from `u64` keys to `u64` values,
/// updated through libpmemobj-style transactions.
pub trait PersistentKv {
    /// Data-structure name ("ctree", "btree", "rbtree").
    fn name(&self) -> &'static str;

    /// Insert `key → val` (or overwrite if present), transactionally.
    ///
    /// # Errors
    ///
    /// Propagates allocation, log, and corruption errors.
    fn insert(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        key: u64,
        val: u64,
    ) -> Result<(), AppError>;

    /// Read the value for `key` (no transaction — reads are plain loads).
    ///
    /// # Errors
    ///
    /// Propagates corruption errors from verified reads.
    fn get(&mut self, m: &mut Machine, key: u64) -> Result<Option<u64>, AppError>;

    /// The backing DAX file (for scrubbing).
    fn file(&self) -> &FileHandle;
}

/// Instruction cost per tree-node visit.
pub(crate) const NODE_INSTR: u64 = 10;
/// Instruction cost per operation (dispatch etc.).
pub(crate) const OP_INSTR: u64 = 1000;

#[cfg(test)]
pub(crate) mod harness {
    //! Shared randomized differential tests: each structure is checked
    //! against `std::collections::HashMap` under a mixed workload, on a
    //! Baseline machine (functional) and a TVARAK machine (redundancy
    //! consistency).

    use super::*;
    use crate::driver::Design;
    use crate::rng::Rng;
    use std::collections::HashMap;

    pub fn machine(design: Design) -> Machine {
        Machine::builder()
            .small()
            .design(design)
            .data_pages(1024)
            .build()
    }

    /// Run `n` random insert/update/get ops, comparing with a reference map.
    pub fn differential<K: PersistentKv>(
        mut make: impl FnMut(&mut Machine) -> K,
        n: u64,
        seed: u64,
    ) {
        let mut m = machine(Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut kv = make(&mut m);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = Rng::new(seed);
        for i in 0..n {
            let key = rng.below(n / 2 + 1);
            match rng.below(3) {
                0 | 1 => {
                    let val = i * 1000 + key;
                    kv.insert(&mut m, &mut txm, key, val).unwrap();
                    reference.insert(key, val);
                }
                _ => {
                    let got = kv.get(&mut m, key).unwrap();
                    assert_eq!(got, reference.get(&key).copied(), "key {key} at op {i}");
                }
            }
        }
        // Full final check.
        for (k, v) in &reference {
            assert_eq!(kv.get(&mut m, *k).unwrap(), Some(*v), "final key {k}");
        }
    }

    /// Insert under TVARAK and check media redundancy invariants.
    pub fn tvarak_consistency<K: PersistentKv>(mut make: impl FnMut(&mut Machine) -> K, n: u64) {
        let mut m = machine(Design::Tvarak);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut kv = make(&mut m);
        for k in 0..n {
            kv.insert(&mut m, &mut txm, k.wrapping_mul(0x9e37), k)
                .unwrap();
        }
        m.flush();
        m.verify_all(kv.file()).unwrap();
    }
}
