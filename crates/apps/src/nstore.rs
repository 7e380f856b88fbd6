//! N-Store: an NVM-optimized relational tuple store with a write-ahead log
//! (§IV-D), modelled on Arulraj et al.'s WAL engine.
//!
//! The detail that dominates the paper's N-Store results is the WAL's
//! *linked-list layout*: every update transaction allocates and writes a
//! fresh log node, producing a random-write access pattern with poor reuse
//! of redundancy cache lines — the workload where TVARAK's caching helps
//! least (and can even hurt, Fig. 9/10).

use crate::alloc::BumpAlloc;
use crate::driver::{AppError, Machine};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

/// Bytes per tuple (one cache line, as in the paper's YCSB configuration).
pub const TUPLE_BYTES: u64 = 64;
/// Log node: next (8) + tuple id (8) + before image (64) + after image (64).
const LOG_NODE_BYTES: u64 = 144;
const H_LOG_HEAD: u64 = 0;
/// Instruction cost per transaction (SQL-less key-based YCSB path).
const TXN_INSTR: u64 = 400;

/// The tuple store.
#[derive(Debug)]
pub struct NStore {
    tuples: FileHandle,
    wal: FileHandle,
    wal_heap: BumpAlloc,
    n_tuples: u64,
}

impl NStore {
    /// Create a store with `n_tuples` tuples and a WAL arena of `wal_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the pool is too small.
    pub fn create(m: &mut Machine, n_tuples: u64, wal_bytes: u64) -> Result<Self, AppError> {
        let tuples = m.create_dax_file("nstore-tuples", n_tuples * TUPLE_BYTES)?;
        let wal = m.create_dax_file("nstore-wal", wal_bytes)?;
        let wal_heap = BumpAlloc::new(64, wal.len());
        Ok(NStore {
            tuples,
            wal,
            wal_heap,
            n_tuples,
        })
    }

    /// Number of tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// The tuple file (for scrubbing).
    pub fn tuple_file(&self) -> &FileHandle {
        &self.tuples
    }

    /// The WAL file (for scrubbing).
    pub fn wal_file(&self) -> &FileHandle {
        &self.wal
    }

    /// Update transaction: append a WAL node (before/after images, linked at
    /// the head) and update the tuple in place.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on WAL exhaustion or detected corruption.
    ///
    /// # Panics
    ///
    /// Panics if `key >= n_tuples`.
    pub fn update(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        core: usize,
        key: u64,
        payload: &[u8; TUPLE_BYTES as usize],
    ) -> Result<(), AppError> {
        assert!(key < self.n_tuples, "tuple {key} out of range");
        m.sys.instr(core, TXN_INSTR);
        let mut tx = txm.begin(&mut m.sys, core)?;
        let tuple_off = key * TUPLE_BYTES;
        // Before image.
        let mut before = [0u8; TUPLE_BYTES as usize];
        self.tuples.read(&mut m.sys, core, tuple_off, &mut before)?;
        // Fresh log node, linked at the head.
        let node = self.wal_heap.alloc(LOG_NODE_BYTES, 16)?;
        let head = self.wal.read_u64(&mut m.sys, core, H_LOG_HEAD)?;
        tx.write_u64(&mut m.sys, &self.wal, node, head)?;
        tx.write_u64(&mut m.sys, &self.wal, node + 8, key)?;
        tx.write(&mut m.sys, &self.wal, node + 16, &before)?;
        tx.write(&mut m.sys, &self.wal, node + 80, payload)?;
        tx.write_u64(&mut m.sys, &self.wal, H_LOG_HEAD, node)?;
        // In-place tuple update.
        tx.write(&mut m.sys, &self.tuples, tuple_off, payload)?;
        tx.commit(&mut m.sys)?;
        Ok(())
    }

    /// Read transaction: fetch a tuple.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on detected corruption.
    ///
    /// # Panics
    ///
    /// Panics if `key >= n_tuples`.
    pub fn read(
        &mut self,
        m: &mut Machine,
        core: usize,
        key: u64,
    ) -> Result<[u8; TUPLE_BYTES as usize], AppError> {
        assert!(key < self.n_tuples, "tuple {key} out of range");
        m.sys.instr(core, TXN_INSTR / 2);
        let mut out = [0u8; TUPLE_BYTES as usize];
        self.tuples
            .read(&mut m.sys, core, key * TUPLE_BYTES, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Design;
    use crate::ycsb::{Op, YcsbMix};

    fn setup(design: Design) -> (Machine, TxManager, NStore) {
        let mut m = Machine::builder()
            .small()
            .design(design)
            .data_pages(1024)
            .build();
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let s = NStore::create(&mut m, 256, 512 * 1024).unwrap();
        let _ = &mut txm;
        (m, txm, s)
    }

    fn tuple(v: u8) -> [u8; 64] {
        [v; 64]
    }

    #[test]
    fn update_then_read() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        s.update(&mut m, &mut txm, 0, 5, &tuple(0xab)).unwrap();
        assert_eq!(s.read(&mut m, 0, 5).unwrap(), tuple(0xab));
        assert_eq!(s.read(&mut m, 0, 6).unwrap(), tuple(0));
    }

    /// Walk the WAL from its head through `wal_file()`, returning
    /// `(tuple id, after image)` records newest-first. The head word sits
    /// at offset 0, so no node does, and a zero link ends the list.
    fn walk_wal(m: &mut Machine, s: &NStore) -> Vec<(u64, [u8; 64])> {
        let wal = s.wal_file();
        let mut out = Vec::new();
        let mut cur = wal.read_u64(&mut m.sys, 0, H_LOG_HEAD).unwrap();
        while cur != 0 {
            let tid = wal.read_u64(&mut m.sys, 0, cur + 8).unwrap();
            let mut after = [0u8; 64];
            wal.read(&mut m.sys, 0, cur + 80, &mut after).unwrap();
            out.push((tid, after));
            cur = wal.read_u64(&mut m.sys, 0, cur).unwrap();
        }
        out
    }

    /// Every update from every client links one node at the head: the
    /// walk finds one record per update, newest-first, repeats included.
    #[test]
    fn wal_walk_finds_every_update_newest_first() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        assert!(walk_wal(&mut m, &s).is_empty());
        let mut expect = Vec::new();
        for i in 0..50u64 {
            for core in 0..2 {
                let n = i * 2 + core as u64;
                let key = n % 16;
                s.update(&mut m, &mut txm, core, key, &tuple(n as u8))
                    .unwrap();
                expect.push((key, tuple(n as u8)));
            }
        }
        expect.reverse();
        let log = walk_wal(&mut m, &s);
        assert_eq!(log.len(), 100);
        assert_eq!(log, expect);
    }

    #[test]
    fn ycsb_mix_under_tvarak_stays_consistent() {
        let (mut m, mut txm, mut s) = setup(Design::Tvarak);
        let mut mix = YcsbMix::new(256, 0.5, 99);
        for i in 0..200u64 {
            match mix.next_op() {
                Op::Update(k) => s.update(&mut m, &mut txm, 0, k, &tuple(i as u8)).unwrap(),
                Op::Read(k) => {
                    s.read(&mut m, 0, k).unwrap();
                }
            }
        }
        m.flush();
        m.verify_all(s.tuple_file()).unwrap();
        m.verify_all(s.wal_file()).unwrap();
    }
}
