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
const NIL: u64 = 0;
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
        self.tuples.read(&mut m.sys, core, key * TUPLE_BYTES, &mut out)?;
        Ok(out)
    }

    /// Checkpoint: with all tuple updates applied in place and durable
    /// after a flush, the WAL can be truncated and its arena reused.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on detected corruption.
    pub fn checkpoint(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        core: usize,
    ) -> Result<(), AppError> {
        m.sys.instr(core, TXN_INSTR);
        let mut tx = txm.begin(&mut m.sys, core)?;
        tx.write_u64(&mut m.sys, &self.wal, H_LOG_HEAD, NIL)?;
        tx.commit(&mut m.sys)?;
        self.wal_heap = BumpAlloc::new(64, self.wal.len());
        Ok(())
    }

    /// Crash recovery: reapply the WAL's after-images oldest-first so the
    /// tuple table reflects every acknowledged update (N-Store's WAL-engine
    /// restart path). Returns the number of records applied.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on detected corruption.
    pub fn recover_from_log(&mut self, m: &mut Machine, core: usize) -> Result<u64, AppError> {
        let records = self.replay_log(m, core)?;
        let mut applied = 0;
        for (tid, after) in records.into_iter().rev() {
            self.tuples.write(&mut m.sys, core, tid * TUPLE_BYTES, &after)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Replay the WAL from the head, returning `(tuple id, after image)`
    /// records newest-first (recovery/audit support).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on detected corruption.
    pub fn replay_log(
        &mut self,
        m: &mut Machine,
        core: usize,
    ) -> Result<Vec<(u64, [u8; TUPLE_BYTES as usize])>, AppError> {
        let mut out = Vec::new();
        let mut cur = self.wal.read_u64(&mut m.sys, core, H_LOG_HEAD)?;
        while cur != NIL {
            let tid = self.wal.read_u64(&mut m.sys, core, cur + 8)?;
            let mut after = [0u8; TUPLE_BYTES as usize];
            self.wal.read(&mut m.sys, core, cur + 80, &mut after)?;
            out.push((tid, after));
            cur = self.wal.read_u64(&mut m.sys, core, cur)?;
        }
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

    #[test]
    fn wal_replay_newest_first() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        s.update(&mut m, &mut txm, 0, 1, &tuple(1)).unwrap();
        s.update(&mut m, &mut txm, 0, 2, &tuple(2)).unwrap();
        s.update(&mut m, &mut txm, 0, 1, &tuple(3)).unwrap();
        let log = s.replay_log(&mut m, 0).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0], (1, tuple(3)));
        assert_eq!(log[1], (2, tuple(2)));
        assert_eq!(log[2], (1, tuple(1)));
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

    #[test]
    fn checkpoint_truncates_and_reuses_wal() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        for i in 0..20u64 {
            s.update(&mut m, &mut txm, 0, i, &tuple(i as u8)).unwrap();
        }
        s.checkpoint(&mut m, &mut txm, 0).unwrap();
        assert!(s.replay_log(&mut m, 0).unwrap().is_empty());
        // The arena is reusable after truncation.
        for i in 0..20u64 {
            s.update(&mut m, &mut txm, 0, i, &tuple(i as u8 + 1)).unwrap();
        }
        assert_eq!(s.replay_log(&mut m, 0).unwrap().len(), 20);
        assert_eq!(s.read(&mut m, 0, 5).unwrap(), tuple(6));
    }

    #[test]
    fn wal_recovery_restores_lost_tuple_updates() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        for i in 0..30u64 {
            s.update(&mut m, &mut txm, 0, i % 8, &tuple(i as u8)).unwrap();
        }
        m.flush();
        // Simulate a crash that lost the in-place tuple updates: clobber the
        // tuple table on the media; the WAL survives.
        for k in 0..8u64 {
            m.sys
                .memory_mut()
                .poke_line(s.tuple_file().addr(k * 64).line(), &[0u8; 64]);
            m.sys.invalidate_page(s.tuple_file().page(0));
        }
        let applied = s.recover_from_log(&mut m, 0).unwrap();
        assert_eq!(applied, 30);
        // Every tuple holds the newest acknowledged value.
        for k in 0..8u64 {
            let newest = (0..30u64).filter(|i| i % 8 == k).max().unwrap();
            assert_eq!(s.read(&mut m, 0, k).unwrap(), tuple(newest as u8));
        }
    }

    #[test]
    fn multi_client_interleaving() {
        let (mut m, mut txm, mut s) = setup(Design::Baseline);
        for i in 0..50u64 {
            for core in 0..2 {
                s.update(&mut m, &mut txm, core, (i * 2 + core as u64) % 256, &tuple(core as u8))
                    .unwrap();
            }
        }
        let log = s.replay_log(&mut m, 0).unwrap();
        assert_eq!(log.len(), 100);
    }
}
