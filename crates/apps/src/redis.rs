//! A Redis-like persistent key-value store (§IV-B).
//!
//! Models the behaviours that drive the paper's Redis results:
//!
//! - a chained hashtable as the primary structure, stored in a DAX-mapped
//!   persistent heap (the PMDK libpmemobj port of Redis v3.1);
//! - libpmemobj transactions for **every** request — including GETs, because
//!   Redis performs *incremental rehashing* work on each request, so even
//!   read-only workloads persist transaction metadata;
//! - incremental rehashing: when the load factor exceeds 1, a double-sized
//!   table is allocated and one bucket is migrated per request until the old
//!   table drains.
//!
//! Multiple independent single-threaded instances (1–6 in the paper) are run
//! by the benchmark driver, one per core.

use crate::alloc::BumpAlloc;
use crate::driver::{AppError, Machine};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

const NIL: u64 = 0;
/// Entry header: next (8) + key (8) + vlen (8).
const ENTRY_HDR: u64 = 24;
/// Header field offsets.
const H_COUNT: u64 = 0;
const H_NBUCKETS0: u64 = 8;
const H_TABLE0: u64 = 16;
const H_NBUCKETS1: u64 = 24;
const H_TABLE1: u64 = 32;
const H_REHASH_IDX: u64 = 40;
const NOT_REHASHING: u64 = u64::MAX;
/// Instruction cost charged per request (command dispatch, protocol, hashing).
const REQUEST_INSTR: u64 = 2000;
/// Instruction cost per chain hop.
const HOP_INSTR: u64 = 8;

fn hash(key: u64) -> u64 {
    // SplitMix64 finalizer — good avalanche for bucket selection.
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One single-threaded Redis instance over a DAX-mapped file.
#[derive(Debug)]
pub struct Redis {
    file: FileHandle,
    heap: BumpAlloc,
    core: usize,
}

impl Redis {
    /// Create an instance with `initial_buckets` (a power of two) hash
    /// buckets inside a fresh `heap_bytes` DAX file, running on `core`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the pool or heap is too small.
    ///
    /// # Panics
    ///
    /// Panics if `initial_buckets` is not a power of two.
    pub fn create(
        m: &mut Machine,
        core: usize,
        heap_bytes: u64,
        initial_buckets: u64,
    ) -> Result<Self, AppError> {
        assert!(
            initial_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        let file = m.create_dax_file("redis-heap", heap_bytes)?;
        let mut heap = BumpAlloc::new(64, file.len());
        let table0 = heap.alloc(initial_buckets * 8, 64)?;
        // Fresh file content is zero: buckets start NIL, count 0.
        file.write_u64(&mut m.sys, core, H_NBUCKETS0, initial_buckets)?;
        file.write_u64(&mut m.sys, core, H_TABLE0, table0)?;
        file.write_u64(&mut m.sys, core, H_REHASH_IDX, NOT_REHASHING)?;
        Ok(Redis { file, heap, core })
    }

    /// The backing file (for scrubbing in tests).
    pub fn file(&self) -> &FileHandle {
        &self.file
    }

    /// Number of keys stored.
    ///
    /// # Errors
    ///
    /// Propagates verified-read failures.
    pub fn len(&self, m: &mut Machine) -> Result<u64, AppError> {
        Ok(self.file.read_u64(&mut m.sys, self.core, H_COUNT)?)
    }

    /// SET: insert or update `key` with `val`, transactionally. An update
    /// overwrites the value in place, so it must keep the stored length.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on heap exhaustion, log overflow, or detected
    /// corruption.
    ///
    /// # Panics
    ///
    /// Panics if `key` is stored with a value of a different length.
    pub fn set(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        key: u64,
        val: &[u8],
    ) -> Result<(), AppError> {
        m.sys.instr(self.core, REQUEST_INSTR);
        let mut tx = txm.begin(&mut m.sys, self.core)?;
        self.rehash_step(m, &mut tx)?;
        let (entry, _bucket_off, bucket_head) = self.find(m, key)?;
        match entry {
            Some(off) => {
                let vlen = self.file.read_u64(&mut m.sys, self.core, off + 16)?;
                assert_eq!(vlen, val.len() as u64, "SET {key}: value length changed");
                tx.write(&mut m.sys, &self.file, off + ENTRY_HDR, val)?;
            }
            None => {
                let off = self.heap.alloc(ENTRY_HDR + val.len() as u64, 16)?;
                let head = self.file.read_u64(&mut m.sys, self.core, bucket_head)?;
                tx.write_u64(&mut m.sys, &self.file, off, head)?;
                tx.write_u64(&mut m.sys, &self.file, off + 8, key)?;
                tx.write_u64(&mut m.sys, &self.file, off + 16, val.len() as u64)?;
                tx.write(&mut m.sys, &self.file, off + ENTRY_HDR, val)?;
                tx.write_u64(&mut m.sys, &self.file, bucket_head, off)?;
                let count = self.file.read_u64(&mut m.sys, self.core, H_COUNT)?;
                tx.write_u64(&mut m.sys, &self.file, H_COUNT, count + 1)?;
            }
        }
        tx.commit(&mut m.sys)?;
        self.maybe_start_rehash(m)?;
        Ok(())
    }

    /// GET: look up `key`, filling `out`. Runs inside a transaction like
    /// real pmem-Redis (incremental rehashing may write).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on detected corruption.
    pub fn get(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        key: u64,
        out: &mut Vec<u8>,
    ) -> Result<bool, AppError> {
        m.sys.instr(self.core, REQUEST_INSTR);
        let mut tx = txm.begin(&mut m.sys, self.core)?;
        self.rehash_step(m, &mut tx)?;
        let (entry, _, _) = self.find(m, key)?;
        let found = match entry {
            Some(off) => {
                let vlen = self.file.read_u64(&mut m.sys, self.core, off + 16)?;
                out.resize(vlen as usize, 0);
                self.file
                    .read(&mut m.sys, self.core, off + ENTRY_HDR, out)?;
                true
            }
            None => false,
        };
        tx.commit(&mut m.sys)?;
        Ok(found)
    }

    /// Locate `key`: returns (entry offset if found, searched-table base,
    /// bucket slot offset where an insert would link).
    fn find(&mut self, m: &mut Machine, key: u64) -> Result<(Option<u64>, u64, u64), AppError> {
        let h = hash(key);
        let rehash_idx = self.file.read_u64(&mut m.sys, self.core, H_REHASH_IDX)?;
        let n0 = self.file.read_u64(&mut m.sys, self.core, H_NBUCKETS0)?;
        let t0 = self.file.read_u64(&mut m.sys, self.core, H_TABLE0)?;
        // During a rehash, new links go to table1; lookups check both.
        let tables: Vec<(u64, u64)> = if rehash_idx == NOT_REHASHING {
            vec![(t0, n0)]
        } else {
            let n1 = self.file.read_u64(&mut m.sys, self.core, H_NBUCKETS1)?;
            let t1 = self.file.read_u64(&mut m.sys, self.core, H_TABLE1)?;
            vec![(t1, n1), (t0, n0)]
        };
        let (insert_table, insert_n) = tables[0];
        let insert_slot = insert_table + (h & (insert_n - 1)) * 8;
        for &(table, n) in &tables {
            let bucket = table + (h & (n - 1)) * 8;
            let mut cur = self.file.read_u64(&mut m.sys, self.core, bucket)?;
            while cur != NIL {
                m.sys.instr(self.core, HOP_INSTR);
                let k = self.file.read_u64(&mut m.sys, self.core, cur + 8)?;
                if k == key {
                    return Ok((Some(cur), table, insert_slot));
                }
                cur = self.file.read_u64(&mut m.sys, self.core, cur)?;
            }
        }
        Ok((None, insert_table, insert_slot))
    }

    /// Start a rehash when the load factor exceeds 1.
    fn maybe_start_rehash(&mut self, m: &mut Machine) -> Result<(), AppError> {
        let rehash_idx = self.file.read_u64(&mut m.sys, self.core, H_REHASH_IDX)?;
        if rehash_idx != NOT_REHASHING {
            return Ok(());
        }
        let count = self.file.read_u64(&mut m.sys, self.core, H_COUNT)?;
        let n0 = self.file.read_u64(&mut m.sys, self.core, H_NBUCKETS0)?;
        if count <= n0 {
            return Ok(());
        }
        let n1 = n0 * 2;
        let t1 = self.heap.alloc(n1 * 8, 64)?;
        self.file
            .write_u64(&mut m.sys, self.core, H_NBUCKETS1, n1)?;
        self.file.write_u64(&mut m.sys, self.core, H_TABLE1, t1)?;
        self.file
            .write_u64(&mut m.sys, self.core, H_REHASH_IDX, 0)?;
        Ok(())
    }

    /// Migrate one bucket from table0 to table1 (called on every request
    /// while a rehash is active — Redis's incremental rehashing).
    fn rehash_step(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
    ) -> Result<(), AppError> {
        let rehash_idx = self.file.read_u64(&mut m.sys, self.core, H_REHASH_IDX)?;
        if rehash_idx == NOT_REHASHING {
            return Ok(());
        }
        let n0 = self.file.read_u64(&mut m.sys, self.core, H_NBUCKETS0)?;
        let t0 = self.file.read_u64(&mut m.sys, self.core, H_TABLE0)?;
        let n1 = self.file.read_u64(&mut m.sys, self.core, H_NBUCKETS1)?;
        let t1 = self.file.read_u64(&mut m.sys, self.core, H_TABLE1)?;
        let bucket = t0 + rehash_idx * 8;
        let mut cur = self.file.read_u64(&mut m.sys, self.core, bucket)?;
        while cur != NIL {
            m.sys.instr(self.core, HOP_INSTR);
            let next = self.file.read_u64(&mut m.sys, self.core, cur)?;
            let k = self.file.read_u64(&mut m.sys, self.core, cur + 8)?;
            let dst = t1 + (hash(k) & (n1 - 1)) * 8;
            let dst_head = self.file.read_u64(&mut m.sys, self.core, dst)?;
            tx.write_u64(&mut m.sys, &self.file, cur, dst_head)?;
            tx.write_u64(&mut m.sys, &self.file, dst, cur)?;
            cur = next;
        }
        tx.write_u64(&mut m.sys, &self.file, bucket, NIL)?;
        let next_idx = rehash_idx + 1;
        if next_idx == n0 {
            // Old table drained: table1 becomes table0.
            tx.write_u64(&mut m.sys, &self.file, H_TABLE0, t1)?;
            tx.write_u64(&mut m.sys, &self.file, H_NBUCKETS0, n1)?;
            tx.write_u64(&mut m.sys, &self.file, H_REHASH_IDX, NOT_REHASHING)?;
        } else {
            tx.write_u64(&mut m.sys, &self.file, H_REHASH_IDX, next_idx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Design;

    fn machine(design: Design) -> Machine {
        Machine::builder()
            .small()
            .design(design)
            .data_pages(512)
            .build()
    }

    fn setup(design: Design) -> (Machine, TxManager, Redis) {
        let mut m = machine(design);
        let mut txm = m.tx_manager(32 * 1024).unwrap();
        let r = Redis::create(&mut m, 0, 256 * 1024, 8).unwrap();
        let _ = &mut txm;
        (m, txm, r)
    }

    #[test]
    fn set_get_roundtrip() {
        let (mut m, mut txm, mut r) = setup(Design::Baseline);
        r.set(&mut m, &mut txm, 7, b"value-7").unwrap();
        let mut out = Vec::new();
        assert!(r.get(&mut m, &mut txm, 7, &mut out).unwrap());
        assert_eq!(out, b"value-7");
        assert!(!r.get(&mut m, &mut txm, 8, &mut out).unwrap());
    }

    #[test]
    fn overwrite_updates_value() {
        let (mut m, mut txm, mut r) = setup(Design::Baseline);
        r.set(&mut m, &mut txm, 1, b"aaaa").unwrap();
        r.set(&mut m, &mut txm, 1, b"bbbb").unwrap();
        let mut out = Vec::new();
        r.get(&mut m, &mut txm, 1, &mut out).unwrap();
        assert_eq!(out, b"bbbb");
        assert_eq!(r.len(&mut m).unwrap(), 1);
    }

    #[test]
    fn rehash_preserves_all_keys() {
        let (mut m, mut txm, mut r) = setup(Design::Baseline);
        // 8 initial buckets; 200 keys force several rehashes, exercised
        // incrementally by subsequent requests.
        for k in 0..200u64 {
            r.set(&mut m, &mut txm, k, &k.to_le_bytes()).unwrap();
        }
        let mut out = Vec::new();
        for k in 0..200u64 {
            assert!(r.get(&mut m, &mut txm, k, &mut out).unwrap(), "key {k}");
            assert_eq!(out, k.to_le_bytes());
        }
        assert_eq!(r.len(&mut m).unwrap(), 200);
    }

    #[test]
    fn tvarak_design_keeps_redundancy_consistent() {
        let (mut m, mut txm, mut r) = setup(Design::Tvarak);
        for k in 0..60u64 {
            r.set(&mut m, &mut txm, k, &[k as u8; 16]).unwrap();
        }
        m.flush();
        m.verify_all(r.file()).unwrap();
    }

    #[test]
    fn txb_object_design_keeps_redundancy_consistent() {
        let (mut m, mut txm, mut r) = setup(Design::TxbObject);
        for k in 0..40u64 {
            r.set(&mut m, &mut txm, k, &[k as u8; 16]).unwrap();
        }
        m.flush();
        m.verify_all(r.file()).unwrap();
    }

    #[test]
    fn txb_page_design_keeps_redundancy_consistent() {
        let (mut m, mut txm, mut r) = setup(Design::TxbPage);
        for k in 0..25u64 {
            r.set(&mut m, &mut txm, k, &[k as u8; 16]).unwrap();
        }
        m.flush();
        m.verify_all(r.file()).unwrap();
    }

    #[test]
    #[should_panic(expected = "value length changed")]
    fn set_with_a_different_value_length_panics() {
        let (mut m, mut txm, mut r) = setup(Design::Baseline);
        r.set(&mut m, &mut txm, 1, b"aaaa").unwrap();
        let _ = r.set(&mut m, &mut txm, 1, b"bbbbbbbb");
    }

    #[test]
    fn gets_generate_nvm_writes_via_tx_metadata() {
        let (mut m, mut txm, mut r) = setup(Design::Baseline);
        for k in 0..20u64 {
            r.set(&mut m, &mut txm, k, b"x").unwrap();
        }
        m.flush();
        m.reset_stats();
        let mut out = Vec::new();
        for k in 0..20u64 {
            r.get(&mut m, &mut txm, k, &mut out).unwrap();
        }
        m.flush();
        assert!(
            m.stats().counters.nvm_data_writes > 0,
            "GET transactions persist metadata (§IV-B)"
        );
    }
}
