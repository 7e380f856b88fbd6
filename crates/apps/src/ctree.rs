//! C-Tree: a crit-bit (binary radix) tree, modelled on PMDK's `ctree`
//! example data structure.
//!
//! Internal nodes record the most-significant bit position on which their
//! subtrees differ; bit positions strictly decrease downward. Leaves hold
//! `(key, value)`. Lookups are pointer chases — the access pattern the paper
//! exercises with the insert-only and balanced pmembench workloads.

use crate::alloc::BumpAlloc;
use crate::driver::{AppError, Machine};
use crate::kv::{PersistentKv, NODE_INSTR, OP_INSTR};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

const NIL: u64 = 0;
/// Leaf tag in the low pointer bit (nodes are 16-aligned).
const LEAF_TAG: u64 = 1;
/// Root pointer offset in the file header.
const H_ROOT: u64 = 0;

#[inline]
fn is_leaf(ptr: u64) -> bool {
    ptr & LEAF_TAG != 0
}

#[inline]
fn untag(ptr: u64) -> u64 {
    ptr & !LEAF_TAG
}

/// A persistent crit-bit tree.
#[derive(Debug)]
pub struct CTree {
    file: FileHandle,
    heap: BumpAlloc,
    core: usize,
}

impl CTree {
    /// Create an empty tree in a fresh DAX file of `heap_bytes`, on `core`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the pool is too small.
    pub fn create(m: &mut Machine, core: usize, heap_bytes: u64) -> Result<Self, AppError> {
        let file = m.create_dax_file("ctree", heap_bytes)?;
        let heap = BumpAlloc::new(64, file.len());
        Ok(CTree { file, heap, core })
    }

    fn alloc_leaf(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        key: u64,
        val: u64,
    ) -> Result<u64, AppError> {
        let off = self.heap.alloc(16, 16)?;
        tx.write_u64(&mut m.sys, &self.file, off, key)?;
        tx.write_u64(&mut m.sys, &self.file, off + 8, val)?;
        Ok(off | LEAF_TAG)
    }
}

impl PersistentKv for CTree {
    fn name(&self) -> &'static str {
        "ctree"
    }

    fn insert(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        key: u64,
        val: u64,
    ) -> Result<(), AppError> {
        m.sys.instr(self.core, OP_INSTR);
        let mut tx = txm.begin(&mut m.sys, self.core)?;
        let root = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        if root == NIL {
            let leaf = self.alloc_leaf(m, &mut tx, key, val)?;
            tx.write_u64(&mut m.sys, &self.file, H_ROOT, leaf)?;
            tx.commit(&mut m.sys)?;
            return Ok(());
        }
        // Walk to the closest leaf.
        let mut cur = root;
        while !is_leaf(cur) {
            m.sys.instr(self.core, NODE_INSTR);
            let node = untag(cur);
            let bit = self.file.read_u64(&mut m.sys, self.core, node)?;
            let dir = (key >> bit) & 1;
            cur = self
                .file
                .read_u64(&mut m.sys, self.core, node + 8 + dir * 8)?;
        }
        let leaf_off = untag(cur);
        let leaf_key = self.file.read_u64(&mut m.sys, self.core, leaf_off)?;
        if leaf_key == key {
            tx.write_u64(&mut m.sys, &self.file, leaf_off + 8, val)?;
            tx.commit(&mut m.sys)?;
            return Ok(());
        }
        // Highest differing bit decides the new internal node's position.
        let diff = 63 - (key ^ leaf_key).leading_zeros() as u64;
        let new_leaf = self.alloc_leaf(m, &mut tx, key, val)?;
        // Re-descend until the link whose subtree bit < diff.
        let mut link = H_ROOT;
        let mut cur = self.file.read_u64(&mut m.sys, self.core, link)?;
        while !is_leaf(cur) {
            let node = untag(cur);
            let bit = self.file.read_u64(&mut m.sys, self.core, node)?;
            if bit < diff {
                break;
            }
            m.sys.instr(self.core, NODE_INSTR);
            let dir = (key >> bit) & 1;
            link = node + 8 + dir * 8;
            cur = self.file.read_u64(&mut m.sys, self.core, link)?;
        }
        // New internal node at `link`, children ordered by bit `diff`.
        let inode = self.heap.alloc(24, 16)?;
        let dir = (key >> diff) & 1;
        tx.write_u64(&mut m.sys, &self.file, inode, diff)?;
        tx.write_u64(&mut m.sys, &self.file, inode + 8 + dir * 8, new_leaf)?;
        tx.write_u64(&mut m.sys, &self.file, inode + 8 + (1 - dir) * 8, cur)?;
        tx.write_u64(&mut m.sys, &self.file, link, inode)?;
        tx.commit(&mut m.sys)?;
        Ok(())
    }

    fn get(&mut self, m: &mut Machine, key: u64) -> Result<Option<u64>, AppError> {
        m.sys.instr(self.core, OP_INSTR);
        let mut cur = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        if cur == NIL {
            return Ok(None);
        }
        while !is_leaf(cur) {
            m.sys.instr(self.core, NODE_INSTR);
            let node = untag(cur);
            let bit = self.file.read_u64(&mut m.sys, self.core, node)?;
            let dir = (key >> bit) & 1;
            cur = self
                .file
                .read_u64(&mut m.sys, self.core, node + 8 + dir * 8)?;
        }
        let leaf = untag(cur);
        let k = self.file.read_u64(&mut m.sys, self.core, leaf)?;
        if k == key {
            Ok(Some(self.file.read_u64(&mut m.sys, self.core, leaf + 8)?))
        } else {
            Ok(None)
        }
    }

    fn file(&self) -> &FileHandle {
        &self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::harness;

    #[test]
    fn differential_vs_reference() {
        harness::differential(|m| CTree::create(m, 0, 512 * 1024).unwrap(), 600, 11);
    }

    #[test]
    fn tvarak_redundancy_consistent() {
        harness::tvarak_consistency(|m| CTree::create(m, 0, 256 * 1024).unwrap(), 150);
    }

    #[test]
    fn ordered_and_reverse_insertions() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = CTree::create(&mut m, 0, 256 * 1024).unwrap();
        for k in 0..64u64 {
            t.insert(&mut m, &mut txm, k, k + 100).unwrap();
        }
        for k in (64..128u64).rev() {
            t.insert(&mut m, &mut txm, k, k + 100).unwrap();
        }
        for k in 0..128u64 {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(k + 100));
        }
        assert_eq!(t.get(&mut m, 999).unwrap(), None);
    }

    #[test]
    fn zero_key_works() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = CTree::create(&mut m, 0, 64 * 1024).unwrap();
        t.insert(&mut m, &mut txm, 0, 5).unwrap();
        t.insert(&mut m, &mut txm, u64::MAX, 6).unwrap();
        assert_eq!(t.get(&mut m, 0).unwrap(), Some(5));
        assert_eq!(t.get(&mut m, u64::MAX).unwrap(), Some(6));
    }
}
