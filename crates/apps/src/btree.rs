//! B-Tree: a B+tree with 256-byte nodes, modelled on PMDK's `btree` example.
//!
//! Transactions snapshot whole nodes (as PMDK's `TX_ADD` does), so inserts
//! with splits produce the node-granular write traffic the paper's
//! insert-only workload stresses.

use crate::alloc::BumpAlloc;
use crate::driver::{AppError, Machine};
use crate::kv::{PersistentKv, NODE_INSTR, OP_INSTR};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

const NIL: u64 = 0;
const H_ROOT: u64 = 0;
/// Keys per node (node = 8B nkeys + 8B is_leaf + 14×8B keys + 15×8B slots).
const MAX_KEYS: usize = 14;
const NODE_BYTES: u64 = 256;
const OFF_NKEYS: usize = 0;
const OFF_LEAF: usize = 8;
const OFF_KEYS: usize = 16;
const OFF_SLOTS: usize = 128;

/// An in-memory image of one node, read/written as a unit.
#[derive(Debug, Clone)]
struct Node {
    off: u64,
    buf: [u8; NODE_BYTES as usize],
}

impl Node {
    fn nkeys(&self) -> usize {
        u64::from_le_bytes(self.buf[OFF_NKEYS..OFF_NKEYS + 8].try_into().unwrap()) as usize
    }
    fn set_nkeys(&mut self, n: usize) {
        self.buf[OFF_NKEYS..OFF_NKEYS + 8].copy_from_slice(&(n as u64).to_le_bytes());
    }
    fn is_leaf(&self) -> bool {
        u64::from_le_bytes(self.buf[OFF_LEAF..OFF_LEAF + 8].try_into().unwrap()) != 0
    }
    fn set_leaf(&mut self, leaf: bool) {
        self.buf[OFF_LEAF..OFF_LEAF + 8].copy_from_slice(&(leaf as u64).to_le_bytes());
    }
    fn key(&self, i: usize) -> u64 {
        let o = OFF_KEYS + i * 8;
        u64::from_le_bytes(self.buf[o..o + 8].try_into().unwrap())
    }
    fn set_key(&mut self, i: usize, k: u64) {
        let o = OFF_KEYS + i * 8;
        self.buf[o..o + 8].copy_from_slice(&k.to_le_bytes());
    }
    fn slot(&self, i: usize) -> u64 {
        let o = OFF_SLOTS + i * 8;
        u64::from_le_bytes(self.buf[o..o + 8].try_into().unwrap())
    }
    fn set_slot(&mut self, i: usize, v: u64) {
        let o = OFF_SLOTS + i * 8;
        self.buf[o..o + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A persistent B+tree.
#[derive(Debug)]
pub struct BTree {
    file: FileHandle,
    heap: BumpAlloc,
    core: usize,
}

impl BTree {
    /// Create an empty tree in a fresh DAX file of `heap_bytes`, on `core`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the pool is too small.
    pub fn create(m: &mut Machine, core: usize, heap_bytes: u64) -> Result<Self, AppError> {
        let file = m.create_dax_file("btree", heap_bytes)?;
        let heap = BumpAlloc::new(64, file.len());
        Ok(BTree { file, heap, core })
    }

    fn load(&mut self, m: &mut Machine, off: u64) -> Result<Node, AppError> {
        m.sys.instr(self.core, NODE_INSTR);
        let mut buf = [0u8; NODE_BYTES as usize];
        self.file.read(&mut m.sys, self.core, off, &mut buf)?;
        Ok(Node { off, buf })
    }

    fn store(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        node: &Node,
    ) -> Result<(), AppError> {
        tx.write(&mut m.sys, &self.file, node.off, &node.buf)?;
        Ok(())
    }

    fn alloc_node(&mut self, leaf: bool) -> Result<Node, AppError> {
        let off = self.heap.alloc(NODE_BYTES, 64)?;
        let mut n = Node {
            off,
            buf: [0u8; NODE_BYTES as usize],
        };
        n.set_leaf(leaf);
        Ok(n)
    }

    /// Split full child `i` of `parent` (both images are mutated and
    /// persisted). Returns nothing; the caller re-reads what it needs from
    /// the mutated images.
    fn split_child(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        parent: &mut Node,
        i: usize,
    ) -> Result<(), AppError> {
        let mut child = self.load(m, parent.slot(i))?;
        debug_assert_eq!(child.nkeys(), MAX_KEYS);
        let mut right = self.alloc_node(child.is_leaf())?;
        let sep;
        if child.is_leaf() {
            // Leaf split 7/7; separator is the right half's first key
            // (B+tree: key stays in the leaf).
            for k in 0..7 {
                right.set_key(k, child.key(7 + k));
                right.set_slot(k, child.slot(7 + k));
            }
            right.set_nkeys(7);
            child.set_nkeys(7);
            sep = right.key(0);
        } else {
            // Internal split: 7 keys left, separator up, 6 keys right.
            for k in 0..6 {
                right.set_key(k, child.key(8 + k));
            }
            for c in 0..7 {
                right.set_slot(c, child.slot(8 + c));
            }
            right.set_nkeys(6);
            sep = child.key(7);
            child.set_nkeys(7);
        }
        // Shift parent entries right of i.
        let pn = parent.nkeys();
        for k in (i..pn).rev() {
            let kk = parent.key(k);
            parent.set_key(k + 1, kk);
        }
        for c in (i + 1..=pn).rev() {
            let cc = parent.slot(c);
            parent.set_slot(c + 1, cc);
        }
        parent.set_key(i, sep);
        parent.set_slot(i + 1, right.off);
        parent.set_nkeys(pn + 1);
        self.store(m, tx, &child)?;
        self.store(m, tx, &right)?;
        self.store(m, tx, parent)?;
        Ok(())
    }
}

impl PersistentKv for BTree {
    fn name(&self) -> &'static str {
        "btree"
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
        let root_off = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        let mut node = if root_off == NIL {
            let n = self.alloc_node(true)?;
            self.store(m, &mut tx, &n)?;
            tx.write_u64(&mut m.sys, &self.file, H_ROOT, n.off)?;
            n
        } else {
            let root = self.load(m, root_off)?;
            if root.nkeys() == MAX_KEYS {
                // Grow the tree: new root, split the old one.
                let mut newroot = self.alloc_node(false)?;
                newroot.set_slot(0, root.off);
                self.split_child(m, &mut tx, &mut newroot, 0)?;
                tx.write_u64(&mut m.sys, &self.file, H_ROOT, newroot.off)?;
                newroot
            } else {
                root
            }
        };
        // Descend with preemptive splits.
        loop {
            if node.is_leaf() {
                // Find position; overwrite or shifted insert.
                let n = node.nkeys();
                let mut p = 0;
                while p < n && node.key(p) < key {
                    p += 1;
                }
                if p < n && node.key(p) == key {
                    node.set_slot(p, val);
                } else {
                    for k in (p..n).rev() {
                        let kk = node.key(k);
                        let vv = node.slot(k);
                        node.set_key(k + 1, kk);
                        node.set_slot(k + 1, vv);
                    }
                    node.set_key(p, key);
                    node.set_slot(p, val);
                    node.set_nkeys(n + 1);
                }
                self.store(m, &mut tx, &node)?;
                break;
            }
            let n = node.nkeys();
            let mut i = 0;
            while i < n && key >= node.key(i) {
                i += 1;
            }
            let child_off = node.slot(i);
            let child = self.load(m, child_off)?;
            if child.nkeys() == MAX_KEYS {
                self.split_child(m, &mut tx, &mut node, i)?;
                if key >= node.key(i) {
                    i += 1;
                }
                node = self.load(m, node.slot(i))?;
            } else {
                node = child;
            }
        }
        tx.commit(&mut m.sys)?;
        Ok(())
    }

    fn get(&mut self, m: &mut Machine, key: u64) -> Result<Option<u64>, AppError> {
        m.sys.instr(self.core, OP_INSTR);
        let root_off = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        if root_off == NIL {
            return Ok(None);
        }
        let mut node = self.load(m, root_off)?;
        loop {
            let n = node.nkeys();
            if node.is_leaf() {
                for p in 0..n {
                    if node.key(p) == key {
                        return Ok(Some(node.slot(p)));
                    }
                }
                return Ok(None);
            }
            let mut i = 0;
            while i < n && key >= node.key(i) {
                i += 1;
            }
            node = self.load(m, node.slot(i))?;
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
        harness::differential(|m| BTree::create(m, 0, 1024 * 1024).unwrap(), 700, 13);
    }

    #[test]
    fn tvarak_redundancy_consistent() {
        harness::tvarak_consistency(|m| BTree::create(m, 0, 512 * 1024).unwrap(), 200);
    }

    #[test]
    fn sequential_inserts_force_splits() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        // Far more than one node's worth, in order (worst case for splits).
        for k in 0..500u64 {
            t.insert(&mut m, &mut txm, k, k * 2).unwrap();
        }
        for k in 0..500u64 {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(k * 2), "key {k}");
        }
        assert_eq!(t.get(&mut m, 1000).unwrap(), None);
    }

    #[test]
    fn overwrite_in_leaf() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = BTree::create(&mut m, 0, 256 * 1024).unwrap();
        t.insert(&mut m, &mut txm, 5, 1).unwrap();
        t.insert(&mut m, &mut txm, 5, 2).unwrap();
        assert_eq!(t.get(&mut m, 5).unwrap(), Some(2));
    }
}
