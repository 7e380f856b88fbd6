//! RB-Tree: a persistent red-black tree, modelled on PMDK's `rbtree`
//! example. Classic CLRS insertion with recoloring and rotations; every
//! pointer/color mutation is a transactional write, producing the scattered
//! small-write pattern the paper's rbtree workloads exhibit.

use crate::alloc::BumpAlloc;
use crate::driver::{AppError, Machine};
use crate::kv::{PersistentKv, NODE_INSTR, OP_INSTR};
use pmemfs::fs::FileHandle;
use pmemfs::tx::TxManager;

const NIL: u64 = 0;
const H_ROOT: u64 = 0;
/// Node layout: key, val, color, left, right, parent (48 B).
const F_KEY: u64 = 0;
const F_VAL: u64 = 8;
const F_COLOR: u64 = 16;
const F_LEFT: u64 = 24;
const F_RIGHT: u64 = 32;
const F_PARENT: u64 = 40;
const NODE_BYTES: u64 = 48;
const RED: u64 = 1;
const BLACK: u64 = 0;

/// A persistent red-black tree.
#[derive(Debug)]
pub struct RbTree {
    file: FileHandle,
    heap: BumpAlloc,
    core: usize,
}

impl RbTree {
    /// Create an empty tree in a fresh DAX file of `heap_bytes`, on `core`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the pool is too small.
    pub fn create(m: &mut Machine, core: usize, heap_bytes: u64) -> Result<Self, AppError> {
        let file = m.create_dax_file("rbtree", heap_bytes)?;
        // Offset 0 is the header, so node offset 0 can mean NIL.
        let heap = BumpAlloc::new(64, file.len());
        Ok(RbTree { file, heap, core })
    }

    fn rd(&mut self, m: &mut Machine, node: u64, f: u64) -> Result<u64, AppError> {
        Ok(self.file.read_u64(&mut m.sys, self.core, node + f)?)
    }

    fn wr(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        node: u64,
        f: u64,
        v: u64,
    ) -> Result<(), AppError> {
        tx.write_u64(&mut m.sys, &self.file, node + f, v)?;
        Ok(())
    }

    /// Color of `node` (NIL is black).
    fn color(&mut self, m: &mut Machine, node: u64) -> Result<u64, AppError> {
        if node == NIL {
            Ok(BLACK)
        } else {
            self.rd(m, node, F_COLOR)
        }
    }

    /// Replace the link from `parent` (or the root) pointing at `old` with
    /// `new`.
    fn replace_child(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        parent: u64,
        old: u64,
        new: u64,
    ) -> Result<(), AppError> {
        if parent == NIL {
            tx.write_u64(&mut m.sys, &self.file, H_ROOT, new)?;
        } else if self.rd(m, parent, F_LEFT)? == old {
            self.wr(m, tx, parent, F_LEFT, new)?;
        } else {
            self.wr(m, tx, parent, F_RIGHT, new)?;
        }
        Ok(())
    }

    /// Left-rotate around `x` (CLRS).
    fn rotate_left(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        x: u64,
    ) -> Result<(), AppError> {
        let y = self.rd(m, x, F_RIGHT)?;
        let yl = self.rd(m, y, F_LEFT)?;
        self.wr(m, tx, x, F_RIGHT, yl)?;
        if yl != NIL {
            self.wr(m, tx, yl, F_PARENT, x)?;
        }
        let xp = self.rd(m, x, F_PARENT)?;
        self.wr(m, tx, y, F_PARENT, xp)?;
        self.replace_child(m, tx, xp, x, y)?;
        self.wr(m, tx, y, F_LEFT, x)?;
        self.wr(m, tx, x, F_PARENT, y)?;
        Ok(())
    }

    /// Right-rotate around `x` (CLRS, mirrored).
    fn rotate_right(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        x: u64,
    ) -> Result<(), AppError> {
        let y = self.rd(m, x, F_LEFT)?;
        let yr = self.rd(m, y, F_RIGHT)?;
        self.wr(m, tx, x, F_LEFT, yr)?;
        if yr != NIL {
            self.wr(m, tx, yr, F_PARENT, x)?;
        }
        let xp = self.rd(m, x, F_PARENT)?;
        self.wr(m, tx, y, F_PARENT, xp)?;
        self.replace_child(m, tx, xp, x, y)?;
        self.wr(m, tx, y, F_RIGHT, x)?;
        self.wr(m, tx, x, F_PARENT, y)?;
        Ok(())
    }

    fn fixup(
        &mut self,
        m: &mut Machine,
        tx: &mut pmemfs::tx::Tx<'_>,
        mut z: u64,
    ) -> Result<(), AppError> {
        loop {
            let zp = self.rd(m, z, F_PARENT)?;
            if zp == NIL || self.color(m, zp)? == BLACK {
                break;
            }
            let zpp = self.rd(m, zp, F_PARENT)?;
            if zpp == NIL {
                break;
            }
            let left_side = self.rd(m, zpp, F_LEFT)? == zp;
            let uncle = if left_side {
                self.rd(m, zpp, F_RIGHT)?
            } else {
                self.rd(m, zpp, F_LEFT)?
            };
            if self.color(m, uncle)? == RED {
                self.wr(m, tx, zp, F_COLOR, BLACK)?;
                self.wr(m, tx, uncle, F_COLOR, BLACK)?;
                self.wr(m, tx, zpp, F_COLOR, RED)?;
                z = zpp;
            } else {
                if left_side {
                    if self.rd(m, zp, F_RIGHT)? == z {
                        z = zp;
                        self.rotate_left(m, tx, z)?;
                    }
                    let zp = self.rd(m, z, F_PARENT)?;
                    let zpp = self.rd(m, zp, F_PARENT)?;
                    self.wr(m, tx, zp, F_COLOR, BLACK)?;
                    self.wr(m, tx, zpp, F_COLOR, RED)?;
                    self.rotate_right(m, tx, zpp)?;
                } else {
                    if self.rd(m, zp, F_LEFT)? == z {
                        z = zp;
                        self.rotate_right(m, tx, z)?;
                    }
                    let zp = self.rd(m, z, F_PARENT)?;
                    let zpp = self.rd(m, zp, F_PARENT)?;
                    self.wr(m, tx, zp, F_COLOR, BLACK)?;
                    self.wr(m, tx, zpp, F_COLOR, RED)?;
                    self.rotate_left(m, tx, zpp)?;
                }
            }
        }
        let root = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        if self.color(m, root)? == RED {
            self.wr(m, tx, root, F_COLOR, BLACK)?;
        }
        Ok(())
    }

    /// Verify red-black invariants on the media image (test support): red
    /// nodes have black children, and every root-leaf path has the same
    /// black height. Returns the black height.
    #[cfg(test)]
    fn check_invariants(&mut self, m: &mut Machine, node: u64) -> Result<u64, AppError> {
        if node == NIL {
            return Ok(1);
        }
        let c = self.color(m, node)?;
        let l = self.rd(m, node, F_LEFT)?;
        let r = self.rd(m, node, F_RIGHT)?;
        if c == RED {
            assert_eq!(self.color(m, l)?, BLACK, "red node with red left child");
            assert_eq!(self.color(m, r)?, BLACK, "red node with red right child");
        }
        let hl = self.check_invariants(m, l)?;
        let hr = self.check_invariants(m, r)?;
        assert_eq!(hl, hr, "black height mismatch");
        Ok(hl + u64::from(c == BLACK))
    }
}

impl PersistentKv for RbTree {
    fn name(&self) -> &'static str {
        "rbtree"
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
        // BST descent.
        let mut parent = NIL;
        let mut cur = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        let mut went_left = false;
        while cur != NIL {
            m.sys.instr(self.core, NODE_INSTR);
            let k = self.rd(m, cur, F_KEY)?;
            if k == key {
                self.wr(m, &mut tx, cur, F_VAL, val)?;
                tx.commit(&mut m.sys)?;
                return Ok(());
            }
            parent = cur;
            went_left = key < k;
            cur = if went_left {
                self.rd(m, cur, F_LEFT)?
            } else {
                self.rd(m, cur, F_RIGHT)?
            };
        }
        // New red node.
        let z = self.heap.alloc(NODE_BYTES, 16)?;
        self.wr(m, &mut tx, z, F_KEY, key)?;
        self.wr(m, &mut tx, z, F_VAL, val)?;
        self.wr(m, &mut tx, z, F_COLOR, RED)?;
        self.wr(m, &mut tx, z, F_LEFT, NIL)?;
        self.wr(m, &mut tx, z, F_RIGHT, NIL)?;
        self.wr(m, &mut tx, z, F_PARENT, parent)?;
        if parent == NIL {
            tx.write_u64(&mut m.sys, &self.file, H_ROOT, z)?;
        } else if went_left {
            self.wr(m, &mut tx, parent, F_LEFT, z)?;
        } else {
            self.wr(m, &mut tx, parent, F_RIGHT, z)?;
        }
        self.fixup(m, &mut tx, z)?;
        tx.commit(&mut m.sys)?;
        Ok(())
    }

    fn get(&mut self, m: &mut Machine, key: u64) -> Result<Option<u64>, AppError> {
        m.sys.instr(self.core, OP_INSTR);
        let mut cur = self.file.read_u64(&mut m.sys, self.core, H_ROOT)?;
        while cur != NIL {
            m.sys.instr(self.core, NODE_INSTR);
            let k = self.rd(m, cur, F_KEY)?;
            if k == key {
                return Ok(Some(self.rd(m, cur, F_VAL)?));
            }
            cur = if key < k {
                self.rd(m, cur, F_LEFT)?
            } else {
                self.rd(m, cur, F_RIGHT)?
            };
        }
        Ok(None)
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
        harness::differential(|m| RbTree::create(m, 0, 1024 * 1024).unwrap(), 600, 17);
    }

    #[test]
    fn tvarak_redundancy_consistent() {
        harness::tvarak_consistency(|m| RbTree::create(m, 0, 512 * 1024).unwrap(), 150);
    }

    #[test]
    fn invariants_hold_under_sequential_inserts() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = RbTree::create(&mut m, 0, 1024 * 1024).unwrap();
        // Sequential keys are the worst case for naive BSTs; RB balancing
        // must keep invariants.
        for k in 0..256u64 {
            t.insert(&mut m, &mut txm, k, k).unwrap();
        }
        let root = t.file.read_u64(&mut m.sys, 0, H_ROOT).unwrap();
        assert_eq!(t.color(&mut m, root).unwrap(), BLACK);
        t.check_invariants(&mut m, root).unwrap();
        for k in 0..256u64 {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(k));
        }
    }

    #[test]
    fn invariants_hold_under_random_inserts() {
        let mut m = harness::machine(crate::driver::Design::Baseline);
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut t = RbTree::create(&mut m, 0, 1024 * 1024).unwrap();
        let mut rng = crate::rng::Rng::new(23);
        for _ in 0..300 {
            let k = rng.below(10_000);
            t.insert(&mut m, &mut txm, k, k + 1).unwrap();
        }
        let root = t.file.read_u64(&mut m.sys, 0, H_ROOT).unwrap();
        t.check_invariants(&mut m, root).unwrap();
    }
}
