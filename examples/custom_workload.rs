//! Building your own workload against the public API: a persistent
//! adjacency-list graph with transactional edge insertion and BFS queries,
//! protected by TVARAK. Demonstrates the pieces a downstream user combines:
//! `Machine`, DAX files, transactions, verification, and recovery.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use apps::alloc::BumpAlloc;
use pmemfs::tx::TxManager;
use pmemfs::FileHandle;
use tvarak_repro::prelude::*;

const NIL: u64 = 0;

/// A persistent directed graph: `heads[v]` points to a linked list of
/// edge nodes `[next, dst]`.
struct PersistentGraph {
    file: FileHandle,
    heap: BumpAlloc,
    nodes: u64,
}

impl PersistentGraph {
    fn create(m: &mut Machine, nodes: u64) -> Result<Self, Box<dyn std::error::Error>> {
        let file = m.create_dax_file("graph", nodes * 8 + 512 * 1024)?;
        let heap = BumpAlloc::new(nodes * 8 + 64, file.len());
        Ok(PersistentGraph { file, heap, nodes })
    }

    fn add_edge(
        &mut self,
        m: &mut Machine,
        txm: &mut TxManager,
        src: u64,
        dst: u64,
    ) -> Result<(), Box<dyn std::error::Error>> {
        assert!(src < self.nodes && dst < self.nodes);
        let mut tx = txm.begin(&mut m.sys, 0)?;
        let node = self.heap.alloc(16, 16)?;
        let head = self.file.read_u64(&mut m.sys, 0, src * 8)?;
        tx.write_u64(&mut m.sys, &self.file, node, head)?;
        tx.write_u64(&mut m.sys, &self.file, node + 8, dst)?;
        tx.write_u64(&mut m.sys, &self.file, src * 8, node)?;
        tx.commit(&mut m.sys)?;
        Ok(())
    }

    fn neighbors(&self, m: &mut Machine, v: u64) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
        let mut out = Vec::new();
        let mut cur = self.file.read_u64(&mut m.sys, 0, v * 8)?;
        while cur != NIL {
            out.push(self.file.read_u64(&mut m.sys, 0, cur + 8)?);
            cur = self.file.read_u64(&mut m.sys, 0, cur)?;
        }
        Ok(out)
    }

    fn bfs_depth(
        &self,
        m: &mut Machine,
        from: u64,
        to: u64,
    ) -> Result<Option<u64>, Box<dyn std::error::Error>> {
        let mut seen = vec![false; self.nodes as usize];
        let mut frontier = vec![from];
        seen[from as usize] = true;
        let mut depth = 0;
        while !frontier.is_empty() {
            if frontier.contains(&to) {
                return Ok(Some(depth));
            }
            let mut next = Vec::new();
            for v in frontier {
                for n in self.neighbors(m, v)? {
                    if !seen[n as usize] {
                        seen[n as usize] = true;
                        next.push(n);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        Ok(None)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut m = Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(1024)
        .build();
    let mut txm = m.tx_manager(64 * 1024)?;
    let mut g = PersistentGraph::create(&mut m, 1000)?;

    // A ring with chords.
    for v in 0..1000u64 {
        g.add_edge(&mut m, &mut txm, v, (v + 1) % 1000)?;
        if v % 7 == 0 {
            g.add_edge(&mut m, &mut txm, v, (v + 100) % 1000)?;
        }
    }
    let depth = g.bfs_depth(&mut m, 0, 500)?;
    println!("BFS depth 0 -> 500: {depth:?}");

    m.flush();
    m.verify_all(&g.file)
        .expect("graph redundancy consistent on media");

    // Silently corrupt an edge node on the media, then show detection +
    // recovery keeps the graph intact.
    let line = g.file.addr(1000 * 8 + 64).line();
    m.sys.memory_mut().poke_line(line, &[0xff; 64]);
    m.sys.invalidate_page(line.page());
    let err = g
        .neighbors(&mut m, 0)
        .expect_err("corruption must be detected");
    println!("detected: {err}");
    m.recover(line.page())?;
    let depth_after = g.bfs_depth(&mut m, 0, 500)?;
    assert_eq!(depth, depth_after);
    println!("graph intact after recovery (depth {depth_after:?}).");
    Ok(())
}
