//! Extension experiment: the standard YCSB core workloads (A, B, C, E, F)
//! on N-Store with a secondary B+tree index, under Baseline and TVARAK.
//!
//! Extends the paper's three YCSB mixes with scan-heavy (E, exercising the
//! ordered index) and read-modify-write (F) behaviour, checking that
//! TVARAK's overhead stays low across the full spectrum of operation mixes.

use apps::driver::{AppError, Design, Machine};
use apps::nstore::NStore;
use apps::ycsb::{Op, StandardMix, StandardWorkload};
use bench::campaign::{figure, grid, Campaign};
use bench::workloads::{finish, machine, Scale};

fn run(
    design: Design,
    wl: StandardWorkload,
    scale: &Scale,
) -> Result<bench::Outcome, AppError> {
    let tuples = (scale.nstore_tuples / 4).clamp(1024, 1 << 20);
    let txs = scale.nstore_txs / 2;
    let wal_bytes = (tuples + txs) * 160 + (1 << 20);
    // Index heap: ~37 B/key at worst-case B+tree fill, plus split churn
    // from the measured updates (the bump allocator does not reclaim).
    let index_bytes = tuples * 120 + txs * 128 + (1 << 20);
    let data_pages = tuples * 64 / 4096 + wal_bytes / 4096 + index_bytes / 4096 + 2000;
    let mut m: Machine = machine(design, data_pages);
    let mut txm = m.tx_manager(256 * 1024)?;
    let mut store = NStore::create(&mut m, tuples, wal_bytes)?;
    store.with_index_sized(&mut m, index_bytes)?;
    // Preload so scans and reads hit populated tuples (setup, unmeasured).
    for t in 0..tuples {
        let mut payload = [0u8; 64];
        payload[..8].copy_from_slice(&t.wrapping_mul(0x9e37).to_le_bytes());
        store.update(&mut m, &mut txm, 0, t, &payload)?;
    }
    m.flush();
    m.reset_stats();
    let clients = scale.nstore_clients;
    let mut mixes: Vec<StandardMix> = (0..clients)
        .map(|i| StandardMix::new(tuples, wl, 16, 0xdead + i as u64))
        .collect();
    let per_client = txs / clients as u64;
    apps::driver::run_clocked(&mut m, clients, per_client, |m, c, op| {
        match mixes[c].next_op() {
            Op::Update(k) => {
                let mut payload = [0u8; 64];
                payload[..8].copy_from_slice(&(op ^ k).to_le_bytes());
                store.update(m, &mut txm, c, k, &payload)?;
            }
            Op::Read(k) => {
                store.read(m, c, k)?;
            }
            Op::Scan(k, len) => {
                let lo = k.wrapping_mul(0x9e37) & ((1 << 44) - 1);
                let hits = store.scan_field(m, lo, lo.saturating_add(len * 1000))?;
                std::hint::black_box(hits);
            }
            Op::ReadModifyWrite(k) => {
                let mut payload = store.read(m, c, k)?;
                payload[8] = payload[8].wrapping_add(1);
                store.update(m, &mut txm, c, k, &payload)?;
            }
        }
        Ok(())
    })?;
    m.flush();
    Ok(finish(&m))
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<()> {
    Campaign::new("ycsb_suite", |cfg, jobs| {
        let mixes = [
            StandardWorkload::A,
            StandardWorkload::B,
            StandardWorkload::C,
            StandardWorkload::E,
            StandardWorkload::F,
        ]
        .map(|wl| (wl.label().to_string(), wl));
        // The measured phase runs on the sequential scheduler: `--threads`
        // has nothing to parallelize here.
        let designs = [Design::Baseline, Design::Tvarak];
        let cells = grid(cfg, mixes, &designs, |d, wl, s, _| run(d, wl, s));
        let title = "Extension — YCSB core workloads on indexed N-Store";
        figure(title, "ycsb_suite", false, cells, jobs)
    })
}

fn main() {
    campaign().main()
}
