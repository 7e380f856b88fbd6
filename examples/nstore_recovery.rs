//! N-Store WAL recovery: run a YCSB burst, simulate a crash that loses the
//! in-place tuple updates, and replay the write-ahead log to restore them —
//! then checkpoint to truncate the log.
//!
//! ```sh
//! cargo run --release --example nstore_recovery
//! ```

use apps::nstore::NStore;
use apps::ycsb::{Op, YcsbMix};
use tvarak_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Baseline design: this example exercises N-Store's own WAL recovery,
    // orthogonal to the hardware redundancy (whose checksums would flag the
    // clobbered tuple reads before the replay repaired them).
    let mut m = Machine::builder()
        .small()
        .design(Design::Baseline)
        .data_pages(2048)
        .build();
    let mut txm = m.tx_manager(128 * 1024)?;
    let mut store = NStore::create(&mut m, 1024, 1024 * 1024)?;

    // An update-heavy YCSB burst.
    let mut mix = YcsbMix::new(store.n_tuples(), 0.9, 42);
    let mut updates = 0u64;
    for i in 0..2000u64 {
        match mix.next_op() {
            Op::Update(k) => {
                let payload = [(i % 251) as u8; 64];
                store.update(&mut m, &mut txm, 0, k, &payload)?;
                updates += 1;
            }
            Op::Read(k) => {
                store.read(&mut m, 0, k)?;
            }
        }
    }
    m.flush();
    println!("{updates} update transactions committed and durable");

    // Crash simulation: the in-place tuple table is clobbered on media (as
    // if the tuple-region writes had been torn); the WAL survives.
    for p in 0..store.tuple_file().pages() {
        let page = store.tuple_file().page(p);
        for l in 0..memsim::LINES_PER_PAGE {
            m.sys.memory_mut().poke_line(page.line(l), &[0u8; 64]);
        }
        m.sys.invalidate_page(page);
    }
    println!("tuple table clobbered; replaying the WAL ...");
    let applied = store.recover_from_log(&mut m, 0)?;
    println!("{applied} log records re-applied");
    assert_eq!(applied, updates);

    // Spot-check: the newest acknowledged value of a hot tuple survives.
    let log = store.replay_log(&mut m, 0)?;
    let (hot_tuple, newest) = log.first().expect("log nonempty");
    assert_eq!(store.read(&mut m, 0, *hot_tuple)?, *newest);
    println!("tuple {hot_tuple} restored to its newest acknowledged value");

    // Checkpoint: tuples durable again => the WAL truncates and its arena
    // is reusable.
    m.flush();
    store.checkpoint(&mut m, &mut txm, 0)?;
    assert!(store.replay_log(&mut m, 0)?.is_empty());
    println!("checkpoint complete; WAL truncated");
    Ok(())
}
