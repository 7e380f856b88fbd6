//! A miniature version of the paper's headline experiment: a Redis set-only
//! workload under all four designs, printing the Fig. 8(a)-style runtime
//! comparison.
//!
//! ```sh
//! cargo run --release --example redis_comparison
//! ```

use apps::redis::Redis;
use apps::rng::Rng;
use tvarak_repro::prelude::*;

fn run(design: Design) -> Result<(u64, u64, u64), Box<dyn std::error::Error>> {
    let mut m = Machine::builder().design(design).data_pages(4096).build();
    let mut txm = m.tx_manager(128 * 1024)?;
    let mut redis = Redis::create(&mut m, 0, 4 * 1024 * 1024, 1024)?;
    m.reset_stats();
    let mut rng = Rng::new(7);
    let val = [0x5au8; 64];
    for _ in 0..20_000 {
        redis.set(&mut m, &mut txm, rng.below(10_000), &val)?;
    }
    m.flush();
    m.verify_all(redis.file())
        .map_err(|bad| format!("redundancy inconsistent on {} pages", bad.len()))?;
    let s = m.stats();
    Ok((
        s.runtime_cycles(),
        s.counters.nvm_data(),
        s.counters.nvm_redundancy(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Redis set-only, 20k requests, one instance (Table III machine)");
    println!(
        "{:<20} {:>14} {:>8} {:>10} {:>10}",
        "design", "cycles", "norm", "nvm-data", "nvm-red"
    );
    let mut base = None;
    for design in Design::fig8() {
        let (cycles, data, red) = run(design)?;
        let b = *base.get_or_insert(cycles);
        println!(
            "{:<20} {:>14} {:>8.3} {:>10} {:>10}",
            design.label(),
            cycles,
            cycles as f64 / b as f64,
            data,
            red
        );
    }
    Ok(())
}
