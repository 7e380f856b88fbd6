//! Quickstart: build a TVARAK-protected machine, write and read DAX data,
//! and inspect what the redundancy controller did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tvarak_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-core machine with 4 NVM DIMMs and the full TVARAK controller.
    let mut machine = Machine::builder()
        .small()
        .cores(2)
        .nvm_dimms(4)
        .design(Design::Tvarak)
        .data_pages(256)
        .build();

    // Create and DAX-map a persistent file.
    let file = machine.create_dax_file("quickstart", 64 * 1024)?;
    println!(
        "created a {} KB DAX file backed by {} NVM pages",
        file.len() / 1024,
        file.pages()
    );

    // Stores go through L1/L2/LLC; TVARAK updates checksums + parity on
    // every LLC->NVM writeback.
    file.write(&mut machine.sys, 0, 0, b"hello tvarak")?;
    for i in 0..512u64 {
        file.write_u64(&mut machine.sys, (i % 2) as usize, 64 + i * 8, i * i)?;
    }

    // Loads are verified against DAX-CL-checksums on every NVM->LLC fill.
    let mut buf = [0u8; 12];
    file.read(&mut machine.sys, 0, 0, &mut buf)?;
    assert_eq!(&buf, b"hello tvarak");

    machine.flush();
    machine
        .verify_all(&file)
        .expect("checksums and parity consistent");

    let stats = machine.stats();
    let c = stats.counters;
    println!("runtime: {} cycles", stats.runtime_cycles());
    println!(
        "NVM accesses: {} data, {} redundancy (checksums + parity)",
        c.nvm_data(),
        c.nvm_redundancy()
    );
    println!(
        "reads verified: {}, corruptions: {}",
        c.reads_verified, c.corruptions_detected
    );
    println!("media-level redundancy invariants verified — done.");
    Ok(())
}
