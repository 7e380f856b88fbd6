//! Firmware-bug injection and recovery: the paper's Fig. 1 and Fig. 2
//! scenarios, end to end.
//!
//! A *lost write* (the device acks a write and drops it) and a *misdirected
//! write* (the device stores data at the wrong media location) are invisible
//! to device-level ECC. TVARAK's system-checksums detect them at the first
//! read, and the file system reconstructs the page from cross-DIMM parity.
//!
//! ```sh
//! cargo run --release --example fault_injection_recovery
//! ```

use tvarak_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let file = machine.create_dax_file("victim", 32 * 1024)?;

    // ---- Scenario 1: lost write (Fig. 1) ----
    println!("== lost write ==");
    file.write(&mut machine.sys, 0, 0, b"version-1")?;
    machine.flush();
    machine
        .sys
        .memory_mut()
        .arm_fault(file.addr(0).line(), FirmwareFault::LostWrite);
    file.write(&mut machine.sys, 0, 0, b"version-2")?;
    machine.flush(); // the device acks ... and drops the write
    machine.sys.invalidate_page(file.page(0)); // force a re-read from media

    let mut buf = [0u8; 9];
    match file.read(&mut machine.sys, 0, 0, &mut buf) {
        Err(err) => println!("detected: {err}"),
        Ok(()) => panic!("lost write went undetected!"),
    }
    machine.recover(file.page(0))?;
    file.read(&mut machine.sys, 0, 0, &mut buf)?;
    assert_eq!(&buf, b"version-2");
    println!("recovered from parity: {:?}", std::str::from_utf8(&buf)?);

    // ---- Scenario 2: misdirected write (Fig. 2) ----
    println!("== misdirected write ==");
    // Choose a victim in a different stripe so single parity can repair
    // both the stale intended location and the clobbered victim.
    let intended = 0u64;
    let victim = 3 * 4096;
    file.write(&mut machine.sys, 0, victim, b"innocent!")?;
    machine.flush();
    let actual = file.addr(victim).line();
    machine.sys.memory_mut().arm_fault(
        file.addr(intended).line(),
        FirmwareFault::MisdirectedWrite { actual },
    );
    file.write(&mut machine.sys, 0, intended, b"version-3")?;
    machine.flush();
    machine.sys.invalidate_page(file.page(0));
    machine.sys.invalidate_page(file.page(victim / 4096));

    // Reading the clobbered victim location trips verification.
    let mut vbuf = [0u8; 9];
    match file.read(&mut machine.sys, 0, victim, &mut vbuf) {
        Err(err) => println!("victim corruption detected: {err}"),
        Ok(()) => panic!("misdirected write went undetected!"),
    }
    machine.recover(file.page(victim / 4096))?;
    machine.recover(file.page(0))?; // the intended location kept stale data
    file.read(&mut machine.sys, 0, victim, &mut vbuf)?;
    assert_eq!(&vbuf, b"innocent!");
    file.read(&mut machine.sys, 0, intended, &mut buf)?;
    assert_eq!(&buf, b"version-3");
    println!("both locations restored.");

    let c = machine.stats().counters;
    println!(
        "summary: {} corruptions detected, {} pages recovered",
        c.corruptions_detected, c.pages_recovered
    );
    Ok(())
}
