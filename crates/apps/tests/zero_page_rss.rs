//! Creating DAX files stores no bytes for their zero pages.
//!
//! A page only ever written with zeros holds no bytes in the page store, so
//! creating and mapping the fio cells' twelve 8 MiB regions materializes
//! only the checksum tables (the DAX-CL-checksums of a zero line are not
//! zero), about 6 MiB, instead of 96 MiB of zero data and 32 MiB of zero
//! parity. This file holds one test so that it runs alone in its own
//! process: the resident set it measures belongs to nothing else.

use apps::driver::{Design, Machine};
use apps::fio::Fio;

/// The process's resident set size in KiB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn creating_the_fio_regions_stores_no_zero_pages() {
    const INSTANCES: usize = 12;
    const REGION: u64 = 8 << 20;
    let pages = REGION / 4096 * INSTANCES as u64 + 1024;
    let mut m = Machine::builder()
        .design(Design::Tvarak)
        .data_pages(pages)
        .build();
    let before = vm_rss_kib();
    let fio = Fio::create(&mut m, INSTANCES, REGION).expect("the regions fit");
    let grown = vm_rss_kib().saturating_sub(before);
    std::hint::black_box((&m, &fio));
    assert!(
        grown < 32 * 1024,
        "creating 12 x 8 MiB fio regions grew RSS by {grown} KiB; storing their zero pages would be ~140 MiB"
    );
}
