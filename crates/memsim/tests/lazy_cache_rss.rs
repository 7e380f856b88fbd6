//! Building a machine writes none of its cache state.
//!
//! Every `CacheArray` column is a zeroed allocation and an empty slot is
//! all-zero, so the default machine's ~33 MiB of tags, LRU stamps, flags,
//! payloads and directory state stay untouched until a set is first used.
//! This file holds one test so that it runs alone in its own process: the
//! resident set it measures belongs to nothing else.

use memsim::config::SystemConfig;
use memsim::engine::{NullHooks, System};

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
fn building_the_default_machine_touches_no_cache_state() {
    let before = vm_rss_kib();
    let sys = System::new(SystemConfig::default(), Box::new(NullHooks));
    let grown = vm_rss_kib().saturating_sub(before);
    std::hint::black_box(&sys);
    assert!(
        grown < 8 * 1024,
        "building the default machine grew RSS by {grown} KiB; an eager cache fill would be ~33 MiB"
    );
}
