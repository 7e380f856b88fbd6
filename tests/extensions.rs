//! Integration tests for the extension features: raw access streams,
//! background scrubbing, Vilamb asynchronous redundancy, and file deletion —
//! working together with the core stack.

use tvarak::scrub::{ScrubGranularity, Scrubber};
use tvarak_repro::prelude::*;

/// The store pattern of access `index` in a raw stream: deterministic, and
/// different from one store to the next.
fn store_byte(index: u64) -> u8 {
    (index as u8).wrapping_mul(131).wrapping_add(7)
}

#[test]
fn trace_replay_is_design_independent_functionally() {
    // The same access stream issued under Baseline and TVARAK leaves
    // identical media content; TVARAK additionally leaves consistent
    // redundancy. The stream: core 0 writes 512 lines in order, then core 1
    // reads them back in a scrambled order.
    const LINES: u64 = 512;
    let scramble = 3u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut medias = Vec::new();
    for design in [Design::Baseline, Design::Tvarak] {
        let mut m = Machine::builder()
            .small()
            .design(design)
            .data_pages(512)
            .build();
        let f = m.create_dax_file("t", 256 * 1024).unwrap();
        let line_addr = |l: u64| memsim::PhysAddr(f.addr(0).0 + l * 64);
        let mut buf = [0u8; 64];
        for i in 0..LINES {
            m.sys.write(0, line_addr(i), &[store_byte(i); 64]).unwrap();
        }
        for i in 0..LINES {
            let line = i.wrapping_mul(scramble) % LINES;
            m.sys.read(1, line_addr(line), &mut buf).unwrap();
        }
        m.flush();
        if design == Design::Tvarak {
            m.verify_all(&f).unwrap();
        }
        let snapshot: Vec<[u8; 64]> = (0..LINES)
            .map(|l| m.sys.memory().peek_line(f.addr(l * 64).line()))
            .collect();
        medias.push(snapshot);
    }
    assert_eq!(medias[0], medias[1], "designs must not change data content");
}

#[test]
fn scrubber_detects_what_vilamb_misses_inside_epoch() {
    // Vilamb leaves a vulnerability window; a scrub pass closes it.
    let mut m = Machine::builder()
        .small()
        .design(Design::Vilamb { epoch_txs: 1000 })
        .data_pages(256)
        .build();
    let mut txm = m.tx_manager(64 * 1024).unwrap();
    let f = m.create_dax_file("v", 16 * 1024).unwrap();
    let mut tx = txm.begin(&mut m.sys, 0).unwrap();
    tx.write(&mut m.sys, &f, 0, &[7u8; 64]).unwrap();
    tx.commit(&mut m.sys).unwrap();
    m.flush();
    // Inside the epoch: checksums stale, so a scrub reports the (benign)
    // divergence — that *is* the window.
    let layout = *m.fs.layout();
    let mut scrubber = Scrubber::new(
        layout,
        ScrubGranularity::Page,
        f.first_data_index(),
        f.pages(),
    );
    let findings = scrubber.step(&mut m.sys, 0, f.pages()).unwrap();
    assert!(!findings.is_empty(), "epoch window visible to the scrubber");
    // Close the epoch: scrub comes back clean.
    txm.vilamb_flush(&mut m.sys, 0).unwrap();
    m.flush();
    let mut scrubber = Scrubber::new(
        layout,
        ScrubGranularity::Page,
        f.first_data_index(),
        f.pages(),
    );
    assert!(scrubber.step(&mut m.sys, 0, f.pages()).unwrap().is_empty());
}

#[test]
fn deleted_file_pages_reused_under_tvarak_stay_protected() {
    let mut m = Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let a = m.create_dax_file("a", 8 * 4096).unwrap();
    a.write(&mut m.sys, 0, 0, &[0xaau8; 4096]).unwrap();
    m.flush();
    m.fs.delete(&mut m.sys, a);
    // New file over the same extent: fresh protection, fresh content.
    let b = m.create_dax_file("b", 8 * 4096).unwrap();
    b.write(&mut m.sys, 0, 0, b"fresh").unwrap();
    m.flush();
    m.verify_all(&b).unwrap();
    // Corruption of the reused extent is detected under the new mapping.
    m.sys
        .memory_mut()
        .poke_line(b.addr(4096).line(), &[1u8; 64]);
    m.sys.invalidate_page(b.page(1));
    let mut buf = [0u8; 8];
    assert!(b.read(&mut m.sys, 0, 4096, &mut buf).is_err());
    m.recover(b.page(1)).unwrap();
    b.read(&mut m.sys, 0, 4096, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 8]);
}

#[test]
fn mixed_size_trace_accesses_roundtrip() {
    let mut m = Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let f = m.create_dax_file("t", 64 * 1024).unwrap();
    // 50 odd-sized, unaligned stores alternating between two cores.
    for i in 0..50u64 {
        let data = vec![store_byte(i); 1 + (i % 200) as usize];
        let addr = memsim::PhysAddr(f.addr(0).0 + i * 97);
        m.sys.write((i % 2) as usize, addr, &data).unwrap();
    }
    m.flush();
    m.verify_all(&f).unwrap();
}
