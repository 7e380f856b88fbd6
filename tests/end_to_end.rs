//! Cross-crate integration tests: the full stack (machine → DAX fs →
//! transactions → applications → controller → recovery) working together.

use apps::redis::Redis;
use tvarak::scrub::ScrubGranularity;
use tvarak_repro::prelude::*;

fn tvarak_machine(pages: u64) -> Machine {
    Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(pages)
        .build()
}

#[test]
fn quickstart_docs_flow() {
    let mut machine = Machine::builder()
        .small()
        .cores(2)
        .nvm_dimms(4)
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let file = machine.create_dax_file("quick", 64 * 1024).unwrap();
    file.write(&mut machine.sys, 0, 0, b"hello tvarak").unwrap();
    let mut buf = [0u8; 12];
    file.read(&mut machine.sys, 0, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"hello tvarak");
    machine.flush();
    machine.verify_all(&file).unwrap();
}

#[test]
fn redis_survives_lost_write_with_recovery() {
    let mut m = tvarak_machine(1024);
    let mut txm = m.tx_manager(64 * 1024).unwrap();
    let mut redis = Redis::create(&mut m, 0, 512 * 1024, 64).unwrap();
    for k in 0..100u64 {
        redis.set(&mut m, &mut txm, k, &k.to_le_bytes()).unwrap();
    }
    m.flush();
    let file = *redis.file();
    for k in 0..100u64 {
        redis
            .set(&mut m, &mut txm, k, &(k + 1).to_le_bytes())
            .unwrap();
    }
    m.flush();
    // Silently corrupt the store's header line on the media (read by every
    // request), as a misbehaving firmware would.
    let header = file.addr(0).line();
    let mut bytes = m.sys.memory().peek_line(header);
    bytes[0] ^= 0xff;
    m.sys.memory_mut().poke_line(header, &bytes);
    // Drop caches so reads hit the (possibly corrupt) media.
    for p in 0..file.pages() {
        m.sys.invalidate_page(file.page(p));
    }
    // Reads either succeed or detect corruption; recovery must restore.
    let mut out = Vec::new();
    for k in 0..100u64 {
        match redis.get(&mut m, &mut txm, k, &mut out) {
            Ok(found) => {
                assert!(found, "key {k}");
                assert_eq!(out, (k + 1).to_le_bytes());
            }
            Err(apps::driver::AppError::Corruption(c)) => {
                m.recover(c.line.page()).unwrap();
                assert!(redis.get(&mut m, &mut txm, k, &mut out).unwrap());
                assert_eq!(out, (k + 1).to_le_bytes(), "key {k} after recovery");
            }
            Err(apps::driver::AppError::Tx(pmemfs::tx::TxError::Corruption(c))) => {
                m.recover(c.line.page()).unwrap();
                assert!(redis.get(&mut m, &mut txm, k, &mut out).unwrap());
                assert_eq!(out, (k + 1).to_le_bytes(), "key {k} after recovery");
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(m.stats().counters.corruptions_detected > 0);
}

#[test]
fn misdirected_read_detected_once() {
    let mut m = tvarak_machine(256);
    let file = m.create_dax_file("f", 16 * 1024).unwrap();
    file.write(&mut m.sys, 0, 0, &[1u8; 64]).unwrap();
    file.write(&mut m.sys, 0, 4096, &[2u8; 64]).unwrap();
    m.flush();
    m.sys.invalidate_page(file.page(0));
    let actual = file.addr(4096).line();
    m.sys.memory_mut().arm_fault(
        file.addr(0).line(),
        FirmwareFault::MisdirectedRead { actual },
    );
    let mut buf = [0u8; 64];
    let err = file.read(&mut m.sys, 0, 0, &mut buf).unwrap_err();
    assert_eq!(err.line, file.addr(0).line());
    // The fault was one-shot; a retry (fresh read) sees correct data.
    m.sys.invalidate_page(file.page(0));
    file.read(&mut m.sys, 0, 0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 64]);
}

#[test]
fn baseline_misses_what_tvarak_catches() {
    // The same fault sequence: Baseline silently returns wrong data,
    // TVARAK detects it — the paper's core claim.
    let run = |design: Design| -> (bool, [u8; 9]) {
        let mut m = Machine::builder()
            .small()
            .design(design)
            .data_pages(128)
            .build();
        let file = m.create_dax_file("f", 8192).unwrap();
        file.write(&mut m.sys, 0, 0, b"original!").unwrap();
        m.flush();
        m.sys
            .memory_mut()
            .arm_fault(file.addr(0).line(), FirmwareFault::LostWrite);
        file.write(&mut m.sys, 0, 0, b"updated!!").unwrap();
        m.flush();
        m.sys.invalidate_page(file.page(0));
        let mut buf = [0u8; 9];
        let detected = file.read(&mut m.sys, 0, 0, &mut buf).is_err();
        (detected, buf)
    };
    let (detected, data) = run(Design::Baseline);
    assert!(!detected, "baseline has no checksums");
    assert_eq!(&data, b"original!", "baseline consumes stale data silently");
    let (detected, _) = run(Design::Tvarak);
    assert!(detected, "tvarak detects the lost write");
}

#[test]
fn unmap_remap_preserves_protection() {
    let mut m = tvarak_machine(256);
    let file = m.fs.create(&mut m.sys, 16 * 1024).unwrap();
    m.fs.dax_map(&mut m.sys, &file);
    file.write(&mut m.sys, 0, 100, b"mapped-write").unwrap();
    m.flush();
    m.fs.dax_unmap(&mut m.sys, &file);
    // Page checksums now cover the data, and parity still agrees.
    assert!(m.fs.audit(&m.sys, &file, ScrubGranularity::Page).is_empty());
    // Remap: CL checksums regenerated; verification active again.
    m.fs.dax_map(&mut m.sys, &file);
    m.sys
        .memory_mut()
        .poke_line(file.addr(0).line(), &[9u8; 64]);
    m.sys.invalidate_page(file.page(0));
    let mut buf = [0u8; 4];
    assert!(file.read(&mut m.sys, 0, 0, &mut buf).is_err());
}

#[test]
fn multi_file_recovery_is_isolated() {
    let mut m = tvarak_machine(512);
    let a = m.create_dax_file("a", 16 * 1024).unwrap();
    let b = m.create_dax_file("b", 16 * 1024).unwrap();
    a.write(&mut m.sys, 0, 0, &[0xaa; 128]).unwrap();
    b.write(&mut m.sys, 0, 0, &[0xbb; 128]).unwrap();
    m.flush();
    // Corrupt one line of `a` on media.
    m.sys.memory_mut().poke_line(a.addr(64).line(), &[0; 64]);
    m.sys.invalidate_page(a.page(0));
    let mut buf = [0u8; 64];
    assert!(a.read(&mut m.sys, 0, 64, &mut buf).is_err());
    m.recover(a.page(0)).unwrap();
    a.read(&mut m.sys, 0, 64, &mut buf).unwrap();
    assert_eq!(buf, [0xaa; 64]);
    // `b` was untouched throughout.
    b.read(&mut m.sys, 0, 0, &mut buf).unwrap();
    assert_eq!(buf, [0xbb; 64]);
    m.verify_all(&a).unwrap();
    m.verify_all(&b).unwrap();
}
