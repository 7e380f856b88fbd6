//! End-to-end tests of the detection → recovery → degradation pipeline:
//! applications keep running through device faults, unrecoverable pages are
//! quarantined without taking the rest of the file down, and degraded mode
//! fails closed.

use apps::btree::BTree;
use apps::driver::{AppError, Design, Machine};
use apps::kv::PersistentKv;
use memsim::addr::PAGE;
use memsim::FirmwareFault;
use pmemfs::recover::RecoveryEvent;
use tvarak::scrub::{SCRUB_INTERVAL, SCRUB_PAGES};

fn machine(design: Design) -> Machine {
    Machine::builder()
        .small()
        .design(design)
        .data_pages(256)
        .build()
}

/// A lost write mid-workload is detected at the next read, recovered from
/// parity automatically, and the application completes with correct state.
#[test]
fn btree_completes_through_mid_run_lost_write() {
    let mut m = machine(Design::Tvarak);
    m.enable_recovery().unwrap();
    let mut txm = m.tx_manager(64 * 1024).unwrap();
    let mut t = BTree::create(&mut m, 0, 256 * 1024).unwrap();
    for k in 0..12u64 {
        t.insert(&mut m, &mut txm, k, k * 10).unwrap();
    }
    m.flush();
    // Locate the root leaf's slot line (slots live at node offset 128..248;
    // an overwrite changes it) and arm a one-shot lost write on it.
    let f = *t.file();
    let root_off = f.read_u64(&mut m.sys, 0, 0).unwrap();
    let victim = f.addr(root_off + 128).line();
    m.sys
        .memory_mut()
        .arm_fault(victim, FirmwareFault::LostWrite);
    // The overwrite's writeback is dropped: redundancy reflects the new
    // value, the media keeps the old one.
    t.insert(&mut m, &mut txm, 3, 999).unwrap();
    m.flush();
    m.sys.invalidate_page(victim.page());
    // Reads transparently recover; every key is correct.
    let got = m.with_recovery(|m| t.get(m, 3)).unwrap();
    assert_eq!(got, Some(999), "read returns the acknowledged value");
    for k in 0..12u64 {
        let expect = if k == 3 { 999 } else { k * 10 };
        assert_eq!(m.with_recovery(|m| t.get(m, k)).unwrap(), Some(expect));
    }
    let orch = m.orchestrator().unwrap();
    assert!(orch.recoveries() >= 1, "recovery actually ran");
    assert_eq!(orch.quarantines(), 0);
    assert!(matches!(orch.events()[0], RecoveryEvent::Detected { .. }));
    // Redundancy is consistent again end to end.
    m.flush();
    m.verify_all(&f).unwrap();
}

/// A same-stripe double fault (data + parity) is unrecoverable: exactly that
/// page is quarantined, degraded-mode accesses to it fail closed, and the
/// rest of the file keeps serving reads and writes.
#[test]
fn double_fault_quarantines_one_page_rest_serves() {
    let mut m = machine(Design::Tvarak);
    m.enable_recovery().unwrap();
    let f = m.create_dax_file("victim", 4 * PAGE as u64).unwrap();
    for n in 0..4u64 {
        m.write_file(&f, 0, n * PAGE as u64, &[n as u8 + 1; 64])
            .unwrap();
    }
    m.flush();
    // Corrupt a data line of page 0 *and* its parity line: reconstruction
    // cannot verify, so recovery must fail.
    let line = f.addr(0).line();
    let parity = m.fs.layout().parity_line_of(line);
    m.sys.memory_mut().poke_line(line, &[0xde; 64]);
    m.sys.memory_mut().poke_line(parity, &[0xad; 64]);
    m.sys.invalidate_page(line.page());
    let mut buf = [0u8; 64];
    let err = m.read_file(&f, 0, 0, &mut buf).unwrap_err();
    let AppError::Poisoned(p) = err else {
        panic!("expected Poisoned, got {err}");
    };
    assert_eq!(p.page, f.page(0));
    let orch = m.orchestrator().unwrap();
    assert_eq!(orch.poisoned_pages(), &[f.page(0)], "exactly one page");
    assert!(orch
        .events()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::Quarantined { .. })));
    // Degraded mode fails closed — no made-up bytes, structured error.
    assert!(matches!(
        m.read_file(&f, 0, 10, &mut buf),
        Err(AppError::Poisoned(_))
    ));
    assert!(matches!(
        m.write_file(&f, 0, 0, &[9; 8]),
        Err(AppError::Poisoned(_))
    ));
    // The rest of the file keeps serving reads and writes.
    for n in 1..4u64 {
        m.read_file(&f, 0, n * PAGE as u64, &mut buf).unwrap();
        assert_eq!(buf, [n as u8 + 1; 64]);
        m.write_file(&f, 0, n * PAGE as u64 + 64, &[0x77; 64])
            .unwrap();
    }
    // A verified full-page rewrite clears the poison and rebuilds
    // redundancy; the page serves again.
    let fresh = vec![0x42u8; PAGE];
    m.rewrite_page(&f, 0, &fresh).unwrap();
    assert!(m.orchestrator().unwrap().poisoned_pages().is_empty());
    m.read_file(&f, 0, 0, &mut buf).unwrap();
    assert_eq!(buf, [0x42u8; 64]);
    m.flush();
    m.verify_all(&f).unwrap();
}

/// Software designs have no inline verification; the interleaved scrub
/// daemon bounds detection latency and routes findings into the same
/// recovery pipeline.
#[test]
fn scrub_daemon_detects_and_recovers_under_software_design() {
    let mut m = machine(Design::TxbPage);
    m.enable_recovery().unwrap();
    let mut txm = m.tx_manager(64 * 1024).unwrap();
    let f = m.create_dax_file("data", 8 * PAGE as u64).unwrap();
    for n in 0..8u64 {
        let mut tx = txm.begin(&mut m.sys, 0).unwrap();
        tx.write(&mut m.sys, &f, n * PAGE as u64, &[n as u8 + 1; 64])
            .unwrap();
        tx.commit(&mut m.sys).unwrap();
    }
    m.flush();
    // SCRUB_PAGES pages every SCRUB_INTERVAL ops: a full pass every
    // 8 / SCRUB_PAGES * SCRUB_INTERVAL ops.
    m.enable_scrub_daemon(&f);
    // Silent media corruption — no read of page 5 will ever demand-miss it,
    // so only the scrub daemon can find it.
    let victim = f.addr(5 * PAGE as u64).line();
    m.sys.memory_mut().poke_line(victim, &[0xbb; 64]);
    m.sys.invalidate_page(victim.page());
    let before = m.orchestrator().unwrap().detections();
    // Application keeps touching page 0 only; the daemon sweeps the rest.
    let ops = 2 * f.pages() / SCRUB_PAGES * SCRUB_INTERVAL;
    apps::driver::run_clocked(&mut m, 1, ops, |m, _inst, op| {
        let mut tx = txm.begin(&mut m.sys, 0)?;
        tx.write_u64(&mut m.sys, &f, 8 * (op % 8), op)?;
        tx.commit(&mut m.sys)?;
        Ok(())
    })
    .unwrap();
    m.flush();
    let orch = m.orchestrator().unwrap();
    assert!(
        orch.detections() > before,
        "scrub found the corruption within {ops} ops (bounded latency)"
    );
    assert!(
        orch.recoveries() >= 1,
        "software recovery repaired the page"
    );
    assert_eq!(orch.quarantines(), 0);
    // The repaired page serves the original data.
    let mut buf = [0u8; 64];
    m.read_file(&f, 0, 5 * PAGE as u64, &mut buf).unwrap();
    assert_eq!(buf, [6u8; 64]);
    m.flush();
    m.verify_all(&f).unwrap();
}

/// A sticky device fault (every repair write dropped) cannot be recovered:
/// the daemon quarantines the page and keeps scrubbing the rest of the
/// file instead of wedging on it.
#[test]
fn scrub_daemon_skips_quarantined_page() {
    let mut m = machine(Design::Tvarak);
    m.enable_recovery().unwrap();
    let f = m.create_dax_file("data", 4 * PAGE as u64).unwrap();
    for n in 0..4u64 {
        m.write_file(&f, 0, n * PAGE as u64, &[n as u8 + 1; 64])
            .unwrap();
    }
    m.flush();
    m.enable_scrub_daemon(&f);
    let victim = f.addr(PAGE as u64).line();
    m.sys.memory_mut().poke_line(victim, &[0xcc; 64]);
    m.sys
        .memory_mut()
        .arm_fault(victim, FirmwareFault::StickyLostWrite);
    m.sys.invalidate_page(victim.page());
    // Enough ticks for detection, bounded retries, quarantine, and at least
    // one further full pass over the remaining pages.
    for _ in 0..32 / SCRUB_PAGES * SCRUB_INTERVAL {
        m.tick_maintenance(0).unwrap();
    }
    let orch = m.orchestrator().unwrap();
    assert_eq!(orch.poisoned_pages(), &[f.page(1)]);
    let checked = m.scrub_daemon().unwrap().pages_checked();
    assert!(
        checked >= 16,
        "daemon kept covering the file after quarantine (checked {checked})"
    );
    // Poison survives a restart of the orchestrator.
    let store = *m.orchestrator().unwrap().store();
    let reloaded = pmemfs::recover::RecoveryOrchestrator::reload(
        &m.fs,
        &m.sys,
        store,
        tvarak::scrub::ScrubGranularity::CacheLine,
    );
    assert_eq!(reloaded.poisoned_pages(), &[f.page(1)]);
}

/// Software designs recover through the same entry as the controller: the
/// redundancy lines come from NVM instead of the controller's caches.
#[test]
fn recover_under_software_design_restores_the_page() {
    let mut m = machine(Design::TxbPage);
    let mut txm = m.tx_manager(64 * 1024).unwrap();
    let f = m.create_dax_file("data", 4 * PAGE as u64).unwrap();
    for n in 0..4u64 {
        let mut tx = txm.begin(&mut m.sys, 0).unwrap();
        tx.write(&mut m.sys, &f, n * PAGE as u64, &[n as u8 + 1; 64])
            .unwrap();
        tx.commit(&mut m.sys).unwrap();
    }
    m.flush();
    let victim = f.addr(2 * PAGE as u64).line();
    m.sys.memory_mut().poke_line(victim, &[0xee; 64]);
    assert!(
        m.verify_all(&f).is_err(),
        "the poke is visible on the media"
    );
    m.recover(victim.page()).unwrap();
    m.verify_all(&f).unwrap();
    let mut buf = [0u8; 64];
    m.read_file(&f, 0, 2 * PAGE as u64, &mut buf).unwrap();
    assert_eq!(buf, [3u8; 64], "the read returns the original bytes");
}

/// Baseline maintains no redundancy: asking it to recover is a misuse,
/// like enabling the recovery pipeline on it.
#[test]
#[should_panic(expected = "Baseline maintains no redundancy")]
fn recover_under_baseline_panics() {
    let mut m = machine(Design::Baseline);
    let f = m.create_dax_file("data", PAGE as u64).unwrap();
    let _ = m.recover(f.page(0));
}
