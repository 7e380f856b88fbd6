//! Tests of the whole walk and of the engine–hook contract; each layer's own
//! tests sit in its module.

use super::*;
use crate::addr::NVM_BASE;
use std::any::Any;

pub(super) fn sys() -> System {
    System::new(SystemConfig::small(), Box::new(NullHooks))
}

pub(super) fn nvm(off: u64) -> PhysAddr {
    PhysAddr(NVM_BASE + off)
}

#[test]
fn write_read_roundtrip_through_hierarchy() {
    let mut s = sys();
    s.write(0, nvm(100), b"hello").unwrap();
    let mut buf = [0u8; 5];
    s.read(0, nvm(100), &mut buf).unwrap();
    assert_eq!(&buf, b"hello");
    // Data is still only in caches, not memory.
    assert_eq!(s.memory().peek_line(nvm(100).line())[36..41], [0u8; 5]);
    s.flush();
    let line = s.memory().peek_line(nvm(100).line());
    assert_eq!(&line[36..41], b"hello");
}

#[test]
fn cross_line_access() {
    let mut s = sys();
    let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
    s.write(0, nvm(30), &data).unwrap();
    let mut buf = vec![0u8; 200];
    s.read(0, nvm(30), &mut buf).unwrap();
    assert_eq!(buf, data);
}

#[test]
fn l1_hit_on_rereference() {
    let mut s = sys();
    s.write(0, nvm(0), &[1u8; 8]).unwrap();
    let before = s.stats().counters;
    let mut buf = [0u8; 8];
    s.read(0, nvm(0), &mut buf).unwrap();
    let after = s.stats().counters;
    assert_eq!(after.l1d_hits - before.l1d_hits, 1);
    assert_eq!(after.l1d_misses, before.l1d_misses);
}

#[test]
fn nvm_reads_counted_and_timed() {
    let mut s = sys();
    let mut buf = [0u8; 1];
    let t0 = s.clock(0);
    s.read(0, nvm(1 << 20), &mut buf).unwrap();
    assert_eq!(s.stats().counters.nvm_data_reads, 1);
    // Walk latency: L1 (4) + L2 (7) + LLC (27) + NVM (136) = 174.
    assert!(s.clock(0) - t0 >= 136);
}

#[test]
fn dram_access_hits_dram_counters() {
    let mut s = sys();
    let mut buf = [0u8; 4];
    s.read(0, PhysAddr(12345), &mut buf).unwrap();
    assert_eq!(s.stats().counters.dram_accesses, 1);
    assert_eq!(s.stats().counters.nvm_data_reads, 0);
}

#[test]
fn capacity_eviction_writes_back_to_nvm() {
    let mut s = sys();
    // Write far more lines than the small hierarchy holds.
    let total_lines = 8 * 1024; // 512 KB worth of lines
    for i in 0..total_lines {
        s.write(0, nvm(i * 64), &[i as u8; 8]).unwrap();
    }
    let c = s.stats().counters;
    assert!(c.nvm_data_writes > 0, "evictions must reach NVM");
    s.flush();
    // All data must be durable and correct after the flush.
    for i in 0..total_lines {
        let line = nvm(i * 64).line();
        assert_eq!(s.memory().peek_line(line)[0], i as u8, "line {i}");
    }
}

#[test]
fn barrier_aligns_clocks() {
    let mut s = sys();
    s.compute(0, 100);
    s.compute(1, 5);
    s.barrier();
    assert_eq!(s.clock(0), s.clock(1));
    assert_eq!(s.clock(0), 100);
}

#[test]
fn instr_counts_l1i() {
    let mut s = sys();
    s.instr(0, 42);
    assert_eq!(s.stats().counters.l1i_accesses, 42);
    assert_eq!(s.clock(0), 42);
}

/// A hook that records events, for engine-hook contract tests.
#[derive(Default)]
pub(super) struct RecordingHooks {
    pub(super) fills: Vec<LineAddr>,
    pub(super) writebacks: Vec<LineAddr>,
    pub(super) dirties: Vec<LineAddr>,
    flushed: bool,
}

impl RedundancyHooks for RecordingHooks {
    fn on_nvm_fill(
        &mut self,
        _core: usize,
        line: LineAddr,
        _data: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) -> Result<(), CorruptionDetected> {
        self.fills.push(line);
        Ok(())
    }
    fn on_nvm_writeback(
        &mut self,
        _core: usize,
        line: LineAddr,
        _new: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) {
        self.writebacks.push(line);
    }
    fn on_llc_clean_to_dirty(
        &mut self,
        _core: usize,
        line: LineAddr,
        _old: &[u8; CACHE_LINE],
        _env: &mut HookEnv<'_>,
    ) {
        self.dirties.push(line);
    }
    fn flush(&mut self, _env: &mut HookEnv<'_>) {
        self.flushed = true;
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn name(&self) -> &'static str {
        "recording"
    }
}

#[test]
fn hooks_fire_on_fill_and_writeback() {
    let mut s = System::new(SystemConfig::small(), Box::new(RecordingHooks::default()));
    let line = nvm(0).line();
    s.write(0, nvm(0), &[1u8; 8]).unwrap();
    s.flush();
    let hooks = s
        .hooks_mut()
        .as_any_mut()
        .downcast_mut::<RecordingHooks>()
        .unwrap();
    assert_eq!(hooks.fills, vec![line], "write-allocate fill verified");
    assert_eq!(hooks.writebacks, vec![line], "flush wrote the line back");
    assert!(hooks.flushed);
}

#[test]
fn reset_stats_clears_everything() {
    let mut s = sys();
    let mut buf = [0u8; 8];
    s.read(0, nvm(0), &mut buf).unwrap();
    s.reset_stats();
    let st = s.stats();
    assert_eq!(st.runtime_cycles(), 0);
    assert_eq!(st.counters.nvm_data_reads, 0);
}

#[test]
fn corruption_error_propagates() {
    struct FailingHooks;
    impl RedundancyHooks for FailingHooks {
        fn on_nvm_fill(
            &mut self,
            _core: usize,
            line: LineAddr,
            _data: &[u8; CACHE_LINE],
            _env: &mut HookEnv<'_>,
        ) -> Result<(), CorruptionDetected> {
            Err(CorruptionDetected { line })
        }
        fn on_nvm_writeback(
            &mut self,
            _c: usize,
            _l: LineAddr,
            _d: &[u8; CACHE_LINE],
            _e: &mut HookEnv<'_>,
        ) {
        }
        fn on_llc_clean_to_dirty(
            &mut self,
            _c: usize,
            _l: LineAddr,
            _d: &[u8; CACHE_LINE],
            _e: &mut HookEnv<'_>,
        ) {
        }
        fn flush(&mut self, _e: &mut HookEnv<'_>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn name(&self) -> &'static str {
            "failing"
        }
    }
    let mut s = System::new(SystemConfig::small(), Box::new(FailingHooks));
    let mut buf = [0u8; 4];
    let err = s.read(0, nvm(0), &mut buf).unwrap_err();
    assert_eq!(err.line, nvm(0).line());
}

#[test]
fn lost_line_read_is_signalled_without_hooks_until_a_write_lands() {
    let mut s = System::new(SystemConfig::small(), Box::new(RecordingHooks::default()));
    s.write(0, nvm(0), &[7u8; 64]).unwrap();
    s.flush();
    s.memory_mut().fail_bank(0);
    let line = nvm(0).line();
    assert_eq!(s.memory().peek_line(line), crate::mem::poison_line(line));
    assert!(
        !s.memory().is_lost(nvm(4 << 12).line()),
        "never written: zeros on the spare"
    );
    let mut buf = [0u8; 8];
    assert_eq!(
        s.read(0, nvm(0), &mut buf),
        Err(CorruptionDetected { line })
    );
    let fill = s.write(0, nvm(8), &[1u8; 8]);
    assert_eq!(
        fill,
        Err(CorruptionDetected { line }),
        "the write-allocate fill"
    );
    let hooks = s.hooks_mut().as_any_mut().downcast_mut::<RecordingHooks>();
    assert_eq!(hooks.unwrap().fills, vec![line], "no hook saw a lost line");
    s.memory_mut().write_line(line, &[9u8; 64]);
    s.read(0, nvm(0), &mut buf).unwrap();
    assert_eq!(buf, [9u8; 8]);
    assert!(
        s.read(0, nvm(64), &mut buf).is_err(),
        "the rest of the page stays lost"
    );
}
