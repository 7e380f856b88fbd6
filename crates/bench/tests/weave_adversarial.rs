//! Adversarial access streams for the bound-weave engine: generators
//! crafted to stress the bound phase's fill prediction and the worker's
//! replay of the redundancy hooks —
//!
//! - **hook fan-out**: cache-line-granular TVARAK scatters every write's
//!   redundancy work (checksum + parity lines) across other LLC banks, so
//!   replay runs the full hook path behind nearly every event;
//! - **page-wide writebacks**: the page-granular ablation streams a whole
//!   page through the hooks on every NVM writeback, the most replay work a
//!   single event can carry;
//! - **single-bank storms**: all cores hammer one LLC bank, so evictions,
//!   directory updates and fill predictions all collide in one set range.
//!
//! Each generator must be bit-identical to its sequential oracle — same
//! `Stats`, same media hash — at two engine threads (the bound thread plus
//! the one replay worker; any count ≥ 2 runs the same engine), and must
//! actually run on the weave path (a silent sequential fallback would make
//! the differential vacuous).

use apps::driver::{AppError, Design, Machine, ThreadedRun};
use bench::workloads::machine;
use memsim::addr::PAGE;
use memsim::stats::Stats;
use tvarak::controller::TvarakConfig;

/// Engine threads of the woven run.
const THREADS: usize = 2;

/// Emitter cores driving the stream.
const CORES: usize = 4;
/// Lines each core owns (footprint ≫ the small hierarchy, so writebacks
/// flow continuously).
const LINES_PER_CORE: u64 = 2048;
/// Ops per core per run.
const OPS: u64 = 1200;

#[derive(Clone, Copy, Debug)]
enum Gen {
    /// Scattered writes under cl-granular TVARAK: redundancy hooks fan
    /// out across banks.
    FanOut,
    /// Pure write stream under the page-granular ablation: every
    /// writeback walks a whole page through the hooks.
    PageWide,
    /// Every core pinned to LLC bank 0 (under Baseline, no hook work).
    SingleBankStorm,
}

impl Gen {
    fn design(self) -> Design {
        match self {
            Gen::FanOut => Design::Tvarak,
            Gen::PageWide => Design::TvarakAblated(TvarakConfig::naive()),
            Gen::SingleBankStorm => Design::Baseline,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Gen::FanOut => "hook-fan-out",
            Gen::PageWide => "page-wide-writebacks",
            Gen::SingleBankStorm => "single-bank-storm",
        }
    }
}

fn pattern(l: u64, v: u64) -> [u8; 64] {
    let mut p = [0u8; 64];
    p[..8].copy_from_slice(&l.to_le_bytes());
    p[8..16].copy_from_slice(&v.to_le_bytes());
    p
}

/// Run one generator at `threads` engine threads; returns the run's stats,
/// media hash, and execution mode.
fn run(gen: Gen, threads: usize) -> (Stats, u64, ThreadedRun) {
    let total_lines = CORES as u64 * LINES_PER_CORE;
    let file_pages = total_lines / 64; // LINES_PER_PAGE with 4 KiB pages
    let mut m: Machine = machine(gen.design(), file_pages + 1024);
    let file = m
        .create_dax_file("adv", file_pages * PAGE as u64)
        .expect("pool fits");
    m.reinit_redundancy(&file);
    m.flush();
    let banks = m.sys.config().llc_banks as u64;
    // Bank of a line is `line.0 % banks`; align each core's pinned stream
    // so every access lands in bank 0 regardless of the file's base line.
    let base = file.addr(0).line().0;
    let align = (banks - base % banks) % banks;
    m.reset_stats();
    let mode = apps::driver::run_clocked_threads(&mut m, CORES, OPS, threads, |m, c, i| {
        let span = c as u64 * LINES_PER_CORE;
        let (l, write) = match gen {
            // Stride 13 is coprime to the power-of-two region: the sweep
            // visits every line, rotating through all banks.
            Gen::FanOut => (span + (i * 13 + c as u64) % LINES_PER_CORE, i % 4 != 3),
            Gen::PageWide => (span + (i * 13) % LINES_PER_CORE, true),
            Gen::SingleBankStorm => (
                span + align + (i % (LINES_PER_CORE / banks - 1)) * banks,
                i % 4 != 3,
            ),
        };
        let off = l * 64;
        if write {
            m.write_file(&file, c, off, &pattern(l, i))?;
        } else {
            let mut buf = [0u8; 64];
            m.read_file(&file, c, off, &mut buf)?;
        }
        Ok(())
    });
    let mode = match mode {
        Ok(mode) => mode,
        Err(AppError::Poisoned(e)) => panic!("unexpected poison: {e:?}"),
        Err(e) => panic!("unexpected app error: {e}"),
    };
    m.flush();
    (m.stats(), m.sys.memory().content_hash(), mode)
}

fn differential(gen: Gen) {
    let (seq_stats, seq_hash, seq_mode) = run(gen, 1);
    assert!(
        matches!(seq_mode, ThreadedRun::Sequential(_)),
        "{}: single-threaded run is the oracle",
        gen.label()
    );
    let (stats, hash, mode) = run(gen, THREADS);
    // The generators are crafted to be eligible and divergence-free: the
    // parallel run must really weave and never fall back.
    match mode {
        ThreadedRun::Woven(_) => {}
        ThreadedRun::Sequential(elig) => {
            panic!("{}: fell back to sequential ({elig:?})", gen.label())
        }
        ThreadedRun::Diverged(kind) => panic!("{}: diverged ({kind:?})", gen.label()),
    }
    assert_eq!(seq_stats, stats, "{}: stats mismatch", gen.label());
    assert_eq!(seq_hash, hash, "{}: media mismatch", gen.label());
}

#[test]
fn hook_fan_out_is_bit_identical() {
    differential(Gen::FanOut);
}

#[test]
fn page_wide_writebacks_are_bit_identical() {
    differential(Gen::PageWide);
}

#[test]
fn single_bank_storm_is_bit_identical() {
    differential(Gen::SingleBankStorm);
}
