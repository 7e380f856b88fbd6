//! Isolated host timings of the public functions the spans cannot reach:
//! each is called in a loop on inputs shaped like the workload's geometry
//! and reported as the median over passes of host ns per call. Together
//! they stay well under 10 s.

use crate::util::median;
use apps::driver::{Design, Machine};
use bench::report::{Report, Row};
use memsim::addr::{nvm_page, LineAddr};
use memsim::cache::CacheArray;
use memsim::config::SystemConfig;
use memsim::mem::Memory;
use memsim::{CACHE_LINE, PAGE};
use std::hint::black_box;
use std::time::Instant;
use tvarak::layout::NvmLayout;

#[derive(Debug, Default)]
pub struct Isolated {
    pub cache_lookup_hit_ns: f64,
    pub cache_lookup_miss_ns: f64,
    pub cache_insert_evict_ns: f64,
    pub mem_read_line_ns: f64,
    pub mem_write_line_ns: f64,
    pub csum_line_ns: f64,
    pub csum_page_ns: f64,
    pub parity_delta_ns: f64,
    pub engine_hit_ns: f64,
    pub tx_commit_ns_none: f64,
    pub tx_commit_ns_txbobject: f64,
    pub tx_commit_ns_txbpage: f64,
    pub init_region_ns_per_page: f64,
    pub stats_collect_ns: f64,
    pub report_render_s: f64,
}

const PASSES: usize = 5;

/// Median over [`PASSES`] passes of host ns per call of `op`.
fn ns_per_call(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// A 64 B transaction (begin + write + commit) under `design`'s software
/// scheme, on the paper's machine.
fn tx_commit_ns(design: Design, iters: u64) -> f64 {
    let mut m = Machine::builder().design(design).data_pages(4096).build();
    let file = m.create_dax_file("tx", 1 << 20).expect("pool fits file");
    let mut txm = m.tx_manager(256 * 1024).expect("pool fits tx metadata");
    let lines = file.len() / 64;
    let payload = [0x5au8; 64];
    ns_per_call(iters, |i| {
        let off = i.wrapping_mul(0x9e37_79b9) % lines * 64;
        let mut tx = txm.begin(&mut m.sys, 0).expect("begin");
        tx.write(&mut m.sys, &file, off, &payload)
            .expect("tx write");
        tx.commit(&mut m.sys).expect("commit");
    })
}

/// Time every isolated function. `file_pages` is the number of NVM pages the
/// workload's files occupy: the page store is populated to that size so
/// `read_line`/`write_line` see the workload's arena and index.
pub fn measure(file_pages: u64) -> Isolated {
    let mut out = Isolated::default();
    let cfg = SystemConfig::default();
    let data = [0xa5u8; CACHE_LINE];

    // One LLC bank of the paper's machine, filled, probed with resident
    // lines (hit), absent lines (miss), and inserts that always evict.
    let (sets, ways) = (cfg.llc.sets(), cfg.llc.ways);
    let resident = (sets * ways) as u64;
    let mut c = CacheArray::new(sets, ways, 1);
    for l in 0..resident {
        c.insert(LineAddr(l), &data, false, 0..ways);
    }
    out.cache_lookup_hit_ns = ns_per_call(1 << 18, |i| {
        black_box(c.lookup_idx(LineAddr(i.wrapping_mul(0x9e37) % resident), 0..ways));
    });
    out.cache_lookup_miss_ns = ns_per_call(1 << 18, |i| {
        black_box(c.lookup_idx(
            LineAddr(resident + i.wrapping_mul(0x9e37) % resident),
            0..ways,
        ));
    });
    out.cache_insert_evict_ns = ns_per_call(1 << 18, |i| {
        black_box(c.insert(
            LineAddr(resident * (2 + i / resident) + i % resident),
            &data,
            i % 4 == 0,
            0..ways,
        ));
    });

    let mut mem = Memory::new(cfg.nvm.dimms);
    let lines = file_pages * (PAGE / CACHE_LINE) as u64;
    let first = nvm_page(0).line(0).0;
    for p in 0..file_pages {
        mem.poke_line(nvm_page(p).line(0), &data);
    }
    out.mem_read_line_ns = ns_per_call(1 << 18, |i| {
        black_box(mem.read_line(LineAddr(first + i.wrapping_mul(0x9e37_79b9) % lines)));
    });
    out.mem_write_line_ns = ns_per_call(1 << 18, |i| {
        mem.write_line(LineAddr(first + i.wrapping_mul(0x9e37_79b9) % lines), &data);
    });

    let page: Vec<u8> = (0..PAGE).map(|i| (i * 31 + 7) as u8).collect();
    let mut sink = 0u32;
    out.csum_line_ns = ns_per_call(1 << 18, |_| {
        sink ^= tvarak::checksum::line_checksum(black_box(&data));
    });
    out.csum_page_ns = ns_per_call(1 << 14, |_| {
        sink ^= tvarak::checksum::page_checksum(black_box(&page));
    });
    black_box(sink);
    let mut parity = [0u8; CACHE_LINE];
    let old = [0x3cu8; CACHE_LINE];
    out.parity_delta_ns = ns_per_call(1 << 20, |_| {
        tvarak::parity::parity_delta(black_box(&mut parity), black_box(&old), black_box(&data));
    });

    let mut m = Machine::builder()
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let file = m.create_dax_file("hit", 64 * 1024).expect("pool fits file");
    let mut buf = [0u8; 8];
    file.read(&mut m.sys, 0, 0, &mut buf).expect("fill");
    out.engine_hit_ns = ns_per_call(1 << 18, |_| {
        file.read(&mut m.sys, 0, 0, black_box(&mut buf))
            .expect("L1 hit");
    });
    out.stats_collect_ns = ns_per_call(1 << 14, |_| {
        black_box(m.stats());
    });

    out.tx_commit_ns_none = tx_commit_ns(Design::Baseline, 1 << 12);
    out.tx_commit_ns_txbobject = tx_commit_ns(Design::TxbObject, 1 << 12);
    out.tx_commit_ns_txbpage = tx_commit_ns(Design::TxbPage, 1 << 8);

    let init_pages = file_pages.min(2048);
    let layout = NvmLayout::new(cfg.nvm.dimms, init_pages);
    out.init_region_ns_per_page = ns_per_call(1, |_| {
        tvarak::init::initialize_region(&layout, &mut mem, 0..init_pages);
    }) / init_pages as f64;

    // A 48-row report, as the grids of `quickgrid-j2` produce.
    let stats = m.stats();
    let mut rep = Report::new("isolated");
    for i in 0..48 {
        rep.push(Row::new(
            &format!("w{}", i / 4),
            Design::fig8()[i % 4],
            &stats,
            &cfg,
        ));
    }
    out.report_render_s = ns_per_call(64, |_| {
        black_box(rep.to_table());
        black_box(rep.to_csv());
    }) / 1e9;
    out
}
