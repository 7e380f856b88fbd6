//! Tracked performance baseline for the simulator itself.
//!
//! Times four things and writes `BENCH_perf.json` in the working
//! directory so the trajectory is tracked from PR to PR:
//!
//! 1. **Checksum microbench** — CRC32C throughput in MiB/s over cache-line
//!    and page inputs. Three kernels: the byte-wise reference, the pinned
//!    *software* slice-by-8 path (comparable across hosts, so the CI gate
//!    keys on it), and whatever [`memsim::crc::update`] dispatches to —
//!    the `crc32` instruction where the host has it (`hw_crc32c` says).
//! 2. **Engine microbench** — a raw DAX read/write sweep on a small
//!    machine under the full TVARAK design, reported as simulated cycles
//!    per wall-clock second. Run N times, best taken: wall-clock minima
//!    are stable under scheduler noise where single shots swing ±40% on a
//!    shared box.
//! 3. **Hot-path microbenches** — `CacheArray` tag-scan and insert-evict
//!    rates and NVM page-store line read/write rates, isolating the two
//!    structures the engine spends most of its time in.
//! 4. **Trace codec microbench** — streaming `TraceWriter` encode and
//!    `TraceReader` decode throughput in MiB/s over a generated mixed
//!    op stream (chunked TVT2 format, DESIGN.md §16), plus the achieved
//!    bytes/record — the compression the delta/varint encoding buys.
//! 5. **Cell grid** — a fixed small fio grid (4 patterns × Baseline/Tvarak
//!    at quick scale) through `bench::runner`, reporting per-cell wall
//!    time, per-cell simulated throughput, and aggregate cells/sec.
//!
//! `--quick` shrinks the iteration counts for the CI smoke (the JSON shape
//! is identical); `--jobs N` / `MEMSIM_JOBS` control the cell-grid pool.

use apps::driver::{Design, Machine};
use apps::fio::Pattern;
use bench::campaign::{Cli, Kind, Opt};
use bench::runner::{self, Cell};
use bench::workloads::{run_fio_threads, Outcome, Scale};
use memsim::addr::LineAddr;
use memsim::cache::CacheArray;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use tvarak::checksum::{crc32c, crc32c_bytewise};

/// The pinned software slice-by-8 kernel, bypassing hardware dispatch, so
/// the tracked `*_slice8` numbers stay host-comparable.
fn crc32c_sw(data: &[u8]) -> u32 {
    !memsim::crc::update_sw(u32::MAX, data)
}

/// MiB/s of `f` over `iters` passes of a `len`-byte buffer; best of 5.
fn checksum_throughput(f: fn(&[u8]) -> u32, len: usize, iters: u64) -> f64 {
    let buf: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    // Warm up tables and cache.
    let mut sink = f(&buf);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            sink ^= f(black_box(&buf));
        }
        best = best.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    black_box(sink);
    (len as u64 * iters) as f64 / (1024.0 * 1024.0) / best
}

/// One raw-DAX sweep: simulated cycles and wall seconds.
fn engine_sweep(ops: u64) -> (u64, f64) {
    let mut m = Machine::builder()
        .small()
        .design(Design::Tvarak)
        .data_pages(256)
        .build();
    let file = m
        .create_dax_file("perf", 64 * 1024)
        .expect("pool fits perf file");
    let lines = file.len() / 64;
    let start = Instant::now();
    let mut buf = [0u8; 64];
    for op in 0..ops {
        let l = (op * 0x9e37) % lines;
        if op % 4 == 0 {
            buf[0] = op as u8;
            file.write(&mut m.sys, 0, l * 64, &buf).expect("write");
        } else {
            file.read(&mut m.sys, 0, l * 64, &mut buf).expect("read");
        }
        if op % 1024 == 1023 {
            m.flush();
        }
    }
    m.flush();
    (m.stats().runtime_cycles(), start.elapsed().as_secs_f64())
}

/// Best-of-`runs` engine sweep (the sweep is deterministic, so
/// `sim_cycles` is identical across runs; only wall time varies).
fn engine_microbench(ops: u64, runs: usize) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..runs {
        let (cyc, wall) = engine_sweep(ops);
        cycles = cyc;
        best = best.min(wall);
    }
    (cycles, best)
}

/// One bound-weave scaling point: a 12-instance fio cell at `threads`
/// engine threads, best wall time of `runs`. Returns (sim_cycles, wall_s,
/// per-shard weave occupancy of the best run). The occupancy vector is the
/// schema-uniform telemetry: empty on the sequential path (threads 1 or a
/// diverged fallback), one entry per weave shard otherwise. `sim_cycles`
/// must be identical at every thread count — the caller asserts it.
fn scaling_point(scale: &Scale, threads: usize, runs: usize) -> (u64, f64, Vec<f64>) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    let mut occupancy = Vec::new();
    for _ in 0..runs {
        let start = Instant::now();
        let out = run_fio_threads(Design::Tvarak, Pattern::RandWrite, scale, threads)
            .expect("scaling cell failed");
        let wall = start.elapsed().as_secs_f64();
        cycles = out.stats.runtime_cycles();
        if wall < best {
            best = wall;
            occupancy = out.weave.map(|r| r.shard_occupancy()).unwrap_or_default();
        }
    }
    (cycles, best, occupancy)
}

/// Mops/s over `iters` calls of `op`, best of 3 passes.
fn best_rate(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        best = best.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    iters as f64 / best / 1e6
}

/// Isolated rates for the two hottest structures: (cache tag-scan misses,
/// cache insert-evicts, page-store line reads, page-store line writes),
/// all in Mops/s.
fn hotpath_microbench(iters: u64) -> (f64, f64, f64, f64) {
    // LLC-bank-like geometry; 4096-line footprint so inserts always evict.
    let mut c = CacheArray::new(64, 8, 1);
    let data = [0xa5u8; 64];
    let lookup = best_rate(iters, |i| {
        black_box(c.lookup(LineAddr(i.wrapping_mul(0x9e37) % 4096), 0..8));
    });
    let insert = best_rate(iters, |i| {
        black_box(c.insert(LineAddr(i.wrapping_mul(0x9e37) % 4096), &data, i % 4 == 0, 0..8));
    });

    let mut mem = memsim::Memory::new(4);
    let base = memsim::addr::NVM_BASE / 64;
    let read = best_rate(iters, |i| {
        black_box(mem.read_line(LineAddr((i.wrapping_mul(0x9e37) % 4096) + base)));
    });
    let write = best_rate(iters, |i| {
        mem.write_line(LineAddr((i.wrapping_mul(0x9e37) % 4096) + base), &data);
    });
    (lookup, insert, read, write)
}

/// Streaming trace-codec microbench: encode `records` generated mixed-op
/// records through a `TraceWriter` and decode them back through a
/// `TraceReader`, best wall time of 5 passes each. Returns
/// (encoded_bytes, encode_mib_s, decode_mib_s), throughput measured over
/// the encoded byte volume.
fn trace_microbench(records: u64) -> (u64, f64, f64) {
    use memsim::trace::{generate, TraceReader, TraceWriter};
    const SEED: u64 = 0xbead_cafe;
    const CORES: u8 = 8;
    const LINES: u64 = 1 << 18;
    let mut bytes = Vec::new();
    let mut best_enc = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut w = TraceWriter::new(Vec::with_capacity(bytes.len())).expect("vec write");
        for i in 0..records {
            w.push(generate::mixed_record(SEED, i, CORES, LINES))
                .expect("vec write");
        }
        bytes = w.finish().expect("vec write");
        best_enc = best_enc.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    let mut best_dec = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut r = TraceReader::new(&bytes[..]).expect("magic");
        let mut n = 0u64;
        while let Some(rec) = r.next_record().expect("well-formed") {
            black_box(rec);
            n += 1;
        }
        assert_eq!(n, records, "decode must surface every record");
        best_dec = best_dec.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    (bytes.len() as u64, mib / best_enc, mib / best_dec)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// `--quick`: smaller inputs for the CI smoke.
fn quick_flag() -> Opt<bool> {
    Opt::new(Kind::Switch, "--quick", "", |quick, _| {
        *quick = true;
        Ok(())
    })
}

fn main() {
    let cli = Cli { name: "perf_baseline", options: vec![quick_flag()], filter_env: None };
    let (cfg, jobs) = cli.from_process();
    let (quick, threads) = (cfg.opts, cfg.threads);
    // Engine sweeps are deliberately short (tens of ms) and repeated many
    // times: on shared hardware the *minimum* over many short windows is
    // far more reproducible than any mean, because it only needs one
    // steal-free window.
    let (csum_iters, engine_ops, engine_runs, hot_iters) = if quick {
        (2_000, 20_000, 30, 200_000)
    } else {
        (40_000, 200_000, 25, 2_000_000)
    };
    let hw = memsim::crc::hw_available();
    // Detected hardware parallelism: the scaling points below only show real
    // speedup when the replay workers get their own cores, so readers (and
    // the CI gate) need this next to the curve to interpret it.
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("# host parallelism: {hw_threads} hardware thread(s)");

    eprintln!("# checksum microbench ({csum_iters} iters per input size, hw_crc32c={hw})");
    let line_by = checksum_throughput(crc32c_bytewise, 64, csum_iters * 8);
    let line_s8 = checksum_throughput(crc32c_sw, 64, csum_iters * 8);
    let line_hw = checksum_throughput(crc32c, 64, csum_iters * 8);
    let page_by = checksum_throughput(crc32c_bytewise, 4096, csum_iters);
    let page_s8 = checksum_throughput(crc32c_sw, 4096, csum_iters);
    let page_hw = checksum_throughput(crc32c, 4096, csum_iters);
    let speedup_line = line_s8 / line_by;
    let speedup_page = page_s8 / page_by;
    eprintln!("#   64 B line: bytewise {line_by:.0}, slice-by-8 {line_s8:.0} ({speedup_line:.2}x), dispatched {line_hw:.0} MiB/s");
    eprintln!("#   4 KB page: bytewise {page_by:.0}, slice-by-8 {page_s8:.0} ({speedup_page:.2}x), dispatched {page_hw:.0} MiB/s");

    eprintln!("# engine microbench ({engine_ops} raw DAX ops under Tvarak, best of {engine_runs})");
    let (sim_cycles, engine_wall) = engine_microbench(engine_ops, engine_runs);
    let engine_rate = sim_cycles as f64 / engine_wall.max(1e-9);
    eprintln!("#   {sim_cycles} simulated cycles in {engine_wall:.2}s = {:.2} Mcyc/s", engine_rate / 1e6);

    eprintln!("# hot-path microbenches ({hot_iters} iters, best of 3)");
    let (hot_lookup, hot_insert, hot_read, hot_write) = hotpath_microbench(hot_iters);
    eprintln!("#   cache: tag-scan miss {hot_lookup:.1}, insert-evict {hot_insert:.1} Mops/s");
    eprintln!("#   page store: read_line {hot_read:.1}, write_line {hot_write:.1} Mops/s");

    // Intra-run scaling: a 12-instance fio cell on the full Table III
    // machine at 1/2/4/8 requested engine threads. `sim_cycles` must be
    // bit-identical at every width (the bound-weave hard requirement);
    // wall time and per-shard weave occupancy are the tracked telemetry.
    // The sharded engine runs bound on the caller plus one replay worker
    // per weave shard (auto: min(LLC banks, host cores, 4)), so the curve
    // only shows real speedup on a multi-core host; on a 1-core box it
    // documents the transport overhead.
    let (scaling_ops, scaling_runs) = if quick { (2_048, 2) } else { (16_384, 3) };
    let mut scaling_scale = Scale::quick();
    scaling_scale.fio_threads = 12;
    scaling_scale.fio_region_bytes = 512 * 1024;
    scaling_scale.fio_ops_per_thread = scaling_ops;
    eprintln!("# engine scaling (12-instance fio, {scaling_ops} ops/inst, best of {scaling_runs})");
    let mut scaling: Vec<(usize, f64, Vec<f64>)> = Vec::new();
    let mut scaling_cycles = 0u64;
    for threads in [1usize, 2, 4, 8] {
        let (cyc, wall, occ) = scaling_point(&scaling_scale, threads, scaling_runs);
        if threads == 1 {
            scaling_cycles = cyc;
        } else {
            assert_eq!(
                cyc, scaling_cycles,
                "bound-weave sim_cycles diverged from sequential at {threads} threads"
            );
        }
        let occ_str = if occ.is_empty() {
            "-".to_string()
        } else {
            occ.iter()
                .map(|o| format!("{o:.2}"))
                .collect::<Vec<_>>()
                .join("/")
        };
        eprintln!("#   threads {threads}: {wall:.2}s wall, shard occupancy {occ_str}");
        scaling.push((threads, wall, occ));
    }
    let scaling_base = scaling[0].1;

    let trace_records: u64 = if quick { 200_000 } else { 2_000_000 };
    eprintln!("# trace codec microbench ({trace_records} mixed records, best of 5)");
    let (trace_bytes, trace_enc, trace_dec) = trace_microbench(trace_records);
    let bytes_per_record = trace_bytes as f64 / trace_records as f64;
    eprintln!(
        "#   {trace_bytes} encoded bytes ({bytes_per_record:.2} B/record vs 12 legacy): encode {trace_enc:.0}, decode {trace_dec:.0} MiB/s"
    );

    eprintln!("# cell grid (fio 4 patterns x Baseline/Tvarak, quick scale, --jobs {jobs})");
    let scale = Scale::quick();
    let mut cells: Vec<Cell<Outcome>> = Vec::new();
    for pattern in Pattern::all() {
        for design in [Design::Baseline, Design::Tvarak] {
            let s = scale.clone();
            cells.push(Cell::new(
                format!("fio {} {design}", pattern.label()),
                move || run_fio_threads(design, pattern, &s, threads).expect("workload failed"),
            ));
        }
    }
    let grid_start = Instant::now();
    let results = runner::run_cells(cells, jobs);
    let grid_wall = grid_start.elapsed().as_secs_f64();
    runner::eprint_rates(&results, |out| out.stats.runtime_cycles());
    let cells_per_sec = results.len() as f64 / grid_wall.max(1e-9);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": 6,");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"hw_crc32c\": {hw},");
    let _ = writeln!(json, "  \"hw_threads\": {hw_threads},");
    let _ = writeln!(json, "  \"checksum\": {{");
    let _ = writeln!(json, "    \"line_bytewise_mib_s\": {},", json_f(line_by));
    let _ = writeln!(json, "    \"line_slice8_mib_s\": {},", json_f(line_s8));
    let _ = writeln!(json, "    \"line_dispatched_mib_s\": {},", json_f(line_hw));
    let _ = writeln!(json, "    \"page_bytewise_mib_s\": {},", json_f(page_by));
    let _ = writeln!(json, "    \"page_slice8_mib_s\": {},", json_f(page_s8));
    let _ = writeln!(json, "    \"page_dispatched_mib_s\": {},", json_f(page_hw));
    let _ = writeln!(json, "    \"line_speedup\": {},", json_f(speedup_line));
    let _ = writeln!(json, "    \"page_speedup\": {}", json_f(speedup_page));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"engine\": {{");
    let _ = writeln!(json, "    \"sim_cycles\": {sim_cycles},");
    let _ = writeln!(json, "    \"runs\": {engine_runs},");
    let _ = writeln!(json, "    \"wall_s\": {},", json_f(engine_wall));
    let _ = writeln!(json, "    \"sim_cycles_per_sec\": {}", json_f(engine_rate));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"engine_scaling\": {{");
    let _ = writeln!(json, "    \"fio_instances\": {},", scaling_scale.fio_threads);
    let _ = writeln!(json, "    \"ops_per_instance\": {scaling_ops},");
    let _ = writeln!(json, "    \"sim_cycles\": {scaling_cycles},");
    let _ = writeln!(json, "    \"points\": [");
    for (i, (threads, wall, occ)) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let occ_json = format!(
            "[{}]",
            occ.iter().map(|&o| json_f(o)).collect::<Vec<_>>().join(", ")
        );
        let _ = writeln!(
            json,
            "      {{\"threads\": {threads}, \"wall_s\": {}, \"speedup\": {}, \"shard_occupancy\": {occ_json}}}{comma}",
            json_f(*wall),
            json_f(scaling_base / wall.max(1e-9)),
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"trace\": {{");
    let _ = writeln!(json, "    \"records\": {trace_records},");
    let _ = writeln!(json, "    \"encoded_bytes\": {trace_bytes},");
    let _ = writeln!(json, "    \"bytes_per_record\": {},", json_f(bytes_per_record));
    let _ = writeln!(
        json,
        "    \"chunk_bytes\": {},",
        memsim::trace::CHUNK_PAYLOAD_MAX
    );
    let _ = writeln!(json, "    \"trace_encode_mib_s\": {},", json_f(trace_enc));
    let _ = writeln!(json, "    \"trace_decode_mib_s\": {}", json_f(trace_dec));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"hotpath\": {{");
    let _ = writeln!(json, "    \"cache_lookup_miss_mops\": {},", json_f(hot_lookup));
    let _ = writeln!(json, "    \"cache_insert_evict_mops\": {},", json_f(hot_insert));
    let _ = writeln!(json, "    \"store_read_line_mops\": {},", json_f(hot_read));
    let _ = writeln!(json, "    \"store_write_line_mops\": {}", json_f(hot_write));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, r) in results.iter().enumerate() {
        let cyc = r.value.stats.runtime_cycles();
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"wall_s\": {}, \"sim_cycles\": {cyc}, \"sim_cycles_per_sec\": {}}}{comma}",
            r.label,
            json_f(r.wall.as_secs_f64()),
            json_f(r.sim_cycles_per_sec(cyc))
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"cell_grid\": {{");
    let _ = writeln!(json, "    \"cells\": {},", results.len());
    let _ = writeln!(json, "    \"total_wall_s\": {},", json_f(grid_wall));
    let _ = writeln!(json, "    \"cells_per_sec\": {}", json_f(cells_per_sec));
    let _ = writeln!(json, "  }},");
    // Host-dependent gauge (never CI-gated): peak RSS of this whole run.
    let _ = writeln!(
        json,
        "  \"rss_peak_kb\": {}",
        runner::peak_rss_kb()
            .map(|kb| kb.to_string())
            .unwrap_or_else(|| "null".to_string())
    );
    json.push_str("}\n");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
    println!("{json}");
    eprintln!("[saved BENCH_perf.json]");
}
