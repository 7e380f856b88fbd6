//! Ad-hoc calibration probe: run one workload under selected designs and
//! print the comparison rows, with per-design queueing and per-DIMM access
//! counts on stderr. Usage:
//!
//! ```sh
//! cargo run --release -p bench --bin probe -- stream-copy baseline tvarak
//! cargo run --release -p bench --bin probe -- redis-set all
//! ```

use apps::driver::Design;
use apps::fio::Pattern;
use apps::stream::Kernel;
use bench::campaign::{Campaign, Config, Kind, Opt, Output};
use bench::workloads::{
    run_fio_threads, run_kv_threads, run_nstore_threads, run_redis_threads, run_stream_threads,
    KvKind, KvWorkload, NstoreWorkload, RedisWorkload, RunFn,
};
use bench::{Report, Row};

fn runner(workload: &str) -> Option<RunFn> {
    use KvWorkload::{Balanced, InsertOnly};
    Some(match workload {
        "redis-set" => |v, s, t| run_redis_threads(v, RedisWorkload::SetOnly, s, t),
        "redis-get" => |v, s, t| run_redis_threads(v, RedisWorkload::GetOnly, s, t),
        "ctree-insert" => |v, s, t| run_kv_threads(v, KvKind::CTree, InsertOnly, s, t),
        "ctree-bal" => |v, s, t| run_kv_threads(v, KvKind::CTree, Balanced, s, t),
        "btree-insert" => |v, s, t| run_kv_threads(v, KvKind::BTree, InsertOnly, s, t),
        "rbtree-insert" => |v, s, t| run_kv_threads(v, KvKind::RbTree, InsertOnly, s, t),
        "nstore-bal" => |v, s, t| run_nstore_threads(v, NstoreWorkload::Balanced, s, t),
        "nstore-up" => |v, s, t| run_nstore_threads(v, NstoreWorkload::UpdateHeavy, s, t),
        "fio-seq-read" => |v, s, t| run_fio_threads(v, Pattern::SeqRead, s, t),
        "fio-seq-write" => |v, s, t| run_fio_threads(v, Pattern::SeqWrite, s, t),
        "fio-rand-read" => |v, s, t| run_fio_threads(v, Pattern::RandRead, s, t),
        "fio-rand-write" => |v, s, t| run_fio_threads(v, Pattern::RandWrite, s, t),
        "stream-copy" => |v, s, t| run_stream_threads(v, Kernel::Copy, s, t),
        "stream-triad" => |v, s, t| run_stream_threads(v, Kernel::Triad, s, t),
        _ => return None,
    })
}

/// The first argument names the workload, the rest the designs.
#[derive(Default)]
pub struct Probe {
    workload: Option<(String, RunFn)>,
    designs: Vec<Design>,
}

/// The campaign this binary runs.
pub fn campaign() -> Campaign<Probe> {
    Campaign::new("probe", |cfg: &Config<Probe>, _jobs| {
        let (workload, run) = cfg.opts.workload.as_ref().expect("required argument");
        let mut rep = Report::new(&format!("probe — {workload}"));
        for &design in &cfg.opts.designs {
            eprintln!("probe {workload} under {design} ...");
            let scale = cfg.scale.workloads();
            let out = run(design.into(), &scale, cfg.threads).expect("workload failed");
            let min_clock = out.stats.core_cycles.iter().min().unwrap();
            eprintln!(
                "  queue-wait: {} cycles, runtime {}, clock-spread {}, verified {}",
                out.stats.counters.demand_queue_cycles,
                out.stats.runtime_cycles(),
                out.stats.runtime_cycles() - min_clock,
                out.stats.counters.reads_verified,
            );
            eprintln!("  dimm (demand, posted): {:?}", out.dimm_accesses);
            rep.push(Row::new(workload, design, &out.stats, &out.cfg));
        }
        let table = rep.to_table() + "\n";
        Output {
            table,
            rows: rep.rows.len(),
            ..Output::default()
        }
    })
    .options(vec![Opt::new(
        Kind::Positional(2),
        "",
        "<workload> <design|all>...",
        |p: &mut Probe, v| {
            if p.workload.is_none() {
                let run = runner(v).ok_or(format!("unknown workload {v:?}"))?;
                p.workload = Some((v.to_string(), run));
            } else if v == "all" {
                p.designs.extend(Design::fig8());
            } else {
                p.designs
                    .push(v.parse::<Design>().map_err(|e| e.to_string())?);
            }
            Ok(())
        },
    )])
}

fn main() {
    campaign().main()
}
