//! The five workloads: how many reps each pass runs, the correctness gate
//! over them, and the end-to-end metrics. Per-layer metrics are assembled
//! in [`crate::layers`].

use crate::cells::{run_cell, setup_only, CellRun, Kind};
use crate::grid::{run_grid, GridRun};
use crate::layers;
use crate::trace::Tracer;
use crate::util::{median, rss_peak_mib, Gate, Metrics};
use apps::driver::{AppError, Design};
use std::time::{Duration, Instant};

pub struct Workload {
    pub name: &'static str,
    kind: Option<Kind>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fio-randwrite-tvarak",
        kind: Some(Kind::FioRandWrite),
    },
    Workload {
        name: "fio-randread-tvarak",
        kind: Some(Kind::FioRandRead),
    },
    Workload {
        name: "btree-insert-txbpage",
        kind: Some(Kind::BtreeInsert),
    },
    Workload {
        name: "quickgrid-j2",
        kind: None,
    },
    Workload {
        name: "fio-llcfit-tvarak-t2",
        kind: Some(Kind::FioLlcfit),
    },
];

/// Host threads `quickgrid-j2` and `fio-llcfit-tvarak-t2` put to work.
pub const PARALLEL: usize = 2;
/// No pass runs more design reps than this, whatever `--seconds` says.
const MAX_REPS: usize = 8;
/// Set-up shorter than this gets extra set-up-only samples.
const SHORT_SETUP_S: f64 = 0.25;
const SETUP_SAMPLES: usize = 7;
/// Untraced/traced rep pairs of a traced pass.
const TRACED_ROUNDS: usize = 2;

/// The grid cells that share a paper reference with a cell workload.
const GRID_REFS: [(&str, Design, f64); 3] = [
    ("fio rand-write", Design::Tvarak, 1.33),
    ("fio rand-read", Design::Tvarak, 1.02),
    ("btree/insert-only", Design::TxbPage, 2.71),
];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one invocation reports besides the metrics.
pub struct Report {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Simulated results, which must repeat exactly for a given seed.
    pub simulated: Vec<(&'static str, String)>,
    /// `run_s` of every design rep, in run order.
    pub run_s_samples: Vec<f64>,
    pub op_span_samples: usize,
}

pub fn paper_err_pct(norm: f64, reference: f64) -> f64 {
    100.0 * (norm - reference).abs() / reference
}

/// The end-to-end metrics, which every workload reports. `err` is `None`
/// only when a reference cell failed, which the gate has already counted.
fn end_to_end(setup_s: f64, run_s: f64, ops: u64, err: Option<f64>) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("run_s", run_s, "s");
    m.put("sim_ops_per_s", ops as f64 / run_s, "1/s");
    m.put("rss_peak_mib", rss_peak_mib(), "MiB");
    if let Some(err) = err {
        m.put("paper_err_pct", err, "%");
    }
    m
}

/// Mean error of the grid's reference cells, and their mean normalized
/// runtime. `None` if one of them failed.
pub fn grid_fidelity(g: &GridRun) -> Option<(f64, f64)> {
    let mut err = 0.0;
    let mut norm = 0.0;
    for (workload, design, reference) in GRID_REFS {
        let n = g.norm_runtime(workload, design)?;
        err += paper_err_pct(n, reference);
        norm += n;
    }
    let k = GRID_REFS.len() as f64;
    Some((err / k, norm / k))
}

impl Workload {
    pub fn run(&self, args: &Args, tr: &mut Tracer) -> Report {
        match self.kind {
            Some(kind) => run_cells_workload(kind, args, tr),
            None => run_grid_workload(args),
        }
    }

    pub fn needs_parallel(&self) -> bool {
        matches!(self.kind, None | Some(Kind::FioLlcfit))
    }
}

/// Run one cell and fold its own checks into the gate. An application
/// error aborts the cell: it counts as one failed op and yields no run.
fn gated_cell(
    gate: &mut Gate,
    what: &str,
    run: Result<CellRun, AppError>,
    ops: u64,
) -> Option<CellRun> {
    match run {
        Ok(r) => {
            gate.ops_ok(ops * if r.diverged { 2 } else { 1 });
            gate.check(r.verify_clean, &format!("{what}: verify_all clean"));
            gate.check(r.outputs_ok, &format!("{what}: outputs read back"));
            Some(r)
        }
        Err(e) => {
            gate.op_failed(&format!("{what}: {e}"));
            None
        }
    }
}

/// Every rep must reproduce the first one's statistics and media digest.
fn gate_identical(gate: &mut Gate, what: &str, first: &CellRun, other: &CellRun) {
    gate.check(
        first.stats == other.stats,
        &format!("{what}: sim_cycles and every counter identical"),
    );
    gate.check(
        first.content_hash == other.content_hash,
        &format!("{what}: content hash identical"),
    );
}

fn simulated_of(design: &CellRun, base: Option<&CellRun>) -> Vec<(&'static str, String)> {
    let mut v = vec![
        ("sim_cycles", design.stats.runtime_cycles().to_string()),
        ("content_hash", format!("\"{:016x}\"", design.content_hash)),
        (
            "evict_hash",
            format!("\"{:016x}\"", design.stats.evict_hash),
        ),
        ("counters", format!("\"{:?}\"", design.stats.counters)),
    ];
    if let Some(b) = base {
        v.push(("baseline_sim_cycles", b.stats.runtime_cycles().to_string()));
        v.push((
            "baseline_content_hash",
            format!("\"{:016x}\"", b.content_hash),
        ));
    }
    v
}

/// The reps of one pass over a cell workload.
pub struct CellPass {
    pub kind: Kind,
    /// Reps under the workload's design at its thread count.
    pub design: Vec<CellRun>,
    /// `fio-llcfit-tvarak-t2` only: the same cell at one engine thread.
    pub sequential: Vec<CellRun>,
    pub baseline: Option<CellRun>,
    /// The reps with per-op spans (traced pass only).
    pub traced: Vec<CellRun>,
}

fn run_cells_workload(kind: Kind, args: &Args, tr: &mut Tracer) -> Report {
    let mut gate = Gate::default();
    let design = kind.design();
    let threads = kind.threads();
    let ops = kind.total_ops();
    let mut pass = CellPass {
        kind,
        design: Vec::new(),
        sequential: Vec::new(),
        baseline: None,
        traced: Vec::new(),
    };
    let run = run_cell(kind, Design::Baseline, 1, args.seed, false, tr);
    pass.baseline = gated_cell(&mut gate, "baseline rep", run, ops);
    // The untraced pass fills `--seconds` with design reps (set-up, measured
    // phase and checks, each on a fresh machine). The traced
    // pass interleaves untraced and traced reps, so that host drift between
    // them does not read as tracing overhead; its last rep is a traced one,
    // whose per-op spans are then still in memory at exit.
    let mut spent = Duration::ZERO;
    loop {
        let done = if args.trace {
            pass.traced.len() >= TRACED_ROUNDS
        } else {
            pass.design.len() >= MAX_REPS
                || (!pass.design.is_empty() && spent.as_secs_f64() >= args.seconds)
        };
        if done {
            break;
        }
        // The same cell on the sequential oracle: the traced pass times it
        // beside every threads-2 rep; the untraced pass needs it once, for
        // the bit-identity check, and runs it first so that it also absorbs
        // the process's warm-up.
        if threads > 1 && (args.trace || pass.sequential.is_empty()) {
            let run = run_cell(kind, design, 1, args.seed, false, tr);
            if let Some(r) = gated_cell(&mut gate, "sequential rep", run, ops) {
                pass.sequential.push(r);
            }
        }
        let start = Instant::now();
        let run = run_cell(kind, design, threads, args.seed, false, tr);
        spent += start.elapsed();
        let Some(r) = gated_cell(&mut gate, "design rep", run, ops) else {
            break;
        };
        pass.design.push(r);
        if args.trace {
            let run = run_cell(kind, design, threads, args.seed, true, tr);
            let Some(r) = gated_cell(&mut gate, "traced rep", run, ops) else {
                break;
            };
            pass.traced.push(r);
        }
    }

    let Some(first) = pass.design.first() else {
        return Report {
            metrics: Metrics::default(),
            gate,
            simulated: Vec::new(),
            run_s_samples: Vec::new(),
            op_span_samples: 0,
        };
    };
    for r in &pass.design[1..] {
        gate_identical(&mut gate, "design reps", first, r);
    }
    for r in &pass.sequential {
        gate_identical(&mut gate, "threads 2 vs threads 1", first, r);
    }
    for r in &pass.traced {
        gate_identical(&mut gate, "traced vs untraced", first, r);
    }
    if threads > 1 {
        gate.check(
            pass.design.iter().all(|r| r.weave.is_some() || r.diverged),
            "threads-2 reps ran on the weave engine",
        );
    }

    let simulated = simulated_of(first, pass.baseline.as_ref());
    let run_s_samples: Vec<f64> = pass.design.iter().map(|r| r.run_s).collect();
    let op_span_samples = tr.ops.len();
    let metrics = if args.trace {
        let iso = crate::isolated::measure(kind.file_pages());
        layers::cell_layers(&pass, gate.ops_failed, &iso)
    } else {
        let mut setups: Vec<f64> = pass
            .design
            .iter()
            .chain(&pass.sequential)
            .map(|r| r.setup.total_s)
            .collect();
        while setups.len() < SETUP_SAMPLES && median(&setups) < SHORT_SETUP_S {
            match setup_only(kind, args.seed, tr) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    gate.op_failed(&format!("set-up sample: {e}"));
                    break;
                }
            }
        }
        let norm = pass
            .baseline
            .as_ref()
            .map(|b| first.stats.runtime_cycles() as f64 / b.stats.runtime_cycles() as f64);
        end_to_end(
            median(&setups),
            median(&run_s_samples),
            ops,
            norm.map(|n| paper_err_pct(n, kind.paper_ref())),
        )
    };
    Report {
        metrics,
        gate,
        simulated,
        run_s_samples,
        op_span_samples,
    }
}

fn run_grid_workload(args: &Args) -> Report {
    let mut gate = Gate::default();
    let mut reps: Vec<GridRun> = Vec::new();
    let budget = if args.trace { 0.0 } else { args.seconds };
    let start = Instant::now();
    while reps.len() < MAX_REPS && (reps.is_empty() || start.elapsed().as_secs_f64() < budget) {
        reps.push(run_grid(PARALLEL));
    }
    // The traced pass adds the serial grid the runner's speed-up is against.
    let serial = args.trace.then(|| run_grid(1));
    for g in reps.iter().chain(&serial) {
        for r in &g.results {
            match &r.value.1 {
                Ok(_) => gate.ops_ok(r.value.0.ops),
                Err(e) => gate.op_failed(&format!("cell {}: {e}", r.label)),
            }
        }
    }
    let first = &reps[0];
    for g in &reps[1..] {
        gate.check(first.same_results(g), "grid reps bit-identical");
    }
    if let Some(s) = &serial {
        gate.check(first.same_results(s), "--jobs 1 and --jobs 2 bit-identical");
    }
    let fidelity = grid_fidelity(first);
    gate.check(fidelity.is_some(), "grid reference cells completed");

    let simulated = vec![
        (
            "sim_cycles",
            first
                .outcomes()
                .map(|(_, o)| o.stats.runtime_cycles())
                .sum::<u64>()
                .to_string(),
        ),
        (
            "content_hash",
            format!(
                "\"{:016x}\"",
                first
                    .outcomes()
                    .fold(0u64, |h, (_, o)| h.rotate_left(7) ^ o.content_hash)
            ),
        ),
    ];
    let run_s_samples: Vec<f64> = reps.iter().map(|g| g.wall_s).collect();
    let metrics = if let Some(serial) = &serial {
        let iso = crate::isolated::measure(1024);
        layers::grid_layers(first, serial, &iso)
    } else {
        end_to_end(
            median(&reps.iter().map(|g| g.machines_s).collect::<Vec<_>>()),
            median(&run_s_samples),
            first.ops(),
            fidelity.map(|(err, _)| err),
        )
    };
    Report {
        metrics,
        gate,
        simulated,
        run_s_samples,
        op_span_samples: 0,
    }
}
