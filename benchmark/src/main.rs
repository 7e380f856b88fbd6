//! The repo benchmark (see `benchmark/README.md` and `/BENCHMARK.json`).
//!
//! `--workload NAME` runs one workload in this process and prints, as the
//! last line of stdout, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The line before it
//! describes the run (seed, reps, host fingerprint, simulated results).
//! Without `--workload`, every workload runs in turn, each in a child
//! process of its own so that `rss_peak_mib` is per workload.

mod cells;
mod grid;
mod isolated;
mod layers;
mod trace;
mod util;
mod workloads;

use std::process::{Command, ExitCode};
use trace::Tracer;
use util::nproc;
use workloads::{Args, Workload, PARALLEL, WORKLOADS};

const USAGE: &str =
    "usage: tvarak-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

struct Cli {
    workload: Option<String>,
    args: Args,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: 1,
            seconds: 15.0,
            trace: false,
        },
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                cli.args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                cli.args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                cli.args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}`")),
                }
            }
            // The harness fixes its own widths; it never oversubscribes.
            "--jobs" | "--threads" => {
                return Err(format!(
                    "{flag} is fixed by the workload (at most {PARALLEL}, never above nproc)"
                ))
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    if w.needs_parallel() && nproc() < PARALLEL {
        eprintln!(
            "{} needs {PARALLEL} host threads, this host has {}",
            w.name,
            nproc()
        );
        return ExitCode::FAILURE;
    }
    let mut tr = Tracer::new();
    let report = w.run(args, &mut tr);
    if args.trace {
        let path = out_dir().join("trace.json");
        if let Err(e) = tr.dump(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for f in &report.gate.failures {
        eprintln!("FAILED: {f}");
    }
    let simulated: Vec<String> = report
        .simulated
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"run_s_samples\": {:?}, \
         \"op_span_samples\": {}, \"nproc\": {}, \"hw_crc32c\": {}, \"rustc\": {}, \
         \"failures\": [{}], \"simulated\": {{{}}}}}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        args.trace as u8,
        report.run_s_samples,
        report.op_span_samples,
        nproc(),
        memsim::crc::hw_available(),
        json_str(env!("BENCH_RUSTC_VERSION")),
        report
            .gate
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
        simulated.join(", "),
    );
    let correct = report.gate.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.gate.attempted,
        report.gate.failed,
        report.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, one child process each, relaying their output. With
/// `--trace`, each workload gets the traced pass after the untraced one.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in if args.trace {
            &["0", "1"][..]
        } else {
            &["0"][..]
        } {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} --trace {trace}: {s}", w.name);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{} --trace {trace}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        None => run_all(&cli.args),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => run_one(w, &cli.args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload `{name}`; workloads: {}", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}
