//! The `serve_campaign` library: open-loop offered-load sweeps over the
//! five redundancy designs, with a knee-finding saturation mode.
//!
//! Each sweep cell builds a fresh machine for one (app, design, offered
//! load) point, generates a seeded open-loop request stream
//! (`serve::arrival`), and drains it through per-core bounded queues
//! (`serve::dispatch`) against the app running on the simulated machine.
//! The stream for a given app depends only on the arrival process, mean
//! gap, and app seed — never on the design — so designs compete on
//! identical request sequences. Cells execute on [`crate::runner`]'s
//! worker pool; all cross-cell decisions (knee bisection) are pure
//! functions of deterministic cell results, so the emitted CSV is
//! byte-identical at any `--jobs` width.
//!
//! The knee mode brackets the saturation knee — the heaviest offered load
//! a (app, design) pair sustains without shedding — from the sweep ladder,
//! then sharpens the bracket with geometric bisection rounds (each round
//! one parallel batch of probes).

use crate::campaign::ScaleKind;
use crate::runner::{run_cells, Cell};
use crate::workloads::{fresh_fio, preloaded_kv, preloaded_redis, scramble, KvKind, Variant};
use apps::driver::{AppError, Design};
use memsim::PAGE;
use serve::{generate, serve_open_loop, AdmissionPolicy, ArrivalProcess};
use serve::{QueueConfig, RequestMix, ServeReport};
use std::fmt;
use std::str::FromStr;

/// Serving-campaign sizing knobs, one set per [`ScaleKind`] like
/// [`crate::workloads::Scale`].
#[derive(Debug, Clone)]
pub struct ServeScale {
    /// Requests offered per sweep point.
    pub requests: u64,
    /// Serving cores (one bounded queue each).
    pub serving_cores: usize,
    /// Keyspace size per app instance.
    pub keys: u64,
    /// Per-core queue-depth cap.
    pub depth: usize,
}

impl ServeScale {
    /// Default evaluation scale.
    pub fn full() -> Self {
        ServeScale {
            requests: 12_000,
            serving_cores: 4,
            keys: 8_192,
            depth: 16,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        ServeScale {
            requests: 1_500,
            serving_cores: 2,
            keys: 1_024,
            depth: 16,
        }
    }

    /// Half-sized sweep points.
    pub fn reduced() -> Self {
        ServeScale {
            requests: 6_000,
            ..ServeScale::full()
        }
    }

    /// The sizing `kind` selects.
    pub fn of(kind: ScaleKind) -> Self {
        kind.pick(ServeScale::quick(), ServeScale::reduced(), ServeScale::full())
    }
}

/// Which application serves the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedApp {
    /// fio-style raw 64 B accesses on per-core regions.
    Fio,
    /// PMDK-style B+tree per core (transactional inserts, plain gets).
    Kv,
    /// Redis-style persistent hash table per core.
    Redis,
}

impl ServedApp {
    /// Label for reports (the canonical [`FromStr`] spelling).
    pub fn label(&self) -> &'static str {
        match self {
            ServedApp::Fio => "fio",
            ServedApp::Kv => "kv",
            ServedApp::Redis => "redis",
        }
    }

    /// Deterministic seed of this app's request streams.
    fn seed(&self) -> u64 {
        match self {
            ServedApp::Fio => 0xF10,
            ServedApp::Kv => 0xCAFE,
            ServedApp::Redis => 0x12ED,
        }
    }

    /// Parse a `SERVE_APPS` list such as `fio,kv,redis`.
    ///
    /// # Errors
    ///
    /// The first entry that names no app, or a list that names none at all.
    pub fn parse_list(list: &str) -> Result<Vec<ServedApp>, String> {
        let apps: Vec<ServedApp> =
            list.split(',').filter(|s| !s.is_empty()).map(str::parse).collect::<Result<_, _>>()?;
        if apps.is_empty() {
            return Err("names no app (expected fio, kv, or redis)".into());
        }
        Ok(apps)
    }
}

impl fmt::Display for ServedApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ServedApp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fio" => Ok(ServedApp::Fio),
            "kv" => Ok(ServedApp::Kv),
            "redis" => Ok(ServedApp::Redis),
            other => Err(format!(
                "unknown served app {other:?} (expected fio, kv, or redis)"
            )),
        }
    }
}

/// Run one (app, design, offered-load) sweep point.
///
/// # Errors
///
/// Propagates [`AppError`] from the served application.
pub fn run_serve_point(
    app: ServedApp,
    design: Design,
    process: ArrivalProcess,
    policy: AdmissionPolicy,
    mean_gap: f64,
    s: &ServeScale,
) -> Result<ServeReport, AppError> {
    let mix = RequestMix {
        keys: s.keys,
        ..RequestMix::default()
    };
    let reqs = generate(process, mean_gap, s.requests, &mix, app.seed());
    let qc = QueueConfig {
        depth: s.depth,
        policy,
    };
    let cores = s.serving_cores;
    let v = Variant::of(design);
    match app {
        ServedApp::Fio => {
            let region_bytes = (s.keys * 64).max(PAGE as u64);
            let (mut m, mut fio, mut txm) = fresh_fio(&v, cores, region_bytes, 1)?;
            serve_open_loop(&mut m, cores, &reqs, qc, |m, core, r| {
                fio.keyed_op(m, txm.as_mut(), core, r.key, r.write)
            })
        }
        ServedApp::Kv => {
            let (mut m, mut txm, mut instances) =
                preloaded_kv(&v, KvKind::BTree, cores, s.keys, s.requests)?;
            serve_open_loop(&mut m, cores, &reqs, qc, |m, core, r| {
                if r.write {
                    instances[core].insert(m, &mut txm, scramble(r.key), r.seq)?;
                } else {
                    instances[core].get(m, scramble(r.key))?;
                }
                Ok(())
            })
        }
        ServedApp::Redis => {
            let (mut m, mut txm, mut instances, val) =
                preloaded_redis(&v, cores, s.keys, 64, |k, _| scramble(k))?;
            serve_open_loop(&mut m, cores, &reqs, qc, |m, core, r| {
                if r.write {
                    instances[core].set(m, &mut txm, scramble(r.key), &val)?;
                } else {
                    let mut out = Vec::new();
                    instances[core].get(m, &mut txm, scramble(r.key), &mut out)?;
                }
                Ok(())
            })
        }
    }
}

/// The sweep's offered-load ladder: mean inter-arrival gaps in cycles,
/// light to heavy. The heaviest point (4 cycles/request) is far past any
/// design's per-request service time, guaranteeing at least one point
/// beyond the saturation knee (shed > 0 under the shed policy).
pub fn gap_ladder() -> Vec<f64> {
    vec![8192.0, 2048.0, 512.0, 128.0, 32.0, 4.0]
}

/// One measured sweep point: identity plus the dispatch report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// `sweep` for ladder points, `knee` for bisection probes.
    pub phase: &'static str,
    /// Served application.
    pub app: ServedApp,
    /// Redundancy design.
    pub design: Design,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Per-core queue-depth cap the point ran with.
    pub depth: usize,
    /// Mean inter-arrival gap in cycles.
    pub mean_gap: f64,
    /// The dispatch loop's report.
    pub report: ServeReport,
}

/// A bracketed saturation knee for one (app, design) pair.
#[derive(Debug, Clone)]
pub struct KneeEstimate {
    /// Served application.
    pub app: ServedApp,
    /// Redundancy design.
    pub design: Design,
    /// Estimated knee gap in cycles (geometric midpoint of the final
    /// bracket); `None` when the sweep never shed (knee below the ladder's
    /// heaviest point — cannot happen with the default ladder) or always
    /// shed.
    pub knee_gap: Option<f64>,
}

/// Campaign configuration: the cross product actually run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Apps serving request streams.
    pub apps: Vec<ServedApp>,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Bisection rounds sharpening each knee bracket (0 disables knee
    /// mode).
    pub knee_rounds: u32,
    /// Sizing knobs.
    pub scale: ServeScale,
}

impl Default for CampaignConfig {
    /// `fio` and `kv`, Poisson arrivals, shed policy, no knee rounds, full
    /// scale.
    fn default() -> Self {
        CampaignConfig {
            apps: vec![ServedApp::Fio, ServedApp::Kv],
            process: ArrivalProcess::Poisson,
            policy: AdmissionPolicy::Shed,
            knee_rounds: 0,
            scale: ServeScale::full(),
        }
    }
}

fn point_cell(
    cfg: &CampaignConfig,
    phase: &'static str,
    app: ServedApp,
    design: Design,
    gap: f64,
) -> Cell<SweepRow> {
    let (process, policy, scale) = (cfg.process, cfg.policy, cfg.scale.clone());
    Cell::new(
        format!("serve:{app}:{design}:{phase}:gap{gap:.2}"),
        move || {
            let depth = scale.depth;
            let report = run_serve_point(app, design, process, policy, gap, &scale)
                .unwrap_or_else(|e| panic!("serve {app}/{design} gap {gap}: {e}"));
            SweepRow {
                phase,
                app,
                design,
                process,
                policy,
                depth,
                mean_gap: gap,
                report,
            }
        },
    )
}

/// Run the full campaign: the ladder sweep for every (app, design) pair,
/// plus `knee_rounds` geometric-bisection rounds sharpening each pair's
/// saturation bracket. Returns all measured rows (ladder then bisection
/// probes, in deterministic order) and the knee estimates.
///
/// Every cross-cell decision is a pure function of cell results, and
/// [`run_cells`] returns results in input order, so the output is
/// byte-identical at any `jobs` width.
pub fn run_campaign(cfg: &CampaignConfig, jobs: usize) -> (Vec<SweepRow>, Vec<KneeEstimate>) {
    let ladder = gap_ladder();
    let pairs: Vec<(ServedApp, Design)> = cfg
        .apps
        .iter()
        .flat_map(|&a| Design::all().into_iter().map(move |d| (a, d)))
        .collect();
    let cells: Vec<Cell<SweepRow>> = pairs
        .iter()
        .flat_map(|&(a, d)| ladder.iter().map(move |&g| (a, d, g)))
        .map(|(a, d, g)| point_cell(cfg, "sweep", a, d, g))
        .collect();
    let mut rows: Vec<SweepRow> = run_cells(cells, jobs).into_iter().map(|r| r.value).collect();

    let mut estimates = Vec::new();
    if cfg.knee_rounds > 0 {
        // Initial bracket per pair: the lightest shedding gap and the
        // heaviest non-shedding gap from the ladder (ladder is light →
        // heavy, i.e. descending gap).
        let mut brackets: Vec<Option<(f64, f64)>> = pairs
            .iter()
            .map(|&(a, d)| {
                let of = |gap: f64| {
                    rows.iter()
                        .find(|r| r.app == a && r.design == d && r.mean_gap == gap)
                        .map(|r| r.report.shed)
                        .unwrap_or(0)
                };
                ladder
                    .windows(2)
                    .find(|w| of(w[0]) == 0 && of(w[1]) > 0)
                    .map(|w| (w[0], w[1]))
            })
            .collect();
        for _ in 0..cfg.knee_rounds {
            let probes: Vec<(usize, f64)> = brackets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.map(|(lo, hi)| (i, (lo * hi).sqrt())))
                .collect();
            let cells: Vec<Cell<SweepRow>> = probes
                .iter()
                .map(|&(i, g)| {
                    let (a, d) = pairs[i];
                    point_cell(cfg, "knee", a, d, g)
                })
                .collect();
            let probe_rows: Vec<SweepRow> =
                run_cells(cells, jobs).into_iter().map(|r| r.value).collect();
            for (&(i, g), row) in probes.iter().zip(&probe_rows) {
                let b = brackets[i].as_mut().expect("probed pair has a bracket");
                if row.report.shed > 0 {
                    b.1 = g; // still shedding: knee is at a lighter load
                } else {
                    b.0 = g; // not shedding: knee is at a heavier load
                }
            }
            rows.extend(probe_rows);
        }
        estimates = pairs
            .iter()
            .zip(&brackets)
            .map(|(&(app, design), b)| KneeEstimate {
                app,
                design,
                knee_gap: b.map(|(lo, hi)| (lo * hi).sqrt()),
            })
            .collect();
    }
    (rows, estimates)
}

/// Verify the campaign's accounting invariants: every point must satisfy
/// `offered == accepted + shed` and `completed == accepted`, and the
/// ladder sweep must include at least one point past the saturation knee
/// (`shed > 0`) for every (app, design) pair under the shed policy.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_invariants(rows: &[SweepRow]) -> Result<(), String> {
    for r in rows {
        let rep = &r.report;
        if rep.accepted + rep.shed != rep.offered {
            return Err(format!(
                "{}/{} gap {:.2}: offered {} != accepted {} + shed {}",
                r.app, r.design, r.mean_gap, rep.offered, rep.accepted, rep.shed
            ));
        }
        if rep.completed != rep.accepted {
            return Err(format!(
                "{}/{} gap {:.2}: completed {} != accepted {}",
                r.app, r.design, r.mean_gap, rep.completed, rep.accepted
            ));
        }
        if rep.latency.count() != rep.completed {
            return Err(format!(
                "{}/{} gap {:.2}: histogram count {} != completed {}",
                r.app,
                r.design,
                r.mean_gap,
                rep.latency.count(),
                rep.completed
            ));
        }
    }
    let sweep = rows.iter().filter(|r| r.phase == "sweep");
    let mut pairs: Vec<(ServedApp, Design)> = sweep.clone().map(|r| (r.app, r.design)).collect();
    pairs.dedup();
    for (a, d) in pairs {
        let shed_seen = rows.iter().any(|r| {
            r.phase == "sweep"
                && r.app == a
                && r.design == d
                && r.policy == AdmissionPolicy::Shed
                && r.report.shed > 0
        });
        let uses_shed = rows
            .iter()
            .any(|r| r.app == a && r.design == d && r.policy == AdmissionPolicy::Shed);
        if uses_shed && !shed_seen {
            return Err(format!(
                "{a}/{d}: no sweep point past the saturation knee (shed == 0 everywhere)"
            ));
        }
    }
    Ok(())
}
