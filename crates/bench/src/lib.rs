//! # bench — experiment harness
//!
//! Regenerates every table and figure of the TVARAK paper's evaluation
//! (§IV). Each binary declares one [`campaign::Campaign`] — a grid of
//! independent cells — and the driver writes `results/*.csv` alongside a
//! human-readable table on stdout:
//!
//! - `show_config` — Table III (simulation parameters)
//! - `fig8_redis`, `fig8_kv`, `fig8_nstore`, `fig8_fio`, `fig8_stream` —
//!   Fig. 8(a–t): runtime, energy, NVM and cache accesses per design
//! - `fig9_ablation` — Fig. 9: TVARAK design-choice breakdown
//! - `fig10_sensitivity` — Fig. 10: LLC way-partition sensitivity
//! - `sec4h_scaling` — §IV-H: NVM DIMM count and NVM technology scaling
//! - `vilamb_sweep` — extension: Vilamb-style asynchronous-redundancy epochs
//! - `coverage_campaign` — Table I's verification column, quantified by
//!   fault injection
//! - `chaos_campaign` — fault type × design × app sweep asserting the
//!   survival invariants of the detection → recovery → degradation
//!   pipeline (DESIGN.md §8)
//! - `degraded_campaign` — device-failure storms under foreground load:
//!   degraded reads, online resilver, oracle bit-identity (DESIGN.md §13)
//! - `crashsim_campaign` — app × design × crash point: every power failure
//!   recovers to a consistent state (DESIGN.md §10)
//! - `soak_campaign` — long-horizon interval snapshots checked against the
//!   machine's monolithic stats (DESIGN.md §16)
//! - `probe` — ad-hoc single-workload comparisons for calibration
//!
//! How fast the simulator itself runs is measured by the standalone
//! `benchmark/` crate (`BENCHMARK.json`), not by anything in this crate.
//!
//! Every binary but `show_config` takes `--jobs N` / `MEMSIM_JOBS` (worker
//! pool width; output is byte-identical at any setting), `--threads N` /
//! `MEMSIM_ENGINE_THREADS` and `TVARAK_SCALE=quick|reduced|full`; anything
//! unknown or malformed is a usage error (exit 2), a violated invariant or
//! failed write exits 1. `scripts/reproduce.sh` chains everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod faulted;
pub mod report;
pub mod runner;
pub mod soak;
pub mod workloads;

pub use report::{Report, Row};
pub use runner::{run_cells, Cell, CellResult};
pub use workloads::{Outcome, Scale};
