//! # crashsim — deterministic crash-point enumeration and recovery checking
//!
//! A crash in the simulated DAX NVM stack is modeled the way the paper's
//! storage model demands: *every volatile structure is lost and the media
//! keeps exactly the lines that were written back*. `memsim` exposes the
//! primitive — an NVM-writeback budget that admits the first `k` media
//! writes of a window and silently drops the rest — and this crate turns it
//! into a verification harness:
//!
//! 1. A **reference run** ([`Scenario::count_writebacks`]) executes the
//!    workload once with an unlimited budget and counts the window's NVM
//!    writebacks `N`.
//! 2. A [`CrashPlan`] picks crash points `k ∈ 0..=N` — exhaustively for
//!    small windows, by seeded reservoir sampling for large ones.
//! 3. Each point is **replayed** ([`Scenario::run_crash_point`]): the same
//!    deterministic run with budget `k`, then simulated power loss, redundancy
//!    audit + resilver, transaction-log recovery, and finally the
//!    redundancy-consistency and application-level crash invariants.
//!
//! Because the simulation is single-threaded and deterministic, the same
//! `(scenario, k)` pair always produces the same post-crash image — crash
//! points are reproducible coordinates, not race lotteries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod scenario;

pub use plan::CrashPlan;
pub use scenario::{AppKind, CrashReport, Outcome, Scenario};
