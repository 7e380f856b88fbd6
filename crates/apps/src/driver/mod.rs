//! The machine driver: one object bundling the simulated system, the DAX
//! file system, and the chosen redundancy design — the top-level API used by
//! examples, tests, and the benchmark harness.
//!
//! - `design`: the redundancy designs ([`Design`]) and their names;
//! - `machine`: building a [`Machine`] and its plain access, flush and
//!   statistics calls;
//! - `maint`: the maintenance pipeline — recovery, scrubbing, device
//!   replacement, and the per-operation `tick_maintenance` hook;
//! - `run`: the clock-driven schedulers ([`run_clocked`],
//!   [`run_clocked_threads`]).

mod design;
mod machine;
mod maint;
mod run;

pub use design::{Design, ParseDesignError, DEFAULT_VILAMB_EPOCH_TXS, DESIGN_NAMES};
pub use machine::MachineBuilder;
pub use run::{run_clocked, run_clocked_threads, weave_eligibility, ThreadedRun};

use memsim::engine::{CorruptionDetected, System};
use pmemfs::fs::{DaxFs, FsError};
use pmemfs::rebuild::ReplacementManager;
use pmemfs::recover::{Incidents, Poisoned, RecoveryOrchestrator};
use std::error::Error;
use std::fmt;
use tvarak::recovery::RecoveryFailed;
use tvarak::scrub::Scrubber;

/// Errors surfaced by workloads.
#[derive(Debug)]
pub enum AppError {
    /// File-system allocation failure.
    Fs(FsError),
    /// A verified read detected corruption.
    Corruption(CorruptionDetected),
    /// Transaction failure.
    Tx(pmemfs::tx::TxError),
    /// Persistent heap exhausted.
    Oom(crate::alloc::OutOfMemory),
    /// Recovery failed.
    Recovery(RecoveryFailed),
    /// The access touched a quarantined page (degraded mode fails closed).
    Poisoned(Poisoned),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Fs(e) => write!(f, "{e}"),
            AppError::Corruption(e) => write!(f, "{e}"),
            AppError::Tx(e) => write!(f, "{e}"),
            AppError::Oom(e) => write!(f, "{e}"),
            AppError::Recovery(e) => write!(f, "{e}"),
            AppError::Poisoned(e) => write!(f, "{e}"),
        }
    }
}

impl Error for AppError {}

impl From<FsError> for AppError {
    fn from(e: FsError) -> Self {
        AppError::Fs(e)
    }
}

impl From<CorruptionDetected> for AppError {
    fn from(e: CorruptionDetected) -> Self {
        AppError::Corruption(e)
    }
}

impl From<pmemfs::tx::TxError> for AppError {
    fn from(e: pmemfs::tx::TxError) -> Self {
        AppError::Tx(e)
    }
}

impl From<crate::alloc::OutOfMemory> for AppError {
    fn from(e: crate::alloc::OutOfMemory) -> Self {
        AppError::Oom(e)
    }
}

impl From<RecoveryFailed> for AppError {
    fn from(e: RecoveryFailed) -> Self {
        AppError::Recovery(e)
    }
}

impl From<Poisoned> for AppError {
    fn from(e: Poisoned) -> Self {
        AppError::Poisoned(e)
    }
}

/// A simulated machine with a DAX file system and a redundancy design.
#[derive(Debug)]
pub struct Machine {
    /// The simulated system (cores, caches, memory, controller).
    pub sys: System,
    /// The DAX file system.
    pub fs: DaxFs,
    design: Design,
    orchestrator: Option<RecoveryOrchestrator>,
    /// The scrub daemon, if [`Machine::enable_scrub_daemon`] was called.
    scrubber: Option<Scrubber>,
    /// Scrub-time detections of the page the scrub cursor is stuck on, for
    /// bounding repeat offenders (see [`Machine::tick_maintenance`]).
    scrub_incidents: Incidents,
    /// Device-replacement lifecycle + maintenance QoS, if
    /// [`Machine::enable_replacement`] was called.
    replacement: Option<ReplacementManager>,
}
