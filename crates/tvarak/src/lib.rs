//! # tvarak — the paper's contribution
//!
//! TVARAK (ISCA 2020) is a software-managed hardware offload, co-located with
//! the LLC bank controllers, that maintains *system-checksums* and
//! *cross-DIMM parity* for direct-access (DAX) NVM data:
//!
//! - every LLC→NVM cache-line writeback updates the line's DAX-CL-checksum
//!   and its RAID-5-style parity line;
//! - every NVM→LLC cache-line read is verified against its checksum, so
//!   firmware-bug-induced corruption (lost writes, misdirected reads/writes)
//!   is detected at the first consumption of bad data;
//! - detected corruption is repaired from parity ([`recovery`]).
//!
//! This crate provides the checksum and parity primitives
//! ([`checksum`], [`parity`]), the NVM redundancy layout ([`layout`]), the
//! controller with all of the paper's design elements and their ablations
//! ([`controller`]), redundancy initialization and DAX map/unmap conversions
//! ([`init`]), and parity recovery ([`recovery`]).
//!
//! ```
//! use memsim::config::SystemConfig;
//! use memsim::engine::System;
//! use memsim::PhysAddr;
//! use tvarak::controller::{TvarakConfig, TvarakController};
//! use tvarak::init::initialize_region;
//! use tvarak::layout::NvmLayout;
//!
//! let cfg = SystemConfig::small();
//! let layout = NvmLayout::new(cfg.nvm.dimms, 16);
//! let mut ctrl = TvarakController::new(
//!     TvarakConfig::default(), layout, cfg.llc_banks,
//!     cfg.controller.cache_bytes, cfg.controller.cache_ways);
//! ctrl.map_range(0, 16); // the file system DAX-maps 16 pages
//! let mut sys = System::new(cfg, Box::new(ctrl));
//! initialize_region(&layout, sys.memory_mut(), 0..16);
//!
//! let addr = PhysAddr(layout.nth_data_page(0).base().0);
//! sys.write(0, addr, b"covered by checksums and parity")?;
//! sys.flush();
//! # Ok::<(), memsim::engine::CorruptionDetected>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod controller;
pub mod init;
pub mod layout;
pub mod parity;
pub mod qos;
pub mod rebuild;
pub mod recovery;
pub mod scrub;

pub use controller::{TvarakConfig, TvarakController};
pub use layout::NvmLayout;
pub use qos::{MaintGrant, MaintenanceScheduler, OpBudget, QosConfig};
pub use rebuild::{RebuildStep, Rebuilder};
pub use recovery::RecoveryFailed;
pub use scrub::{ScrubDaemon, ScrubFinding, ScrubGranularity, Scrubber};
