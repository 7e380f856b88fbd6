//! # memsim — execution-driven cache & memory-hierarchy simulator
//!
//! The zsim substitute for the TVARAK (ISCA 2020) reproduction. It models the
//! paper's Table III machine: Westmere-like cores, per-core L1/L2, a shared
//! inclusive banked LLC with way-partitioning, DRAM, and page-striped NVM
//! DIMMs — all execution-driven over *real bytes*, so redundancy (checksums,
//! parity) computed above it is genuine.
//!
//! The redundancy controller (TVARAK itself, in the `tvarak` crate) plugs in
//! via [`engine::RedundancyHooks`], observing exactly the events the paper's
//! hardware sees: NVM→LLC fills, LLC→NVM writebacks, and LLC clean→dirty
//! transitions.
//!
//! ```
//! use memsim::addr::{PhysAddr, NVM_BASE};
//! use memsim::config::SystemConfig;
//! use memsim::engine::{NullHooks, System};
//!
//! let mut sys = System::new(SystemConfig::small(), Box::new(NullHooks));
//! sys.write(0, PhysAddr(NVM_BASE), b"persistent")?;
//! let mut buf = [0u8; 10];
//! sys.read(0, PhysAddr(NVM_BASE), &mut buf)?;
//! assert_eq!(&buf, b"persistent");
//! # Ok::<(), memsim::engine::CorruptionDetected>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod crc;
pub mod engine;
pub mod fastdiv;
pub mod hash;
pub mod mem;
// `SpscRing` and its `unsafe` go with the weave engine (ROADMAP.md item 1).
#[allow(unsafe_code)]
pub mod spsc;
pub mod stats;
pub mod weave;

pub use addr::{LineAddr, PageNum, PhysAddr, CACHE_LINE, LINES_PER_PAGE, NVM_BASE, PAGE};
pub use config::SystemConfig;
pub use engine::{CorruptionDetected, HookEnv, NullHooks, RedundancyHooks, System};
pub use mem::{Device, FirmwareFault, Memory};
pub use stats::{Counters, Stats};
