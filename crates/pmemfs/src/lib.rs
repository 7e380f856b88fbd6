//! # pmemfs — the DAX file-system layer
//!
//! The software side of the paper's system: a persistent pool over the
//! simulated NVM, DAX file mapping (which registers ranges with the TVARAK
//! controller and converts checksum granularity, §III-C), libpmemobj-style
//! transactions with the paper's software redundancy baselines
//! (TxB-Object-Csums, TxB-Page-Csums), firmware fault injection, and the
//! OS-side recovery path.
//!
//! ```
//! use memsim::config::SystemConfig;
//! use memsim::engine::{NullHooks, System};
//! use pmemfs::fs::DaxFs;
//! use tvarak::layout::NvmLayout;
//!
//! let cfg = SystemConfig::small();
//! let layout = NvmLayout::new(cfg.nvm.dimms, 32);
//! let mut sys = System::new(cfg, Box::new(NullHooks));
//! let mut fs = DaxFs::new(layout, &mut sys);
//! let file = fs.create(&mut sys, 16 * 1024)?;
//! file.write(&mut sys, 0, 0, b"hello dax")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fs;
pub mod rebuild;
pub mod recover;
pub mod tx;

pub use fault::Fault;
pub use fs::{DaxFs, FileHandle, FsError, RecoveryError};
pub use rebuild::{PoolState, ReplacementManager};
pub use recover::{Poisoned, RecoveryEvent, RecoveryOrchestrator};
pub use tx::{sw_redundancy_update, SwScheme, Tx, TxError, TxManager};
