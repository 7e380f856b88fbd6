//! # tvarak-repro
//!
//! Umbrella crate for the TVARAK (ISCA 2020) reproduction. It re-exports the
//! workspace crates so that examples, integration tests, and downstream users
//! can depend on a single crate:
//!
//! - [`memsim`] — execution-driven cache/memory-hierarchy simulator
//!   (the zsim substitute; cores, L1/L2/LLC, DRAM + NVM DIMMs and their
//!   firmware faults).
//! - [`tvarak`] — the paper's contribution: the TVARAK redundancy controller,
//!   checksum/parity primitives, redundancy layout, software baselines.
//! - [`pmemfs`] — DAX file-system layer: persistent pools, DAX mapping,
//!   libpmemobj-style transactions, recovery.
//! - [`apps`] — the seven evaluated applications and workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use tvarak_repro::prelude::*;
//!
//! // Build a small simulated machine with a TVARAK controller.
//! let mut machine = Machine::builder()
//!     .cores(2)
//!     .nvm_dimms(4)
//!     .design(Design::Tvarak)
//!     .build();
//!
//! // Create a DAX-mapped persistent file and write through the hierarchy.
//! let file = machine.create_dax_file("quick", 64 * 1024).unwrap();
//! machine.write(0, file.addr(0), b"hello tvarak").unwrap();
//! let mut buf = [0u8; 12];
//! machine.read(0, file.addr(0), &mut buf).unwrap();
//! assert_eq!(&buf, b"hello tvarak");
//!
//! // Every LLC->NVM writeback updated checksums + parity; every NVM->LLC
//! // read was verified. Flush and check the redundancy invariant.
//! machine.flush();
//! machine.verify_all(&file).unwrap();
//! ```

pub use apps;
pub use memsim;
pub use pmemfs;
pub use tvarak;

pub mod prelude {
    //! Convenience re-exports for examples and tests.
    pub use apps::driver::{Design, Machine, MachineBuilder};
    pub use memsim::config::SystemConfig;
    pub use memsim::mem::FirmwareFault;
    pub use memsim::stats::Stats;
    pub use tvarak::controller::TvarakConfig;
}
