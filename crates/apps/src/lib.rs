//! # apps — the paper's evaluated applications
//!
//! The seven data-intensive applications of Table II, implemented against
//! the simulated DAX NVM stack, plus workload generators and the top-level
//! [`driver::Machine`] API:
//!
//! - [`redis`] — hashtable key-value store with incremental rehashing and
//!   per-request transactions (set-only / get-only workloads);
//! - [`ctree`], [`btree`], [`rbtree`] — PMDK-style persistent key-value
//!   structures (insert-only / balanced workloads);
//! - [`nstore`] — relational tuple store with a linked-list write-ahead log
//!   (YCSB read-heavy / balanced / update-heavy);
//! - [`fio`] — sequential/random 64 B read/write microbenchmarks;
//! - [`stream`] — copy/scale/add/triad bandwidth kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod btree;
pub mod crashcheck;
pub mod ctree;
pub mod driver;
pub mod fio;
pub mod kv;
pub mod nstore;
pub mod rbtree;
pub mod redis;
pub mod rng;
pub mod stream;
pub mod ycsb;

pub use driver::{AppError, Design, Machine, MachineBuilder};
