//! Mergeable tail-latency histograms for the TVARAK machine model.
//!
//! [`Hist`] is an HDR-style log-bucketed histogram with the same
//! associative/commutative merge contract as `Stats::merge`: shards merge
//! bit-identically to a monolithic histogram. The degraded and soak
//! campaigns in the `bench` crate report their p50/p99/p999 latency tails
//! with it.

#![warn(missing_docs)]

mod hist;

pub use hist::Hist;
