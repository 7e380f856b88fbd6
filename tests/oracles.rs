//! Tier-1 reach into the oracles the campaigns lean on but that otherwise
//! run only under `--workspace`: merged ≡ monolithic on synthetic counters
//! (`stats_merge`) and on live machines (`soak_oracle`), crash-at-N ≡
//! clean shutdown (`crash_points`), and fast-forwarded ≡ timed preload
//! (one tiny case of `fast_forward`'s oracle). The suites are included, not
//! copied, so the root package's `cargo test` runs exactly what the member
//! crates run.

#[path = "../crates/crashsim/tests/crash_points.rs"]
mod crash_points;
#[path = "../crates/bench/tests/preload_oracle/mod.rs"]
mod fast_forward;
#[path = "../crates/bench/tests/soak_oracle.rs"]
mod soak_oracle;
#[path = "../crates/memsim/tests/stats_merge.rs"]
mod stats_merge;
