//! Crash-point enumeration: which writeback counts a campaign replays.
//!
//! A crash point `k` means "the NVM media receives exactly the first `k`
//! LLC→NVM writebacks of the measured window, then power fails". The plan is
//! built from a *reference run* that counts the window's total writebacks
//! `N`; small workloads replay every `k ∈ 0..=N` exhaustively, large ones a
//! seeded uniform sample (always including both endpoints).

use apps::rng::splitmix64;

/// The crash points to replay for one (app, design) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Total NVM writebacks of the reference run (crash point `total` is
    /// the "crash after everything persisted" endpoint).
    pub total: u64,
    /// Sorted, de-duplicated crash points to replay.
    pub points: Vec<u64>,
}

impl CrashPlan {
    /// Every crash point `0..=total`.
    pub fn exhaustive(total: u64) -> Self {
        CrashPlan {
            total,
            points: (0..=total).collect(),
        }
    }

    /// At most `samples` crash points: both endpoints plus a uniform
    /// without-replacement sample of the interior, deterministic in `seed`
    /// (same seed → same plan, independent of any global state). Falls back
    /// to exhaustive when `samples` covers `0..=total` anyway.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 2` (the endpoints alone need two slots).
    pub fn sampled(total: u64, samples: usize, seed: u64) -> Self {
        assert!(samples >= 2, "need room for at least the two endpoints");
        if samples as u64 > total {
            return Self::exhaustive(total);
        }
        // Reservoir-sample `samples - 2` interior points from 1..total.
        let k = samples - 2;
        let mut reservoir: Vec<u64> = Vec::with_capacity(k);
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        for point in 1..total {
            let i = (point - 1) as usize;
            if i < k {
                reservoir.push(point);
            } else {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                if j < k {
                    reservoir[j] = point;
                }
            }
        }
        let mut points = reservoir;
        points.push(0);
        points.push(total);
        points.sort_unstable();
        points.dedup();
        CrashPlan { total, points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_covers_all_points() {
        let p = CrashPlan::exhaustive(4);
        assert_eq!(p.points, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let a = CrashPlan::sampled(10_000, 20, 42);
        let b = CrashPlan::sampled(10_000, 20, 42);
        assert_eq!(a, b, "same seed must give the same plan");
        assert!(a.points.len() <= 20);
        assert_eq!(*a.points.first().unwrap(), 0);
        assert_eq!(*a.points.last().unwrap(), 10_000);
        assert!(a.points.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let c = CrashPlan::sampled(10_000, 20, 43);
        assert_ne!(a, c, "different seeds should (here) differ");
    }

    #[test]
    fn small_totals_fall_back_to_exhaustive() {
        let p = CrashPlan::sampled(5, 32, 7);
        assert_eq!(p, CrashPlan::exhaustive(5));
    }
}
