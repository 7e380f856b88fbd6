//! Property tests for the histogram merge contract and quantile bounds.
//!
//! Hand-rolled randomized trials (seeded LCG, no external property-test
//! dependency — the workspace is hermetic): each trial draws a random
//! sample stream spanning the exact low range through large bucketed
//! values, then checks the algebraic laws [`serve::Hist`] promises.

use serve::Hist;

/// Minimal deterministic generator for trial data (distinct from
/// `apps::rng::Rng` so test inputs aren't correlated with workload
/// streams).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Constants from Knuth's MMIX LCG.
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// A sample spanning many octaves: uniform within a random bit-width.
    fn sample(&mut self) -> u64 {
        let bits = self.next() % 49; // widths 0..=48 bits
        self.next() >> (63 - bits.min(63))
    }
}

fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut g = Lcg(seed);
    (0..n).map(|_| g.sample()).collect()
}

fn hist_of(samples: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in samples {
        h.record(v);
    }
    h
}

#[test]
fn merge_identity_left_and_right() {
    for seed in 1..=20u64 {
        let h = hist_of(&stream(seed, 500));
        let mut left = Hist::new();
        left.merge(&h);
        assert_eq!(left, h, "seed {seed}: new().merge(h) != h");
        let mut right = h.clone();
        right.merge(&Hist::new());
        assert_eq!(right, h, "seed {seed}: h.merge(new()) != h");
    }
}

#[test]
fn merge_commutes() {
    for seed in 1..=20u64 {
        let a = hist_of(&stream(seed, 400));
        let b = hist_of(&stream(seed.wrapping_mul(31) + 7, 300));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}: a+b != b+a");
    }
}

#[test]
fn merge_is_associative() {
    for seed in 1..=20u64 {
        let a = hist_of(&stream(seed, 200));
        let b = hist_of(&stream(seed + 1000, 200));
        let c = hist_of(&stream(seed + 2000, 200));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "seed {seed}: (a+b)+c != a+(b+c)");
    }
}

#[test]
fn shard_merge_equals_monolithic() {
    for seed in 1..=20u64 {
        let samples = stream(seed, 1000);
        let monolithic = hist_of(&samples);
        // Shard the stream across a seed-dependent shard count, any
        // interleaving (round-robin keeps all shards non-trivial).
        let shards = 2 + (seed as usize % 7);
        let mut parts = vec![Hist::new(); shards];
        for (i, &v) in samples.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = Hist::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(
            merged, monolithic,
            "seed {seed}: {shards}-way shard merge != monolithic"
        );
    }
}

#[test]
fn quantiles_bracket_true_sample() {
    for seed in 1..=20u64 {
        let mut samples = stream(seed, 999);
        let h = hist_of(&samples);
        samples.sort_unstable();
        for &q in &[0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                lo <= truth && truth <= hi,
                "seed {seed} q={q}: true {truth} outside bucket [{lo},{hi}]"
            );
            // The reported point estimate is the bucket's upper bound:
            // never below the true sample, and within one sub-bucket width.
            assert_eq!(h.quantile(q), hi);
        }
    }
}

#[test]
fn taken_intervals_remerge_to_monolithic() {
    // The soak-campaign snapshot contract: `take()` at random interval
    // boundaries drains the live histogram; re-merging the taken intervals
    // (any grouping) is bit-identical to one histogram fed the whole
    // stream, and each take leaves the merge identity behind.
    for seed in 1..=20u64 {
        let samples = stream(seed, 800);
        let monolithic = hist_of(&samples);
        let mut cut_rng = Lcg(seed ^ 0x7a4e);
        let mut live = Hist::new();
        let mut remerged = Hist::new();
        for &v in &samples {
            live.record(v);
            if cut_rng.next().is_multiple_of(50) {
                let interval = live.take();
                assert_eq!(live, Hist::new(), "seed {seed}: take leaves identity");
                remerged.merge(&interval);
            }
        }
        remerged.merge(&live.take());
        assert_eq!(remerged, monolithic, "seed {seed}");
    }
}

#[test]
fn count_sum_extrema_survive_merge() {
    for seed in 1..=20u64 {
        let a = stream(seed, 300);
        let b = stream(seed + 77, 500);
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(merged.count(), all.len() as u64);
        assert_eq!(merged.min(), *all.iter().min().unwrap());
        assert_eq!(merged.max(), *all.iter().max().unwrap());
        let mean = all.iter().map(|&v| v as f64).sum::<f64>() / all.len() as f64;
        assert!((merged.mean() - mean).abs() <= mean.abs() * 1e-12 + 1e-9);
    }
}
