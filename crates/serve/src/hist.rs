//! HDR-style log-bucketed latency histogram.
//!
//! Latency distributions span four-plus orders of magnitude (an LLC-hit
//! request costs tens of cycles; a request queued behind a saturated NVM
//! DIMM costs millions), so the histogram buckets values logarithmically:
//! every octave `[2^e, 2^(e+1))` is split into [`SUB`] linear sub-buckets,
//! bounding the relative quantile error at `2^-SUB_BITS` (3.125%). Values
//! below `2 * SUB` are recorded exactly.
//!
//! [`Hist::merge`] follows the same associative/commutative contract as
//! `memsim::stats::Stats::merge`, with [`Hist::new`] as the identity:
//! per-core shards recorded independently and merged in any order or
//! grouping are bit-identical to one monolithic histogram fed the combined
//! stream (`serve/tests/hist_props.rs` proves it on randomized sequences).
//! The soak campaign leans on this: interval histograms drained with
//! [`Hist::take`] re-merge to the monolithic run's.

/// Sub-bucket resolution in bits: each octave holds `2^SUB_BITS` linear
/// sub-buckets, so any reported quantile is within `2^-SUB_BITS` (3.125%)
/// of the true sample.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
pub const SUB: u64 = 1 << SUB_BITS;
/// Bucket count: the exact low range `[0, 2*SUB)` plus `SUB` sub-buckets
/// for every octave `2^6 ..= 2^63`.
const BUCKETS: usize = (2 * SUB as usize) + (64 - 1 - SUB_BITS as usize) * SUB as usize;

/// A mergeable log-bucketed histogram of `u64` samples (cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

/// Bucket index of value `v`.
#[inline]
fn index_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // v in [2^exp, 2^(exp+1)), exp >= SUB_BITS+1
    let sub = (v >> (exp - SUB_BITS as u64)) - SUB;
    (2 * SUB + (exp - SUB_BITS as u64 - 1) * SUB + sub) as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
#[inline]
fn bounds_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, i);
    }
    let exp = (i - 2 * SUB) / SUB + SUB_BITS as u64 + 1;
    let sub = (i - 2 * SUB) % SUB;
    let width = 1u64 << (exp - SUB_BITS as u64);
    let lo = (SUB + sub) << (exp - SUB_BITS as u64);
    (lo, lo + (width - 1))
}

impl Hist {
    /// An empty histogram — the identity element of [`Hist::merge`].
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of sample `v`.
    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped to the exact
    /// observed maximum. Reported values therefore *bound the true sample
    /// from above* within one sub-bucket width (≤ 3.125% relative error);
    /// the bucket's lower bound is `quantile_bounds(q).0`. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// The `[lo, hi]` value range of the bucket holding the `q`-quantile
    /// sample (`hi` clamped to the observed maximum). The true sample of
    /// rank `ceil(q * count)` lies within this range.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds_of(i);
                return (lo, hi.min(self.max));
            }
        }
        (self.max, self.max)
    }

    /// Median (see [`Hist::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (see [`Hist::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (see [`Hist::quantile`]).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram shard into this one.
    ///
    /// # Merge contract
    ///
    /// Associative and commutative, with [`Hist::new`] as identity: bucket
    /// counts add element-wise, `count`/`sum` add, `min`/`max` combine by
    /// min/max. Recording disjoint slices of one sample stream into shards
    /// and merging them (any order, any grouping) is bit-identical to
    /// recording the whole stream into one histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Drain this histogram, returning its contents and leaving the identity
    /// ([`Hist::new`]) behind — the interval-snapshot primitive.
    ///
    /// Unlike `Counters`, a histogram has no sound `delta_since`: interval
    /// `min`/`max` (and hence interval quantile clamping) are not derivable
    /// from two cumulative snapshots. A soak loop therefore `take`s the hist
    /// at each interval boundary instead; merging the taken intervals back
    /// together (any order, any grouping, per the [`Hist::merge`] contract)
    /// is bit-identical to one histogram fed the whole stream.
    pub fn take(&mut self) -> Hist {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_range_is_exact() {
        for v in 0..2 * SUB {
            assert_eq!(bounds_of(index_of(v)), (v, v), "v={v}");
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        for shift in 0..64u32 {
            for off in [0u64, 1, 2, 7] {
                let v = (1u64 << shift).saturating_add(off);
                let (lo, hi) = bounds_of(index_of(v));
                assert!(lo <= v && v <= hi, "v={v} bucket=[{lo},{hi}]");
            }
        }
        let (lo, hi) = bounds_of(index_of(u64::MAX));
        assert!(lo > 0, "top bucket starts above zero");
        assert_eq!(hi, u64::MAX, "top bucket covers the maximum");
    }

    #[test]
    fn buckets_tile_without_gaps() {
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bounds_of(i);
            let (lo_next, _) = bounds_of(i + 1);
            assert_eq!(hi + 1, lo_next, "gap between buckets {i} and {}", i + 1);
        }
    }

    #[test]
    fn relative_error_bounded() {
        for &v in &[100u64, 1000, 65_537, 1 << 30, (1 << 40) + 12345] {
            let (lo, hi) = bounds_of(index_of(v));
            assert!((hi - lo) as f64 <= v as f64 / SUB as f64, "v={v}");
        }
    }

    #[test]
    fn quantiles_of_known_stream() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // True p50 = 500; reported bucket upper bound is within 3.125%.
        let p50 = h.p50();
        assert!((500..=516).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_identity() {
        let mut h = Hist::new();
        h.record_n(42, 3);
        h.record(1 << 20);
        let mut i = Hist::new();
        i.merge(&h);
        assert_eq!(i, h);
        let mut h2 = h.clone();
        h2.merge(&Hist::new());
        assert_eq!(h2, h);
    }

    #[test]
    fn take_drains_and_intervals_remerge() {
        let mut live = Hist::new();
        let mut oracle = Hist::new();
        let mut remerged = Hist::new();
        for (i, v) in [3u64, 70_000, 12, 9_999_999, 64, 1, 80_000]
            .iter()
            .enumerate()
        {
            live.record(*v);
            oracle.record(*v);
            if i % 3 == 2 {
                remerged.merge(&live.take());
                assert_eq!(live, Hist::new(), "take leaves the identity");
            }
        }
        remerged.merge(&live.take());
        assert_eq!(remerged, oracle);
    }

    #[test]
    fn max_is_exact_even_when_bucketed() {
        let mut h = Hist::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(1.0), 1_000_003);
    }
}
