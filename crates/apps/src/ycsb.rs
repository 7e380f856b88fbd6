//! YCSB-style workload generation: zipfian key popularity with the paper's
//! "high skew" configuration (90% of transactions go to 10% of tuples,
//! §IV-D) and update/read operation mixes.

use crate::rng::Rng;

/// A YCSB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the tuple with this key.
    Read(u64),
    /// Update the tuple with this key.
    Update(u64),
}

/// Hot/cold skewed key chooser: `hot_fraction` of accesses hit the first
/// `hot_keys_fraction` of the keyspace (N-Store's YCSB skew knob).
#[derive(Debug, Clone)]
pub struct SkewedKeys {
    keys: u64,
    hot_keys: u64,
    hot_fraction: f64,
    rng: Rng,
    /// Permutation seed decorrelating "key id" from "storage order" so the
    /// hot set is spread over the table, as hashed key choice would be.
    scramble: u64,
}

impl SkewedKeys {
    /// A chooser over `keys` keys where `hot_fraction` of draws come from
    /// the hottest `hot_keys_fraction` of keys. The paper's N-Store runs use
    /// `hot_fraction = 0.9`, `hot_keys_fraction = 0.1`.
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0` or the fractions are outside `(0, 1]`.
    pub fn new(keys: u64, hot_fraction: f64, hot_keys_fraction: f64, seed: u64) -> Self {
        assert!(keys > 0, "need a nonempty keyspace");
        assert!(
            (0.0..=1.0).contains(&hot_fraction) && hot_fraction > 0.0,
            "hot_fraction must be in (0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&hot_keys_fraction) && hot_keys_fraction > 0.0,
            "hot_keys_fraction must be in (0,1]"
        );
        let hot_keys = ((keys as f64 * hot_keys_fraction).ceil() as u64).clamp(1, keys);
        SkewedKeys {
            keys,
            hot_keys,
            hot_fraction,
            rng: Rng::new(seed),
            scramble: seed | 1,
        }
    }

    /// Draw the next key.
    pub fn next_key(&mut self) -> u64 {
        let raw = if self.rng.unit_f64() < self.hot_fraction {
            self.rng.below(self.hot_keys)
        } else {
            self.rng.below(self.keys)
        };
        // Multiplicative scramble to spread the hot set over the keyspace.
        raw.wrapping_mul(self.scramble.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1) % self.keys
    }
}

/// A YCSB operation mix over a skewed keyspace.
#[derive(Debug, Clone)]
pub struct YcsbMix {
    keys: SkewedKeys,
    update_fraction: f64,
    rng: Rng,
}

impl YcsbMix {
    /// The paper's N-Store mixes: `update_fraction` = 0.9 (update-heavy),
    /// 0.5 (balanced), 0.1 (read-heavy), over a 90/10 skewed keyspace.
    pub fn new(keys: u64, update_fraction: f64, seed: u64) -> Self {
        YcsbMix {
            keys: SkewedKeys::new(keys, 0.9, 0.1, seed),
            update_fraction,
            rng: Rng::new(seed ^ 0xabcd_ef01),
        }
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.keys.next_key();
        if self.rng.unit_f64() < self.update_fraction {
            Op::Update(key)
        } else {
            Op::Read(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stay_in_range() {
        let mut s = SkewedKeys::new(1000, 0.9, 0.1, 1);
        for _ in 0..10_000 {
            assert!(s.next_key() < 1000);
        }
    }

    #[test]
    fn skew_concentrates_accesses() {
        let mut s = SkewedKeys::new(10_000, 0.9, 0.1, 2);
        let mut counts = std::collections::HashMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(s.next_key()).or_insert(0u64) += 1;
        }
        // The top 10% of observed keys should hold ~90% of accesses.
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10pct: u64 = freqs.iter().take(1000).sum();
        assert!(
            top10pct as f64 > 0.85 * draws as f64,
            "skew too weak: {top10pct}/{draws}"
        );
    }

    #[test]
    fn mix_ratio_approximates_request() {
        let mut m = YcsbMix::new(1000, 0.5, 3);
        let updates = (0..10_000)
            .filter(|_| matches!(m.next_op(), Op::Update(_)))
            .count();
        assert!((4_000..6_000).contains(&updates), "updates={updates}");
    }

    #[test]
    fn deterministic_sequences() {
        let mut a = YcsbMix::new(100, 0.9, 7);
        let mut b = YcsbMix::new(100, 0.9, 7);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    #[should_panic(expected = "nonempty keyspace")]
    fn empty_keyspace_rejected() {
        SkewedKeys::new(0, 0.9, 0.1, 0);
    }
}
