//! Property tests for the mergeable-stats contract (`Counters::merge`,
//! `Stats::merge`): identity, associativity, commutativity, and the property
//! callers rely on — merging the accumulations of any partition of one event
//! sequence reproduces the monolithic accumulation bit-for-bit. The soak
//! campaign re-merges interval snapshots on it, and a weave session adds its
//! bound-side counters to the replay worker's on it.
//!
//! Randomness comes from a hand-rolled LCG so runs are deterministic and the
//! crate needs no external property-testing dependency.

use memsim::stats::{Counters, Stats};

/// Deterministic 64-bit LCG (MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Counter-field accessors the generators draw from. A representative
/// cross-section: cache levels, NVM traffic, controller work, and the
/// weave-eligibility counters.
type Field = fn(&mut Counters) -> &mut u64;

const FIELDS: &[Field] = &[
    |c| &mut c.l1d_hits,
    |c| &mut c.llc_hits,
    |c| &mut c.llc_misses,
    |c| &mut c.tvarak_cache_hits,
    |c| &mut c.dram_accesses,
    |c| &mut c.nvm_data_reads,
    |c| &mut c.nvm_data_writes,
    |c| &mut c.nvm_red_reads,
    |c| &mut c.nvm_red_writes,
    |c| &mut c.controller_computes,
    |c| &mut c.demand_queue_cycles,
    |c| &mut c.weave_eligible_runs,
    |c| &mut c.weave_inel_sw_scheme,
    |c| &mut c.weave_inel_raid,
];

fn rand_counters(rng: &mut Lcg) -> Counters {
    let mut c = Counters::default();
    for f in FIELDS {
        *f(&mut c) = rng.next() % 1_000_000;
    }
    c
}

fn rand_stats(rng: &mut Lcg) -> Stats {
    let cores = (rng.next() % 5) as usize;
    let mut s = Stats::new(cores);
    s.counters = rand_counters(rng);
    for cyc in &mut s.core_cycles {
        *cyc = rng.next() % 1_000_000_000;
    }
    s.evict_hash = rng.next();
    s
}

#[test]
fn counters_merge_identity() {
    let mut rng = Lcg(0xc0ffee);
    for _ in 0..200 {
        let c = rand_counters(&mut rng);
        let mut left = c;
        left.merge(&Counters::default());
        assert_eq!(left, c, "right identity");
        let mut right = Counters::default();
        right.merge(&c);
        assert_eq!(right, c, "left identity");
    }
}

#[test]
fn counters_merge_associative_and_commutative() {
    let mut rng = Lcg(0xdecade);
    for _ in 0..200 {
        let (a, b, c) = (
            rand_counters(&mut rng),
            rand_counters(&mut rng),
            rand_counters(&mut rng),
        );
        // (a ⊔ b) ⊔ c
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity");
    }
}

#[test]
fn stats_merge_identity() {
    let mut rng = Lcg(0xfeed);
    for _ in 0..100 {
        let s = rand_stats(&mut rng);
        let mut left = s.clone();
        left.merge(&Stats::identity());
        assert_eq!(left, s, "right identity");
        let mut right = Stats::identity();
        right.merge(&s);
        assert_eq!(right, s, "left identity");
    }
}

#[test]
fn stats_merge_associative() {
    // core_cycles lengths deliberately differ between operands: merge must
    // resize-then-max so grouping cannot matter.
    let mut rng = Lcg(0xbead);
    for _ in 0..100 {
        let (a, b, c) = (
            rand_stats(&mut rng),
            rand_stats(&mut rng),
            rand_stats(&mut rng),
        );
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab, a_bc);
    }
}

/// One abstract stats event, mirroring what a simulated access produces: a
/// counter increment, a core-clock advance (merge-by-max), and an eviction
/// digest contribution (merge-by-XOR).
struct Event {
    field: usize,
    amount: u64,
    core: usize,
    cycles: u64,
    evict: u64,
}

fn rand_events(rng: &mut Lcg, n: usize, cores: usize) -> Vec<Event> {
    (0..n)
        .map(|_| Event {
            field: (rng.next() % FIELDS.len() as u64) as usize,
            amount: rng.next() % 1_000,
            core: (rng.next() % cores as u64) as usize,
            cycles: rng.next() % 1_000_000,
            evict: rng.next(),
        })
        .collect()
}

fn apply(s: &mut Stats, ev: &Event) {
    *FIELDS[ev.field](&mut s.counters) += ev.amount;
    s.core_cycles[ev.core] = s.core_cycles[ev.core].max(ev.cycles);
    s.evict_hash ^= ev.evict;
}

#[test]
fn shard_merge_equals_monolithic() {
    let mut rng = Lcg(0x5eed);
    const CORES: usize = 4;
    for round in 0..20 {
        let shards = 1 + (round % 7);
        let events = rand_events(&mut rng, 500, CORES);
        // Monolithic: every event lands in one accumulator.
        let mut mono = Stats::new(CORES);
        for ev in &events {
            apply(&mut mono, ev);
        }
        // Sharded: each event lands in a randomly chosen shard, shards merge
        // into the identity afterwards (any order — merge is commutative and
        // associative, so pick a rotated order to exercise that too).
        let mut parts: Vec<Stats> = (0..shards).map(|_| Stats::new(CORES)).collect();
        for ev in &events {
            let s = (rng.next() % shards as u64) as usize;
            apply(&mut parts[s], ev);
        }
        let mut merged = Stats::identity();
        for i in 0..shards {
            merged.merge(&parts[(i + round) % shards]);
        }
        // The identity start leaves core_cycles empty until the first merge
        // resizes it; monolithic starts at CORES entries. Normalize shape.
        merged.core_cycles.resize(CORES, 0);
        assert_eq!(merged, mono, "shards={shards} round={round}");
    }
}

#[test]
fn counters_delta_telescopes_across_random_cuts() {
    let mut rng = Lcg(0xcafe_0001);
    for round in 0..50 {
        // A monotone cumulative counter stream: each snapshot adds more.
        let mut cur = Counters::default();
        let mut snaps = vec![cur];
        for _ in 0..1 + rng.next() % 12 {
            cur += rand_counters(&mut rng);
            snaps.push(cur);
        }
        let span = snaps.last().unwrap().delta_since(&snaps[0]);
        let mut merged = Counters::default();
        for w in snaps.windows(2) {
            merged.merge(&w[1].delta_since(&w[0]));
        }
        assert_eq!(merged, span, "round {round}: interval deltas telescope");
    }
}

#[test]
fn stats_interval_snapshots_remerge_to_monolithic() {
    // The soak-campaign contract (ISSUE 9): run one event stream, take
    // cumulative snapshots at random cut points, and re-merge the interval
    // deltas — in a rotated order — back into the monolithic span.
    let mut rng = Lcg(0xcafe_0002);
    const CORES: usize = 4;
    for round in 0..30 {
        let events = rand_events(&mut rng, 400, CORES);
        // Choose random interval boundaries (sorted, possibly duplicated —
        // an empty interval must contribute the merge identity).
        let n_cuts = 1 + (rng.next() % 6) as usize;
        let mut cuts: Vec<usize> = (0..n_cuts)
            .map(|_| (rng.next() % (events.len() as u64 + 1)) as usize)
            .collect();
        cuts.sort_unstable();

        // One machine accumulating cumulatively; snapshot at each cut.
        let mut live = Stats::new(CORES);
        let baseline = live.clone();
        let mut snaps = vec![live.clone()];
        let mut next_cut = 0;
        for (i, ev) in events.iter().enumerate() {
            while next_cut < cuts.len() && cuts[next_cut] == i {
                snaps.push(live.clone());
                next_cut += 1;
            }
            apply(&mut live, ev);
        }
        snaps.push(live.clone());

        // Interval deltas re-merged in rotated order == monolithic span.
        let mut merged = Stats::identity();
        let n = snaps.len() - 1;
        for k in 0..n {
            let i = (k + round) % n;
            merged.merge(&snaps[i + 1].delta_since(&snaps[i]));
        }
        merged.core_cycles.resize(CORES, 0);
        let mono = live.delta_since(&baseline);
        assert_eq!(merged, mono, "round {round} cuts {cuts:?}");
        // And the span delta reproduces the live totals themselves here,
        // because the baseline was the zero state.
        assert_eq!(mono.counters, live.counters, "round {round}");
        assert_eq!(mono.core_cycles, live.core_cycles, "round {round}");
    }
}
