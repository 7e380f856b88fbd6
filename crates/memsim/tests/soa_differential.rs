//! Differential test: the structure-of-arrays `CacheArray` against a
//! reference re-implementation of the pre-refactor array-of-structs layout.
//!
//! The oracle below is a faithful copy of the old `Vec<Entry>` cache —
//! same tick discipline (every lookup/insert advances the tick, hit or
//! miss), same first-invalid-else-strict-LRU victim choice, same dirty
//! OR-ing on re-insert. Randomized op streams over randomized way
//! partitions must produce identical hit/miss results, identical evicted
//! (line, dirty, data) sequences, and identical occupancy at every step —
//! which pins the SoA refactor to the old behaviour far more densely than
//! the end-to-end goldens alone. Half the lines are drawn from the NVM line
//! range, so the array's bit-inverted tag encoding is checked at the
//! addresses the simulator really caches, not only near zero.

use memsim::addr::{LineAddr, CACHE_LINE, LINE_SHIFT, NVM_BASE};
use memsim::cache::{CacheArray, Evicted, NO_OWNER};
use memsim::hash::splitmix64;
use std::ops::Range;

/// The pre-refactor entry layout, verbatim.
#[derive(Debug, Clone)]
struct OracleEntry {
    line: LineAddr,
    valid: bool,
    dirty: bool,
    lru: u64,
    data: [u8; CACHE_LINE],
    sharers: u64,
    owner: u8,
    excl: bool,
}

impl OracleEntry {
    fn empty() -> Self {
        OracleEntry {
            line: LineAddr(0),
            valid: false,
            dirty: false,
            lru: 0,
            data: [0; CACHE_LINE],
            sharers: 0,
            owner: NO_OWNER,
            excl: false,
        }
    }
}

/// The pre-refactor array-of-structs cache, kept as a behavioural oracle.
struct OracleCache {
    sets: usize,
    ways: usize,
    set_div: u64,
    tick: u64,
    entries: Vec<OracleEntry>,
}

impl OracleCache {
    fn new(sets: usize, ways: usize, set_div: u64) -> Self {
        OracleCache {
            sets,
            ways,
            set_div,
            tick: 0,
            entries: vec![OracleEntry::empty(); sets * ways],
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        ((line.0 / self.set_div) as usize) & (self.sets - 1)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn lookup(&mut self, line: LineAddr, ways: Range<usize>) -> Option<&mut OracleEntry> {
        let set = self.set_of(line);
        let tick = self.next_tick();
        for way in ways {
            let idx = self.slot(set, way);
            if self.entries[idx].valid && self.entries[idx].line == line {
                let e = &mut self.entries[idx];
                e.lru = tick;
                return Some(e);
            }
        }
        None
    }

    fn insert(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> Option<Evicted> {
        let set = self.set_of(line);
        let tick = self.next_tick();
        for way in ways.clone() {
            let idx = self.slot(set, way);
            if self.entries[idx].valid && self.entries[idx].line == line {
                let e = &mut self.entries[idx];
                e.data = *data;
                e.dirty |= dirty;
                e.lru = tick;
                return None;
            }
        }
        let mut victim_way = None;
        let mut victim_lru = u64::MAX;
        for way in ways {
            let idx = self.slot(set, way);
            let e = &self.entries[idx];
            if !e.valid {
                victim_way = Some(way);
                break;
            }
            if e.lru < victim_lru {
                victim_lru = e.lru;
                victim_way = Some(way);
            }
        }
        let way = victim_way.expect("insert called with empty way range");
        let idx = self.slot(set, way);
        let old = &self.entries[idx];
        let evicted = if old.valid {
            Some(Evicted {
                line: old.line,
                dirty: old.dirty,
                data: old.data,
                sharers: old.sharers,
                owner: old.owner,
            })
        } else {
            None
        };
        self.entries[idx] = OracleEntry {
            line,
            valid: true,
            dirty,
            lru: tick,
            data: *data,
            sharers: 0,
            owner: NO_OWNER,
            excl: false,
        };
        evicted
    }

    fn invalidate(&mut self, line: LineAddr, ways: Range<usize>) -> Option<Evicted> {
        let set = self.set_of(line);
        for way in ways {
            let idx = self.slot(set, way);
            if self.entries[idx].valid && self.entries[idx].line == line {
                let e = &mut self.entries[idx];
                e.valid = false;
                return Some(Evicted {
                    line: e.line,
                    dirty: e.dirty,
                    data: e.data,
                    sharers: e.sharers,
                    owner: e.owner,
                });
            }
        }
        None
    }

    fn occupancy(&self, ways: Range<usize>) -> usize {
        let mut n = 0;
        for set in 0..self.sets {
            for way in ways.clone() {
                if self.entries[self.slot(set, way)].valid {
                    n += 1;
                }
            }
        }
        n
    }
}

fn assert_same_evicted(a: &Option<Evicted>, b: &Option<Evicted>, ctx: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.line, y.line, "{ctx}: evicted line");
            assert_eq!(x.dirty, y.dirty, "{ctx}: evicted dirty");
            assert_eq!(x.data, y.data, "{ctx}: evicted data");
            assert_eq!(x.sharers, y.sharers, "{ctx}: evicted sharers");
            assert_eq!(x.owner, y.owner, "{ctx}: evicted owner");
        }
        _ => panic!("{ctx}: eviction mismatch ({a:?} vs {b:?})"),
    }
}

/// Drive both implementations through the same randomized stream: mixed
/// lookups (with flag/directory mutation on hit), inserts (fresh and
/// re-insert), invalidates, and occupancy and emptiness probes, over a randomized way
/// partition of a randomized geometry.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = seed;
    let sets = 1 << (splitmix64(&mut rng) % 5); // 1..=16 sets
    let ways = 1 + (splitmix64(&mut rng) % 8) as usize; // 1..=8 ways
    let set_div = 1 + (splitmix64(&mut rng) % 4); // exercise LLC-style divisors
    let mut soa = CacheArray::new(sets, ways, set_div);
    let mut aos = OracleCache::new(sets, ways, set_div);

    // A randomized partition boundary: ops alternate between the two
    // partitions, exercising way-range decoupling.
    let split = (splitmix64(&mut rng) % ways as u64) as usize;
    let parts: [Range<usize>; 2] = [0..split.max(1), split.min(ways - 1)..ways];

    // Footprint ~4x capacity so evictions are common: `lines` offsets from
    // line 0 and as many from the first NVM line.
    let lines = (sets * ways * 2) as u64;
    for op in 0..ops {
        let r = splitmix64(&mut rng);
        let base = if (r >> 17) & 1 == 1 {
            NVM_BASE >> LINE_SHIFT
        } else {
            0
        };
        let line = LineAddr(base + r % lines);
        let part = parts[((r >> 16) & 1) as usize].clone();
        let ctx = format!(
            "seed {seed:#x} op {op} line {} part {part:?} (sets {sets} ways {ways} div {set_div})",
            line.0
        );
        match (r >> 32) % 8 {
            // Lookup, mutating flags and directory state on hit.
            0 | 1 => {
                let a = soa.lookup(line, part.clone());
                let b = aos.lookup(line, part);
                assert_eq!(a.is_some(), b.is_some(), "{ctx}: hit/miss");
                if let (Some(mut ea), Some(eb)) = (a, b) {
                    assert_eq!(*ea.data, eb.data, "{ctx}: data");
                    assert_eq!(ea.dirty(), eb.dirty, "{ctx}: dirty");
                    assert_eq!(ea.excl(), eb.excl, "{ctx}: excl");
                    assert_eq!(*ea.sharers, eb.sharers, "{ctx}: sharers");
                    assert_eq!(*ea.owner, eb.owner, "{ctx}: owner");
                    // Mutate both identically through their native APIs.
                    let flip = r >> 40;
                    ea.set_dirty(flip & 1 != 0);
                    eb.dirty = flip & 1 != 0;
                    ea.set_excl(flip & 2 != 0);
                    eb.excl = flip & 2 != 0;
                    *ea.sharers = flip & 0xff;
                    eb.sharers = flip & 0xff;
                    *ea.owner = (flip & 3) as u8;
                    eb.owner = (flip & 3) as u8;
                    ea.data[0] = flip as u8;
                    eb.data[0] = flip as u8;
                }
            }
            // Insert.
            2..=4 => {
                let fill = [(r >> 8) as u8; CACHE_LINE];
                let dirty = (r >> 48) & 1 == 1;
                let a = soa.insert(line, &fill, dirty, part.clone());
                let b = aos.insert(line, &fill, dirty, part);
                assert_same_evicted(&a, &b, &ctx);
            }
            // Invalidate.
            5 => {
                let a = soa.invalidate(line, part.clone());
                let b = aos.invalidate(line, part);
                assert_same_evicted(&a, &b, &ctx);
            }
            // Probe (no LRU side effects) + occupancy.
            _ => {
                let a = soa.probe(line, part.clone());
                let b = aos
                    .entries
                    .iter()
                    .enumerate()
                    .find(|(i, e)| {
                        let set = aos.set_of(line);
                        let in_part = part.clone().any(|w| aos.slot(set, w) == *i);
                        in_part && e.valid && e.line == line
                    })
                    .map(|(_, e)| e);
                assert_eq!(a.is_some(), b.is_some(), "{ctx}: probe");
                if let (Some(va), Some(eb)) = (a, b) {
                    assert_eq!(*va.data, eb.data, "{ctx}: probe data");
                    assert_eq!(va.dirty, eb.dirty, "{ctx}: probe dirty");
                }
                assert_eq!(
                    soa.occupancy(part.clone()),
                    aos.occupancy(part),
                    "{ctx}: occupancy"
                );
                assert_eq!(
                    soa.is_empty(),
                    aos.occupancy(0..ways) == 0,
                    "{ctx}: is_empty"
                );
            }
        }
    }
    // Final state: every slot agrees.
    for set in 0..sets {
        for way in 0..ways {
            let e = &aos.entries[set * ways + way];
            if e.valid {
                let v = soa
                    .probe(e.line, way..way + 1)
                    .unwrap_or_else(|| panic!("slot ({set},{way}) lost line {}", e.line.0));
                assert_eq!(*v.data, e.data, "final data ({set},{way})");
                assert_eq!(v.dirty, e.dirty, "final dirty ({set},{way})");
            }
        }
    }
}

#[test]
fn soa_matches_aos_oracle_across_seeds() {
    for seed in 0..32u64 {
        differential_run(0x50a0_0000 + seed, 4_000);
    }
}

#[test]
fn soa_matches_aos_oracle_long_stream() {
    differential_run(0xd1ff_e7e5_7000_0001, 100_000);
}
