//! Property tests of the cache array against a reference model, and of the
//! full hierarchy's data-correctness invariants, on seeded random cases
//! (64 per property). Every assertion names its case's seed.

use memsim::addr::{LineAddr, PhysAddr, CACHE_LINE, NVM_BASE};
use memsim::cache::CacheArray;
use memsim::config::SystemConfig;
use memsim::engine::{NullHooks, System};
use memsim::hash::splitmix64;
use std::collections::HashMap;

const CASES: u64 = 64;

/// A value in `lo..hi`.
fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo)
}

/// The seeds of a property's cases.
fn seeds(property: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| (property << 32) | case)
}

/// `1..max_len` arbitrary bytes (line numbers of a 256-line space).
fn gen_lines(rng: &mut u64, max_len: u64) -> Vec<u8> {
    (0..range(rng, 1, max_len))
        .map(|_| splitmix64(rng) as u8)
        .collect()
}

/// Whatever the cache returns must be the data last inserted for that
/// line; occupancy never exceeds sets × ways. The reference model maps each
/// present line to its data byte.
#[test]
fn cache_never_invents_data() {
    for seed in seeds(1) {
        let mut rng = seed;
        let sets = 4usize;
        let ways = 2usize;
        let mut cache = CacheArray::new(sets, ways, 1);
        let mut present: HashMap<u64, u8> = HashMap::new();
        for _ in 0..range(&mut rng, 1, 300) {
            let op = range(&mut rng, 0, 3);
            let l = splitmix64(&mut rng) as u8;
            let line = LineAddr(l as u64);
            match op {
                0 => {
                    let d = splitmix64(&mut rng) as u8;
                    if let Some(ev) = cache.insert(line, &[d; CACHE_LINE], false, 0..ways) {
                        present.remove(&ev.line.0);
                    }
                    present.insert(l as u64, d);
                }
                1 => {
                    if let Some(e) = cache.lookup(line, 0..ways) {
                        let expect = present.get(&(l as u64));
                        assert_eq!(
                            Some(&e.data[0]),
                            expect,
                            "seed {seed:#x}: line {l} wrong data"
                        );
                    }
                }
                _ => {
                    cache.invalidate(line, 0..ways);
                    present.remove(&(l as u64));
                }
            }
            assert!(cache.occupancy(0..ways) <= sets * ways, "seed {seed:#x}");
        }
    }
}

/// A line just inserted must be present (LRU never evicts the newest).
#[test]
fn newest_line_survives_insert() {
    for seed in seeds(2) {
        let mut rng = seed;
        let mut cache = CacheArray::new(2, 2, 1);
        for l in gen_lines(&mut rng, 100) {
            let line = LineAddr(l as u64);
            cache.insert(line, &[l; CACHE_LINE], true, 0..2);
            assert!(
                cache.probe(line, 0..2).is_some(),
                "seed {seed:#x}: line {l} missing after insert"
            );
        }
    }
}

/// Dirty data is never lost: every dirty insert is either still cached
/// or was returned as a dirty eviction.
#[test]
fn dirty_lines_never_silently_dropped() {
    for seed in seeds(3) {
        let mut rng = seed;
        let mut cache = CacheArray::new(2, 2, 1);
        let mut live: HashMap<u64, u8> = HashMap::new();
        for l in gen_lines(&mut rng, 200) {
            let line = LineAddr(l as u64);
            if let Some(ev) = cache.insert(line, &[l; CACHE_LINE], true, 0..2) {
                assert!(
                    ev.dirty,
                    "seed {seed:#x}: evicted {:?} lost its dirty bit",
                    ev.line
                );
                let expect = live.remove(&ev.line.0);
                assert_eq!(
                    Some(ev.data[0]),
                    expect,
                    "seed {seed:#x}: evicted {:?}",
                    ev.line
                );
            }
            live.insert(l as u64, l);
        }
        // Everything still tracked must be in the cache.
        for (&l, &d) in &live {
            let e = cache.probe(LineAddr(l), 0..2);
            assert_eq!(
                e.map(|e| e.data[0]),
                Some(d),
                "seed {seed:#x}: live line {l}"
            );
        }
    }
}

/// Multi-core hierarchy: reads always observe the last write regardless
/// of which core wrote, under arbitrary small access sequences.
#[test]
fn hierarchy_coherence_under_random_sharing() {
    for seed in seeds(4) {
        let mut rng = seed;
        let mut sys = System::new(SystemConfig::small(), Box::new(NullHooks));
        let mut reference = [0u8; 32];
        for _ in 0..range(&mut rng, 1, 150) {
            let core = range(&mut rng, 0, 2) as usize;
            let slot = range(&mut rng, 0, 32) as usize;
            let val = splitmix64(&mut rng) as u8;
            let write = splitmix64(&mut rng) & 1 == 0;
            let addr = PhysAddr(NVM_BASE + slot as u64 * 64);
            if write {
                sys.write(core, addr, &[val]).unwrap();
                reference[slot] = val;
            } else {
                let mut buf = [0u8; 1];
                sys.read(core, addr, &mut buf).unwrap();
                assert_eq!(
                    buf[0], reference[slot],
                    "seed {seed:#x}: core {core} slot {slot}"
                );
            }
        }
        // Durability after flush.
        sys.flush();
        for (slot, &val) in reference.iter().enumerate() {
            let line = PhysAddr(NVM_BASE + slot as u64 * 64).line();
            assert_eq!(
                sys.memory().peek_line(line)[0],
                val,
                "seed {seed:#x}: slot {slot}"
            );
        }
    }
}
