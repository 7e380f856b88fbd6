//! Set-associative cache arrays with LRU replacement and way-partitioning.
//!
//! One [`CacheArray`] models a single cache (an L1, an L2, one LLC bank, or
//! TVARAK's on-controller cache). Lines carry their 64 B of data — the
//! simulator is execution-driven over real bytes, so checksums and parity are
//! computed over genuine content.
//!
//! Way-partitioning (used by the LLC to reserve ways for redundancy lines and
//! data diffs, §III-D/E of the paper) is expressed by giving every operation a
//! way *range*: lookups, inserts, and victim selection stay inside the range,
//! which makes partitions fully decoupled, exactly as the paper requires
//! ("the LLC bank controllers do not lookup application data in redundancy
//! and data diff partitions").
//!
//! # Data layout
//!
//! The array is structure-of-arrays: the per-way tag metadata (line address,
//! LRU stamp, valid/dirty/exclusive flags) lives in densely packed columns
//! that lookups and victim scans walk, while the 64 B line payloads,
//! directory sharer masks, and directory owners sit in parallel arrays
//! touched only on a hit. A 16-way set's metadata spans a few cache lines
//! instead of ~2.4 KiB of interleaved `Entry` structs, so the tag scan — the
//! hottest loop in the simulator — stays resident. Replacement decisions are
//! bit-identical to the previous array-of-structs layout (same tick sequence,
//! same first-invalid-else-LRU victim choice); the eviction-order digest
//! goldens in `tests/evict_golden.rs` and the bench determinism suite prove
//! it.
//!
//! An empty slot is all-zero in every column: tags are stored bit-inverted
//! (`!line`), so an empty tag is 0, and every other column's empty value is
//! 0 too. Each column is therefore a zeroed allocation (`vec![0; n]` over a
//! primitive, which the allocator can hand out as untouched zero pages), and
//! building a cache writes none of its state: a page of it faults in only
//! when a set is first used. The payloads are one flat `Vec<u8>` viewed as
//! 64 B chunks, because `vec![[0u8; 64]; n]` is not a zeroed allocation —
//! std's zeroed fast path covers arrays of at most 16 elements, so that
//! form writes every byte up front.

use crate::addr::{LineAddr, CACHE_LINE};
use crate::fastdiv::FastDiv;
use std::ops::Range;

/// Sentinel for "no owner" in the directory owner field.
pub const NO_OWNER: u8 = u8::MAX;

const FLAG_VALID: u8 = 1 << 0;
const FLAG_DIRTY: u8 = 1 << 1;
const FLAG_EXCL: u8 = 1 << 2;

/// The one line address no slot can hold: tags are stored as `!line`, so
/// this address would encode as [`EMPTY_TAG`]. A real line address is a
/// physical address shifted right by 6, so it never reaches `u64::MAX`.
const RESERVED_LINE: u64 = u64::MAX;

/// Stored tag of an empty slot (`!RESERVED_LINE`). Keeping empty slots at
/// this value lets the hit scan compare raw tag words with no separate
/// valid-bit load (the flags byte stays authoritative for state carried
/// across invalidation, e.g. a drained line's dirty bit).
const EMPTY_TAG: u64 = 0;

/// The stored tag of `line`.
#[inline]
fn tag_of(line: LineAddr) -> u64 {
    !line.0
}

/// Mutable view of a resident line, returned by [`CacheArray::lookup`].
///
/// Splits the line's state across the array's parallel columns: `data`,
/// `sharers`, and `owner` are independent references (so callers can update
/// them simultaneously), while the packed metadata flags are reached through
/// accessor methods.
#[derive(Debug)]
pub struct EntryRef<'a> {
    line: u64,
    flags: &'a mut u8,
    /// The line's data.
    pub data: &'a mut [u8; CACHE_LINE],
    /// Directory: bitmask of cores caching this line privately (LLC only).
    pub sharers: &'a mut u64,
    /// Directory: core holding the line exclusively/modified, or [`NO_OWNER`].
    pub owner: &'a mut u8,
}

impl EntryRef<'_> {
    /// The resident line's address.
    pub fn line(&self) -> LineAddr {
        LineAddr(self.line)
    }

    /// Whether the line is modified relative to the level below.
    pub fn dirty(&self) -> bool {
        *self.flags & FLAG_DIRTY != 0
    }

    /// Set or clear the dirty flag.
    pub fn set_dirty(&mut self, dirty: bool) {
        if dirty {
            *self.flags |= FLAG_DIRTY;
        } else {
            *self.flags &= !FLAG_DIRTY;
        }
    }

    /// MESI write permission (private caches only): true when the line is
    /// held Exclusive/Modified and may be written without an upgrade.
    pub fn excl(&self) -> bool {
        *self.flags & FLAG_EXCL != 0
    }

    /// Set or clear the exclusive flag.
    pub fn set_excl(&mut self, excl: bool) {
        if excl {
            *self.flags |= FLAG_EXCL;
        } else {
            *self.flags &= !FLAG_EXCL;
        }
    }
}

/// Immutable view of a resident line, returned by [`CacheArray::probe`].
#[derive(Debug, Clone, Copy)]
pub struct EntryView<'a> {
    /// The resident line's address.
    pub line: LineAddr,
    /// Whether the line is modified relative to the level below.
    pub dirty: bool,
    /// MESI write permission (private caches only).
    pub excl: bool,
    /// The line's data.
    pub data: &'a [u8; CACHE_LINE],
    /// Directory sharer mask (LLC only).
    pub sharers: u64,
    /// Directory owner, or [`NO_OWNER`].
    pub owner: u8,
}

/// A line evicted from a [`CacheArray`].
#[derive(Debug, Clone)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether it must be written back below.
    pub dirty: bool,
    /// Its data.
    pub data: [u8; CACHE_LINE],
    /// Directory sharers at eviction time (LLC only; needed for
    /// back-invalidation under inclusion).
    pub sharers: u64,
    /// Directory owner at eviction time.
    pub owner: u8,
}

/// FNV-1a offset basis — seed of the eviction-order digest.
const EVICT_HASH_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one word into an eviction-order digest (FNV-1a over u64 words).
#[inline]
fn fold_evict(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A set-associative, write-back, LRU cache array holding line data.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    /// The set-index divisor (1 for private caches, the bank count for LLC
    /// banks — 12 in the default config). [`Self::set_of`] runs on every
    /// lookup/insert/invalidate, so it multiplies by a precomputed magic
    /// instead of issuing a 64-bit divide.
    set_div: FastDiv,
    tick: u64,
    /// Running digest of every capacity eviction: (set, chosen way, victim
    /// line, victim dirty) in eviction order. Exposed so the determinism
    /// goldens can prove a data-layout refactor never changes victim choice.
    evict_hash: u64,
    /// Stored tags (`!line`, see [`tag_of`]), indexed `set * ways + way`;
    /// [`EMPTY_TAG`] (0) in empty slots. The hit scan is a raw equality
    /// sweep over a set's slice of this array — contiguous `u64`s, scanned
    /// branch-free.
    lines: Vec<u64>,
    /// Number of resident (non-empty) slots, behind [`Self::is_empty`].
    resident: usize,
    /// LRU stamps, parallel to `lines` (larger = more recently used).
    lru: Vec<u64>,
    /// `FLAG_VALID | FLAG_DIRTY | FLAG_EXCL`, parallel to `lines`.
    flags: Vec<u8>,
    /// Line payloads, `CACHE_LINE` bytes per slot in `lines` order; one
    /// flat zeroed allocation viewed through `as_chunks`.
    data: Vec<u8>,
    /// Directory sharer masks, parallel to `lines` (LLC only; 0 elsewhere).
    sharers: Vec<u64>,
    /// Directory owners, parallel to `lines` ([`NO_OWNER`] in a resident
    /// line with no owner). An empty slot's owner is 0 and never read:
    /// `install` writes it before any lookup can return the slot.
    owner: Vec<u8>,
}

impl CacheArray {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// `set_div` selects which bits of the line address index the set:
    /// `set = (line / set_div) % sets`. Private caches use 1; LLC banks use
    /// the bank count (lines are bank-interleaved by `line % banks`, so
    /// dividing by the bank count makes a bank's resident lines map densely
    /// over its sets).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways == 0`, or
    /// `set_div == 0`.
    pub fn new(sets: usize, ways: usize, set_div: u64) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "need at least one way");
        assert!(set_div > 0, "set divisor must be nonzero");
        let slots = sets * ways;
        CacheArray {
            sets,
            ways,
            set_div: FastDiv::new(set_div),
            tick: 0,
            evict_hash: EVICT_HASH_BASIS,
            lines: vec![EMPTY_TAG; slots],
            resident: 0,
            lru: vec![0; slots],
            flags: vec![0; slots],
            data: vec![0; slots * CACHE_LINE],
            sharers: vec![0; slots],
            owner: vec![0; slots],
        }
    }

    /// Digest of the eviction/victim-choice history since construction (see
    /// the field doc). Deterministic for a deterministic access stream.
    pub fn evict_hash(&self) -> u64 {
        self.evict_hash
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Whether no slot in any way holds a line.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The full way range (an unpartitioned cache).
    pub fn all_ways(&self) -> Range<usize> {
        0..self.ways
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (self.set_div.quotient(line.0) as usize) & (self.sets - 1)
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Slot `idx`'s payload.
    #[inline]
    fn data_at(&self, idx: usize) -> &[u8; CACHE_LINE] {
        &self.data.as_chunks().0[idx]
    }

    /// Slot `idx`'s payload, mutably. Borrows only the `data` column.
    #[inline]
    fn data_mut(data: &mut [u8], idx: usize) -> &mut [u8; CACHE_LINE] {
        &mut data.as_chunks_mut().0[idx]
    }

    /// Resident slot `idx`'s state, for an eviction or invalidation.
    #[inline]
    fn evicted_at(&self, idx: usize) -> Evicted {
        Evicted {
            line: LineAddr(!self.lines[idx]),
            dirty: self.flags[idx] & FLAG_DIRTY != 0,
            data: *self.data_at(idx),
            sharers: self.sharers[idx],
            owner: self.owner[idx],
        }
    }

    /// Borrow slot `idx` across all columns as an [`EntryRef`].
    #[inline]
    fn entry_at(&mut self, idx: usize) -> EntryRef<'_> {
        EntryRef {
            line: !self.lines[idx],
            flags: &mut self.flags[idx],
            data: Self::data_mut(&mut self.data, idx),
            sharers: &mut self.sharers[idx],
            owner: &mut self.owner[idx],
        }
    }

    /// Scan `ways` of `set` for a matching tag; the hot loop. Empty slots
    /// hold [`EMPTY_TAG`], which no real address encodes to, so this is a
    /// pure equality sweep over contiguous words — written as a
    /// reverse-iteration reduction (no early exit) so the compiler can keep
    /// it branch-free; a line appears at most once per partition, so first
    /// match and last match coincide.
    #[inline]
    fn find(&self, set: usize, line: LineAddr, ways: Range<usize>) -> Option<usize> {
        debug_assert_ne!(line.0, RESERVED_LINE, "RESERVED_LINE is reserved");
        let tag = tag_of(line);
        let base = set * self.ways;
        let tags = &self.lines[base + ways.start..base + ways.end];
        let mut found = usize::MAX;
        for i in (0..tags.len()).rev() {
            if tags[i] == tag {
                found = i;
            }
        }
        if found == usize::MAX {
            None
        } else {
            Some(base + ways.start + found)
        }
    }

    /// Look up `line` within `ways`, updating LRU on hit.
    pub fn lookup(&mut self, line: LineAddr, ways: Range<usize>) -> Option<EntryRef<'_>> {
        let idx = self.lookup_idx(line, ways)?;
        Some(self.entry_at(idx))
    }

    /// Like [`Self::lookup`], but returns the raw slot index instead of a
    /// borrow, so a caller that interleaves other work (hooks, sibling-array
    /// updates) can come back to the entry via `entry_mut` without
    /// paying a second tag scan. The index stays valid until the next
    /// insert/invalidate *within the same way range* replaces the slot.
    pub fn lookup_idx(&mut self, line: LineAddr, ways: Range<usize>) -> Option<usize> {
        let set = self.set_of(line);
        let tick = self.next_tick();
        let idx = self.find(set, line, ways)?;
        self.lru[idx] = tick;
        Some(idx)
    }

    /// Re-borrow a slot located by [`Self::lookup_idx`] or
    /// [`Self::insert_get`]. Does not touch LRU state: the locating call
    /// already stamped the line, and an extra stamp on the line most
    /// recently touched cannot reorder any future victim choice.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub(crate) fn entry_mut(&mut self, idx: usize) -> EntryRef<'_> {
        self.entry_at(idx)
    }

    /// Check for `line` within `ways` without touching LRU state.
    pub fn probe(&self, line: LineAddr, ways: Range<usize>) -> Option<EntryView<'_>> {
        let set = self.set_of(line);
        let idx = self.find(set, line, ways)?;
        Some(EntryView {
            line: LineAddr(!self.lines[idx]),
            dirty: self.flags[idx] & FLAG_DIRTY != 0,
            excl: self.flags[idx] & FLAG_EXCL != 0,
            data: self.data_at(idx),
            sharers: self.sharers[idx],
            owner: self.owner[idx],
        })
    }

    /// Insert `line` into `ways`, evicting the LRU valid line in the range if
    /// it is full. Returns the evicted line, if any.
    ///
    /// If `line` is already present in the range its data/dirty state is
    /// replaced in place (dirty is OR-ed) and no eviction occurs.
    pub fn insert(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> Option<Evicted> {
        self.insert_get(line, data, dirty, ways).0
    }

    /// Like [`Self::insert`], but also returns the slot index the line now
    /// occupies, saving the hot engine paths a lookup-after-insert scan
    /// (reach the entry again via [`Self::entry_mut`]).
    fn insert_get(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> (Option<Evicted>, usize) {
        let set = self.set_of(line);
        let tick = self.next_tick();
        // Hit: update in place.
        if let Some(idx) = self.find(set, line, ways.clone()) {
            *Self::data_mut(&mut self.data, idx) = *data;
            if dirty {
                self.flags[idx] |= FLAG_DIRTY;
            }
            self.lru[idx] = tick;
            return (None, idx);
        }
        self.install(set, tick, line, data, dirty, ways)
    }

    /// Like [`Self::insert`], for a line the caller has just proven absent
    /// from `ways` (a failed lookup on the same range with no intervening
    /// insert into it). Skips the redundant hit scan and goes straight to
    /// victim selection. Tick consumption and victim choice are identical
    /// to [`Self::insert`] on an absent line, so replacement behaviour —
    /// and the eviction digest — stay bit-identical.
    pub fn insert_absent(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> Option<Evicted> {
        self.insert_absent_get(line, data, dirty, ways).0
    }

    /// [`Self::insert_absent`] returning the occupied slot index as well
    /// (the fill paths re-borrow it via [`Self::entry_mut`]).
    pub(crate) fn insert_absent_get(
        &mut self,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> (Option<Evicted>, usize) {
        let set = self.set_of(line);
        let tick = self.next_tick();
        debug_assert!(
            self.find(set, line, ways.clone()).is_none(),
            "insert_absent: line {} already present in ways {ways:?}",
            line.0
        );
        self.install(set, tick, line, data, dirty, ways)
    }

    /// Miss path shared by the insert flavours: choose the victim (first
    /// invalid way, else strict LRU), fold it into the eviction digest, and
    /// install the new line.
    #[inline]
    fn install(
        &mut self,
        set: usize,
        tick: u64,
        line: LineAddr,
        data: &[u8; CACHE_LINE],
        dirty: bool,
        ways: Range<usize>,
    ) -> (Option<Evicted>, usize) {
        let mut victim_way = None;
        let mut victim_lru = u64::MAX;
        for way in ways {
            let idx = self.slot(set, way);
            if self.lines[idx] == EMPTY_TAG {
                victim_way = Some(way);
                break;
            }
            if self.lru[idx] < victim_lru {
                victim_lru = self.lru[idx];
                victim_way = Some(way);
            }
        }
        let way = victim_way.expect("insert called with empty way range");
        let idx = self.slot(set, way);
        let evicted = if self.lines[idx] != EMPTY_TAG {
            let old = self.evicted_at(idx);
            let mut h = self.evict_hash;
            for w in [set as u64, way as u64, old.line.0, old.dirty as u64] {
                h = fold_evict(h, w);
            }
            self.evict_hash = h;
            Some(old)
        } else {
            self.resident += 1;
            None
        };
        self.lines[idx] = tag_of(line);
        self.lru[idx] = tick;
        self.flags[idx] = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        *Self::data_mut(&mut self.data, idx) = *data;
        self.sharers[idx] = 0;
        self.owner[idx] = NO_OWNER;
        (evicted, idx)
    }

    /// Remove `line` from `ways`, returning its final state if present.
    pub fn invalidate(&mut self, line: LineAddr, ways: Range<usize>) -> Option<Evicted> {
        let set = self.set_of(line);
        let idx = self.find(set, line, ways)?;
        Some(self.vacate(idx))
    }

    /// Empty resident slot `idx` and return its final state.
    #[inline]
    fn vacate(&mut self, idx: usize) -> Evicted {
        let old = self.evicted_at(idx);
        self.lines[idx] = EMPTY_TAG;
        self.flags[idx] &= !FLAG_VALID;
        self.resident -= 1;
        old
    }

    /// Drain every valid line in `ways` into a caller-provided buffer (not
    /// cleared first), invalidating them. Used for end-of-run flushes;
    /// flush-heavy paths reuse one allocation across many drains.
    pub(crate) fn drain_into(&mut self, ways: Range<usize>, out: &mut Vec<Evicted>) {
        for set in 0..self.sets {
            for way in ways.clone() {
                let idx = self.slot(set, way);
                if self.lines[idx] != EMPTY_TAG {
                    out.push(self.vacate(idx));
                }
            }
        }
    }

    /// Invalidate every valid line in `ways` without collecting the victims
    /// (for caches whose flushed contents are discarded, e.g. the
    /// controller's clean-by-construction on-controller caches).
    pub fn clear(&mut self, ways: Range<usize>) {
        for set in 0..self.sets {
            for way in ways.clone() {
                let idx = self.slot(set, way);
                if self.lines[idx] != EMPTY_TAG {
                    self.resident -= 1;
                }
                self.lines[idx] = EMPTY_TAG;
                self.flags[idx] &= !FLAG_VALID;
            }
        }
    }

    /// Visit every valid line in `ways` without disturbing any state (no
    /// LRU ticks, no invalidation) — set-major, way-minor order. Used to
    /// seed the bound phase's dirty-line overlay ([`crate::weave`]).
    pub(crate) fn for_each_valid(
        &self,
        ways: Range<usize>,
        mut f: impl FnMut(LineAddr, bool, &[u8; CACHE_LINE]),
    ) {
        for set in 0..self.sets {
            for way in ways.clone() {
                let idx = self.slot(set, way);
                if self.lines[idx] != EMPTY_TAG {
                    f(
                        LineAddr(!self.lines[idx]),
                        self.flags[idx] & FLAG_DIRTY != 0,
                        self.data_at(idx),
                    );
                }
            }
        }
    }

    /// Count valid lines in `ways`.
    pub fn occupancy(&self, ways: Range<usize>) -> usize {
        let mut n = 0;
        for set in 0..self.sets {
            for way in ways.clone() {
                if self.lines[self.slot(set, way)] != EMPTY_TAG {
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    fn data(b: u8) -> [u8; CACHE_LINE] {
        [b; CACHE_LINE]
    }

    #[test]
    fn hit_after_insert() {
        let mut c = CacheArray::new(4, 2, 1);
        assert!(c.insert(line(8), &data(1), false, 0..2).is_none());
        let e = c.lookup(line(8), 0..2).expect("hit");
        assert_eq!(e.data[0], 1);
        assert!(!e.dirty());
    }

    #[test]
    fn fresh_array_misses_line_zero() {
        // An empty slot is all-zero; its tag must not decode to line 0.
        let mut c = CacheArray::new(4, 2, 1);
        assert!(c.lookup(line(0), 0..2).is_none());
        assert!(c.probe(line(0), 0..2).is_none());
        assert!(c.invalidate(line(0), 0..2).is_none());
        assert_eq!(c.occupancy(0..2), 0);
        let mut drained = Vec::new();
        c.drain_into(0..2, &mut drained);
        assert!(drained.is_empty());
    }

    #[test]
    fn line_zero_hits_after_insert() {
        let mut c = CacheArray::new(4, 2, 1);
        assert!(c.insert(line(0), &data(3), true, 0..2).is_none());
        let e = c.lookup(line(0), 0..2).expect("hit");
        assert_eq!(e.line(), line(0));
        assert_eq!((e.data[0], e.dirty(), *e.owner), (3, true, NO_OWNER));
        assert_eq!(c.occupancy(0..2), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CacheArray::new(1, 2, 1);
        c.insert(line(1), &data(1), false, 0..2);
        c.insert(line(2), &data(2), false, 0..2);
        // Touch line 1 so line 2 is LRU.
        c.lookup(line(1), 0..2);
        let ev = c.insert(line(3), &data(3), false, 0..2).expect("evict");
        assert_eq!(ev.line, line(2));
        assert!(c.probe(line(1), 0..2).is_some());
        assert!(c.probe(line(3), 0..2).is_some());
    }

    #[test]
    fn dirty_eviction_carries_data() {
        let mut c = CacheArray::new(1, 1, 1);
        c.insert(line(1), &data(7), true, 0..1);
        let ev = c.insert(line(2), &data(8), false, 0..1).expect("evict");
        assert!(ev.dirty);
        assert_eq!(ev.data[0], 7);
    }

    #[test]
    fn insert_existing_line_merges_dirty() {
        let mut c = CacheArray::new(2, 2, 1);
        c.insert(line(4), &data(1), true, 0..2);
        assert!(c.insert(line(4), &data(2), false, 0..2).is_none());
        let e = c.probe(line(4), 0..2).unwrap();
        assert!(e.dirty, "dirty must be sticky");
        assert_eq!(e.data[0], 2);
        assert_eq!(c.occupancy(0..2), 1);
    }

    #[test]
    fn partitions_are_disjoint() {
        let mut c = CacheArray::new(1, 4, 1);
        c.insert(line(1), &data(1), false, 0..2);
        // Same line inserted into the other partition is an independent copy.
        assert!(c.lookup(line(1), 2..4).is_none());
        c.insert(line(9), &data(9), false, 2..4);
        c.insert(line(17), &data(17), false, 2..4);
        // Partition 2..4 is full; inserting evicts within it only.
        let ev = c.insert(line(25), &data(25), false, 2..4).expect("evict");
        assert!(ev.line == line(9) || ev.line == line(17));
        // Partition 0..2 untouched.
        assert!(c.probe(line(1), 0..2).is_some());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = CacheArray::new(2, 2, 1);
        c.insert(line(2), &data(3), true, 0..2);
        let ev = c.invalidate(line(2), 0..2).expect("present");
        assert!(ev.dirty);
        assert!(c.probe(line(2), 0..2).is_none());
        assert!(c.invalidate(line(2), 0..2).is_none());
    }

    #[test]
    fn drain_returns_all_valid() {
        let mut c = CacheArray::new(2, 2, 1);
        c.insert(line(0), &data(0), false, 0..2);
        c.insert(line(1), &data(1), true, 0..2);
        c.insert(line(2), &data(2), true, 0..2);
        let mut drained = Vec::new();
        c.drain_into(0..2, &mut drained);
        assert_eq!(drained.len(), 3);
        assert_eq!(c.occupancy(0..2), 0);
        assert_eq!(drained.iter().filter(|e| e.dirty).count(), 2);
    }

    #[test]
    fn entry_ref_flag_roundtrip() {
        let mut c = CacheArray::new(1, 1, 1);
        c.insert(line(5), &data(5), false, 0..1);
        {
            let mut e = c.lookup(line(5), 0..1).unwrap();
            assert!(!e.dirty());
            assert!(!e.excl());
            e.set_dirty(true);
            e.set_excl(true);
            *e.sharers = 0b101;
            *e.owner = 2;
            e.data[0] = 42;
            assert_eq!(e.line(), line(5));
        }
        let v = c.probe(line(5), 0..1).unwrap();
        assert!(v.dirty && v.excl);
        assert_eq!((v.sharers, v.owner, v.data[0]), (0b101, 2, 42));
        // Clearing works too.
        let mut e = c.lookup(line(5), 0..1).unwrap();
        e.set_dirty(false);
        e.set_excl(false);
        assert!(!e.dirty() && !e.excl());
    }

    #[test]
    fn is_empty_tracks_resident_lines() {
        let mut c = CacheArray::new(1, 2, 1);
        assert!(c.is_empty());
        c.insert(line(1), &data(1), false, 0..1);
        c.insert(line(2), &data(2), false, 1..2);
        // An eviction and an in-place update keep the count.
        c.insert(line(3), &data(3), false, 0..1).expect("evict");
        c.insert(line(2), &data(4), true, 1..2);
        assert_eq!(c.occupancy(0..2), 2);
        c.invalidate(line(3), 0..1).expect("present");
        assert!(!c.is_empty());
        c.clear(0..2);
        assert!(c.is_empty());
        c.insert(line(5), &data(5), true, 0..1);
        let mut drained = Vec::new();
        c.drain_into(0..2, &mut drained);
        assert!(c.is_empty());
    }

    #[test]
    fn set_div_spreads_lines() {
        // With set_div=2, lines 0 and 1 share a set; lines 0 and 2 differ.
        let c = CacheArray::new(2, 1, 2);
        assert_eq!(c.set_of(line(0)), c.set_of(line(1)));
        assert_ne!(c.set_of(line(0)), c.set_of(line(2)));
    }

    #[test]
    fn set_of_matches_division_for_every_divisor() {
        // 12 is the default LLC bank count; NVM line addresses sit near 2^34.
        for div in [1u64, 2, 3, 12, 16] {
            let c = CacheArray::new(64, 1, div);
            for n in (0..5000u64).chain((1 << 34)..(1 << 34) + 5000) {
                assert_eq!(c.set_of(line(n)), ((n / div) % 64) as usize, "{n} / {div}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        CacheArray::new(3, 1, 1);
    }
}
