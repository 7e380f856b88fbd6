//! Oracle crash-consistency checkers for post-crash verification.
//!
//! A crash simulation replays a workload with an NVM writeback budget
//! (`memsim`'s crash window): the media keeps a strict prefix of the
//! writebacks and everything volatile is lost. These checkers decide, after
//! recovery, whether what the media holds is *legal* — without assuming
//! anything about which cached lines happened to persist.
//!
//! The model is a per-write-unit **version history with a durability
//! floor**:
//!
//! - Every write unit (a 64 B fio/stream line, an 8 B TxB-Object element, a
//!   KV key) starts at an implicit initial version.
//! - Each application write appends a version.
//! - The floor marks the oldest version that is still legal. It advances
//!   when durability is *guaranteed*: after a completed transactional op
//!   (commit orders data ahead of the COMMITTED record via `clwb`), or after
//!   a completed `flush` for raw-store designs (which guarantee nothing
//!   until then).
//!
//! Post-crash, after recovery has rolled back in-flight transactions, each
//! unit's media content must match **some** version at or above the floor:
//! newer-than-floor versions may or may not have reached the media, but
//! nothing below the floor — and no torn value that never existed — is ever
//! legal.

use crate::driver::Machine;
use crate::kv::PersistentKv;
use pmemfs::fs::FileHandle;
use std::collections::HashMap;
use std::fmt;

/// Version history of one write unit.
#[derive(Debug, Clone)]
struct UnitHistory {
    /// All values this unit has held, oldest first (index 0 = initial).
    versions: Vec<Vec<u8>>,
    /// Index of the oldest still-legal version.
    floor: usize,
}

/// One unit whose post-crash content matches no legal version.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The file the unit lives in (the handle's first data-page index).
    pub file_key: u64,
    /// Byte offset of the unit within the file.
    pub offset: u64,
    /// What the media holds.
    pub found: Vec<u8>,
    /// How many versions were legal (history length minus floor).
    pub legal_versions: usize,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "file {} offset {}: media content matches none of the {} legal version(s)",
            self.file_key, self.offset, self.legal_versions
        )
    }
}

/// Identity of a file for checker bookkeeping: its first data-page index is
/// unique within a pool.
fn file_key(file: &FileHandle) -> u64 {
    file.first_data_index()
}

/// Read `buf.len()` bytes of `file` at `offset` directly from the media,
/// bypassing caches and verification (post-crash there is nothing volatile
/// left, and the checker must see the raw image even where redundancy is
/// torn).
fn peek_bytes(m: &Machine, file: &FileHandle, offset: u64, buf: &mut [u8]) {
    use memsim::addr::CACHE_LINE;
    let mem = m.sys.memory();
    let mut done = 0usize;
    while done < buf.len() {
        let addr = file.addr(offset + done as u64);
        let lo = addr.line_offset();
        let n = (CACHE_LINE - lo).min(buf.len() - done);
        let data = mem.peek_line(addr.line());
        buf[done..done + n].copy_from_slice(&data[lo..lo + n]);
        done += n;
    }
}

/// Per-unit version-history checker for the raw-access workloads (fio,
/// stream).
#[derive(Debug, Default)]
pub struct CrashChecker {
    units: HashMap<(u64, u64), UnitHistory>,
}

impl CrashChecker {
    /// New checker with no tracked units.
    pub fn new() -> Self {
        Self::default()
    }

    /// Establish `data` as the initial (durable) version of the unit at
    /// `offset`, replacing any prior history. Use after an unmeasured setup
    /// phase that ends with a flush (e.g. [`crate::stream::Stream::init`]).
    pub fn seed(&mut self, file: &FileHandle, offset: u64, data: &[u8]) {
        self.units.insert(
            (file_key(file), offset),
            UnitHistory {
                versions: vec![data.to_vec()],
                floor: 0,
            },
        );
    }

    /// Record an application write of `data` at `offset`. A unit first seen
    /// here gets an implicit all-zero initial version of the same length
    /// (fresh DAX pages read as zeros).
    pub fn record_write(&mut self, file: &FileHandle, offset: u64, data: &[u8]) {
        let h = self
            .units
            .entry((file_key(file), offset))
            .or_insert_with(|| UnitHistory {
                versions: vec![vec![0u8; data.len()]],
                floor: 0,
            });
        // Cache-absorbed rewrites of the same value add no new legal state.
        if h.versions.last().map(Vec::as_slice) != Some(data) {
            h.versions.push(data.to_vec());
        }
    }

    /// Mark the latest version of the unit at `offset` as durable: versions
    /// below it stop being legal. Call after a transactional op completes
    /// (commit ordered the data ahead of its COMMITTED record).
    pub fn commit(&mut self, file: &FileHandle, offset: u64) {
        if let Some(h) = self.units.get_mut(&(file_key(file), offset)) {
            h.floor = h.versions.len() - 1;
        }
    }

    /// Mark the latest version of *every* unit as durable. Call after a
    /// completed (uncrashed) `flush` under raw-store designs.
    pub fn commit_all(&mut self) {
        for h in self.units.values_mut() {
            h.floor = h.versions.len() - 1;
        }
    }

    /// Check every tracked unit of `file` against the machine's media
    /// (bypassing caches — post-crash there is nothing volatile left).
    /// Returns the units whose content matches no legal version.
    pub fn check(&self, m: &Machine, file: &FileHandle) -> Vec<Violation> {
        let key = file_key(file);
        let mut bad: Vec<Violation> = Vec::new();
        for (&(k, offset), h) in &self.units {
            if k != key {
                continue;
            }
            let mut buf = vec![0u8; h.versions[0].len()];
            peek_bytes(m, file, offset, &mut buf);
            let legal = h.versions[h.floor..].iter().any(|v| v[..] == buf[..]);
            if !legal {
                bad.push(Violation {
                    file_key: key,
                    offset,
                    found: buf,
                    legal_versions: h.versions.len() - h.floor,
                });
            }
        }
        bad.sort_by_key(|v| v.offset);
        bad
    }
}

/// Committed-key oracle for the [`PersistentKv`] structures: every key whose
/// insert completed before the crash must still be readable, with either its
/// last committed value or a newer value whose transaction reached its
/// COMMITTED record before the crash.
#[derive(Debug, Default)]
pub struct KvCrashChecker {
    /// key → (committed value if any, values written after the floor).
    keys: HashMap<u64, (Option<u64>, Vec<u64>)>,
}

impl KvCrashChecker {
    /// New checker with no tracked keys.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that an insert of `key → val` was *issued* (it may or may not
    /// survive the crash).
    pub fn record_insert(&mut self, key: u64, val: u64) {
        self.keys
            .entry(key)
            .or_insert((None, Vec::new()))
            .1
            .push(val);
    }

    /// Record that the insert of `key → val` completed before the crash:
    /// `key` is now committed and must survive.
    pub fn commit_insert(&mut self, key: u64, val: u64) {
        let e = self.keys.entry(key).or_insert((None, Vec::new()));
        e.0 = Some(val);
        e.1.clear();
    }

    /// Check every tracked key against the recovered structure. Returns
    /// human-readable violation descriptions.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::driver::AppError`] from the reads themselves (a
    /// failing read of a committed key is itself a violation, reported as
    /// such).
    pub fn check<K: PersistentKv>(&self, m: &mut Machine, kv: &mut K) -> Vec<String> {
        let mut bad = Vec::new();
        let mut keys: Vec<&u64> = self.keys.keys().collect();
        keys.sort_unstable();
        for &key in keys {
            let (committed, pending) = &self.keys[&key];
            let got = match kv.get(m, key) {
                Ok(v) => v,
                Err(e) => {
                    bad.push(format!("key {key}: read failed post-recovery: {e}"));
                    continue;
                }
            };
            let legal = match (committed, got) {
                // Committed keys must be present, holding the committed
                // value or a newer in-flight one that reached COMMITTED.
                (Some(c), Some(v)) => v == *c || pending.contains(&v),
                (Some(c), None) => {
                    bad.push(format!("key {key}: committed value {c} lost"));
                    continue;
                }
                // Never-committed keys may have made it or not, but a
                // present value must be one that was actually written.
                (None, Some(v)) => pending.contains(&v),
                (None, None) => true,
            };
            if !legal {
                bad.push(format!(
                    "key {key}: holds {got:?}, committed {committed:?}, in-flight {pending:?}"
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Design;

    fn machine() -> Machine {
        Machine::builder()
            .small()
            .design(Design::Baseline)
            .data_pages(64)
            .build()
    }

    #[test]
    fn pre_floor_versions_are_illegal_after_commit() {
        let mut m = machine();
        let f = m.create_dax_file("t", 4096).unwrap();
        let mut chk = CrashChecker::new();
        chk.record_write(&f, 0, &[1u8; 64]);
        chk.record_write(&f, 0, &[2u8; 64]);
        // Nothing durable yet: the implicit zero initial version is legal.
        assert!(chk.check(&m, &f).is_empty());
        f.write(&mut m.sys, 0, 0, &[2u8; 64]).unwrap();
        m.flush();
        chk.commit_all();
        assert!(chk.check(&m, &f).is_empty());
        // Now only version [2; 64] is legal; media holding it passes, but a
        // rewound media image would not. Simulate by committing a version
        // the media never got.
        chk.record_write(&f, 0, &[3u8; 64]);
        chk.commit(&f, 0);
        let bad = chk.check(&m, &f);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].offset, 0);
        assert_eq!(bad[0].legal_versions, 1);
    }

    #[test]
    fn torn_values_are_illegal() {
        let mut m = machine();
        let f = m.create_dax_file("t", 4096).unwrap();
        let mut chk = CrashChecker::new();
        chk.record_write(&f, 64, &[7u8; 64]);
        let mut torn = [7u8; 64];
        torn[5] = 9;
        f.write(&mut m.sys, 0, 64, &torn).unwrap();
        m.flush();
        let bad = chk.check(&m, &f);
        assert_eq!(bad.len(), 1, "torn line must be flagged");
    }

    #[test]
    fn seed_replaces_history() {
        let mut m = machine();
        let f = m.create_dax_file("t", 4096).unwrap();
        f.write(&mut m.sys, 0, 128, &[5u8; 64]).unwrap();
        m.flush();
        let mut chk = CrashChecker::new();
        chk.seed(&f, 128, &[5u8; 64]);
        assert!(chk.check(&m, &f).is_empty());
    }

    #[test]
    fn kv_checker_flags_lost_committed_keys() {
        use crate::ctree::CTree;
        let mut m = Machine::builder()
            .small()
            .design(Design::Baseline)
            .data_pages(1024)
            .build();
        let mut txm = m.tx_manager(64 * 1024).unwrap();
        let mut kv = CTree::create(&mut m, 0, 256 * 1024).unwrap();
        let mut chk = KvCrashChecker::new();
        kv.insert(&mut m, &mut txm, 1, 10).unwrap();
        chk.commit_insert(1, 10);
        chk.record_insert(2, 20); // issued, never committed, never landed
        assert!(chk.check(&mut m, &mut kv).is_empty());
        chk.commit_insert(3, 30); // "committed" but never inserted
        let bad = chk.check(&mut m, &mut kv);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("key 3"), "{}", bad[0]);
    }
}
