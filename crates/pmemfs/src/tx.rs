//! libpmemobj-style transactions.
//!
//! Applications update persistent data inside transactions: `begin` persists
//! a STARTED state record, each `write` undo-logs the old content before
//! updating in place, and `commit` persists a COMMITTED record. These
//! persistent metadata writes are why even read-only request paths (e.g.
//! Redis GETs, which run transactions for incremental rehashing) generate
//! NVM write traffic — the effect §IV-B highlights. The software redundancy
//! baselines of the paper's evaluation ([`SwScheme`], `crate::swred`) run
//! at commit, the *transaction boundary*.

use crate::fs::{DaxFs, FileHandle, FsError};
use crate::swred::SwRedundancy;
pub use crate::swred::SwScheme;
use memsim::addr::{PhysAddr, PAGE};
use memsim::engine::{CorruptionDetected, System};
use std::error::Error;
use std::fmt;

/// Instruction overhead charged per transaction begin/commit (libpmemobj's
/// tx_begin/tx_commit execute a few hundred instructions of bookkeeping).
const TX_INSTR: u64 = 60;

/// Transaction state records persisted in the per-core metadata line
/// (0 = idle/fresh).
const STATE_STARTED: u64 = 1;
const STATE_COMMITTED: u64 = 2;
const STATE_ABORTED: u64 = 3;

/// Transaction errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The per-core undo log is full; enlarge `log_bytes_per_core`.
    LogFull,
    /// A verified NVM read failed inside the transaction.
    Corruption(CorruptionDetected),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::LogFull => write!(f, "transaction undo log full"),
            TxError::Corruption(c) => write!(f, "{c}"),
        }
    }
}

impl Error for TxError {}

impl From<CorruptionDetected> for TxError {
    fn from(c: CorruptionDetected) -> Self {
        TxError::Corruption(c)
    }
}

/// Per-pool transaction infrastructure: per-core state lines and undo logs,
/// plus the configured software redundancy scheme.
#[derive(Debug)]
pub struct TxManager {
    red: SwRedundancy,
    meta: FileHandle,
    cores: usize,
    log_bytes_per_core: u64,
    stride: u64,
    /// Scratch for the undo pre-image of each transactional write, reused
    /// so a write allocates nothing.
    undo: Vec<u8>,
}

impl TxManager {
    /// Allocate transaction metadata (one state page + `log_bytes_per_core`
    /// of undo log per core) in `fs` and DAX-map it, so the hardware
    /// controller covers transaction metadata exactly like application data.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if the pool cannot hold the metadata file.
    pub fn new(
        fs: &mut DaxFs,
        sys: &mut System,
        cores: usize,
        scheme: SwScheme,
        log_bytes_per_core: u64,
    ) -> Result<Self, FsError> {
        let log_bytes = log_bytes_per_core.div_ceil(PAGE as u64) * PAGE as u64;
        let stride = PAGE as u64 + log_bytes;
        let meta = fs.create(sys, stride * cores as u64)?;
        fs.dax_map(sys, &meta);
        Ok(TxManager {
            red: SwRedundancy::new(scheme, *fs.layout()),
            meta,
            cores,
            log_bytes_per_core: log_bytes,
            stride,
            undo: Vec::new(),
        })
    }

    /// Close the current Vilamb epoch: refresh checksums and parity for all
    /// pages dirtied since the last refresh (the background-scrubber work).
    /// A no-op for other schemes.
    ///
    /// # Errors
    ///
    /// Propagates verification failures.
    pub fn vilamb_flush(&mut self, sys: &mut System, core: usize) -> Result<(), TxError> {
        Ok(self.red.vilamb_flush(sys, core)?)
    }

    /// The configured software scheme.
    pub fn scheme(&self) -> SwScheme {
        self.red.scheme
    }

    /// Change the software scheme. Benchmark harnesses disable the scheme
    /// during unmeasured preload phases (rebuilding redundancy functionally
    /// afterwards) and re-enable it for the measured phase.
    pub fn set_scheme(&mut self, scheme: SwScheme) {
        self.red.scheme = scheme;
    }

    /// The metadata file (state lines + undo logs), so harnesses can rebuild
    /// its redundancy after unmeasured preload phases.
    pub fn meta_file(&self) -> &FileHandle {
        &self.meta
    }

    /// Restart recovery: roll back any transaction that was STARTED but
    /// never committed or aborted (e.g. the process died mid-transaction),
    /// using the persistent undo log and log high-water mark. Returns the
    /// cores whose transactions were rolled back.
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the recovery reads/writes.
    pub fn recover_all(&mut self, sys: &mut System) -> Result<Vec<usize>, TxError> {
        let mut rolled_back = Vec::new();
        for core in 0..self.cores {
            let so = self.stride * core as u64;
            if self.meta.read_u64(sys, core, so)? != STATE_STARTED {
                continue;
            }
            let head = self.meta.read_u64(sys, core, so + 8)?;
            let log_off = so + PAGE as u64;
            // Collect entries, then undo newest-first.
            let mut entries = Vec::new();
            let mut off = 0u64;
            while off + 16 <= head {
                let addr = self.meta.read_u64(sys, core, log_off + off)?;
                let len = self.meta.read_u64(sys, core, log_off + off + 8)?;
                if len == 0 || off + 16 + len > head {
                    break; // torn tail entry: its data write never happened
                }
                entries.push((addr, log_off + off + 16, len));
                off += 16 + len;
            }
            for (addr, data_off, len) in entries.into_iter().rev() {
                let mut old = vec![0u8; len as usize];
                self.meta.read(sys, core, data_off, &mut old)?;
                sys.write(core, memsim::PhysAddr(addr), &old)?;
                sys.clwb_range(core, memsim::PhysAddr(addr), len);
            }
            self.meta.write_u64(sys, core, so, STATE_ABORTED)?;
            sys.clwb_range(core, self.meta.addr(so), 8);
            rolled_back.push(core);
        }
        Ok(rolled_back)
    }

    /// Begin a transaction on `core`, persisting the STARTED record.
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the metadata write.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores`.
    pub fn begin<'a>(&'a mut self, sys: &mut System, core: usize) -> Result<Tx<'a>, TxError> {
        assert!(core < self.cores, "core {core} out of range");
        let state_off = self.stride * core as u64;
        let first = state_off / PAGE as u64;
        let meta_pages = (first..first + self.stride / PAGE as u64).map(|n| self.meta.page(n));
        self.red.check_stripes(sys, meta_pages)?;
        sys.instr(core, TX_INSTR);
        self.meta.write_u64(sys, core, state_off, STATE_STARTED)?;
        self.meta.write_u64(sys, core, state_off + 8, 0)?;
        // Persistence ordering (the libpmemobj discipline): the STARTED
        // record and the cleared log head are forced to media before any of
        // this transaction's logging or data writes can land there, so a
        // crash never finds log entries governed by a stale head.
        sys.clwb_range(core, self.meta.addr(state_off), 16);
        Ok(Tx {
            mgr: self,
            core,
            log_head: 0,
            dirty: Vec::new(),
            durable_pending: Vec::new(),
            finished: false,
        })
    }

    /// Drop volatile bookkeeping after a simulated power loss: Vilamb's
    /// dirty-page set and epoch counter live in DRAM and do not survive a
    /// crash — which is exactly the scheme's vulnerability window (pages
    /// whose redundancy refresh was still owed are no longer even known).
    pub fn clear_volatile(&mut self) {
        self.red.vilamb_dirty.clear();
        self.red.vilamb_txs = 0;
    }

    /// Pages whose redundancy refresh Vilamb still owes (the set a crash
    /// right now would leave unverifiable). Empty for other schemes.
    pub fn vilamb_pending_pages(&self) -> Vec<memsim::addr::PageNum> {
        self.red.vilamb_dirty.iter().copied().collect()
    }
}

/// An open transaction. Must be finished with [`Tx::commit`] or
/// [`Tx::abort`]; dropping an unfinished transaction leaves the STARTED
/// record in place (recoverable, as in libpmemobj).
#[derive(Debug)]
pub struct Tx<'a> {
    mgr: &'a mut TxManager,
    core: usize,
    log_head: u64,
    /// (address, length) of every logged write, for commit-time redundancy.
    dirty: Vec<(PhysAddr, u32)>,
    /// (address, length) of the in-place *data* updates only, which commit
    /// must force to media before the COMMITTED record (redundancy and log
    /// ranges are tracked separately in `dirty`).
    durable_pending: Vec<(PhysAddr, u32)>,
    finished: bool,
}

impl Tx<'_> {
    fn state_off(&self) -> u64 {
        self.mgr.stride * self.core as u64
    }

    fn log_off(&self) -> u64 {
        self.state_off() + PAGE as u64
    }

    /// Transactionally write `data` at `offset` of `file`: the old content
    /// is undo-logged first, then the data is updated in place.
    ///
    /// # Errors
    ///
    /// [`TxError::LogFull`] if the undo log cannot hold the entry;
    /// [`TxError::Corruption`] from verified reads.
    pub fn write(
        &mut self,
        sys: &mut System,
        file: &FileHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<(), TxError> {
        // Split at page boundaries: a file range spanning pages is not
        // physically contiguous (data pages interleave with parity pages),
        // and undo-log entries record physical ranges.
        let mut done = 0usize;
        while done < data.len() {
            let off = offset + done as u64;
            let in_page = (PAGE as u64 - off % PAGE as u64) as usize;
            let n = in_page.min(data.len() - done);
            self.write_in_page(sys, file, off, &data[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// One page-bounded transactional write (physically contiguous).
    fn write_in_page(
        &mut self,
        sys: &mut System,
        file: &FileHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<(), TxError> {
        debug_assert!(offset % PAGE as u64 + data.len() as u64 <= PAGE as u64);
        let entry_bytes = 16 + data.len() as u64;
        if self.log_head + entry_bytes > self.mgr.log_bytes_per_core {
            return Err(TxError::LogFull);
        }
        let page = file.addr(offset).line().page();
        self.mgr.red.check_stripes(sys, [page])?;
        sys.instr(self.core, 25 + data.len() as u64 / 4);
        // Undo log: header (addr, len) + old content.
        let old = &mut self.mgr.undo;
        old.clear();
        old.resize(data.len(), 0);
        file.read(sys, self.core, offset, old)?;
        let log_base = self.log_off() + self.log_head;
        let target = file.addr(offset);
        self.mgr
            .meta
            .write_u64(sys, self.core, log_base, target.0)?;
        self.mgr
            .meta
            .write_u64(sys, self.core, log_base + 8, data.len() as u64)?;
        self.mgr
            .meta
            .write(sys, self.core, log_base + 16, &self.mgr.undo)?;
        // Track log lines + data lines for commit-time redundancy (in
        // page-bounded, physically contiguous chunks).
        let meta = self.mgr.meta;
        // Persistence ordering: the undo entry, then the head that covers
        // it, must be durable before the in-place update can reach the
        // media, so a crash never finds a data write whose undo entry is
        // torn or missing.
        self.clwb_file_range(sys, &meta, log_base, entry_bytes);
        self.track_file_range(&meta, log_base, entry_bytes);
        self.log_head += entry_bytes;
        // Persist the log high-water mark so an interrupted transaction can
        // be rolled back on restart (see `TxManager::recover_all`).
        let so = self.state_off();
        self.mgr
            .meta
            .write_u64(sys, self.core, so + 8, self.log_head)?;
        sys.clwb_range(self.core, self.mgr.meta.addr(so + 8), 8);
        self.track(self.mgr.meta.addr(so + 8), 8);
        // In-place update.
        file.write(sys, self.core, offset, data)?;
        self.track(target, data.len() as u32);
        self.durable_pending.push((target, data.len() as u32));
        Ok(())
    }

    /// `clwb` a *file* range in page-bounded physically contiguous chunks
    /// (file pages interleave with parity pages on the media).
    fn clwb_file_range(&self, sys: &mut System, file: &FileHandle, offset: u64, len: u64) {
        let mut done = 0u64;
        while done < len {
            let off = offset + done;
            let in_page = PAGE as u64 - off % PAGE as u64;
            let n = in_page.min(len - done);
            sys.clwb_range(self.core, file.addr(off), n);
            done += n;
        }
    }

    /// Transactionally write a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Tx::write`].
    pub fn write_u64(
        &mut self,
        sys: &mut System,
        file: &FileHandle,
        offset: u64,
        value: u64,
    ) -> Result<(), TxError> {
        self.write(sys, file, offset, &value.to_le_bytes())
    }

    fn track(&mut self, addr: PhysAddr, len: u32) {
        self.dirty.push((addr, len));
    }

    /// Track a file range as page-bounded physical chunks.
    fn track_file_range(&mut self, file: &FileHandle, offset: u64, len: u64) {
        let mut done = 0u64;
        while done < len {
            let off = offset + done;
            let in_page = PAGE as u64 - off % PAGE as u64;
            let n = in_page.min(len - done);
            self.track(file.addr(off), n as u32);
            done += n;
        }
    }

    /// Commit: persist the COMMITTED record, then run the configured
    /// software redundancy scheme over everything the transaction dirtied
    /// (data, undo log, and state metadata).
    ///
    /// # Errors
    ///
    /// Propagates verification failures ([`TxError::Corruption`]).
    pub fn commit(mut self, sys: &mut System) -> Result<(), TxError> {
        sys.instr(self.core, TX_INSTR);
        // Persistence ordering: every in-place data update reaches the
        // media before the COMMITTED record can, so COMMITTED-on-media
        // implies every committed byte is on media.
        let pending = std::mem::take(&mut self.durable_pending);
        for (addr, len) in pending {
            sys.clwb_range(self.core, addr, len as u64);
        }
        let so = self.state_off();
        self.mgr
            .meta
            .write_u64(sys, self.core, so, STATE_COMMITTED)?;
        sys.clwb_range(self.core, self.mgr.meta.addr(so), 8);
        let state_addr = self.mgr.meta.addr(so);
        self.track(state_addr, 8);
        self.mgr.red.on_commit(sys, self.core, &self.dirty)?;
        self.finished = true;
        Ok(())
    }

    /// Abort: roll back from the undo log (newest entry first) and persist
    /// the ABORTED record.
    ///
    /// # Errors
    ///
    /// Propagates verification failures.
    pub fn abort(mut self, sys: &mut System) -> Result<(), TxError> {
        sys.instr(self.core, TX_INSTR);
        // Collect entries by walking the log from the start.
        let mut entries = Vec::new();
        let mut off = 0u64;
        while off < self.log_head {
            let base = self.log_off() + off;
            let addr = self.mgr.meta.read_u64(sys, self.core, base)?;
            let len = self.mgr.meta.read_u64(sys, self.core, base + 8)?;
            entries.push((PhysAddr(addr), base + 16, len));
            off += 16 + len;
        }
        for (target, log_data_off, len) in entries.into_iter().rev() {
            let mut old = vec![0u8; len as usize];
            self.mgr.meta.read(sys, self.core, log_data_off, &mut old)?;
            sys.write(self.core, target, &old)?;
            sys.clwb_range(self.core, target, len);
        }
        let so = self.state_off();
        self.mgr.meta.write_u64(sys, self.core, so, STATE_ABORTED)?;
        sys.clwb_range(self.core, self.mgr.meta.addr(so), 8);
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::config::SystemConfig;
    use memsim::engine::NullHooks;
    use tvarak::layout::NvmLayout;
    use tvarak::scrub::ScrubGranularity;

    fn setup(scheme: SwScheme) -> (System, DaxFs, TxManager, FileHandle) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 64);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let mut fs = DaxFs::new(layout, &mut sys);
        let mut txm = TxManager::new(&mut fs, &mut sys, 2, scheme, 64 * 1024).unwrap();
        let f = fs.create(&mut sys, 8 * 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        let _ = &mut txm;
        (sys, fs, txm, f)
    }

    #[test]
    fn committed_write_is_visible() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 100, b"durable").unwrap();
        tx.commit(&mut sys).unwrap();
        let mut buf = [0u8; 7];
        f.read(&mut sys, 0, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn abort_rolls_back_all_writes_in_reverse() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        f.write(&mut sys, 0, 0, b"AAAA").unwrap();
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 0, b"BBBB").unwrap();
        tx.write(&mut sys, &f, 0, b"CCCC").unwrap();
        tx.write(&mut sys, &f, 64, b"DDDD").unwrap();
        tx.abort(&mut sys).unwrap();
        let mut buf = [0u8; 4];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"AAAA");
        f.read(&mut sys, 0, 64, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }

    /// A failure the `abort_atomicity` property once shrank to: a single
    /// aborted write whose last byte spills onto the next page.
    #[test]
    fn regression_abort_atomicity_page_crossing_write() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 12252, &[1u8; 37]).unwrap();
        tx.abort(&mut sys).unwrap();
        let mut buf = vec![0xffu8; f.len() as usize];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    /// A failure the `undo_log_space_is_reusable` property once shrank to
    /// (`rounds = 1`): one transaction logging ~32 KB against the 64 KB log.
    #[test]
    fn regression_undo_log_space_is_reusable_one_round() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        for i in 0..8u64 {
            tx.write(&mut sys, &f, i * 4096, &[0u8; 4000]).unwrap();
        }
        tx.commit(&mut sys).unwrap();
        let mut buf = vec![0xffu8; 4000];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn log_full_is_reported() {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, 64);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let mut fs = DaxFs::new(layout, &mut sys);
        let mut txm = TxManager::new(&mut fs, &mut sys, 1, SwScheme::None, 8192).unwrap();
        let f = fs.create(&mut sys, 4096).unwrap();
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        // Each entry is a 16-byte header + data: two 4 KB entries exceed the
        // 8 KB log.
        let big = vec![0u8; 4096];
        tx.write(&mut sys, &f, 0, &big).unwrap();
        let err = tx.write(&mut sys, &f, 0, &big).unwrap_err();
        assert_eq!(err, TxError::LogFull);
    }

    #[test]
    fn txb_object_maintains_cl_checksums_and_parity() {
        let (mut sys, fs, mut txm, f) = setup(SwScheme::TxbObject);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 256, &[0x77u8; 100]).unwrap();
        tx.commit(&mut sys).unwrap();
        sys.flush();
        assert!(
            fs.audit(&sys, &f, ScrubGranularity::CacheLine).is_empty(),
            "CL checksums and parity consistent"
        );
        // Redundancy traffic was classified as such.
        assert!(sys.stats().counters.nvm_redundancy() > 0);
    }

    #[test]
    fn txb_page_maintains_page_checksums_and_parity() {
        let (mut sys, fs, mut txm, f) = setup(SwScheme::TxbPage);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 0, &[0x31u8; 64]).unwrap();
        tx.write(&mut sys, &f, 5000, &[0x32u8; 64]).unwrap();
        tx.commit(&mut sys).unwrap();
        sys.flush();
        assert!(
            fs.audit(&sys, &f, ScrubGranularity::Page).is_empty(),
            "page checksums and parity consistent"
        );
    }

    #[test]
    fn txb_page_costs_more_than_txb_object_for_small_writes() {
        let run = |scheme| {
            let (mut sys, _fs, mut txm, f) = setup(scheme);
            sys.reset_stats();
            for i in 0..32u64 {
                let mut tx = txm.begin(&mut sys, 0).unwrap();
                tx.write_u64(&mut sys, &f, i * 8, i).unwrap();
                tx.commit(&mut sys).unwrap();
            }
            sys.stats().counters.cache_total()
        };
        let obj = run(SwScheme::TxbObject);
        let page = run(SwScheme::TxbPage);
        let none = run(SwScheme::None);
        assert!(obj > none, "object scheme adds cache work");
        assert!(
            page > obj * 2,
            "page scheme reads whole pages: {page} vs {obj}"
        );
    }

    #[test]
    fn interrupted_tx_rolls_back_on_restart_recovery() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        f.write(&mut sys, 0, 0, b"CONSISTENT-STATE").unwrap();
        // A transaction dies mid-flight (dropped without commit/abort).
        {
            let mut tx = txm.begin(&mut sys, 0).unwrap();
            tx.write(&mut sys, &f, 0, b"TORN").unwrap();
            tx.write(&mut sys, &f, 100, &[0xeeu8; 32]).unwrap();
            // process "crashes" here: the Tx is dropped unfinished
        }
        let mut buf = [0u8; 4];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"TORN", "in-place update landed before the crash");
        // Restart: recovery rolls the incomplete transaction back.
        let rolled = txm.recover_all(&mut sys).unwrap();
        assert_eq!(rolled, vec![0]);
        let mut buf = [0u8; 16];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"CONSISTENT-STATE");
        let mut buf = [0u8; 32];
        f.read(&mut sys, 0, 100, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        // Idempotent: nothing left to roll back.
        assert!(txm.recover_all(&mut sys).unwrap().is_empty());
    }

    #[test]
    fn committed_tx_is_not_rolled_back_by_recovery() {
        let (mut sys, _fs, mut txm, f) = setup(SwScheme::None);
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 0, b"durable!").unwrap();
        tx.commit(&mut sys).unwrap();
        assert!(txm.recover_all(&mut sys).unwrap().is_empty());
        let mut buf = [0u8; 8];
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable!");
    }

    /// Whether some page of `f` fails its page checksum on the media.
    fn stale_csums(sys: &System, fs: &DaxFs, f: &FileHandle) -> bool {
        let audit = fs.audit(sys, f, ScrubGranularity::Page);
        audit
            .iter()
            .any(|&(_, kind)| kind == tvarak::scrub::ScrubFindingKind::Checksum)
    }

    #[test]
    fn vilamb_defers_redundancy_until_epoch_close() {
        let (mut sys, fs, mut txm, f) = setup(SwScheme::Vilamb { epoch_txs: 4 });
        // Three commits: inside the epoch, redundancy is stale (the
        // vulnerability window Vilamb accepts).
        for i in 0..3u64 {
            let mut tx = txm.begin(&mut sys, 0).unwrap();
            tx.write(&mut sys, &f, i * 4096, &[0x44u8; 64]).unwrap();
            tx.commit(&mut sys).unwrap();
        }
        sys.flush();
        assert!(
            stale_csums(&sys, &fs, &f),
            "inside the epoch, page checksums must be stale"
        );
        // Fourth commit closes the epoch: everything refreshed.
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 3 * 4096, &[0x45u8; 64]).unwrap();
        tx.commit(&mut sys).unwrap();
        sys.flush();
        assert!(fs.audit(&sys, &f, ScrubGranularity::Page).is_empty());
    }

    #[test]
    fn vilamb_flush_closes_partial_epoch() {
        let (mut sys, fs, mut txm, f) = setup(SwScheme::Vilamb { epoch_txs: 1000 });
        let mut tx = txm.begin(&mut sys, 0).unwrap();
        tx.write(&mut sys, &f, 0, &[0x46u8; 64]).unwrap();
        tx.commit(&mut sys).unwrap();
        sys.flush();
        assert!(stale_csums(&sys, &fs, &f));
        txm.vilamb_flush(&mut sys, 0).unwrap();
        sys.flush();
        assert!(!stale_csums(&sys, &fs, &f));
    }

    #[test]
    fn vilamb_batches_repeated_writes_to_same_page() {
        // 64 writes to one page: Vilamb pays the page work once per epoch,
        // TxB-Page pays it per transaction.
        let cache_work = |scheme| {
            let (mut sys, _fs, mut txm, f) = setup(scheme);
            sys.reset_stats();
            for i in 0..64u64 {
                let mut tx = txm.begin(&mut sys, 0).unwrap();
                tx.write(&mut sys, &f, i * 64, &[i as u8; 64]).unwrap();
                tx.commit(&mut sys).unwrap();
            }
            txm.vilamb_flush(&mut sys, 0).unwrap();
            sys.stats().counters.cache_total()
        };
        let vilamb = cache_work(SwScheme::Vilamb { epoch_txs: 64 });
        let txb_page = cache_work(SwScheme::TxbPage);
        assert!(
            vilamb * 4 < txb_page,
            "vilamb must amortize page work: {vilamb} vs {txb_page}"
        );
    }

    #[test]
    fn get_style_empty_tx_still_writes_metadata() {
        let (mut sys, _fs, mut txm, _f) = setup(SwScheme::None);
        sys.reset_stats();
        let tx = txm.begin(&mut sys, 0).unwrap();
        tx.commit(&mut sys).unwrap();
        sys.flush();
        // STARTED + COMMITTED records reached NVM.
        assert!(sys.stats().counters.nvm_data_writes >= 1);
    }
}
