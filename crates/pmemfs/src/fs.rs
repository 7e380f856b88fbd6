//! The DAX file system: file allocation over the striped NVM region, DAX
//! map/unmap (which registers ranges with the TVARAK controller and converts
//! between page- and cache-line-granular checksums, §III-C), and the
//! offline media audit.

use memsim::addr::{PageNum, PhysAddr, PAGE};
use memsim::engine::{CorruptionDetected, RedundancyRegion, System};
use std::error::Error;
use std::fmt;
use tvarak::controller::TvarakController;
use tvarak::init;
use tvarak::layout::NvmLayout;
use tvarak::scrub::{ScrubFindingKind, ScrubGranularity};

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Not enough data pages left in the pool.
    OutOfSpace {
        /// Pages requested.
        requested: u64,
        /// Pages available.
        available: u64,
    },
    /// A zero-byte file was requested.
    EmptyFile,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::OutOfSpace {
                requested,
                available,
            } => write!(
                f,
                "pool out of space: requested {requested} pages, {available} available"
            ),
            FsError::EmptyFile => write!(f, "cannot create an empty file"),
        }
    }
}

impl Error for FsError {}

/// A handle to a file in the pool: a contiguous run of *data-page indices*
/// (the physical pages interleave with parity pages, but the handle's
/// virtual offsets are dense). Cheap to copy; does its own offset→physical
/// translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle {
    layout: NvmLayout,
    first: u64,
    pages: u64,
    bytes: u64,
}

impl FileHandle {
    /// File size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// Whether the file is empty (never true for created files).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Number of data pages backing the file.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// First data-page index in the pool.
    pub fn first_data_index(&self) -> u64 {
        self.first
    }

    /// Physical address of byte `offset` within the file.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len()`.
    #[inline]
    pub fn addr(&self, offset: u64) -> PhysAddr {
        assert!(offset < self.bytes, "offset {offset} beyond file end");
        let page = self.layout.nth_data_page(self.first + offset / PAGE as u64);
        PhysAddr(page.base().0 + offset % PAGE as u64)
    }

    /// The physical page backing file page `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= pages()`.
    pub fn page(&self, n: u64) -> PageNum {
        assert!(n < self.pages, "file page {n} out of range");
        self.layout.nth_data_page(self.first + n)
    }

    /// Read `buf.len()` bytes at file `offset` as `core`, splitting at page
    /// boundaries (physical pages are not contiguous).
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`] from verified NVM fills.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the file.
    pub fn read(
        &self,
        sys: &mut System,
        core: usize,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), CorruptionDetected> {
        assert!(
            offset + buf.len() as u64 <= self.bytes,
            "read past end of file"
        );
        let mut done = 0usize;
        while done < buf.len() {
            let off = offset + done as u64;
            let in_page = (PAGE as u64 - off % PAGE as u64) as usize;
            let n = in_page.min(buf.len() - done);
            sys.read(core, self.addr(off), &mut buf[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Write `data` at file `offset` as `core`, splitting at page boundaries.
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`] from verified write-allocate fills.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the file.
    pub fn write(
        &self,
        sys: &mut System,
        core: usize,
        offset: u64,
        data: &[u8],
    ) -> Result<(), CorruptionDetected> {
        assert!(
            offset + data.len() as u64 <= self.bytes,
            "write past end of file"
        );
        let mut done = 0usize;
        while done < data.len() {
            let off = offset + done as u64;
            let in_page = (PAGE as u64 - off % PAGE as u64) as usize;
            let n = in_page.min(data.len() - done);
            sys.write(core, self.addr(off), &data[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Read a little-endian `u64` at file `offset`.
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`].
    pub fn read_u64(
        &self,
        sys: &mut System,
        core: usize,
        offset: u64,
    ) -> Result<u64, CorruptionDetected> {
        let mut b = [0u8; 8];
        self.read(sys, core, offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` at file `offset`.
    ///
    /// # Errors
    ///
    /// Propagates [`CorruptionDetected`].
    pub fn write_u64(
        &self,
        sys: &mut System,
        core: usize,
        offset: u64,
        value: u64,
    ) -> Result<(), CorruptionDetected> {
        self.write(sys, core, offset, &value.to_le_bytes())
    }
}

/// The DAX file system over one NVM pool.
#[derive(Debug)]
pub struct DaxFs {
    layout: NvmLayout,
    next: u64,
    mapped: Vec<(u64, u64)>,
    /// Freed extents `(first, pages)`, reused first-fit by `create`.
    free_list: Vec<(u64, u64)>,
}

impl DaxFs {
    /// Create a file system over a pool laid out by `layout`, and install
    /// the NVM redundancy-region classifier on `sys` (so software-scheme
    /// checksum/parity traffic is counted as redundancy).
    pub fn new(layout: NvmLayout, sys: &mut System) -> Self {
        sys.set_redundancy_region(RedundancyRegion {
            striped_pages: layout.geometry().total_pages_for(layout.data_pages()),
            dimms: layout.geometry().dimms() as u64,
        });
        DaxFs {
            layout,
            next: 0,
            mapped: Vec::new(),
            free_list: Vec::new(),
        }
    }

    /// The pool layout.
    pub fn layout(&self) -> &NvmLayout {
        &self.layout
    }

    /// Data pages still unallocated (tail of the pool plus freed extents).
    pub fn free_pages(&self) -> u64 {
        self.layout.data_pages() - self.next + self.free_list.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Take `pages` from the free list (first-fit, splitting) or the tail.
    fn allocate(&mut self, pages: u64) -> Option<u64> {
        if let Some(pos) = self.free_list.iter().position(|&(_, n)| n >= pages) {
            let (first, n) = self.free_list[pos];
            if n == pages {
                self.free_list.remove(pos);
            } else {
                self.free_list[pos] = (first + pages, n - pages);
            }
            return Some(first);
        }
        if self.next + pages <= self.layout.data_pages() {
            let first = self.next;
            self.next += pages;
            Some(first)
        } else {
            None
        }
    }

    /// Create a file of at least `bytes` bytes, with redundancy (page
    /// checksums and parity) initialized over its zeroed content.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfSpace`] when the pool is exhausted and
    /// [`FsError::EmptyFile`] for zero-size requests.
    pub fn create(&mut self, sys: &mut System, bytes: u64) -> Result<FileHandle, FsError> {
        if bytes == 0 {
            return Err(FsError::EmptyFile);
        }
        let pages = bytes.div_ceil(PAGE as u64);
        let Some(first) = self.allocate(pages) else {
            return Err(FsError::OutOfSpace {
                requested: pages,
                available: self.free_pages(),
            });
        };
        // Reused extents may hold stale content: zero them so a fresh file
        // reads as zeros everywhere.
        for n in first..first + pages {
            let page = self.layout.nth_data_page(n);
            sys.memory_mut().poke_page(page, &[0u8; PAGE]);
            sys.invalidate_page(page);
        }
        init::initialize_region(&self.layout, sys.memory_mut(), first..first + pages);
        Ok(FileHandle {
            layout: self.layout,
            first,
            pages,
            bytes: pages * PAGE as u64,
        })
    }

    /// Delete `file`: unmap it and return its pages to the free list for
    /// reuse by future [`Self::create`] calls. The handle (and any copies)
    /// must not be used afterwards.
    pub fn delete(&mut self, sys: &mut System, file: FileHandle) {
        self.dax_unmap(sys, &file);
        self.free_list.push((file.first, file.pages));
        // Coalesce adjacent extents so large files can be re-allocated.
        self.free_list.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.free_list.len());
        for &(first, n) in &self.free_list {
            match merged.last_mut() {
                Some((mf, mn)) if *mf + *mn == first => *mn += n,
                _ => merged.push((first, n)),
            }
        }
        // An extent ending at the tail returns to the tail allocator.
        if let Some(&(mf, mn)) = merged.last() {
            if mf + mn == self.next {
                self.next = mf;
                merged.pop();
            }
        }
        self.free_list = merged;
    }

    /// DAX-map `file`: registers the range with the TVARAK controller (if
    /// present) and performs the page→cache-line checksum conversion.
    /// Idempotent per range.
    pub fn dax_map(&mut self, sys: &mut System, file: &FileHandle) {
        let range = (file.first, file.pages);
        if self.mapped.contains(&range) {
            return;
        }
        init::refresh_cl_csums(
            &self.layout,
            sys.memory_mut(),
            file.first..file.first + file.pages,
        );
        if let Some(ctrl) = sys
            .hooks_mut()
            .as_any_mut()
            .downcast_mut::<TvarakController>()
        {
            ctrl.map_range(file.first, file.pages);
        }
        self.mapped.push(range);
    }

    /// Unmap `file`: unregisters it from the controller and converts
    /// cache-line checksums back to page checksums. Cached data must be
    /// flushed by the caller first (`System::flush`) for the page checksums
    /// to cover the latest content.
    pub fn dax_unmap(&mut self, sys: &mut System, file: &FileHandle) {
        let range = (file.first, file.pages);
        if let Some(pos) = self.mapped.iter().position(|r| *r == range) {
            self.mapped.remove(pos);
            if let Some(ctrl) = sys
                .hooks_mut()
                .as_any_mut()
                .downcast_mut::<TvarakController>()
            {
                ctrl.unmap_range(file.first, file.pages);
            }
            init::refresh_page_csums(
                &self.layout,
                sys.memory_mut(),
                file.first..file.first + file.pages,
            );
        }
    }

    /// Offline media audit of every page of `file`
    /// ([`NvmLayout::audit_page`]): checksums stored at `granularity`
    /// first, then stripe parity; a lost line fails like corruption.
    /// Returns each inconsistent file page with what disagrees, in file
    /// order.
    pub fn audit(
        &self,
        sys: &System,
        file: &FileHandle,
        granularity: ScrubGranularity,
    ) -> Vec<(u64, ScrubFindingKind)> {
        (0..file.pages)
            .filter_map(|n| {
                let kind = self
                    .layout
                    .audit_page(sys.memory(), file.page(n), granularity)?;
                Some((n, kind))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::config::SystemConfig;
    use memsim::engine::NullHooks;
    use tvarak::controller::TvarakConfig;

    fn baseline_sys(pages: u64) -> (System, DaxFs) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, pages);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let fs = DaxFs::new(layout, &mut sys);
        (sys, fs)
    }

    fn tvarak_sys(pages: u64) -> (System, DaxFs) {
        let cfg = SystemConfig::small();
        let layout = NvmLayout::new(cfg.nvm.dimms, pages);
        let ctrl = TvarakController::new(
            TvarakConfig::default(),
            layout,
            cfg.llc_banks,
            cfg.controller.cache_bytes,
            cfg.controller.cache_ways,
        );
        let mut sys = System::new(cfg, Box::new(ctrl));
        let fs = DaxFs::new(layout, &mut sys);
        (sys, fs)
    }

    #[test]
    fn create_allocates_distinct_files() {
        let (mut sys, mut fs) = baseline_sys(10);
        let a = fs.create(&mut sys, 4096).unwrap();
        let b = fs.create(&mut sys, 8192).unwrap();
        assert_eq!(a.pages(), 1);
        assert_eq!(b.pages(), 2);
        assert_ne!(a.addr(0), b.addr(0));
        assert_eq!(fs.free_pages(), 7);
    }

    #[test]
    fn out_of_space_reported() {
        let (mut sys, mut fs) = baseline_sys(2);
        let err = fs.create(&mut sys, 3 * 4096).unwrap_err();
        assert_eq!(
            err,
            FsError::OutOfSpace {
                requested: 3,
                available: 2
            }
        );
        assert!(fs.create(&mut sys, 0).is_err());
    }

    #[test]
    fn file_rw_spans_pages() {
        let (mut sys, mut fs) = baseline_sys(8);
        let f = fs.create(&mut sys, 4 * 4096).unwrap();
        let data: Vec<u8> = (0..10000u32).map(|i| (i % 251) as u8).collect();
        f.write(&mut sys, 0, 100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        f.read(&mut sys, 0, 100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn u64_helpers_roundtrip() {
        let (mut sys, mut fs) = baseline_sys(4);
        let f = fs.create(&mut sys, 4096).unwrap();
        f.write_u64(&mut sys, 0, 16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(f.read_u64(&mut sys, 0, 16).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn addr_translation_skips_parity_pages() {
        let (mut sys, mut fs) = baseline_sys(8);
        let f = fs.create(&mut sys, 8 * 4096).unwrap();
        let geom = fs.layout().geometry();
        for n in 0..8 {
            let p = f.page(n);
            assert!(!geom.is_parity_page(p.nvm_index()), "page {n}");
        }
    }

    #[test]
    fn delete_returns_space_and_reuse_is_clean() {
        let (mut sys, mut fs) = baseline_sys(8);
        let a = fs.create(&mut sys, 3 * 4096).unwrap();
        a.write(&mut sys, 0, 0, &[0xddu8; 4096]).unwrap();
        sys.flush();
        let before = fs.free_pages();
        fs.delete(&mut sys, a);
        assert_eq!(fs.free_pages(), before + 3);
        // A new file reuses the extent and reads as zeros.
        let b = fs.create(&mut sys, 3 * 4096).unwrap();
        assert_eq!(b.first_data_index(), 0, "extent reused");
        let mut buf = [0u8; 64];
        b.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "stale content must not leak");
    }

    /// `create` over a reused extent whose old lines are still cached on
    /// several cores: some dirty in core 0's L1, others clean and shared by
    /// cores 1–3. Every core must read zeros, and the dropped dirty data
    /// must never reach the media.
    #[test]
    fn reused_extent_drops_stale_copies_on_every_core() {
        let cfg = SystemConfig {
            cores: 4,
            ..SystemConfig::small()
        };
        let layout = NvmLayout::new(cfg.nvm.dimms, 8);
        let mut sys = System::new(cfg, Box::new(NullHooks));
        let mut fs = DaxFs::new(layout, &mut sys);
        let a = fs.create(&mut sys, 2 * 4096).unwrap();
        a.write(&mut sys, 0, 4096, &[0xbbu8; 256]).unwrap();
        sys.flush();
        for core in 1..4 {
            a.read(&mut sys, core, 4096, &mut [0u8; 256]).unwrap();
        }
        a.write(&mut sys, 0, 0, &[0xaau8; 256]).unwrap();
        let writes = sys.stats().counters.nvm_data_writes;
        fs.delete(&mut sys, a);
        let b = fs.create(&mut sys, 2 * 4096).unwrap();
        assert_eq!(b.first_data_index(), 0, "extent reused");
        for core in 0..4 {
            for off in [0, 4096] {
                let mut buf = [0xffu8; 256];
                b.read(&mut sys, core, off, &mut buf).unwrap();
                assert_eq!(buf, [0u8; 256], "core {core} read stale data at {off}");
            }
        }
        sys.flush();
        assert_eq!(
            sys.stats().counters.nvm_data_writes,
            writes,
            "stale data reached the media"
        );
        for off in [0, 4096] {
            assert_eq!(sys.memory().peek_line(b.addr(off).line()), [0u8; 64]);
        }
    }

    #[test]
    fn delete_coalesces_adjacent_extents() {
        let (mut sys, mut fs) = baseline_sys(10);
        let a = fs.create(&mut sys, 2 * 4096).unwrap();
        let b = fs.create(&mut sys, 2 * 4096).unwrap();
        let c = fs.create(&mut sys, 2 * 4096).unwrap();
        let _keep = fs.create(&mut sys, 4096).unwrap();
        fs.delete(&mut sys, a);
        fs.delete(&mut sys, c);
        fs.delete(&mut sys, b);
        // 6 coalesced pages: a 6-page file must fit in the hole.
        let big = fs.create(&mut sys, 6 * 4096).unwrap();
        assert_eq!(big.first_data_index(), 0);
    }

    #[test]
    fn delete_tail_file_returns_to_tail() {
        let (mut sys, mut fs) = baseline_sys(8);
        let a = fs.create(&mut sys, 2 * 4096).unwrap();
        let free0 = fs.free_pages();
        fs.delete(&mut sys, a);
        assert_eq!(fs.free_pages(), free0 + 2);
        // The whole pool is allocatable again as one file.
        let full = fs.create(&mut sys, 8 * 4096).unwrap();
        assert_eq!(full.pages(), 8);
    }

    #[test]
    fn deleted_tvarak_file_is_unprotected_and_reusable() {
        let (mut sys, mut fs) = tvarak_sys(8);
        let a = fs.create(&mut sys, 4096).unwrap();
        fs.dax_map(&mut sys, &a);
        a.write(&mut sys, 0, 0, &[1u8; 64]).unwrap();
        sys.flush();
        let addr = a.addr(0);
        fs.delete(&mut sys, a);
        // The controller no longer verifies the old range.
        sys.memory_mut().poke_line(addr.line(), &[9u8; 64]);
        let mut buf = [0u8; 8];
        sys.read(0, addr, &mut buf)
            .expect("no verification after delete");
    }

    #[test]
    fn dax_mapped_tvarak_file_verifies_and_recovers() {
        let (mut sys, mut fs) = tvarak_sys(8);
        let f = fs.create(&mut sys, 2 * 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        f.write(&mut sys, 0, 0, &[0x11u8; 256]).unwrap();
        sys.flush();
        // Silent media corruption.
        let line = f.addr(0).line();
        sys.memory_mut().poke_line(line, &[0x22u8; 64]);
        sys.invalidate_page(line.page());
        let mut buf = [0u8; 64];
        let err = f.read(&mut sys, 0, 0, &mut buf).unwrap_err();
        assert_eq!(err.line, line);
        let page = line.page();
        tvarak::recovery::recover_page(&mut sys, fs.layout(), ScrubGranularity::CacheLine, page)
            .unwrap();
        f.read(&mut sys, 0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x11u8; 64]);
    }

    #[test]
    fn unmap_restores_page_checksums() {
        let (mut sys, mut fs) = tvarak_sys(8);
        let f = fs.create(&mut sys, 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        f.write(&mut sys, 0, 0, &[7u8; 128]).unwrap();
        sys.flush();
        fs.dax_unmap(&mut sys, &f);
        assert!(fs.audit(&sys, &f, ScrubGranularity::Page).is_empty());
        // Controller no longer verifies this range.
        sys.invalidate_page(f.page(0));
        sys.memory_mut().poke_line(f.addr(0).line(), &[9u8; 64]);
        let mut buf = [0u8; 8];
        f.read(&mut sys, 0, 0, &mut buf)
            .expect("no verification when unmapped");
    }

    /// The offline audit and the scrubber run the same checks: they must
    /// flag the same pages with the same kind for a rotted parity line and
    /// for a corrupted data line, whichever checksum granularity they run
    /// at.
    #[test]
    fn parity_audit_agrees_with_scrubber() {
        use tvarak::scrub::{ScrubFindingKind, Scrubber};
        let (mut sys, mut fs) = baseline_sys(12);
        let f = fs.create(&mut sys, 6 * 4096).unwrap();
        f.write(&mut sys, 0, 0, &[0x3cu8; 6 * 4096]).unwrap();
        sys.flush();
        let first = f.first_data_index();
        init::initialize_region(fs.layout(), sys.memory_mut(), first..first + f.pages());
        for granularity in [ScrubGranularity::Page, ScrubGranularity::CacheLine] {
            assert!(fs.audit(&sys, &f, granularity).is_empty());
        }
        let rotted = fs.layout().parity_line_of(f.page(4).line(17));
        sys.memory_mut().poke_line(rotted, &[0xeeu8; 64]);
        // Page 1 shares no stripe with page 4 at the small config's width.
        assert_ne!(
            fs.layout().parity_line_of(f.page(1).line(0)).page(),
            rotted.page()
        );
        sys.memory_mut().poke_line(f.page(1).line(5), &[0x5au8; 64]);
        for granularity in [ScrubGranularity::Page, ScrubGranularity::CacheLine] {
            let offline = fs.audit(&sys, &f, granularity);
            assert!(
                offline.contains(&(4, ScrubFindingKind::Parity)),
                "{offline:?}"
            );
            assert!(
                offline.contains(&(1, ScrubFindingKind::Checksum)),
                "{offline:?}"
            );
            let mut scrubber = Scrubber::new(*fs.layout(), granularity, first, f.pages());
            let findings = scrubber.step(&mut sys, 0, f.pages()).unwrap();
            let online: Vec<_> = findings
                .iter()
                .map(|x| (x.data_index - first, x.kind))
                .collect();
            assert_eq!(online, offline, "{granularity:?}");
        }
    }

    #[test]
    fn scrubs_clean_after_tvarak_writes() {
        let (mut sys, mut fs) = tvarak_sys(12);
        let f = fs.create(&mut sys, 6 * 4096).unwrap();
        fs.dax_map(&mut sys, &f);
        for i in 0..96u64 {
            f.write_u64(&mut sys, 0, i * 256, i * 0x9e37).unwrap();
        }
        sys.flush();
        assert!(
            fs.audit(&sys, &f, ScrubGranularity::CacheLine).is_empty(),
            "checksums and parity consistent"
        );
    }
}
