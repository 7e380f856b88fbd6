//! A simple persistent-region allocator for node-based data structures.
//!
//! Applications carve their object heaps out of a DAX-mapped file with a
//! bump allocator. (libpmemobj's allocator also persists its metadata; we
//! keep allocator metadata volatile because allocator recovery is outside
//! the paper's scope — all measured traffic is object data.)

use std::error::Error;
use std::fmt;

/// The heap region is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes remaining.
    pub remaining: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "persistent heap exhausted: requested {} bytes, {} remaining",
            self.requested, self.remaining
        )
    }
}

impl Error for OutOfMemory {}

/// Bump allocator over `[base, end)` file offsets.
#[derive(Debug, Clone)]
pub struct BumpAlloc {
    end: u64,
    next: u64,
}

impl BumpAlloc {
    /// Allocator over file offsets `[base, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < base`.
    pub fn new(base: u64, end: u64) -> Self {
        assert!(end >= base, "inverted heap range");
        BumpAlloc { end, next: base }
    }

    /// Allocate `bytes` aligned to `align` (a power of two), returning the
    /// file offset.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the region is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, OutOfMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let at = (self.next + align - 1) & !(align - 1);
        if at + bytes > self.end {
            return Err(OutOfMemory {
                requested: bytes,
                remaining: self.end.saturating_sub(self.next),
            });
        }
        self.next = at + bytes;
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocations_do_not_overlap() {
        let mut a = BumpAlloc::new(0, 1024);
        let x = a.alloc(100, 8).unwrap();
        let y = a.alloc(100, 8).unwrap();
        assert!(y >= x + 100);
    }

    #[test]
    fn alignment_respected() {
        let mut a = BumpAlloc::new(1, 4096);
        let x = a.alloc(10, 64).unwrap();
        assert_eq!(x % 64, 0);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut a = BumpAlloc::new(0, 128);
        a.alloc(100, 1).unwrap();
        let err = a.alloc(100, 1).unwrap_err();
        assert_eq!(err.remaining, 28);
        assert_eq!(err.requested, 100);
    }
}
