//! Bounded single-producer / single-consumer ring buffer.
//!
//! The weave engine (see [`crate::weave`]) moves every bound-phase event
//! through one of these rings instead of a `std::sync::mpsc` channel: a push
//! is two atomic loads, one slot write, and one release store — no
//! allocation, no lock, no syscall — and a pop is the mirror image. That is
//! the whole point: the old channel paid an allocation plus synchronization
//! per event, which capped weave occupancy around 0.19.
//!
//! # Role contract
//!
//! At any instant at most one thread may push and at most one thread may
//! pop. The two roles may live on different threads, and either role may
//! *migrate* between threads provided the handoff is ordered by an external
//! happens-before edge (a thread join, a mutex, or an acquire load of a
//! release-stored flag). The weave engine satisfies this structurally: its
//! one ring has one fixed producer (the bound thread) and one fixed consumer
//! (the weave worker).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pad-and-align wrapper so the producer and consumer cursors live on
/// different cache lines (no false sharing between push and pop).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheAligned<T>(T);

/// A bounded single-producer / single-consumer queue over a power-of-two
/// ring of slots. See the module docs for the role contract.
pub struct SpscRing<T> {
    /// `capacity - 1`; indexing is `cursor & mask`.
    mask: usize,
    /// Slot storage. A slot is initialized iff its index is in
    /// `[head, tail)` (cursors are monotonically increasing and wrap via
    /// the mask, never modularly).
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: next slot to pop.
    head: CacheAligned<AtomicUsize>,
    /// Producer cursor: next slot to fill.
    tail: CacheAligned<AtomicUsize>,
}

// SAFETY: the single-producer / single-consumer contract (module docs) means
// a slot is written by exactly one thread and read by exactly one thread,
// with the release/acquire pair on the cursors ordering the handoff. (`Send`
// is automatic: every field is `Send` when `T` is.)
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Create a ring with at least `capacity` slots (rounded up to a power
    /// of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            mask: cap - 1,
            buf,
            head: CacheAligned(AtomicUsize::new(0)),
            tail: CacheAligned(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Current occupancy (racy by nature; exact only for the calling role).
    pub fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    /// Whether the ring currently holds no items (racy; see [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer role: enqueue `v`, or hand it back if the ring is full.
    pub(crate) fn try_push(&self, v: T) -> Result<(), T> {
        let t = self.tail.0.load(Ordering::Relaxed);
        let h = self.head.0.load(Ordering::Acquire);
        if t.wrapping_sub(h) > self.mask {
            return Err(v);
        }
        // SAFETY: slot `t` is outside [head, tail) so the consumer will not
        // touch it until the release store below publishes it; we are the
        // only producer (role contract).
        unsafe { (*self.buf[t & self.mask].get()).write(v) };
        self.tail.0.store(t.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer role: dequeue the oldest item, if any.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let h = self.head.0.load(Ordering::Relaxed);
        let t = self.tail.0.load(Ordering::Acquire);
        if h == t {
            return None;
        }
        // SAFETY: slot `h` is inside [head, tail), so the producer's release
        // store already published an initialized value and will not reuse
        // the slot until the release store below frees it; we are the only
        // consumer (role contract).
        let v = unsafe { (*self.buf[h & self.mask].get()).assume_init_read() };
        self.head.0.store(h.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // &mut self: no concurrent roles remain; drain so slot values drop.
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_wraparound() {
        let r = SpscRing::new(4);
        for round in 0..10u64 {
            for i in 0..4 {
                r.try_push(round * 4 + i).unwrap();
            }
            assert!(r.try_push(99).is_err(), "full ring must reject");
            for i in 0..4 {
                assert_eq!(r.try_pop(), Some(round * 4 + i));
            }
            assert_eq!(r.try_pop(), None);
        }
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(SpscRing::<u8>::new(0).capacity(), 2);
        assert_eq!(SpscRing::<u8>::new(5).capacity(), 8);
        assert_eq!(SpscRing::<u8>::new(8).capacity(), 8);
    }

    #[test]
    fn cross_thread_stream() {
        let r = Arc::new(SpscRing::new(8));
        let n = 10_000u64;
        let prod = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut v = i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut next = 0u64;
        while next < n {
            if let Some(v) = r.try_pop() {
                assert_eq!(v, next);
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        prod.join().unwrap();
    }

    #[test]
    fn drop_drains_remaining_items() {
        let flag = Arc::new(AtomicUsize::new(0));
        struct Bump(Arc<AtomicUsize>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let r = SpscRing::new(4);
        r.try_push(Bump(Arc::clone(&flag))).ok().unwrap();
        r.try_push(Bump(Arc::clone(&flag))).ok().unwrap();
        drop(r);
        assert_eq!(flag.load(Ordering::Relaxed), 2);
    }
}
