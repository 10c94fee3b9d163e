//! A counting global allocator for the `*.allocs_per_*` probe figures.
//!
//! It forwards to the system allocator and counts calls only while the
//! probe pass has switched counting on, so an untraced run pays one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: neither value publishes other data, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator hands out and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns its result and the number of
/// allocations (including reallocations) made meanwhile by any thread.
/// The probe pass is single-threaded, so "any thread" is the caller.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_counted_region() {
        // Other tests allocate concurrently, so only a lower bound and
        // the off-state are checkable here.
        let (v, n) = counted(|| (0..10).map(|i| vec![i; 4]).collect::<Vec<_>>());
        assert_eq!(v.len(), 10);
        assert!(n >= 11, "10 inner vectors and the outer one, got {n}");
    }
}
