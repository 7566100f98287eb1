//! A counting global allocator for a test binary of its own. Each thread
//! counts only what it allocates inside [`counted`], so other threads and
//! other tests in the binary leave the count alone; [`live_bytes`] counts
//! the whole process.

// Each test binary reads one of the two counts.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

thread_local! {
    /// Allocation calls and bytes this thread asked for since counting
    /// began; `None` when off.
    static COUNTS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Bytes allocated and not yet freed, by every thread of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The allocator. A binary installs it with
/// `#[global_allocator] static ALLOC: counting::Counting = counting::Counting;`.
/// `GlobalAlloc`'s default `realloc` and `alloc_zeroed` go through
/// `alloc`, so each counts as one call for its full new size.
pub struct Counting;

// SAFETY: both calls forward unchanged to the system allocator; the
// bookkeeping touches only an atomic and a const-initialised thread-local
// without a destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS.with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + layout.size()))));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `f`'s result, then the allocation calls and bytes this thread made
/// while it ran.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (calls, bytes) = COUNTS.with(|c| c.replace(None)).expect("counting");
    (out, calls, bytes)
}

/// Bytes the whole process holds on the heap right now.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}
