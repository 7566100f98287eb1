//! Decoding a hostile body costs about its own length. A test binary of
//! its own, so that its counting allocator sees only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated since counting began; `None` when off.
    static ALLOCATED: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: both calls forward unchanged to the system allocator; the
// bookkeeping touches only a const-initialised thread-local without a
// destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().map(|n| n + layout.size())));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A `MAX_BODY`-sized (4 MiB) unauthenticated body, decoded the way the
/// scheduler's routes decode one.
#[test]
fn a_4_mib_body_decodes_within_twice_its_length() {
    let zeros = 2 << 20;
    let bytes = format!("{{\"worker\":1,\"x\":[{}0]}}", "0,".repeat(zeros - 1)).into_bytes();
    ALLOCATED.with(|a| a.set(Some(0)));
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let worker = pas_server::json::find_u64(&text, "worker");
    let register = pas_dist::Register::from_json(&text);
    let x = pas_obs::json::parse(&text).and_then(|doc| doc.get("x"));
    let items = x.map(|x| x.items().count());
    let used = ALLOCATED.with(|a| a.replace(None)).expect("counting");
    assert_eq!((worker, register, items), (Some(1), None, Some(zeros)));
    assert!(used <= 2 * bytes.len(), "decoding allocated {used} bytes");
}
