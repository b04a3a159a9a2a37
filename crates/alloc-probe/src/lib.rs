//! A counting global allocator, for tests that assert a code path does
//! not allocate.
//!
//! A test binary installs [`CountingAlloc`] as its `#[global_allocator]`
//! and wraps the call under test in [`allocations`]. Counts are per
//! thread, so tests running in parallel do not see each other's
//! allocations. Only `alloc` and `realloc` count: freeing memory is not
//! an allocation.
//!
//! This crate holds the workspace's only `unsafe` code, the one
//! [`GlobalAlloc`] impl below. It is a test-only dependency: no crate
//! depends on it except through `[dev-dependencies]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates and stays valid during thread teardown.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count() -> u64 {
    COUNT.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every `alloc` and `realloc` on the
/// calling thread.
#[derive(Debug)]
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is `System`'s contract; the counter
// is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns how many allocations it made on this thread,
/// with its result. Reads 0 unless [`CountingAlloc`] is the global
/// allocator.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = count();
    let result = f();
    (count() - before, result)
}
