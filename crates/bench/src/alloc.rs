//! A counting global allocator for allocation-budget measurements.
//!
//! Rust requires `#[global_allocator]` to be declared in the final binary
//! (or test) crate, so this module only provides the building blocks: the
//! [`CountingAlloc`] type and the [`alloc_count`] reader. A binary opts in
//! with two lines:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fedgta_bench::alloc::CountingAlloc = fedgta_bench::alloc::CountingAlloc;
//! ```
//!
//! The counters are monotone; callers diff two reads around the region of
//! interest. Only `alloc`/`realloc` count — frees are irrelevant to the
//! "how many heap allocations does this path perform" question the kernel
//! benchmark and `crates/bench/tests/alloc_count.rs` ask.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Number of heap allocations since process start (monotone).
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by those allocations (monotone; a `realloc` counts its
/// whole new size) — tells a few result vectors from a matrix-sized buffer,
/// which the call count cannot.
pub fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// A [`System`]-backed allocator that counts `alloc`/`realloc` calls.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
