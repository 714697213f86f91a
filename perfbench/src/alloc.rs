//! A counting global allocator: every `alloc`, `alloc_zeroed` and
//! `realloc` bumps a counter, so the benchmark can report heap
//! allocations per judged sample next to wall-clock time.
//!
//! The counter is striped: each thread bumps its own cache line, so the
//! pool workers and the serving collator do not contend on one atomic
//! while they allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe(AtomicU64);

static COUNTS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator never allocates and stays valid during thread teardown.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn bump() {
    let stripe = STRIPE
        .try_with(|slot| {
            let mut i = slot.get();
            if i == usize::MAX {
                i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
                slot.set(i);
            }
            i
        })
        .unwrap_or(0);
    // Relaxed: a statistic that publishes no other data.
    COUNTS[stripe].0.fetch_add(1, Ordering::Relaxed);
}

/// Allocations made so far by every thread of the process.
pub fn allocations() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// The system allocator plus the counter.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter bump touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
