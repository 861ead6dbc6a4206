//! The disabled handle's cost contract: `Telemetry::disabled()` and every
//! recording call on it allocate nothing. A counting global allocator tallies
//! allocations per thread, so tests running in parallel do not see each
//! other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use chambolle_telemetry::{names, Telemetry};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_handle_allocates_nothing() {
    let allocations = allocations_in(|| {
        let tele = black_box(Telemetry::disabled());
        drop(black_box(tele.span("par.stage_x")));
        tele.counter_add(names::PAR_TASKS, 4);
        tele.gauge_set(names::SOLVER_FINAL_GAP, 0.5);
        tele.observe(names::SERVICE_BATCH_SIZE, 2.0);
        drop(tele);
    });
    assert_eq!(allocations, 0);

    // The instrument itself works: an enabled span allocates.
    let enabled = allocations_in(|| {
        let tele = black_box(Telemetry::null());
        drop(black_box(tele.span("par.stage_x")));
    });
    assert!(
        enabled > 0,
        "the counting allocator must observe this thread"
    );
}
