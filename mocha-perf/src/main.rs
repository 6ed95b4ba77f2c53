//! The `mocha-perf` binary: the command line of the library, plus the one
//! thing the library may not contain, a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use mocha_perf::probes::AllocCounter;

/// Counts allocations per thread always (a thread-local add), and process
/// wide only while `PROCESS_ON` (a shared atomic would tax every run).
struct Counting;
static PROCESS_ON: AtomicBool = AtomicBool::new(false);
static PROCESS_TOTAL: AtomicU64 = AtomicU64::new(0);
thread_local!(static THREAD_TOTAL: Cell<u64> = const { Cell::new(0) });

fn count() {
    let _ = THREAD_TOTAL.try_with(|c| c.set(c.get() + 1));
    if PROCESS_ON.load(Relaxed) {
        PROCESS_TOTAL.fetch_add(1, Relaxed);
    }
}

// The workspace forbids unsafe code; this package denies it and allows it
// here only: GlobalAlloc is an unsafe trait, and every method forwards its
// arguments unchanged to `System`, whose contract is the caller's.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let allocs = AllocCounter {
        thread_total: || THREAD_TOTAL.with(Cell::get),
        process_total: || PROCESS_TOTAL.load(Relaxed),
        set_process_counting: |on| PROCESS_ON.store(on, Relaxed),
    };
    std::process::exit(mocha_perf::cli::main(&args, allocs));
}
