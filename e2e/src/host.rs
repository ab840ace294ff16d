//! Host-side counters: a counting global allocator and the peak-RSS
//! reader. Wall time on this class of host is noisy; the allocation
//! count of a timed region repeats (nearly) exactly, so the two are
//! reported side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls and the bytes they
/// request while a region is open; otherwise a plain pass-through to the
/// system allocator.
pub struct Counting;

/// One cache line of counters. Threads spread over [`SHARDS`] of them,
/// so that sixteen rank threads allocating at once do not fight over one
/// line (which cost 15 % of `host_s` on `update_rebalance` when tried).
#[repr(align(64))]
struct Shard {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 128;

// Statistics only: none of these publishes other data, so `Relaxed`.
static OPEN: AtomicBool = AtomicBool::new(false);
static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn note(bytes: usize) {
    if !OPEN.load(Ordering::Relaxed) {
        return;
    }
    let shard = MY_SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    });
    COUNTS[shard].calls.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Opens the counted region (counters restart from zero). Call while no
/// thread is allocating.
pub fn open_region() {
    for shard in &COUNTS {
        shard.calls.store(0, Ordering::Relaxed);
        shard.bytes.store(0, Ordering::Relaxed);
    }
    OPEN.store(true, Ordering::Relaxed);
}

/// Closes the counted region and returns `(calls, bytes requested)`.
pub fn close_region() -> (u64, u64) {
    OPEN.store(false, Ordering::Relaxed);
    COUNTS.iter().fold((0, 0), |(calls, bytes), shard| {
        (
            calls + shard.calls.load(Ordering::Relaxed),
            bytes + shard.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
