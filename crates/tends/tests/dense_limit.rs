//! A dense run over more nodes than `MAX_DENSE_NODES` fails with a typed
//! error before it allocates any pair state. The global allocator here
//! refuses every single allocation over 64 MiB, so a run that reached the
//! pair triangle (tens of GB at this size) aborts the test instead of
//! exhausting the machine's memory.

use diffnet_observe::Recorder;
use diffnet_simulate::StatusMatrix;
use diffnet_tends::{CheckpointError, RobustOptions, Tends, MAX_DENSE_NODES};
use std::alloc::{GlobalAlloc, Layout, System};

struct Capped;

const CAP: usize = 64 << 20;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, or returns null (an allocation failure) for oversized
// requests without touching memory.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Capped = Capped;

#[test]
fn the_limit_is_the_last_triangle_with_u32_positions() {
    let pairs = |n: u64| n * (n - 1) / 2;
    let n = MAX_DENSE_NODES as u64;
    assert!(pairs(n) <= u64::from(u32::MAX));
    assert!(pairs(n + 1) > u64::from(u32::MAX));
}

#[test]
fn dense_runs_past_the_limit_fail_before_allocating_pair_state() {
    let n = MAX_DENSE_NODES + 1;
    // One process: ~740 kB of columns.
    let cols = StatusMatrix::new(1, n).columns();
    let err = Tends::new()
        .reconstruct_robust(&cols, Recorder::disabled(), &RobustOptions::default())
        .expect_err("past the dense limit");
    assert!(
        matches!(err, CheckpointError::DenseLimit { nodes } if nodes == n),
        "{err:?}"
    );
    assert!(err.to_string().contains("--memory-budget"), "{err}");
}
