//! What one frozen device section allocates per view: the bytes a warm
//! `FrozenDevice::forward` of a single `(1, 3, 32, 32)` view asks the heap
//! for stay below the 110,592-byte column matrix a whole-image lowering of
//! that view would take (`27` taps × `1,024` pixels × 4 bytes), so no such
//! lowering can come back unnoticed.
//!
//! Counted by this binary's own global allocator, a process-wide counter,
//! so this file holds exactly one test: a sibling would move it.

use ddnn_core::{Ddnn, DdnnConfig};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes every allocation and growth
/// asks for.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The column matrix of one paper view: `3·3·3` taps by `32·32` pixels.
const COLUMN_MATRIX_BYTES: usize = 27 * 32 * 32 * 4;

#[test]
fn a_warm_device_forward_allocates_less_than_a_column_matrix() {
    let device = Ddnn::new(DdnnConfig::paper()).partition().devices[0].freeze();
    let view = Tensor::rand_uniform([1, 3, 32, 32], -1.0, 1.0, &mut rng_from_seed(13));
    let warm = device.forward(&view).unwrap();
    let before = ALLOCATED.load(Ordering::Relaxed);
    let again = device.forward(&view).unwrap();
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(again, warm);
    println!("one warm FrozenDevice::forward of a (1, 3, 32, 32) view allocates {bytes} bytes");
    assert!(
        bytes < COLUMN_MATRIX_BYTES,
        "{bytes} bytes allocated, at least a whole column matrix ({COLUMN_MATRIX_BYTES} B)"
    );
}
