//! The shared worker pool under the runtime's shape of load — many threads
//! submitting at once — and under a panicking task.
//!
//! Both tests set `DDNN_THREADS`, which is process-global, so they take
//! turns on one lock; no other test lives in this binary.

use ddnn_tensor::conv::{conv2d, Conv2dSpec};
use ddnn_tensor::parallel::{self, par_item_chunks_mut, par_map_indexed};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::sync::{Barrier, Mutex, MutexGuard};

/// A `work` estimate on the far side of the cut-off.
const HEAVY: usize = usize::MAX;

static ENV: Mutex<()> = Mutex::new(());

fn set_threads(n: usize) -> MutexGuard<'static, ()> {
    let guard = ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("DDNN_THREADS", n.to_string());
    guard
}

/// What one task reports: its index, the thread count it sees, and what a
/// fan-out nested inside it computes and sees, as `(value, thread count)`.
type Seen = (usize, usize, Vec<(usize, usize)>);

fn mapped() -> Vec<Seen> {
    par_map_indexed(64, HEAVY, |i| {
        let nested = par_map_indexed(3, HEAVY, |j| (i * j, parallel::num_threads()));
        (i, parallel::num_threads(), nested)
    })
}

fn chunked() -> Vec<f32> {
    let mut data = vec![0.0f32; 37 * 5];
    par_item_chunks_mut(&mut data, 5, HEAVY, |first, chunk| {
        for (j, item) in chunk.chunks_mut(5).enumerate() {
            for (e, x) in item.iter_mut().enumerate() {
                *x = ((first + j) * 5 + e) as f32 * 0.37 - 11.0;
            }
        }
    });
    data
}

/// 24 samples of the paper's device convolution: 2.7e6 MACs, above the
/// cut-off by its own estimate.
fn convolved(x: &Tensor, w: &Tensor) -> Tensor {
    conv2d(x, w, &Conv2dSpec::paper_conv()).expect("conv2d")
}

#[test]
fn concurrent_submitters_get_the_serial_result() {
    let mut rng = rng_from_seed(5);
    let x = Tensor::rand_uniform([24, 3, 32, 32], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform([4, 3, 3, 3], -1.0, 1.0, &mut rng);

    let env = set_threads(1);
    let expected = (mapped(), chunked(), convolved(&x, &w));
    drop(env);
    assert!(expected.0.iter().enumerate().all(|(i, (got, _, _))| *got == i));

    let _env = set_threads(4);
    let before = parallel::pooled_dispatches();
    // Six device threads plus tiers, all submitting at the same moment.
    let submitters = 8;
    let barrier = Barrier::new(submitters);
    std::thread::scope(|s| {
        for _ in 0..submitters {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..4 {
                    let got = mapped();
                    assert_eq!(got, expected.0);
                    // A nested call inside a task stays on that task's thread.
                    assert!(got.iter().all(|(_, seen, nested)| {
                        *seen == 1 && nested.iter().all(|(_, seen)| *seen == 1)
                    }));
                    assert_eq!(chunked(), expected.1);
                    assert_eq!(convolved(&x, &w), expected.2);
                }
            });
        }
    });
    // Every one of those calls went through the pool, and only those: the
    // nested ones ran inline.
    assert_eq!(parallel::pooled_dispatches() - before, submitters * 4 * 3);
}

#[test]
fn a_panicking_share_reaches_its_own_submitter_only() {
    let _env = set_threads(4);
    let squares: Vec<usize> = (0..40).map(|i| i * i).collect();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        // One submitter whose every call panics on one index ...
        s.spawn(|| {
            barrier.wait();
            for round in 0..20 {
                let caught = std::panic::catch_unwind(|| {
                    par_map_indexed(16, HEAVY, |i| {
                        assert!(i != round % 16, "share {i} gives up");
                        i
                    })
                });
                let payload = caught.expect_err("the submitter must see the panic");
                let message = payload.downcast_ref::<String>().expect("assert! message");
                assert!(message.contains("gives up"), "{message}");
            }
        });
        // ... and a neighbour on the same pool that must not notice.
        s.spawn(|| {
            barrier.wait();
            for _ in 0..20 {
                assert_eq!(par_map_indexed(40, HEAVY, |i| i * i), squares);
            }
        });
    });
    // The pool that caught those panics still serves ordered results.
    assert_eq!(par_map_indexed(40, HEAVY, |i| i * i), squares);
    assert_eq!(chunked().len(), 37 * 5);
}
