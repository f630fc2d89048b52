//! Which side of the worker pool's cut-off the model's kernels fall on.
//!
//! Counted on `parallel::pooled_dispatches()`, a process-wide counter, so
//! this file holds exactly one test: a sibling would move it.

use ddnn_core::{train, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold, TrainConfig};
use ddnn_tensor::bitmatrix::binary_conv2d;
use ddnn_tensor::conv::{conv2d, max_pool2d, max_pool2d_values, Conv2dSpec};
use ddnn_tensor::parallel::{self, pooled_dispatches};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pool dispatches `f` adds.
fn added(f: impl FnOnce()) -> usize {
    let before = pooled_dispatches();
    f();
    pooled_dispatches() - before
}

#[test]
fn per_sample_kernels_run_inline_and_batches_fan_out() {
    std::env::set_var("DDNN_THREADS", "4");
    let mut rng = rng_from_seed(18);
    let mut uniform = |dims: [usize; 4]| Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng);
    let spec = Conv2dSpec::paper_conv();

    // What one node of the pipeline runs per sample or per micro-batch
    // stays on that node's thread: the paper's device conv ...
    let (view, device_w) = (uniform([1, 3, 32, 32]), uniform([4, 3, 3, 3]));
    assert_eq!(added(|| drop(conv2d(&view, &device_w, &spec).unwrap())), 0);
    // ... and the edge and cloud binary convs at a micro-batch of eight.
    let sign = |t: Tensor| t.map(|x| if x > 0.0 { 1.0 } else { -1.0 });
    let (edge_in, edge_w) = (sign(uniform([8, 24, 16, 16])), uniform([16, 24, 3, 3]));
    assert_eq!(added(|| drop(binary_conv2d(&edge_in, &edge_w, &spec).unwrap())), 0);
    let (cloud_in, cloud_w) = (sign(uniform([8, 16, 8, 8])), uniform([32, 16, 3, 3]));
    assert_eq!(added(|| drop(binary_conv2d(&cloud_in, &cloud_w, &spec).unwrap())), 0);
    // Every conv fans out over the batch only: a lone sample stays here
    // even above the cut-off (16 filters over [1, 24, 32, 32] are 3.5e6
    // MACs), in f32 and as signs.
    let (big, big_w) = (uniform([1, 24, 32, 32]), uniform([16, 24, 3, 3]));
    assert_eq!(added(|| drop(conv2d(&big, &big_w, &spec).unwrap())), 0);
    // So does the max-pool: a lone sample's planes stay here above the
    // cut-off (24 planes pooled to 16x16 are 5.5e4 window taps, 3.5e6
    // MAC-equivalents), and a batch's fan out.
    let pool = Conv2dSpec::paper_pool();
    assert_eq!(added(|| drop(max_pool2d_values(&big, &pool).unwrap())), 0);
    assert_eq!(added(|| drop(max_pool2d(&big, &pool).unwrap())), 0);
    let batch_maps = uniform([50, 16, 16, 16]);
    assert!(added(|| drop(max_pool2d(&batch_maps, &pool).unwrap())) > 0);
    let big = sign(big);
    assert_eq!(added(|| drop(binary_conv2d(&big, &big_w, &spec).unwrap())), 0);

    let mut views = |n: usize| -> Vec<Tensor> { (0..6).map(|_| uniform([n, 3, 32, 32])).collect() };
    let (one, oracle, batch) = (views(1), views(57), views(50));
    let mut model =
        Ddnn::new(DdnnConfig { edge: Some(EdgeConfig::default()), ..DdnnConfig::paper() });
    let t = ExitThreshold::new(0.5);
    assert_eq!(added(|| drop(model.infer(&one, t, Some(t)).unwrap())), 0);
    // Batch-sized work is on the far side: the benchmark's 57-sample
    // oracle and one training step at the paper's batch size.
    assert!(added(|| drop(model.infer(&oracle, t, Some(t)).unwrap())) > 0);
    let labels: Vec<usize> = (0..50).map(|i| i % 3).collect();
    let cfg =
        TrainConfig { epochs: 1, batch_size: 50, stat_refresh_passes: 0, ..TrainConfig::default() };
    assert!(added(|| drop(train(&mut model, &batch, &labels, &cfg).unwrap())) > 0);

    // Below the cut-off the closure runs once, here, over the whole slice.
    let caller = std::thread::current().id();
    let calls = AtomicUsize::new(0);
    let mut data = vec![0.0f32; 64 * 4];
    let dispatched = added(|| {
        parallel::par_item_chunks_mut(&mut data, 4, 0, |first, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!((first, chunk.len()), (0, 64 * 4));
        });
    });
    assert_eq!((dispatched, calls.into_inner()), (0, 1));
}
