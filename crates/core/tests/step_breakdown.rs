//! Where one training step's time goes: the paper's three ConvP block
//! shapes at batch 50 — the six device blocks (3→4 at 32×32), the edge
//! block (24→16 at 16×16) and the first cloud block (16→32 at 8×8) —
//! stage by stage, beside one whole `train` step of the benchmark's
//! model. A timing measurement, not a check; run it with
//!
//! ```text
//! cargo test --release -p ddnn-core --test step_breakdown -- --ignored --nocapture
//! ```
//!
//! Each stage is the median of repeated calls on fixed inputs, in ms per
//! step (a device stage counts six times); the pool's size follows
//! `DDNN_THREADS` as in training.

use ddnn_core::{train, AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, TrainConfig};
use ddnn_nn::{BatchNorm, BinaryActivation, Layer, MaxPool2d, Mode};
use ddnn_tensor::conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dSpec};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::time::Instant;

const BATCH: usize = 50;

/// Median wall time of `f`, in ms, over `reps` calls after one warm-up.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

#[test]
#[ignore = "a timing measurement, not a check"]
fn measure_training_step_breakdown() {
    let mut rng = rng_from_seed(44);
    let spec = Conv2dSpec::paper_conv();
    let stages = [
        "conv forward",
        "max-pool forward",
        "batchnorm forward",
        "activation forward",
        "activation backward",
        "batchnorm backward",
        "max-pool backward",
        "conv backward dW",
        "conv backward dX",
    ];
    // (block, blocks per step, in channels, side, filters, forms dX)
    let blocks = [
        ("device", 6, 3, 32, 4, false),
        ("edge", 1, 24, 16, 16, true),
        ("cloud", 1, 16, 8, 32, true),
    ];
    let mut rows = Vec::new();
    for (block, count, c, side, f, forms_dx) in blocks {
        let mut uniform = |dims: [usize; 4]| Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng);
        let (x, w) = (uniform([BATCH, c, side, side]), uniform([f, c, 3, 3]));
        let (mut pool, mut bn, mut act) =
            (MaxPool2d::paper(), BatchNorm::new(f), BinaryActivation::new());
        let y = conv2d(&x, &w, &spec).unwrap();
        let pooled = pool.forward(&y, Mode::Train).unwrap();
        let normed = bn.forward(&pooled, Mode::Train).unwrap();
        let out = act.forward(&normed, Mode::Train).unwrap();
        let g_out = uniform(out.dims().try_into().unwrap());
        let g_y = uniform(y.dims().try_into().unwrap());
        let times = [
            median_ms(21, || drop(conv2d(&x, &w, &spec).unwrap())),
            median_ms(21, || drop(pool.forward(&y, Mode::Train).unwrap())),
            median_ms(21, || drop(bn.forward(&pooled, Mode::Train).unwrap())),
            median_ms(21, || drop(act.forward(&normed, Mode::Train).unwrap())),
            median_ms(21, || drop(act.backward(&g_out).unwrap())),
            median_ms(21, || drop(bn.backward(&g_out).unwrap())),
            median_ms(21, || drop(pool.backward(&g_out).unwrap())),
            median_ms(21, || drop(conv2d_backward_weight(&x, &g_y, &spec).unwrap())),
            if forms_dx {
                median_ms(21, || drop(conv2d_backward_input(x.dims(), &w, &g_y, &spec).unwrap()))
            } else {
                0.0
            },
        ];
        rows.push((block, times.map(|t| t * count as f64)));
    }

    // One whole step of the benchmark's model and recipe: ten steps of
    // one epoch over 500 samples, per step.
    let views: Vec<Tensor> =
        (0..6).map(|_| Tensor::rand_uniform([10 * BATCH, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..10 * BATCH).map(|i| i % 3).collect();
    let mut model = Ddnn::new(DdnnConfig {
        edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
        ..DdnnConfig::paper()
    });
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        stat_refresh_passes: 0,
        ..TrainConfig::default()
    };
    let step_ms = median_ms(5, || drop(train(&mut model, &views, &labels, &cfg).unwrap())) / 10.0;

    println!("ms per training step at batch {BATCH} (device stages x6):");
    let names: String = rows.iter().map(|(block, _)| format!("{block:>9}")).collect();
    println!("{:<22}{names}{:>9}", "stage", "sum");
    let mut total = 0.0;
    for (i, stage) in stages.iter().enumerate() {
        let sum: f64 = rows.iter().map(|(_, t)| t[i]).sum();
        total += sum;
        let cells: String = rows.iter().map(|(_, t)| format!("{:>9.2}", t[i])).collect();
        println!("{stage:<22}{cells}{sum:>9.2}");
    }
    println!("{:<22}{:>36.2}", "ConvP stages", total);
    println!("{:<22}{:>36.2}", "whole train step", step_ms);
}
