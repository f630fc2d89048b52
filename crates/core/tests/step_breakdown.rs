//! Where one training step's time goes, at batch 50 on the benchmark's
//! model (the paper's, with a 16-filter concatenating edge). A timing
//! measurement, not a check; run it with
//!
//! ```text
//! cargo test --release -p ddnn-core --test step_breakdown -- --ignored --nocapture
//! ```
//!
//! It prints two tables, in ms per step; the pool's size follows
//! `DDNN_THREADS` as in training.
//!
//! 1. The ConvP stages of the paper's three block shapes, each timed as a
//!    step runs it (the median of repeated calls on fixed inputs). The six
//!    device blocks (3→4 at 32×32) run together through
//!    `parallel::par_map_mut`, as `Ddnn::forward` and `Ddnn::backward` fan
//!    them out, so their kernels run serially inside a block; the edge
//!    block (24→16 at 16×16) and the first cloud block (16→32 at 8×8) run
//!    alone, their kernels fanning out over the batch. The layers are the
//!    step's own: a binarized `Conv2d` in `Mode::Train`, so the edge and
//!    cloud convs, fed ±1 maps, take the XNOR plan and the device convs,
//!    fed images, the f32 path.
//! 2. The whole step split through the public API, in the order `train`
//!    runs it: batch select, `Ddnn::forward`, the exits' losses,
//!    `Ddnn::backward` and `Adam::step` (after `zero_grad`). The phases are
//!    consecutive stamps, so their means sum to the step; `train`'s own
//!    time per step stands beside them.

use ddnn_core::{train, AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitGrads, TrainConfig};
use ddnn_nn::{
    Adam, BatchNorm, BinaryActivation, Conv2d, Layer, MaxPool2d, Mode, Optimizer,
    SoftmaxCrossEntropy,
};
use ddnn_tensor::conv::{conv2d_backward_input, conv2d_backward_weight, Conv2dSpec};
use ddnn_tensor::parallel;
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use rand::rngs::StdRng;
use std::time::Instant;

const BATCH: usize = 50;

/// Steps of one epoch over the 500-sample training set.
const STEPS: usize = 10;

const STAGES: [&str; 9] = [
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

/// One ConvP block's layers and fixed inputs for every stage.
struct Block {
    conv: Conv2d,
    pool: MaxPool2d,
    bn: BatchNorm,
    act: BinaryActivation,
    x: Tensor,
    y: Tensor,
    pooled: Tensor,
    normed: Tensor,
    g_out: Tensor,
    g_y: Tensor,
}

impl Block {
    /// A block of `c → f` at `side × side`; `signs` feeds it ±1 maps (the
    /// edge and cloud), otherwise images in `[0, 1]` (a device).
    fn new(c: usize, side: usize, f: usize, signs: bool, rng: &mut StdRng) -> Block {
        let spec = Conv2dSpec::paper_conv();
        let mut conv = Conv2d::binarized(c, f, spec, rng);
        let x = Tensor::rand_uniform([BATCH, c, side, side], 0.0, 1.0, rng);
        let x = if signs { x.map(|v| if v > 0.5 { 1.0 } else { -1.0 }) } else { x };
        let (mut pool, mut bn, mut act) =
            (MaxPool2d::paper(), BatchNorm::new(f), BinaryActivation::new());
        let y = conv.forward(&x, Mode::Train).unwrap();
        let pooled = pool.forward(&y, Mode::Train).unwrap();
        let normed = bn.forward(&pooled, Mode::Train).unwrap();
        let out = act.forward(&normed, Mode::Train).unwrap();
        let g_out = Tensor::rand_uniform(out.dims().to_vec(), -1.0, 1.0, rng);
        let g_y = Tensor::rand_uniform(y.dims().to_vec(), -1.0, 1.0, rng);
        Block { conv, pool, bn, act, x, y, pooled, normed, g_out, g_y }
    }

    /// Runs stage `i` of [`STAGES`] once.
    fn stage(&mut self, i: usize) {
        let spec = *self.conv.spec();
        match i {
            0 => drop(self.conv.forward(&self.x, Mode::Train).unwrap()),
            1 => drop(self.pool.forward(&self.y, Mode::Train).unwrap()),
            2 => drop(self.bn.forward(&self.pooled, Mode::Train).unwrap()),
            3 => drop(self.act.forward(&self.normed, Mode::Train).unwrap()),
            4 => drop(self.act.backward(&self.g_out).unwrap()),
            5 => drop(self.bn.backward(&self.g_out).unwrap()),
            6 => drop(self.pool.backward(&self.g_out).unwrap()),
            7 => drop(conv2d_backward_weight(&self.x, &self.g_y, &spec).unwrap()),
            _ => {
                let w = self.conv.effective_weight();
                drop(conv2d_backward_input(self.x.dims(), &w, &self.g_y, &spec).unwrap())
            }
        }
    }
}

/// Stage timings of the three block shapes, ms per step.
fn stage_table(rng: &mut StdRng) -> Vec<(&'static str, [f64; 9])> {
    let mut devices: Vec<Block> = (0..6).map(|_| Block::new(3, 32, 4, false, rng)).collect();
    // What `Ddnn::device_work` hands the pool for the six device convs.
    let work = 6 * BATCH * 4 * 3 * 9 * 32 * 32;
    let device = std::array::from_fn(|i| {
        if i == 8 {
            return 0.0; // a device conv sees data: no input gradient
        }
        median_ms(21, || drop(parallel::par_map_mut(&mut devices, work, |_, b| b.stage(i))))
    });
    let mut rows = vec![("device x6", device)];
    for (name, c, side, f) in [("edge", 24, 16, 16), ("cloud", 16, 8, 32)] {
        let mut block = Block::new(c, side, f, true, rng);
        rows.push((name, std::array::from_fn(|i| median_ms(21, || block.stage(i)))));
    }
    rows
}

/// A step's phases, in the order `train` runs them.
const PHASES: [&str; 5] =
    ["batch select", "Ddnn::forward", "losses", "Ddnn::backward", "Adam::step"];

/// Each of [`PHASES`] in ms per step: the mean over `epochs` epochs after
/// a warm-up one.
fn step_phases(model: &mut Ddnn, views: &[Tensor], labels: &[usize], epochs: usize) -> [f64; 5] {
    let (mut opt, loss_fn) = (Adam::new(), SoftmaxCrossEntropy::new());
    let order: Vec<usize> = (0..labels.len()).collect();
    let mut totals = [0.0f64; 5];
    for epoch in 0..=epochs {
        for chunk in order.chunks(BATCH) {
            let mut stamps = [Instant::now(); 6];
            let batch: Vec<Tensor> = views.iter().map(|v| v.select_axis0(chunk).unwrap()).collect();
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            stamps[1] = Instant::now();
            model.zero_grad();
            let logits = model.forward(&batch, Mode::Train).unwrap();
            stamps[2] = Instant::now();
            let loss = |l: &Tensor| loss_fn.forward(l, &batch_labels).unwrap().grad;
            let edge = logits.edge.as_ref().map(loss);
            let grads = ExitGrads { local: loss(&logits.local), edge, cloud: loss(&logits.cloud) };
            stamps[3] = Instant::now();
            model.backward(&grads).unwrap();
            stamps[4] = Instant::now();
            opt.step(&mut model.params_mut());
            stamps[5] = Instant::now();
            if epoch > 0 {
                for (total, pair) in totals.iter_mut().zip(stamps.windows(2)) {
                    *total += (pair[1] - pair[0]).as_secs_f64() * 1e3;
                }
            }
        }
    }
    totals.map(|t| t / (epochs * STEPS) as f64)
}

#[test]
#[ignore = "a timing measurement, not a check"]
fn measure_training_step_breakdown() {
    let mut rng = rng_from_seed(44);
    let rows = stage_table(&mut rng);

    let views: Vec<Tensor> = (0..6)
        .map(|_| Tensor::rand_uniform([STEPS * BATCH, 3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..STEPS * BATCH).map(|i| i % 3).collect();
    let config = DdnnConfig {
        edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
        ..DdnnConfig::paper()
    };
    let phases = step_phases(&mut Ddnn::new(config.clone()), &views, &labels, 5);
    let mut model = Ddnn::new(config);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        stat_refresh_passes: 0,
        ..TrainConfig::default()
    };
    let step_ms =
        median_ms(5, || drop(train(&mut model, &views, &labels, &cfg).unwrap())) / STEPS as f64;

    println!("ConvP stages, ms per training step at batch {BATCH}:");
    let names: String = rows.iter().map(|(block, _)| format!("{block:>11}")).collect();
    println!("{:<22}{names}{:>9}", "stage", "sum");
    let mut total = 0.0;
    for (i, stage) in STAGES.iter().enumerate() {
        let sum: f64 = rows.iter().map(|(_, t)| t[i]).sum();
        total += sum;
        let cells: String = rows.iter().map(|(_, t)| format!("{:>11.2}", t[i])).collect();
        println!("{stage:<22}{cells}{sum:>9.2}");
    }
    println!("{:<22}{total:>42.2}", "ConvP stages");
    println!();
    println!("The whole step, ms per step at batch {BATCH}:");
    for (phase, ms) in PHASES.iter().zip(phases) {
        println!("{phase:<22}{ms:>9.2}");
    }
    println!("{:<22}{:>9.2}", "sum of phases", phases.iter().sum::<f64>());
    println!("{:<22}{step_ms:>9.2}", "train, per step");
}
