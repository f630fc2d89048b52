//! Quick profiling harness for the fused binary conv kernel: times the
//! paper-shape conv (1,24,16,16)x(16,24,3,3) and its batch-8 variant on
//! the active SIMD tier. Used to tune the kernel without rebuilding the
//! full bench binary.

use ddnn_tensor::conv::Conv2dSpec;
use ddnn_tensor::{bitmatrix, conv, Tensor};
use std::time::Instant;

fn random_signs(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(dims.to_vec(), |_| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if (state >> 33) & 1 == 1 {
            1.0
        } else {
            -1.0
        }
    })
}

fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    let spec = Conv2dSpec { kernel_h: 3, kernel_w: 3, stride: 1, padding: 1 };
    let x1 = random_signs(&[1, 24, 16, 16], 7);
    let w = random_signs(&[16, 24, 3, 3], 11);
    let samples: Vec<Tensor> = (0..8).map(|i| random_signs(&[24, 16, 16], 20 + i)).collect();
    let singles: Vec<Tensor> = (0..8).map(|i| random_signs(&[1, 24, 16, 16], 20 + i)).collect();

    let f32_t = time_us(200, || {
        conv::conv2d(&x1, &w, &spec).unwrap();
    });
    let xnor_t = time_us(1000, || {
        bitmatrix::binary_conv2d(&x1, &w, &spec).unwrap();
    });
    let per_t = time_us(200, || {
        for s in &singles {
            bitmatrix::binary_conv2d(s, &w, &spec).unwrap();
        }
    });
    // What a tier's micro-batch drain runs: stack, then one plan.
    let batch_t = time_us(200, || {
        bitmatrix::binary_conv2d(&Tensor::stack(&samples).unwrap(), &w, &spec).unwrap();
    });
    println!("tier {}", ddnn_tensor::simd::active_tier().name());
    println!("f32   conv1: {f32_t:9.2} us");
    println!("xnor  conv1: {xnor_t:9.2} us   speedup {:5.2}x", f32_t / xnor_t);
    println!("xnor per8  : {per_t:9.2} us");
    println!("xnor batch8: {batch_t:9.2} us   batched-over-per {:5.2}x", per_t / batch_t);
}
