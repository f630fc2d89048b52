//! Property tests pinning the binary-convolution equivalence contract:
//! [`binary_conv2d`] — the fused plan, and the f32 route it takes for rows
//! wider than one word — must be **bit-identical** to the f32 sign-path
//! convolution, and a stacked `(B, C, H, W)` micro-batch (what the
//! runtime's tiers hand it) must equal convolving each sample alone —
//! across odd geometries (patch widths off word boundaries, padding/stride
//! combinations), batch sizes 1..8, and every SIMD dispatch tier the
//! machine supports. The XNOR GEMM under the binary FC layers
//! ([`binary_matmul`]) is held to the f32 GEMM on every tier the same
//! way, at the paper's shapes.
//!
//! Tiers are pinned with the thread-local [`simd::with_tier`] override
//! rather than `DDNN_SIMD`, so concurrently running tests cannot race on
//! process-global environment state.

use ddnn_tensor::bitmatrix::{binary_conv2d, binary_matmul};
use ddnn_tensor::conv::{conv2d, Conv2dSpec};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{simd, Tensor};
use proptest::prelude::*;
use rand::Rng;

/// The paper's strictly-positive sign binarization (`nn::binarize`).
fn binarize(t: &Tensor) -> Tensor {
    t.map(|x| if x > 0.0 { 1.0 } else { -1.0 })
}

fn random_signs(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = rng_from_seed(seed);
    Tensor::from_fn(dims.to_vec(), |_| if rng.gen::<f32>() > 0.5 { 1.0 } else { -1.0 })
}

/// Random float weights (not pre-binarized): the kernels must pack by
/// sign themselves, including the zero → −1 convention.
fn random_weights(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = rng_from_seed(seed ^ 0x5eed);
    Tensor::from_fn(dims.to_vec(), |_| rng.gen::<f32>() * 2.0 - 1.0)
}

/// Asserts, on every supported tier, that the stacked batch equals the
/// f32 sign path and that each of its rows equals that sample convolved
/// alone; panics (failing the enclosing property case) on divergence.
fn check_all_paths(x: &Tensor, weight: &Tensor, spec: &Conv2dSpec) {
    let expect = conv2d(x, &binarize(weight), spec).expect("f32 conv");
    let (n, chw) = (x.dims()[0], x.len() / x.dims()[0]);
    let samples: Vec<Tensor> = x
        .data()
        .chunks(chw)
        .map(|s| Tensor::from_vec(s.to_vec(), x.dims()[1..].to_vec()).expect("sample slice"))
        .collect();
    let row = expect.len() / n;
    for tier in simd::supported_tiers() {
        let conv = |t: &Tensor| simd::with_tier(tier, || binary_conv2d(t, weight, spec));
        let batched = conv(&Tensor::stack(&samples).expect("stack")).expect("stacked conv");
        assert_eq!(&batched, &expect, "stacked batch diverged from f32 on tier {}", tier.name());
        for (b, sample) in samples.iter().enumerate() {
            let alone = conv(&Tensor::stack(std::slice::from_ref(sample)).expect("stack"))
                .expect("single conv");
            assert_eq!(
                alone.data(),
                &batched.data()[b * row..(b + 1) * row],
                "sample {b} alone diverged from its batch row on tier {}",
                tier.name()
            );
        }
    }
}

proptest! {
    // Small geometries: kernel/stride/padding combinations with patch
    // widths `c*kh*kw` landing on and off `u64` word boundaries, batch
    // sizes 1..8. Each case sweeps every supported tier internally.
    // Geometries where the kernel overhangs the padded input are skipped.
    #[test]
    fn binary_conv_paths_agree(
        n in 1usize..=8,
        c in 1usize..=9,
        f in 1usize..=6,
        hw in 3usize..=10,
        kernel in 1usize..=3,
        stride in 1usize..=2,
        padding in 0usize..=2,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec::new(2 * kernel - 1, stride, padding); // 1, 3, 5
        if spec.checked_output_size(hw, hw).is_ok() {
            let x = random_signs(&[n, c, hw, hw], seed);
            let w = random_weights(&[f, c, spec.kernel_h, spec.kernel_w], seed);
            check_all_paths(&x, &w, &spec);
        }
    }

    // Channel counts straddling the 64-bit word boundary with a 1×1
    // kernel: `kk = c` exercises the tail-word masking exactly at, just
    // below and just above one word.
    #[test]
    fn binary_conv_tail_word_masking(
        c in 62usize..=66,
        n in 1usize..=3,
        seed in 0u64..200,
    ) {
        let spec = Conv2dSpec::new(1, 1, 0);
        let x = random_signs(&[n, c, 4, 4], seed);
        let w = random_weights(&[3, c, 1, 1], seed);
        check_all_paths(&x, &w, &spec);
    }

    // Padded rows wider than one 64-bit word (`w + 2 = 65..72`) take the
    // f32 route inside `binary_conv2d`; it must stay equivalent too.
    #[test]
    fn binary_conv_wide_input_fallback(
        w in 63usize..=70,
        n in 1usize..=2,
        seed in 0u64..100,
    ) {
        let spec = Conv2dSpec::paper_conv();
        let x = random_signs(&[n, 2, 5, w], seed);
        let wt = random_weights(&[3, 2, 3, 3], seed);
        check_all_paths(&x, &wt, &spec);
    }
}

/// The paper's exact cloud-tier shape at batch 8 — the micro-batch drain
/// case the streaming engine produces — deterministically, on every tier.
#[test]
fn paper_shape_batch8_all_tiers() {
    let spec = Conv2dSpec::paper_conv();
    let x = random_signs(&[8, 24, 16, 16], 7);
    let w = random_weights(&[16, 24, 3, 3], 7);
    let expect = conv2d(&x, &binarize(&w), &spec).expect("f32 conv");
    for tier in simd::supported_tiers() {
        let got = simd::with_tier(tier, || binary_conv2d(&x, &w, &spec).expect("fused"));
        assert_eq!(got, expect, "tier {}", tier.name());
    }
}

/// The XNOR GEMM behind the binary FC layers at paper scale, on every
/// tier: a flattened 4×16×16 device map over a 256-sample batch into the
/// 3-class exit head, and into a 256-wide FC block whose work clears the
/// pool's cut-off, so `DDNN_THREADS=4` fans it out.
#[test]
fn paper_shape_binary_matmul_all_tiers() {
    for (m, seed) in [(3, 21), (256, 22)] {
        let x = random_signs(&[256, 1024], seed);
        let w = random_weights(&[m, 1024], seed);
        let expect = x.matmul(&binarize(&w).transpose().expect("transpose")).expect("f32 gemm");
        for tier in simd::supported_tiers() {
            let got = simd::with_tier(tier, || binary_matmul(&x, &w).expect("xnor gemm"));
            assert_eq!(got, expect, "256x1024x{m} on tier {}", tier.name());
        }
    }
}

/// Shapes heavy enough to clear the worker pool's cut-off, so that under
/// `DDNN_THREADS=4` both forms run: a lone 3.5e6-tap sample, which stays
/// on the calling thread, the plan's cross-sample fan-out (six of them),
/// and both sides of the width rule: the widest row the plan takes (62 + 2
/// padding bits fill the word) and the f32 convolution behind a wider one.
#[test]
fn shapes_above_the_pool_cut_off_agree() {
    let spec = Conv2dSpec::paper_conv();
    let w = random_weights(&[16, 24, 3, 3], 11);
    check_all_paths(&random_signs(&[1, 24, 32, 32], 11), &w, &spec);
    check_all_paths(&random_signs(&[6, 24, 32, 32], 12), &w, &spec);
    let wide = random_weights(&[16, 8, 3, 3], 13);
    check_all_paths(&random_signs(&[2, 8, 32, 62], 14), &wide, &spec);
    check_all_paths(&random_signs(&[2, 8, 32, 70], 13), &wide, &spec);
}
