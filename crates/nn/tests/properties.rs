//! Property-based tests of the layer library's structural invariants.

use ddnn_nn::{
    binarize, Adam, BatchNorm, BinaryActivation, Conv2d, Layer, Linear, Mode, Optimizer, Param,
    SoftmaxCrossEntropy,
};
use ddnn_tensor::conv::{conv2d, Conv2dSpec};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn binarize_codomain_is_plus_minus_one(data in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = data.len();
        let t = Tensor::from_vec(data, [n]).unwrap();
        let b = binarize(&t);
        prop_assert!(b.data().iter().all(|&x| x == 1.0 || x == -1.0));
        // Idempotent.
        prop_assert_eq!(binarize(&b), b);
    }

    #[test]
    fn binary_activation_ste_masks_grads(seed in 0u64..100, n in 1usize..32) {
        let mut rng = rng_from_seed(seed);
        let x = Tensor::rand_uniform([1, n], -3.0, 3.0, &mut rng);
        let mut act = BinaryActivation::new();
        act.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones([1, n]);
        let gin = act.backward(&g).unwrap();
        for (gi, xi) in gin.data().iter().zip(x.data()) {
            if xi.abs() <= 1.0 {
                prop_assert_eq!(*gi, 1.0);
            } else {
                prop_assert_eq!(*gi, 0.0);
            }
        }
    }

    #[test]
    fn pack_signs_roundtrips_binarize_bit_for_bit(
        data in prop::collection::vec(-2.0f32..2.0f32, 2..64),
        zero_at in 0usize..64,
    ) {
        // Plant both zeros: `x > 0.0` must send them to −1 on both paths.
        let mut data = data;
        let n = data.len();
        data[zero_at % n] = 0.0;
        data[(zero_at + 1) % n] = -0.0;
        // The wire packing and the training-time binarization share one
        // sign convention (strictly positive → +1): unpacking the packed
        // raw tensor must equal `binarize` exactly, including on `0.0`
        // and `-0.0`, and packing the binarized tensor must produce the
        // identical byte stream.
        use ddnn_tensor::bits::{pack_signs, unpack_signs};
        let t = Tensor::from_vec(data, [n]).unwrap();
        let b = binarize(&t);
        let back = unpack_signs(&pack_signs(&t), [n]).unwrap();
        prop_assert_eq!(&back, &b);
        prop_assert_eq!(pack_signs(&b), pack_signs(&t));
    }

    #[test]
    fn linear_forward_is_affine(seed in 0u64..50) {
        // f(a + b) - f(a) - f(b) + f(0) == 0 for an affine map.
        let mut rng = rng_from_seed(seed);
        let mut l = Linear::new(4, 3, true, &mut rng);
        let a = Tensor::rand_uniform([1, 4], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform([1, 4], -2.0, 2.0, &mut rng);
        let f = |l: &mut Linear, x: &Tensor| l.forward(x, Mode::Eval).unwrap();
        let sum = a.add(&b).unwrap();
        let lhs = f(&mut l, &sum);
        let zero = f(&mut l, &Tensor::zeros([1, 4]));
        let fa = f(&mut l, &a);
        let fb = f(&mut l, &b);
        let resid = lhs.add(&zero).unwrap().sub(&fa).unwrap().sub(&fb).unwrap();
        prop_assert!(resid.norm_sq() < 1e-6);
    }

    #[test]
    fn batchnorm_train_output_is_standardized(seed in 0u64..50, c in 1usize..4) {
        let mut rng = rng_from_seed(seed);
        let mut bn = BatchNorm::new(c);
        let x = Tensor::rand_uniform([16, c], -9.0, 9.0, &mut rng).shift(3.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        for ch in 0..c {
            let col: Vec<f32> = (0..16).map(|i| y.data()[i * c + ch]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 16.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            prop_assert!(mean.abs() < 1e-3);
            // Degenerate (constant) columns normalize to zero variance.
            prop_assert!(var < 1.1);
        }
    }

    #[test]
    fn softmax_ce_loss_is_nonnegative_and_grad_rows_sum_zero(
        seed in 0u64..100, n in 1usize..6, c in 2usize..5
    ) {
        let mut rng = rng_from_seed(seed);
        let logits = Tensor::rand_uniform([n, c], -5.0, 5.0, &mut rng);
        let targets: Vec<usize> = (0..n).map(|i| i % c).collect();
        let out = SoftmaxCrossEntropy::new().forward(&logits, &targets).unwrap();
        prop_assert!(out.loss >= 0.0);
        prop_assert!(out.loss.is_finite());
        for i in 0..n {
            prop_assert!(out.grad.row(i).unwrap().sum().abs() < 1e-6);
        }
    }

    #[test]
    fn adam_steps_stay_finite_and_respect_clip(seed in 0u64..50, steps in 1usize..20) {
        let mut rng = rng_from_seed(seed);
        let mut p = Param::with_clip("w", Tensor::rand_uniform([8], -1.0, 1.0, &mut rng), -1.0, 1.0);
        let mut opt = Adam::new();
        for _ in 0..steps {
            p.grad = Tensor::rand_uniform([8], -100.0, 100.0, &mut rng);
            opt.step(&mut [&mut p]);
        }
        prop_assert!(p.value.all_finite());
        prop_assert!(p.value.max().unwrap() <= 1.0);
        prop_assert!(p.value.min().unwrap() >= -1.0);
    }

    #[test]
    fn binarized_conv_train_forward_equals_the_f32_sign_path(
        seed in 0u64..1_000_000,
        n in 1usize..4,
        c in 1usize..5,
        f in 1usize..5,
        h in 3usize..13,
        w in 3usize..13,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        kind in 0usize..8,
    ) {
        // A binarized layer's Train forward on an input of exact signs
        // takes the XNOR plan; one planted 0.5, −0.0, +0.0 or NaN must send
        // it down the f32 path, where the plan would read a sign. Either
        // way the output is `conv2d(x, binarize(W))` bit for bit, as is a
        // float layer's on the same signs.
        let mut rng = rng_from_seed(seed);
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let mut x = binarize(&Tensor::rand_uniform([n, c, h, w], -1.0, 1.0, &mut rng));
        if let Some(&planted) = [0.5, -0.0, 0.0, f32::NAN].get(kind) {
            let at = rng.gen_range(0..x.len());
            x.data_mut()[at] = planted;
        }
        let mut binary = Conv2d::binarized(c, f, spec, &mut rng);
        let expect = conv2d(&x, &binary.effective_weight(), &spec).unwrap();
        prop_assert_eq!(bits(&binary.forward(&x, Mode::Train).unwrap()), bits(&expect));
        let mut float = Conv2d::new(c, f, spec, &mut rng);
        let expect = conv2d(&x, &float.effective_weight(), &spec).unwrap();
        prop_assert_eq!(bits(&float.forward(&x, Mode::Train).unwrap()), bits(&expect));
    }

    #[test]
    fn adam_with_zero_grads_is_the_identity(seed in 0u64..50) {
        let mut rng = rng_from_seed(seed);
        let mut p = Param::new("w", Tensor::rand_uniform([6], -1.0, 1.0, &mut rng));
        let before = p.value.clone();
        let mut opt = Adam::with_lr(0.5);
        p.zero_grad();
        opt.step(&mut [&mut p]);
        prop_assert_eq!(p.value, before);
    }
}
