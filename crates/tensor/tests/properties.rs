//! Property-based tests of the tensor substrate.

use ddnn_tensor::conv::{conv2d, conv2d_backward_input, max_pool2d, Conv2dSpec};
use ddnn_tensor::{bits, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_with_dims(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = dims.iter().product();
    prop::collection::vec(-10.0f32..10.0, len)
        .prop_map(move |data| Tensor::from_vec(data, dims.clone()).expect("len matches"))
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    small_dims().prop_flat_map(tensor_with_dims)
}

proptest! {
    #[test]
    fn reshape_preserves_data(t in small_tensor()) {
        let flat = t.reshape([t.len()]).unwrap();
        prop_assert_eq!(flat.data(), t.data());
        let back = flat.reshape(t.dims().to_vec()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn add_commutes_and_sub_inverts(dims in small_dims(), seed in 0u64..100) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let a = Tensor::rand_uniform(dims.clone(), -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform(dims, -5.0, 5.0, &mut rng);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        let diff = a.add(&b).unwrap().sub(&b).unwrap();
        prop_assert!(diff.max_abs_diff(&a).unwrap() < 1e-4);
    }

    #[test]
    fn scale_is_linear(t in small_tensor(), k in -4.0f32..4.0) {
        let lhs = t.scale(k).sum();
        let rhs = t.sum() * k;
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn transpose_is_involution(r in 1usize..6, c in 1usize..6, seed in 0u64..50) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let t = Tensor::rand_uniform([r, c], -1.0, 1.0, &mut rng);
        prop_assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
    }

    #[test]
    fn matmul_distributes_over_addition(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..50) {
        // Integer-valued entries keep float arithmetic exact.
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let int = |rng: &mut rand::rngs::StdRng, d: [usize; 2]| {
            Tensor::rand_uniform(d, -3.0, 3.0, rng).map(|x| x.round())
        };
        let a = int(&mut rng, [m, k]);
        let b = int(&mut rng, [k, n]);
        let c = int(&mut rng, [k, n]);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn stack_then_index_recovers(tensors in prop::collection::vec(tensor_with_dims(vec![2, 3]), 1..5)) {
        let stacked = Tensor::stack(&tensors).unwrap();
        for (i, t) in tensors.iter().enumerate() {
            prop_assert_eq!(&stacked.index_axis0(i).unwrap(), t);
        }
    }

    #[test]
    fn concat_split_roundtrip(parts in 1usize..5, width in 1usize..4, rows in 1usize..4, seed in 0u64..50) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let pieces: Vec<Tensor> =
            (0..parts).map(|_| Tensor::rand_uniform([rows, width], -1.0, 1.0, &mut rng)).collect();
        let whole = Tensor::concat(&pieces, 1).unwrap();
        let back = whole.split(parts, 1).unwrap();
        prop_assert_eq!(back, pieces);
    }

    #[test]
    fn softmax_rows_is_a_distribution(rows in 1usize..5, cols in 2usize..6, seed in 0u64..50) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let t = Tensor::rand_uniform([rows, cols], -30.0, 30.0, &mut rng);
        let s = t.softmax_rows().unwrap();
        prop_assert!(s.all_finite());
        for i in 0..rows {
            let row = s.row(i).unwrap();
            prop_assert!((row.sum() - 1.0).abs() < 1e-5);
            prop_assert!(row.min().unwrap() >= 0.0);
            // argmax is preserved by softmax.
            prop_assert_eq!(row.argmax().unwrap(), t.row(i).unwrap().argmax().unwrap());
        }
    }

    #[test]
    fn bitpack_roundtrip_on_signs(dims in small_dims(), seed in 0u64..100) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let t = Tensor::rand_signs(dims.clone(), &mut rng);
        let packed = bits::pack_signs(&t);
        prop_assert_eq!(packed.len(), bits::packed_len(t.len()));
        let back = bits::unpack_signs(&packed, dims).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn conv2d_input_gradient_is_its_adjoint(
        c in 1usize..3,
        h in 2usize..6,
        w in 2usize..6,
        seed in 0u64..30,
    ) {
        // <conv2d(x, W), y> == <x, conv2d_backward_input(W, y)>: the forward
        // reads the padded plane, the backward scatters through col2im.
        let spec = Conv2dSpec::paper_conv();
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let x = Tensor::rand_uniform([1, c, h, w], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform([2, c, 3, 3], -1.0, 1.0, &mut rng);
        let cx = conv2d(&x, &weight, &spec).unwrap();
        let y = Tensor::rand_uniform(cx.dims().to_vec(), -1.0, 1.0, &mut rng);
        let lhs = cx.dot(&y).unwrap();
        let back = conv2d_backward_input(x.dims(), &weight, &y, &spec).unwrap();
        let rhs = x.dot(&back).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn max_pool_output_bounded_by_input_max(seed in 0u64..100) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let x = Tensor::rand_uniform([1, 2, 6, 6], -5.0, 5.0, &mut rng);
        let out = max_pool2d(&x, &Conv2dSpec::paper_pool()).unwrap();
        prop_assert!(out.output.max().unwrap() <= x.max().unwrap());
        // Every output element exists somewhere in the input (or is from a
        // fully padded window, impossible with this geometry).
        for (o, &idx) in out.output.data().iter().zip(&out.argmax) {
            prop_assert!(idx != usize::MAX);
            prop_assert_eq!(*o, x.data()[idx]);
        }
    }

    #[test]
    fn bitmatrix_pack_agrees_with_pack_signs(rows in 1usize..5, cols in 1usize..80, seed in 0u64..50) {
        // The word-packed matrix layout and the wire byte layout must
        // agree element-for-element in row-major order, so a feature map
        // can move between them without a float round trip.
        use ddnn_tensor::bitmatrix::BitMatrix;
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let t = Tensor::rand_signs([rows, cols], &mut rng);
        let m = BitMatrix::pack(&t).unwrap();
        let wire = bits::pack_signs(&t);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                let wire_bit = (wire[i / 8] >> (7 - i % 8)) & 1 == 1;
                prop_assert_eq!(m.get(r, c), wire_bit);
            }
        }
        prop_assert_eq!(m.unpack(), t);
    }

    #[test]
    fn xnor_gemm_matches_f32_gemm(m in 1usize..4, k in 1usize..80, n in 1usize..4, seed in 0u64..30) {
        use ddnn_tensor::bitmatrix::binary_matmul;
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let x = Tensor::rand_signs([m, k], &mut rng);
        let w = Tensor::rand_signs([n, k], &mut rng);
        prop_assert_eq!(
            binary_matmul(&x, &w).unwrap(),
            x.matmul(&w.transpose().unwrap()).unwrap()
        );
    }

    #[test]
    fn sum_axis_agrees_with_total(dims in prop::collection::vec(1usize..5, 2..4), seed in 0u64..50) {
        let mut rng = ddnn_tensor::rng::rng_from_seed(seed);
        let t = Tensor::rand_uniform(dims.clone(), -2.0, 2.0, &mut rng);
        for axis in 0..dims.len() {
            let s = t.sum_axis(axis).unwrap();
            prop_assert!((s.sum() - t.sum()).abs() < 1e-3 * (1.0 + t.sum().abs()));
        }
    }
}
