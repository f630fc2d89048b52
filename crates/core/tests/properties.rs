//! Property-based tests of DDNN core invariants: aggregation algebra,
//! exit-policy monotonicity and the communication model.

use ddnn_core::{
    normalized_entropy, AggregationScheme, CommCostModel, DdnnConfig, ExitPolicy, ExitThreshold,
    FeatureAggregator, VectorAggregator,
};
use ddnn_nn::Mode;
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use ddnn_tensor::TensorError;
use proptest::prelude::*;

proptest! {
    #[test]
    fn normalized_entropy_is_in_unit_interval(data in prop::collection::vec(0.001f32..1.0, 2..8)) {
        let n = data.len();
        let raw = Tensor::from_vec(data, [n]).unwrap();
        let p = raw.scale(1.0 / raw.sum());
        let eta = normalized_entropy(&p).unwrap();
        prop_assert!((0.0..=1.0).contains(&eta));
    }

    #[test]
    fn entropy_maximized_by_uniform(c in 2usize..8, seed in 0u64..50) {
        let uniform = Tensor::full([c], 1.0 / c as f32);
        let eta_u = normalized_entropy(&uniform).unwrap();
        prop_assert!((eta_u - 1.0).abs() < 1e-5);
        let mut rng = rng_from_seed(seed);
        let raw = Tensor::rand_uniform([c], 0.01, 1.0, &mut rng);
        let p = raw.scale(1.0 / raw.sum());
        prop_assert!(normalized_entropy(&p).unwrap() <= eta_u + 1e-6);
    }

    #[test]
    fn finite_logits_always_yield_a_finite_eta_in_unit_interval(
        data in prop::collection::vec(-40.0f32..40.0, 2..9),
        t in 0.0f32..1.0,
    ) {
        // The full exit-evaluation path on arbitrary finite logits: η must
        // come back finite and in [0, 1] — never NaN from a degenerate
        // softmax, never out of range from the clamp.
        let n = data.len();
        let logits = Tensor::from_vec(data, [1, n]).unwrap();
        for policy in [ExitPolicy::Entropy(ExitThreshold::new(t)), ExitPolicy::Terminal] {
            let d = policy.evaluate(&logits).unwrap();
            prop_assert!(d.eta.is_finite(), "{policy:?}: eta {}", d.eta);
            prop_assert!((0.0..=1.0).contains(&d.eta), "{policy:?}: eta {}", d.eta);
            prop_assert!(d.prediction < n);
        }
    }

    #[test]
    fn non_finite_logits_are_always_a_typed_error(
        data in prop::collection::vec(-5.0f32..5.0, 2..6),
        poison_at in 0usize..6,
        poison_kind in 0u8..2,
    ) {
        // A NaN or +inf lane poisons the softmax (inf − inf = NaN) and must
        // surface as TensorError::NonFinite from every decision entry
        // point, not as a silent confident exit. A −inf lane, by contrast,
        // is a representable zero-probability class: it must keep working.
        let mut data = data;
        let n = data.len();
        let poison = if poison_kind == 0 { f32::NAN } else { f32::INFINITY };
        let lane = poison_at % n;
        data[lane] = poison;
        let logits = Tensor::from_vec(data.clone(), [1, n]).unwrap();
        for policy in [ExitPolicy::Entropy(ExitThreshold::default()), ExitPolicy::Terminal] {
            for err in [
                policy.evaluate(&logits).unwrap_err(),
                policy.decide(&logits).map(|_| ()).unwrap_err(),
                policy.decide_rows(&logits).map(|_| ()).unwrap_err(),
            ] {
                prop_assert!(
                    matches!(err, TensorError::NonFinite { .. }),
                    "{policy:?}: got {err:?}"
                );
            }
        }
        data[lane] = f32::NEG_INFINITY;
        let logits = Tensor::from_vec(data, [1, n]).unwrap();
        let d = ExitPolicy::Terminal.evaluate(&logits).unwrap();
        prop_assert!(d.eta.is_finite() && (0.0..=1.0).contains(&d.eta));
        prop_assert!(d.prediction != lane, "a zero-probability class cannot win the argmax");
    }

    #[test]
    fn exit_sets_are_monotone_in_threshold(eta in 0.0f32..1.0, t1 in 0.0f32..1.0, t2 in 0.0f32..1.0) {
        // If a sample exits at threshold t1 and t2 >= t1, it also exits at t2.
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        if ExitThreshold::new(lo).should_exit(eta) {
            prop_assert!(ExitThreshold::new(hi).should_exit(eta));
        }
    }

    #[test]
    fn mp_dominates_ap_pointwise(seed in 0u64..100, n_inputs in 2usize..5) {
        let mut rng = rng_from_seed(seed);
        let inputs: Vec<Tensor> =
            (0..n_inputs).map(|_| Tensor::rand_uniform([2, 3], -4.0, 4.0, &mut rng)).collect();
        let mut mp = VectorAggregator::new(AggregationScheme::MaxPool, n_inputs, 3, &mut rng);
        let mut ap = VectorAggregator::new(AggregationScheme::AvgPool, n_inputs, 3, &mut rng);
        let vmax = mp.forward(&inputs, Mode::Eval).unwrap();
        let vavg = ap.forward(&inputs, Mode::Eval).unwrap();
        for (m, a) in vmax.data().iter().zip(vavg.data()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn mp_backward_conserves_gradient_mass(seed in 0u64..100) {
        let mut rng = rng_from_seed(seed);
        let inputs: Vec<Tensor> =
            (0..3).map(|_| Tensor::rand_uniform([1, 4], -1.0, 1.0, &mut rng)).collect();
        let mut mp = VectorAggregator::new(AggregationScheme::MaxPool, 3, 4, &mut rng);
        mp.forward(&inputs, Mode::Eval).unwrap();
        let g = Tensor::rand_uniform([1, 4], 0.0, 1.0, &mut rng);
        let grads = mp.backward(&g).unwrap();
        let total: f32 = grads.iter().map(|t| t.sum()).sum();
        prop_assert!((total - g.sum()).abs() < 1e-5);
        // Exactly one device receives each component.
        for j in 0..4 {
            let nonzero = grads.iter().filter(|t| t.data()[j] != 0.0).count();
            prop_assert!(nonzero <= 1);
        }
    }

    #[test]
    fn feature_cc_width_is_sum_of_inputs(n_inputs in 1usize..6, f in 1usize..5) {
        let agg = FeatureAggregator::new(AggregationScheme::Concat, n_inputs);
        prop_assert_eq!(agg.output_channels(f), n_inputs * f);
        let mp = FeatureAggregator::new(AggregationScheme::MaxPool, n_inputs);
        prop_assert_eq!(mp.output_channels(f), f);
    }

    #[test]
    fn comm_cost_is_monotone_and_bounded(f in 1usize..8, l1 in 0.0f32..1.0, l2 in 0.0f32..1.0) {
        let cfg = DdnnConfig { device_filters: f, ..DdnnConfig::paper() };
        let m = CommCostModel::from_config(&cfg);
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(m.bytes_per_sample(hi) <= m.bytes_per_sample(lo));
        prop_assert!(m.bytes_per_sample(lo) <= m.bytes_per_sample(0.0));
        prop_assert!(m.bytes_per_sample(hi) >= m.summary_bytes() as f32);
    }

    #[test]
    fn aggregators_are_deterministic(seed in 0u64..50) {
        let mut rng = rng_from_seed(seed);
        let inputs: Vec<Tensor> =
            (0..4).map(|_| Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, &mut rng)).collect();
        for scheme in AggregationScheme::ALL {
            let mut a = FeatureAggregator::new(scheme, 4);
            let mut b = FeatureAggregator::new(scheme, 4);
            prop_assert_eq!(a.forward(&inputs).unwrap(), b.forward(&inputs).unwrap());
        }
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn seeded_parameters_and_checkpoint_bytes_are_pinned() {
    // The RNG draw order of `Ddnn::new` and the `params_mut`/`blocks_mut`
    // walk order are goldens (checkpoints and Adam state index by them):
    // a change to either fails here, not through a distant verdict golden.
    // Pinned from the commit before the model became its partition.
    use ddnn_core::{Ddnn, EdgeConfig};
    for (edge, params, checkpoint) in [
        (None, 0x5177_4e7d_46bd_0668, 0x6e1c_37cd_c821_4dd4),
        (Some(EdgeConfig::default()), 0xcbda_2bf5_f56a_e111, 0xd8c3_e2d9_b843_0789),
    ] {
        let mut model = Ddnn::new(DdnnConfig { edge, ..DdnnConfig::paper() });
        let values = model
            .params_mut()
            .into_iter()
            .flat_map(|p| p.value.data().to_vec())
            .flat_map(f32::to_le_bytes)
            .collect::<Vec<u8>>();
        assert_eq!(fnv1a(values), params, "parameter values or walk order changed");
        assert_eq!(fnv1a(model.save_bytes().to_vec()), checkpoint, "checkpoint bytes changed");
    }
}

#[test]
fn seeded_training_is_pinned() {
    // One short epoch of the paper's edge configuration runs every kernel
    // of training (the f32 convolutions and their backward, pooling,
    // batch norm, the STE activation, Adam, the stat refresh): a kernel
    // that reorders a float sum changes a trained weight or a loss bit,
    // and fails here. Pinned before the window kernels walked clipped rows.
    use ddnn_core::{train, Ddnn, EdgeConfig, TrainConfig};
    let mut rng = rng_from_seed(77);
    let views: Vec<Tensor> =
        (0..6).map(|_| Tensor::rand_uniform([6, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
    let mut model =
        Ddnn::new(DdnnConfig { edge: Some(EdgeConfig::default()), ..DdnnConfig::paper() });
    let cfg =
        TrainConfig { epochs: 1, batch_size: 3, stat_refresh_passes: 1, ..TrainConfig::default() };
    let report = train(&mut model, &views, &labels, &cfg).unwrap();
    let losses = report
        .epochs
        .iter()
        .flat_map(|e| [e.loss, e.local_loss, e.edge_loss, e.cloud_loss])
        .flat_map(f32::to_le_bytes)
        .collect::<Vec<u8>>();
    assert_eq!(fnv1a(losses), 0x874e_c961_2ccc_3dab, "training losses changed");
    let checkpoint = fnv1a(model.save_bytes().to_vec());
    assert_eq!(checkpoint, 0x14f0_175d_cb9a_937d, "trained checkpoint bytes changed");
}

#[test]
fn training_and_inference_are_invariant_to_thread_count() {
    // The determinism contract: DDNN_THREADS changes how work is carved
    // up, never what is computed. One test owns the env-var mutation so
    // it stays self-contained within this process.
    use ddnn_core::{train, Ddnn, TrainConfig};
    // The paper's device tier (six devices, four filters): at batch 4 its
    // sections are 2.7e6 MACs, enough to clear the pool's cut-off
    // (`MIN_PAR_WORK`), so the 4-thread run really does fan out.
    let run = || {
        let mut rng = rng_from_seed(31);
        let views: Vec<Tensor> =
            (0..6).map(|_| Tensor::rand_uniform([8, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut model = Ddnn::new(DdnnConfig { cloud_filters: [4, 8], ..DdnnConfig::default() });
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            stat_refresh_passes: 1,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &views, &labels, &cfg).unwrap();
        let logits = model.forward(&views, ddnn_nn::Mode::Eval).unwrap();
        (report.epochs, logits.local, logits.cloud)
    };
    std::env::set_var("DDNN_THREADS", "1");
    let serial = run();
    std::env::set_var("DDNN_THREADS", "4");
    let parallel = run();
    std::env::remove_var("DDNN_THREADS");
    assert_eq!(serial.0, parallel.0, "per-epoch losses must be bit-identical");
    assert_eq!(serial.1, parallel.1, "local logits must be bit-identical");
    assert_eq!(serial.2, parallel.2, "cloud logits must be bit-identical");
}

#[test]
fn mp_and_ap_local_aggregation_differ_in_training() {
    // Regression guard: Table I rows for MP-CC and AP-CC must come from
    // genuinely different gradient routing, visible after a few steps.
    use ddnn_core::{train, Ddnn, TrainConfig};
    let mut rng = rng_from_seed(99);
    let views: Vec<Tensor> =
        (0..2).map(|_| Tensor::rand_uniform([12, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    let build = |local| {
        Ddnn::new(DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            local_agg: local,
            ..DdnnConfig::default()
        })
    };
    let cfg =
        TrainConfig { epochs: 2, batch_size: 12, stat_refresh_passes: 0, ..TrainConfig::default() };
    let mut mp = build(AggregationScheme::MaxPool);
    let mut ap = build(AggregationScheme::AvgPool);
    train(&mut mp, &views, &labels, &cfg).unwrap();
    train(&mut ap, &views, &labels, &cfg).unwrap();
    let lm = mp.forward(&views, Mode::Eval).unwrap();
    let la = ap.forward(&views, Mode::Eval).unwrap();
    assert!(
        lm.local.max_abs_diff(&la.local).unwrap() > 1e-4,
        "MP and AP local aggregation trained to identical logits"
    );
}
