//! The frozen inference form against the f32 reference: whatever the
//! weights, batch-norm statistics, aggregation and precision, every map a
//! frozen section emits is the packed sign of the layer stack's
//! `Mode::Eval` map, and every logit — the gateway's MP, AP and CC score
//! aggregation included — is bit-equal.

use ddnn_core::{
    AggregationScheme, Ddnn, DdnnConfig, DdnnPartition, EdgeConfig, ExitThreshold, Precision,
    SignMaps,
};
use ddnn_nn::{Layer, Mode};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

/// Per-channel batch-norm statistics drawn to hit every corner of the
/// inference arithmetic: `γ < 0`, `γ = 0`, `μ = 0` with `β = 0` (so a zero
/// pooled sum normalizes to ±0), integer means a pooled sum can equal,
/// and zero variance.
fn scramble_batch_norm(block: &mut dyn Layer, rng: &mut impl Rng) {
    let channels = block.extra_state().len() / 2;
    let mut stats = Vec::with_capacity(2 * channels);
    stats.extend((0..channels).map(|_| match rng.gen_range(0..4) {
        0 => 0.0,
        1 => rng.gen_range(-3i32..=3) as f32,
        _ => rng.gen_range(-4.0f32..4.0),
    }));
    stats.extend((0..channels).map(|_| match rng.gen_range(0..3) {
        0 => 0.0,
        _ => rng.gen_range(0.0f32..9.0),
    }));
    block.load_extra_state(&stats).unwrap();
    for p in block.params_mut() {
        let gamma = match p.name.as_str() {
            "bn.gamma" => true,
            "bn.beta" => false,
            _ => continue,
        };
        for v in p.value.data_mut() {
            *v = match (gamma, rng.gen_range(0..5)) {
                (true, i) => [-1.5, -0.25, 0.0, 0.5, 2.0][i],
                (false, 0 | 1) => 0.0,
                (false, _) => rng.gen_range(-1.0f32..1.0),
            };
        }
    }
}

/// A small seeded model with every block's batch-norm statistics drawn.
fn model(scheme: AggregationScheme, edge: bool, float: bool, seed: u64) -> Ddnn {
    let config = DdnnConfig {
        num_devices: 3,
        device_filters: 2,
        local_agg: scheme,
        cloud_agg: scheme,
        edge: edge.then_some(EdgeConfig { filters: 4, agg: scheme }),
        cloud_filters: [4, 8],
        cloud_precision: if float { Precision::Float } else { Precision::Binary },
        seed,
        ..DdnnConfig::default()
    };
    let mut parts = Ddnn::new(config).partition();
    let mut rng = rng_from_seed(seed ^ 0xb4);
    let DdnnPartition { devices, edge, cloud, .. } = &mut parts;
    for d in devices {
        scramble_batch_norm(&mut d.conv, &mut rng);
        scramble_batch_norm(&mut d.exit, &mut rng);
    }
    if let Some(e) = edge {
        scramble_batch_norm(&mut e.conv, &mut rng);
        scramble_batch_norm(&mut e.exit, &mut rng);
    }
    for c in &mut cloud.convs {
        scramble_batch_norm(c, &mut rng);
    }
    scramble_batch_norm(&mut cloud.exit, &mut rng);
    Ddnn::from_partition(parts)
}

fn views(batch: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([batch, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

/// Frozen ≡ reference, section by section and end to end.
fn assert_frozen_matches_eval(model: &mut Ddnn, views: &[Tensor]) {
    let mut parts = model.partition();
    let (mut maps, mut packed, mut scores) = (Vec::new(), Vec::new(), Vec::new());
    for (part, view) in parts.devices.iter_mut().zip(views) {
        let (map, device_scores) = part.forward(view, Mode::Eval).unwrap();
        let (bits, frozen_scores) = part.freeze().forward(view).unwrap();
        assert_eq!(bits, SignMaps::pack(&map).unwrap(), "device map");
        assert_eq!(frozen_scores, device_scores, "device scores");
        maps.push(map);
        packed.push(bits);
        scores.push(device_scores);
    }
    let local = parts.gateway.forward(&scores, Mode::Eval).unwrap();
    assert_eq!(parts.gateway.freeze().forward(&scores).unwrap(), local, "gateway logits");
    if let Some(edge) = &mut parts.edge {
        let (map, logits) = edge.forward(&maps, Mode::Eval).unwrap();
        let (bits, frozen_logits) = edge.freeze().forward(&packed).unwrap();
        assert_eq!(bits, SignMaps::pack(&map).unwrap(), "edge map");
        assert_eq!(frozen_logits, logits, "edge logits");
        (maps, packed) = (vec![map], vec![bits]);
    }
    let (map, logits) = parts.cloud.forward(&maps, Mode::Eval).unwrap();
    let (bits, frozen_logits) = parts.cloud.freeze().forward(&packed).unwrap();
    assert_eq!(bits, SignMaps::pack(&map).unwrap(), "cloud map");
    assert_eq!(frozen_logits, logits, "cloud logits");

    let reference = model.forward(views, Mode::Eval).unwrap();
    let frozen = model.freeze().forward(views).unwrap();
    assert_eq!(frozen.local, reference.local);
    assert_eq!(frozen.edge, reference.edge);
    assert_eq!(frozen.cloud, reference.cloud);
}

proptest! {
    #[test]
    fn frozen_forward_matches_eval_forward(
        scheme in 0usize..3,
        edge in 0usize..2,
        float in 0usize..4,
        batch in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let scheme = AggregationScheme::ALL[scheme];
        let mut model = model(scheme, edge == 1, float == 0, seed);
        assert_frozen_matches_eval(&mut model, &views(batch, 3, seed ^ 0x51));
    }
}

#[test]
fn frozen_matches_f32_on_trained_model() {
    // Train small DDNNs jointly, then run staged inference on the f32
    // reference and on the frozen form: every prediction, exit decision,
    // entropy and logit must be identical — the frozen form is an exact
    // drop-in.
    use ddnn_core::{train, TrainConfig};
    let mut rng = rng_from_seed(23);
    let views: Vec<Tensor> =
        (0..2).map(|_| Tensor::rand_uniform([8, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let edge = EdgeConfig { filters: 4, agg: AggregationScheme::Concat };
    for edge in [None, Some(edge)] {
        let mut model = Ddnn::new(DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            edge,
            ..DdnnConfig::default()
        });
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            stat_refresh_passes: 1,
            ..TrainConfig::default()
        };
        train(&mut model, &views, &labels, &cfg).unwrap();
        assert_frozen_matches_eval(&mut model, &views);
        let t = ExitThreshold::new(0.5);
        let frozen = model.freeze().infer(&views, t, Some(t)).unwrap();
        let reference = model.forward(&views, Mode::Eval).unwrap();
        assert_eq!(frozen.logits.local, reference.local);
        assert_eq!(frozen.logits.edge, reference.edge);
        assert_eq!(frozen.logits.cloud, reference.cloud);
        assert_eq!(frozen.predictions, model.infer(&views, t, Some(t)).unwrap().predictions);
    }
}
