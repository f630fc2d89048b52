//! The distributed deep neural network model (paper §III, Fig. 2 and
//! Fig. 4): per-device sections, a local exit, an optional edge tier, and a
//! cloud exit, jointly trainable end to end.

use crate::aggregation::{AggregationScheme, FeatureAggregator, VectorAggregator};
use crate::block::{ConvPBlock, ExitHead, Precision};
use crate::entropy::ExitThreshold;
use ddnn_nn::{Layer, Mode, Param};
use ddnn_tensor::conv::Conv2dSpec;
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{parallel, Result, Tensor, TensorError};

/// Input image geometry: the MVMC crops are 32×32 RGB.
pub const INPUT_CHANNELS: usize = 3;
/// Input spatial edge length.
pub const INPUT_SIZE: usize = 32;
/// Spatial edge length of a device's ConvP output (one pool halving).
pub const DEVICE_MAP_SIZE: usize = INPUT_SIZE / 2;
/// Pixel value substituted for the view of a failed or absent device — the
/// dataset's blank-grey encoding, which is what gives DDNN its automatic
/// fault tolerance (paper §IV-G).
pub const BLANK_INPUT_VALUE: f32 = 0.5;

/// Spatial edge length after one paper pool (3×3, stride 2, pad 1) over a
/// square `size`×`size` map, validated through
/// [`Conv2dSpec::checked_output_size`] so degenerate geometry panics here
/// with a typed [`TensorError`] message instead of silently mis-sizing an
/// exit head downstream.
fn pooled_size(size: usize) -> usize {
    let (oh, ow) = Conv2dSpec::paper_pool()
        .checked_output_size(size, size)
        .unwrap_or_else(|e| panic!("paper pool over {size}x{size}: {e}"));
    debug_assert_eq!(oh, ow, "square input pools to a square output");
    oh
}

/// Checks for one `(n, 3, 32, 32)` view batch per device and returns `n`.
pub(crate) fn check_views(devices: usize, views: &[Tensor]) -> Result<usize> {
    if views.len() != devices {
        return Err(TensorError::LengthMismatch { expected: devices, actual: views.len() });
    }
    let n = views[0].dims()[0];
    for v in views {
        if v.rank() != 4 || v.dims() != [n, INPUT_CHANNELS, INPUT_SIZE, INPUT_SIZE] {
            return Err(TensorError::ShapeMismatch {
                lhs: v.dims().to_vec(),
                rhs: vec![n, INPUT_CHANNELS, INPUT_SIZE, INPUT_SIZE],
                op: "ddnn.forward views",
            });
        }
    }
    Ok(n)
}

/// Configuration of an optional edge (fog) tier between devices and cloud
/// (configurations (d)/(e) of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Filters in the edge ConvP block.
    pub filters: usize,
    /// How the edge aggregates per-device feature maps.
    pub agg: AggregationScheme,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig { filters: 16, agg: AggregationScheme::Concat }
    }
}

/// Full DDNN architecture configuration.
///
/// The default matches the paper's evaluation system (Fig. 4): six end
/// devices with 4-filter binary ConvP blocks, MP local aggregation, CC
/// cloud aggregation, no edge tier, and a two-ConvP cloud section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdnnConfig {
    /// Number of end devices `n`.
    pub num_devices: usize,
    /// Number of classes `|C|` (paper: 3).
    pub num_classes: usize,
    /// Filters `f` in each device's ConvP block (paper sweeps 1..=4).
    pub device_filters: usize,
    /// Local aggregation scheme over per-device class scores.
    pub local_agg: AggregationScheme,
    /// Cloud aggregation scheme over per-device feature maps.
    pub cloud_agg: AggregationScheme,
    /// Optional edge tier.
    pub edge: Option<EdgeConfig>,
    /// Filters of the two cloud ConvP blocks.
    pub cloud_filters: [usize; 2],
    /// Weight precision of the cloud section ([`Precision::Binary`] in the
    /// paper; [`Precision::Float`] for the §VI mixed-precision ablation).
    pub cloud_precision: Precision,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for DdnnConfig {
    fn default() -> Self {
        DdnnConfig {
            num_devices: 6,
            num_classes: 3,
            device_filters: 4,
            local_agg: AggregationScheme::MaxPool,
            cloud_agg: AggregationScheme::Concat,
            edge: None,
            cloud_filters: [16, 32],
            cloud_precision: Precision::Binary,
            seed: 42,
        }
    }
}

impl DdnnConfig {
    /// The paper's evaluated system (MP-CC, 6 devices, f = 4).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Paper system with a different local/cloud aggregation pair (the
    /// Table I sweep).
    pub fn with_aggregation(local: AggregationScheme, cloud: AggregationScheme) -> Self {
        DdnnConfig { local_agg: local, cloud_agg: cloud, ..Self::default() }
    }

    /// `(channels, height, width)` of one device's sensor view. Blank
    /// views and wire shapes must be derived from this (or from a live
    /// view), never from the CIFAR constants directly, so a model with a
    /// different input geometry keeps consistent blank signatures.
    pub fn view_dims(&self) -> [usize; 3] {
        [INPUT_CHANNELS, INPUT_SIZE, INPUT_SIZE]
    }

    /// `(filters, height, width)` of one device's ConvP output map — `f`
    /// maps of `o` bits each in the paper's Eq. 1.
    pub fn device_map_dims(&self) -> [usize; 3] {
        [self.device_filters, DEVICE_MAP_SIZE, DEVICE_MAP_SIZE]
    }

    /// Flattened width of one device's feature map.
    pub fn device_map_elems(&self) -> usize {
        let [f, h, w] = self.device_map_dims();
        f * h * w
    }

    /// Bits per filter of the device output (`o` in the paper's Eq. 1).
    pub fn output_bits_per_filter(&self) -> usize {
        DEVICE_MAP_SIZE * DEVICE_MAP_SIZE
    }

    /// Scalar parameter count of the model [`Ddnn::new`] builds for this
    /// configuration, or `None` when a dimension it uses is zero or the
    /// count overflows. Nothing is allocated, so a configuration read off
    /// an untrusted checkpoint can be sized before it is built.
    pub(crate) fn checked_param_count(&self) -> Option<usize> {
        let (n, c, f) = (self.num_devices, self.num_classes, self.device_filters);
        let [f1, f2] = self.cloud_filters;
        if [n, c, f, f2, self.edge.map_or(f1, |e| e.filters)].contains(&0) {
            return None;
        }
        let spec = Conv2dSpec::paper_conv();
        // ConvP: convolution weights, batch-norm γ and β.
        let convp = |cin: usize, filters: usize| {
            let weights = filters.checked_mul(cin)?.checked_mul(spec.kernel_h * spec.kernel_w)?;
            weights.checked_add(filters.checked_mul(2)?)
        };
        // Exit head over `filters` maps of `side`²: linear weights (and a
        // bias when float), batch-norm γ and β.
        let exit = |filters: usize, side: usize, precision: Precision| {
            let affine = if precision == Precision::Float { 3 } else { 2 };
            filters.checked_mul(side * side)?.checked_add(affine)?.checked_mul(c)
        };
        let fan_in = |agg: AggregationScheme| match agg {
            AggregationScheme::Concat => n.checked_mul(f),
            _ => Some(f),
        };
        let half = pooled_size(DEVICE_MAP_SIZE);
        let p = self.cloud_precision;
        let device =
            convp(INPUT_CHANNELS, f)?.checked_add(exit(f, DEVICE_MAP_SIZE, Precision::Binary)?)?;
        let local = match self.local_agg {
            AggregationScheme::Concat => n.checked_mul(c)?.checked_add(1)?.checked_mul(c)?,
            _ => 0,
        };
        let upper = match self.edge {
            Some(e) => [
                convp(fan_in(e.agg)?, e.filters)?,
                exit(e.filters, half, p)?,
                convp(e.filters, f2)?,
            ],
            None => [convp(fan_in(self.cloud_agg)?, f1)?, convp(f1, f2)?, 0],
        };
        let cloud_exit = exit(f2, pooled_size(half), p)?;
        let rest = device.checked_mul(n)?.checked_add(local)?.checked_add(cloud_exit)?;
        upper.into_iter().try_fold(rest, usize::checked_add)
    }
}

/// Where a sample exits the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitPoint {
    /// Classified by the local aggregator from device summaries only.
    Local,
    /// Classified at the edge tier.
    Edge,
    /// Classified in the cloud (the final exit: always classifies).
    Cloud,
}

/// Logits produced at each exit for a batch.
#[derive(Debug, Clone)]
pub struct ExitLogits {
    /// Local-exit logits `(n, classes)`.
    pub local: Tensor,
    /// Edge-exit logits, present when the model has an edge tier.
    pub edge: Option<Tensor>,
    /// Cloud-exit logits `(n, classes)`.
    pub cloud: Tensor,
}

/// Upstream gradients for each exit (same shapes as [`ExitLogits`]).
#[derive(Debug, Clone)]
pub struct ExitGrads {
    /// Gradient w.r.t. local logits.
    pub local: Tensor,
    /// Gradient w.r.t. edge logits (required iff the model has an edge).
    pub edge: Option<Tensor>,
    /// Gradient w.r.t. cloud logits.
    pub cloud: Tensor,
}

/// Per-sample result of staged DDNN inference.
#[derive(Debug, Clone)]
pub struct InferenceOutput {
    /// Predicted class per sample (from whichever exit classified it).
    pub predictions: Vec<usize>,
    /// The exit each sample took.
    pub exits: Vec<ExitPoint>,
    /// Normalized entropy at the local exit per sample.
    pub local_entropy: Vec<f32>,
    /// All exit logits (useful for analysis).
    pub logits: ExitLogits,
}

impl InferenceOutput {
    /// Fraction of samples exited at `point`.
    pub fn exit_fraction(&self, point: ExitPoint) -> f32 {
        if self.exits.is_empty() {
            return 0.0;
        }
        self.exits.iter().filter(|&&e| e == point).count() as f32 / self.exits.len() as f32
    }
}

/// The portion of a DDNN deployed on one end device: its ConvP block and
/// exit classifier — together under 2 KB of weights (paper §IV-F).
///
/// Like every section it has a *body* (what it hands the next tier) and a
/// *forward* (the body plus its exit head); training, [`Ddnn::infer`] and
/// every runtime node evaluate the layers only through these two.
#[derive(Debug, Clone)]
pub struct DevicePart {
    /// The device's fused binary convolution-pool block.
    pub conv: ConvPBlock,
    /// The device's exit classifier producing float class scores.
    pub exit: ExitHead,
}

impl DevicePart {
    /// Section body: the ±1 feature map `(n, f, h/2, w/2)` of an
    /// `(n, c, h, w)` view batch — what the device offloads.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed view batch.
    pub fn body(&mut self, view: &Tensor, mode: Mode) -> Result<Tensor> {
        self.conv.forward(view, mode)
    }

    /// Body plus exit head: `(feature map, class scores (n, classes))`.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed view batch.
    pub fn forward(&mut self, view: &Tensor, mode: Mode) -> Result<(Tensor, Tensor)> {
        let map = self.body(view, mode)?;
        let scores = self.exit.forward(&map, mode)?;
        Ok((map, scores))
    }

    /// Backpropagates through the last [`DevicePart::forward`]: the exit
    /// head's gradient joins whatever arrives at the feature map from the
    /// tiers above, then flows into the ConvP block's weights. The view is
    /// data, so no gradient w.r.t. it is formed.
    pub(crate) fn backward(
        &mut self,
        score_grad: &Tensor,
        map_grad: Option<&Tensor>,
    ) -> Result<()> {
        let mut g = unflatten(&self.exit.backward(score_grad)?, &self.conv)?;
        if let Some(upstream) = map_grad {
            g.add_assign(upstream)?;
        }
        self.conv.backward_weights(&g)
    }

    /// Serialized parameter bytes of the section — must stay under the
    /// paper's 2 KB budget.
    pub fn memory_bytes(&self) -> usize {
        self.conv.memory_bytes() + self.exit.memory_bytes()
    }
}

/// The local aggregator deployed on the gateway between the devices and
/// the rest of the hierarchy: a section that is only an exit.
#[derive(Debug, Clone)]
pub struct GatewayPart {
    /// Aggregates the per-device class-score vectors for the local exit.
    pub agg: VectorAggregator,
}

impl GatewayPart {
    /// Local-exit logits `(n, classes)` from the per-device score batches.
    ///
    /// # Errors
    ///
    /// Returns an error when the score count or shapes are wrong.
    pub fn forward(&mut self, scores: &[Tensor], mode: Mode) -> Result<Tensor> {
        self.agg.forward(scores, mode)
    }
}

/// `inputs → aggregation → ConvP chain`: the body of a feature stage.
fn stage_body(
    agg: &mut FeatureAggregator,
    convs: &mut [ConvPBlock],
    inputs: &[Tensor],
    mode: Mode,
) -> Result<Tensor> {
    let mut x = agg.forward(inputs)?;
    for conv in convs {
        x = conv.forward(&x, mode)?;
    }
    Ok(x)
}

/// Backward of a feature stage's forward: the exit head's gradient joins
/// what arrives at the stage's output map from the tier above, then flows
/// down the ConvP chain to one gradient per aggregated input.
fn stage_backward(
    agg: &mut FeatureAggregator,
    convs: &mut [ConvPBlock],
    exit: &mut ExitHead,
    logit_grad: &Tensor,
    map_grad: Option<&Tensor>,
) -> Result<Vec<Tensor>> {
    let mut g = exit.backward(logit_grad)?;
    if let Some(last) = convs.last() {
        g = unflatten(&g, last)?;
    }
    if let Some(upstream) = map_grad {
        g.add_assign(upstream)?;
    }
    for conv in convs.iter_mut().rev() {
        g = conv.backward(&g)?;
    }
    agg.backward(&g)
}

/// The edge (fog) tier section, if the architecture has one: a feature
/// stage with a single ConvP block.
#[derive(Debug, Clone)]
pub struct EdgePart {
    /// Aggregates per-device binary feature maps.
    pub agg: FeatureAggregator,
    /// The edge's ConvP block.
    pub conv: ConvPBlock,
    /// The edge's exit classifier.
    pub exit: ExitHead,
}

impl EdgePart {
    /// Section body: the edge's output map from the per-device maps.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the aggregation.
    pub fn body(&mut self, maps: &[Tensor], mode: Mode) -> Result<Tensor> {
        stage_body(&mut self.agg, std::slice::from_mut(&mut self.conv), maps, mode)
    }

    /// Body plus exit head: `(output map, edge logits (n, classes))`.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the section.
    pub fn forward(&mut self, maps: &[Tensor], mode: Mode) -> Result<(Tensor, Tensor)> {
        let map = self.body(maps, mode)?;
        let logits = self.exit.forward(&map, mode)?;
        Ok((map, logits))
    }
}

impl From<EdgePart> for CloudPart {
    /// The edge as the general feature stage a runtime tier holds.
    fn from(edge: EdgePart) -> Self {
        CloudPart { agg: edge.agg, convs: vec![edge.conv], exit: edge.exit }
    }
}

/// A feature stage — aggregation, a ConvP chain, an exit head. The cloud
/// section is one, and so is every tier of a runtime hierarchy (the edge
/// is the one-block case, see `From<EdgePart>`).
#[derive(Debug, Clone)]
pub struct CloudPart {
    /// Aggregates incoming feature maps (per-device, or the single edge
    /// output for edge architectures).
    pub agg: FeatureAggregator,
    /// The cloud ConvP stack.
    pub convs: Vec<ConvPBlock>,
    /// The final exit classifier (always classifies).
    pub exit: ExitHead,
}

impl CloudPart {
    /// Section body: the stage's output map from its fan-in's maps — what
    /// a non-terminal tier forwards when it escalates.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the aggregation.
    pub fn body(&mut self, maps: &[Tensor], mode: Mode) -> Result<Tensor> {
        stage_body(&mut self.agg, &mut self.convs, maps, mode)
    }

    /// Body plus exit head: `(output map, exit logits (n, classes))`.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the section.
    pub fn forward(&mut self, maps: &[Tensor], mode: Mode) -> Result<(Tensor, Tensor)> {
        let map = self.body(maps, mode)?;
        let logits = self.exit.forward(&map, mode)?;
        Ok((map, logits))
    }
}

/// A DDNN split along its physical deployment boundaries, ready to be
/// placed on separate nodes of a distributed hierarchy (what the
/// `ddnn-runtime` simulator executes). A [`Ddnn`] is exactly this plus the
/// joint forward/backward over it.
#[derive(Debug, Clone)]
pub struct DdnnPartition {
    /// Architecture configuration the partition came from.
    pub config: DdnnConfig,
    /// One part per end device.
    pub devices: Vec<DevicePart>,
    /// The local aggregator.
    pub gateway: GatewayPart,
    /// The edge tier (if configured).
    pub edge: Option<EdgePart>,
    /// The cloud section.
    pub cloud: CloudPart,
}

/// The jointly trained DDNN over `n` end devices and the cloud, with an
/// optional edge tier.
///
/// Structure (Fig. 4): each device runs a binary ConvP block producing a
/// ±1 feature map and a binary-weight exit head producing float class
/// scores. The local aggregator combines the score vectors for the local
/// exit. When a sample is offloaded, the (edge and) cloud aggregates the
/// per-device binary feature maps and runs further ConvP blocks before its
/// own exit.
///
/// The model *is* its deployment sections: [`Ddnn::forward`] composes the
/// parts' own `forward`s, so training, [`Ddnn::infer`] and the runtime
/// nodes evaluate one definition of each section.
///
/// Cloning yields an independent deep copy (weights, gradients and
/// batch-norm statistics) — the building block of sharded data-parallel
/// training in [`crate::train`].
#[derive(Clone)]
pub struct Ddnn {
    pub(crate) parts: DdnnPartition,
}

impl std::fmt::Debug for Ddnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ddnn").field("config", &self.parts.config).finish_non_exhaustive()
    }
}

impl Ddnn {
    /// Builds a DDNN from a configuration (weights seeded by
    /// `config.seed`).
    pub fn new(config: DdnnConfig) -> Self {
        let mut rng = rng_from_seed(config.seed);
        let f = config.device_filters;
        let c = config.num_classes;
        let n = config.num_devices;
        let map_elems = config.device_map_elems();
        let precision = config.cloud_precision;

        // The RNG draw order is a golden: all device convs, then all
        // device exits, the local aggregator, edge, cloud — zipped into
        // parts only afterwards.
        let device_convs: Vec<ConvPBlock> = (0..n)
            .map(|_| ConvPBlock::new(INPUT_CHANNELS, f, Precision::Binary, &mut rng))
            .collect();
        let device_exits: Vec<ExitHead> =
            (0..n).map(|_| ExitHead::new(map_elems, c, Precision::Binary, &mut rng)).collect();
        let devices = device_convs
            .into_iter()
            .zip(device_exits)
            .map(|(conv, exit)| DevicePart { conv, exit })
            .collect();
        let gateway = GatewayPart { agg: VectorAggregator::new(config.local_agg, n, c, &mut rng) };

        // Spatial sizes after each cloud/edge ConvP pool, derived from the
        // actual pooling spec (not a hard-coded `/2`) so a degenerate
        // geometry shows up here as a typed `InvalidGeometry` error rather
        // than as a silently wrong exit-head width downstream.
        let half = pooled_size(DEVICE_MAP_SIZE); // 8
        let quarter = pooled_size(half); // 4
        let [cloud_f1, cloud_f2] = config.cloud_filters;
        let (edge, cloud_agg, cloud_convs) = if let Some(ec) = config.edge {
            let agg = FeatureAggregator::new(ec.agg, n);
            let conv = ConvPBlock::new(agg.output_channels(f), ec.filters, precision, &mut rng);
            let exit = ExitHead::new(ec.filters * half * half, c, precision, &mut rng);
            // Cloud consumes the single edge's output; no cross-device
            // aggregation remains at the cloud in configuration (d)/(e).
            let cloud_agg = FeatureAggregator::new(AggregationScheme::AvgPool, 1);
            let cloud_conv = ConvPBlock::new(ec.filters, cloud_f2, precision, &mut rng);
            (Some(EdgePart { agg, conv, exit }), cloud_agg, vec![cloud_conv])
        } else {
            let cloud_agg = FeatureAggregator::new(config.cloud_agg, n);
            let conv1 =
                ConvPBlock::new(cloud_agg.output_channels(f), cloud_f1, precision, &mut rng);
            let conv2 = ConvPBlock::new(cloud_f1, cloud_f2, precision, &mut rng);
            (None, cloud_agg, vec![conv1, conv2])
        };
        let cloud_exit = ExitHead::new(cloud_f2 * quarter * quarter, c, precision, &mut rng);
        let cloud = CloudPart { agg: cloud_agg, convs: cloud_convs, exit: cloud_exit };
        Ddnn { parts: DdnnPartition { config, devices, gateway, edge, cloud } }
    }

    /// The model over an existing set of sections — the inverse of
    /// [`Ddnn::partition`]. Sections that do not fit each other surface as
    /// shape errors from [`Ddnn::forward`].
    pub fn from_partition(parts: DdnnPartition) -> Self {
        Ddnn { parts }
    }

    /// The model's deployment sections: one [`DevicePart`] per end device,
    /// the gateway's local aggregator, the optional edge section and the
    /// cloud section.
    ///
    /// The parts are deep copies; the original model remains usable.
    pub fn partition(&self) -> DdnnPartition {
        self.parts.clone()
    }

    /// The model configuration.
    pub fn config(&self) -> &DdnnConfig {
        &self.parts.config
    }

    /// Number of exit points (2, or 3 with an edge tier).
    pub fn num_exits(&self) -> usize {
        if self.parts.edge.is_some() {
            3
        } else {
            2
        }
    }

    /// Serialized parameter bytes of one device's section (ConvP block +
    /// exit head) — must stay under the paper's 2 KB budget.
    pub fn device_memory_bytes(&self) -> usize {
        self.parts.devices[0].memory_bytes()
    }

    /// Forward cost of all device sections over an `n`-sample batch, as the
    /// worker pool counts it: what decides whether the sections fan out (a
    /// training or evaluation batch) or run inline (one sample).
    pub(crate) fn device_work(&self, n: usize) -> usize {
        let [c, h, w] = self.parts.config.view_dims();
        self.parts.devices.iter().map(|part| part.conv.macs(&[n, c, h, w])).sum()
    }

    /// Runs all exits for a batch: `views[d]` is device `d`'s
    /// `(n, 3, 32, 32)` input batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the view count or any view shape is wrong.
    pub fn forward(&mut self, views: &[Tensor], mode: Mode) -> Result<ExitLogits> {
        let work = self.device_work(check_views(self.parts.devices.len(), views)?);
        let parts = &mut self.parts;
        // The device sections are independent, so they fan out across the
        // worker pool; results come back in device order regardless of
        // thread count.
        let mut sections: Vec<(&mut DevicePart, &Tensor)> =
            parts.devices.iter_mut().zip(views).collect();
        let outputs =
            parallel::par_map_mut(&mut sections, work, |_, (part, view)| part.forward(view, mode));
        let (maps, scores): (Vec<Tensor>, Vec<Tensor>) =
            outputs.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
        let local = parts.gateway.forward(&scores, mode)?;
        let (edge, cloud_inputs) = match &mut parts.edge {
            Some(edge) => {
                let (map, logits) = edge.forward(&maps, mode)?;
                (Some(logits), vec![map])
            }
            None => (None, maps),
        };
        let (_, cloud) = parts.cloud.forward(&cloud_inputs, mode)?;
        Ok(ExitLogits { local, edge, cloud })
    }

    /// Backpropagates the joint multi-exit loss (paper §III-C): callers
    /// supply the gradient at each exit (already weighted), and this method
    /// sums the gradient contributions where branches share layers.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes are inconsistent with the last `forward`,
    /// or if an edge gradient is missing/spurious for this architecture.
    pub fn backward(&mut self, grads: &ExitGrads) -> Result<()> {
        if grads.edge.is_some() != self.parts.edge.is_some() {
            return Err(TensorError::Empty { op: "ddnn.backward edge gradient arity" });
        }
        // One GEMM per device conv going backwards (its weight gradient),
        // as going forwards.
        let work = self.device_work(grads.local.dims().first().copied().unwrap_or(0));
        let DdnnPartition { devices, gateway, edge, cloud, .. } = &mut self.parts;
        // Cloud branch down to its inputs, then (through the edge, which
        // adds its own exit's gradient) to each device's feature map.
        let cloud_in =
            stage_backward(&mut cloud.agg, &mut cloud.convs, &mut cloud.exit, &grads.cloud, None)?;
        let map_grads = match (edge, &grads.edge) {
            (Some(e), Some(edge_grad)) => stage_backward(
                &mut e.agg,
                std::slice::from_mut(&mut e.conv),
                &mut e.exit,
                edge_grad,
                Some(&cloud_in[0]),
            )?,
            _ => cloud_in,
        };
        // Local branch + shared trunks. The per-device chains are
        // independent (each accumulates only into its own parameters), so
        // they fan out across the worker pool with the serial per-device
        // instruction sequence intact.
        let score_grads = gateway.agg.backward(&grads.local)?;
        let mut sections: Vec<(&mut DevicePart, &Tensor, &Tensor)> = devices
            .iter_mut()
            .zip(&score_grads)
            .zip(&map_grads)
            .map(|((part, sg), mg)| (part, sg, mg))
            .collect();
        parallel::par_map_mut(&mut sections, work, |_, (part, sg, mg)| part.backward(sg, Some(mg)))
            .into_iter()
            .collect()
    }

    /// All stateful blocks in a stable order (for checkpointing of
    /// batch-norm running statistics): device convs, device exits, edge
    /// conv and exit, cloud convs, cloud exit. The checkpoint format
    /// indexes by this order.
    pub(crate) fn blocks_mut(&mut self) -> Vec<&mut dyn Layer> {
        let DdnnPartition { devices, edge, cloud, .. } = &mut self.parts;
        let mut bs: Vec<&mut dyn Layer> = Vec::new();
        let mut exits: Vec<&mut dyn Layer> = Vec::new();
        for d in devices {
            bs.push(&mut d.conv);
            exits.push(&mut d.exit);
        }
        bs.extend(exits);
        if let Some(edge) = edge {
            bs.push(&mut edge.conv);
            bs.push(&mut edge.exit);
        }
        for c in &mut cloud.convs {
            bs.push(c);
        }
        bs.push(&mut cloud.exit);
        bs
    }

    /// All trainable parameters in a stable order (for the optimizer):
    /// the blocks of `blocks_mut` with the local aggregator after
    /// the device exits. Checkpoints and Adam state index by this order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let DdnnPartition { devices, gateway, edge, cloud, .. } = &mut self.parts;
        let mut ps: Vec<&mut Param> = Vec::new();
        let mut exits = Vec::new();
        for d in devices {
            ps.extend(d.conv.params_mut());
            exits.extend(d.exit.params_mut());
        }
        ps.extend(exits);
        ps.extend(gateway.agg.params_mut());
        if let Some(edge) = edge {
            ps.extend(edge.conv.params_mut());
            ps.extend(edge.exit.params_mut());
        }
        for c in &mut cloud.convs {
            ps.extend(c.params_mut());
        }
        ps.extend(cloud.exit.params_mut());
        ps
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Re-estimates every batch-norm layer's running statistics by running
    /// forward passes (no parameter updates) over the given data with the
    /// *final* weights.
    ///
    /// Binarized networks need this: `sign(W)` flips discretely during
    /// training, so exponential running statistics collected along the
    /// trajectory describe a different network than the one that finished
    /// training; without a refresh, eval-mode accuracy collapses. The
    /// trainer calls this automatically after the last epoch.
    ///
    /// The passes leave nothing cached: a last one-sample `Mode::Eval`
    /// forward drops the activations the `Train` passes cached for a
    /// backward that never comes, which would otherwise stay resident in
    /// the model, and in every partition cloned off it, for as long as it
    /// lives.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed views.
    pub fn refresh_batch_norm_stats(
        &mut self,
        views: &[Tensor],
        batch_size: usize,
        passes: usize,
    ) -> Result<()> {
        let n = check_views(self.parts.devices.len(), views)?;
        let bs = batch_size.max(1);
        for _ in 0..passes {
            let mut start = 0;
            while start < n {
                let idx: Vec<usize> = (start..(start + bs).min(n)).collect();
                let batch: Vec<Tensor> =
                    views.iter().map(|v| v.select_axis0(&idx)).collect::<Result<_>>()?;
                self.forward(&batch, Mode::Train)?;
                start += bs;
            }
        }
        if n > 0 {
            let first: Vec<Tensor> =
                views.iter().map(|v| v.select_axis0(&[0])).collect::<Result<_>>()?;
            self.forward(&first, Mode::Eval)?;
        }
        Ok(())
    }

    /// Staged inference (paper §III-D) on the model frozen for it: see
    /// [`FrozenDdnn::infer`](crate::FrozenDdnn::infer). Freezing packs the
    /// weights once per call; a caller that infers repeatedly on fixed
    /// weights holds [`Ddnn::freeze`]'s result instead.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed views.
    pub fn infer(
        &mut self,
        views: &[Tensor],
        local_threshold: ExitThreshold,
        edge_threshold: Option<ExitThreshold>,
    ) -> Result<InferenceOutput> {
        self.freeze().infer(views, local_threshold, edge_threshold)
    }

    /// Predictions when *all* samples exit at the given point, on the
    /// frozen model: see [`FrozenDdnn::predict_at`](crate::FrozenDdnn::predict_at).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed views, or when asking for the edge
    /// exit of an edge-less model.
    pub fn predict_at(&mut self, views: &[Tensor], point: ExitPoint) -> Result<Vec<usize>> {
        self.freeze().predict_at(views, point)
    }
}

/// Restores the flattened gradient `(n, c*h*w)` an exit head returns to
/// the NCHW shape of the ConvP output it consumed.
fn unflatten(g: &Tensor, conv: &ConvPBlock) -> Result<Tensor> {
    let n = g.dims()[0];
    let c = conv.filters();
    let hw = g.len() / (n * c);
    let side = (hw as f32).sqrt().round() as usize;
    g.reshape([n, c, side, side])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::rng::rng_from_seed;

    #[test]
    fn map_sizes_follow_the_pool_spec() {
        // The device-map constant and the cloud-section halvings must agree
        // with what the paper's pooling geometry actually produces.
        assert_eq!(pooled_size(INPUT_SIZE), DEVICE_MAP_SIZE);
        assert_eq!(pooled_size(DEVICE_MAP_SIZE), 8);
        assert_eq!(pooled_size(8), 4);
    }

    fn small_config() -> DdnnConfig {
        DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            ..DdnnConfig::default()
        }
    }

    fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = rng_from_seed(seed);
        (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
    }

    #[test]
    fn forward_shapes() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(3, 2, 0);
        let out = m.forward(&views, Mode::Train).unwrap();
        assert_eq!(out.local.dims(), &[3, 3]);
        assert_eq!(out.cloud.dims(), &[3, 3]);
        assert!(out.edge.is_none());
        assert_eq!(m.num_exits(), 2);
    }

    #[test]
    fn forward_rejects_bad_views() {
        let mut m = Ddnn::new(small_config());
        assert!(m.forward(&random_views(3, 1, 0), Mode::Train).is_err());
        let bad = vec![Tensor::zeros([3, 3, 16, 16]), Tensor::zeros([3, 3, 16, 16])];
        assert!(m.forward(&bad, Mode::Train).is_err());
    }

    #[test]
    fn backward_runs_and_produces_grads() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(2, 2, 1);
        let out = m.forward(&views, Mode::Train).unwrap();
        m.zero_grad();
        m.backward(&ExitGrads {
            local: Tensor::ones(out.local.dims().to_vec()),
            edge: None,
            cloud: Tensor::ones(out.cloud.dims().to_vec()),
        })
        .unwrap();
        let total_grad: f32 = m.params_mut().iter().map(|p| p.grad.norm_sq()).sum();
        assert!(total_grad > 0.0, "joint backward must reach parameters");
        assert!(m.params_mut().iter().all(|p| p.grad.all_finite()));
    }

    #[test]
    fn backward_edge_arity_checked() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(2, 2, 1);
        let out = m.forward(&views, Mode::Train).unwrap();
        let bad = ExitGrads {
            local: Tensor::ones(out.local.dims().to_vec()),
            edge: Some(Tensor::ones([2, 3])),
            cloud: Tensor::ones(out.cloud.dims().to_vec()),
        };
        assert!(m.backward(&bad).is_err());
    }

    #[test]
    fn edge_model_has_three_exits() {
        let cfg = DdnnConfig {
            edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
            ..small_config()
        };
        let mut m = Ddnn::new(cfg);
        assert_eq!(m.num_exits(), 3);
        let views = random_views(2, 2, 2);
        let out = m.forward(&views, Mode::Train).unwrap();
        let e = out.edge.as_ref().expect("edge logits present");
        assert_eq!(e.dims(), &[2, 3]);
        m.zero_grad();
        m.backward(&ExitGrads {
            local: Tensor::ones([2, 3]),
            edge: Some(Tensor::ones([2, 3])),
            cloud: Tensor::ones([2, 3]),
        })
        .unwrap();
        assert!(m.params_mut().iter().all(|p| p.grad.all_finite()));
    }

    #[test]
    fn paper_config_device_memory_under_2kb() {
        let mut m = Ddnn::new(DdnnConfig::paper());
        assert!(m.device_memory_bytes() < 2048, "{} bytes", m.device_memory_bytes());
        assert!(m.param_count() > 0);
    }

    #[test]
    fn infer_partitions_batch_between_exits() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(8, 2, 3);
        // T=1: everything exits locally. T=0: everything goes to cloud.
        let all_local = m.infer(&views, ExitThreshold::new(1.0), None).unwrap();
        assert_eq!(all_local.exit_fraction(ExitPoint::Local), 1.0);
        let all_cloud = m.infer(&views, ExitThreshold::new(0.0), None).unwrap();
        assert!(all_cloud.exit_fraction(ExitPoint::Cloud) > 0.99);
        assert_eq!(all_cloud.predictions.len(), 8);
        assert!(all_cloud.local_entropy.iter().all(|&e| (0.0..=1.0).contains(&e)));
    }

    #[test]
    fn infer_predictions_match_exit_choice() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(6, 2, 4);
        let out = m.infer(&views, ExitThreshold::new(0.5), None).unwrap();
        let local_pred = m.predict_at(&views, ExitPoint::Local).unwrap();
        let cloud_pred = m.predict_at(&views, ExitPoint::Cloud).unwrap();
        for i in 0..6 {
            match out.exits[i] {
                ExitPoint::Local => assert_eq!(out.predictions[i], local_pred[i]),
                ExitPoint::Cloud => assert_eq!(out.predictions[i], cloud_pred[i]),
                ExitPoint::Edge => unreachable!("no edge in this model"),
            }
        }
    }

    #[test]
    fn predict_at_edge_requires_edge() {
        let mut m = Ddnn::new(small_config());
        let views = random_views(2, 2, 5);
        assert!(m.predict_at(&views, ExitPoint::Edge).is_err());
    }

    #[test]
    fn feature_maps_are_binary_and_correct_shape() {
        let mut part = Ddnn::new(small_config()).partition().devices.remove(0);
        let view = &random_views(2, 1, 6)[0];
        let (map, scores) = part.forward(view, Mode::Eval).unwrap();
        assert_eq!(map.dims(), &[2, 2, 16, 16]);
        assert!(map.data().iter().all(|&v| v == 1.0 || v == -1.0));
        assert_eq!(scores.dims(), &[2, 3]);
        assert_eq!(part.body(view, Mode::Eval).unwrap(), map);
    }

    fn assert_same_logits(a: &ExitLogits, b: &ExitLogits) {
        assert_eq!(a.local, b.local);
        assert_eq!(a.edge, b.edge);
        assert_eq!(a.cloud, b.cloud);
    }

    #[test]
    fn model_is_its_partition() {
        let edge = EdgeConfig { filters: 4, agg: AggregationScheme::Concat };
        for edge in [None, Some(edge)] {
            let mut m = Ddnn::new(DdnnConfig { edge, ..small_config() });
            let views = random_views(3, 2, 10);
            // Move the batch-norm statistics away from their initial values.
            m.forward(&views, Mode::Train).unwrap();

            // `from_partition` inverts `partition`, through a checkpoint too.
            let mut rebuilt = Ddnn::from_partition(m.partition());
            for mode in [Mode::Train, Mode::Eval] {
                let expected = m.forward(&views, mode).unwrap();
                assert_same_logits(&rebuilt.forward(&views, mode).unwrap(), &expected);
            }
            let bytes = rebuilt.save_bytes();
            assert_eq!(bytes, m.save_bytes());
            assert_eq!(Ddnn::load_bytes(&bytes).unwrap().save_bytes(), bytes);

            // The joint forward is the parts' own forwards, composed.
            let expected = m.forward(&views, Mode::Eval).unwrap();
            let mut parts = m.partition();
            let (maps, scores): (Vec<_>, Vec<_>) = parts
                .devices
                .iter_mut()
                .zip(&views)
                .map(|(part, view)| part.forward(view, Mode::Eval).unwrap())
                .unzip();
            let local = parts.gateway.forward(&scores, Mode::Eval).unwrap();
            let (edge, cloud_inputs) = match &mut parts.edge {
                Some(e) => {
                    let (map, logits) = e.forward(&maps, Mode::Eval).unwrap();
                    assert_eq!(e.body(&maps, Mode::Eval).unwrap(), map);
                    (Some(logits), vec![map])
                }
                None => (None, maps),
            };
            let (map, cloud) = parts.cloud.forward(&cloud_inputs, Mode::Eval).unwrap();
            assert_eq!(parts.cloud.body(&cloud_inputs, Mode::Eval).unwrap(), map);
            assert_same_logits(&ExitLogits { local, edge, cloud }, &expected);
        }
    }

    #[test]
    fn same_seed_same_model() {
        let mut a = Ddnn::new(small_config());
        let mut b = Ddnn::new(small_config());
        let views = random_views(2, 2, 7);
        let oa = a.forward(&views, Mode::Eval).unwrap();
        let ob = b.forward(&views, Mode::Eval).unwrap();
        assert_eq!(oa.cloud, ob.cloud);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Ddnn::new(small_config());
        let mut b = a.clone();
        let views = random_views(2, 2, 9);
        // Same weights: same outputs.
        let oa = a.forward(&views, Mode::Eval).unwrap();
        let ob = b.forward(&views, Mode::Eval).unwrap();
        assert_eq!(oa.cloud, ob.cloud);
        // Training the clone accumulates gradients only in the clone.
        b.zero_grad();
        a.zero_grad();
        b.forward(&views, Mode::Train).unwrap();
        b.backward(&ExitGrads {
            local: Tensor::ones([2, 3]),
            edge: None,
            cloud: Tensor::ones([2, 3]),
        })
        .unwrap();
        let ga: f32 = a.params_mut().iter().map(|p| p.grad.norm_sq()).sum();
        let gb: f32 = b.params_mut().iter().map(|p| p.grad.norm_sq()).sum();
        assert_eq!(ga, 0.0, "original must be untouched by the clone's backward");
        assert!(gb > 0.0);
    }

    #[test]
    fn checked_param_count_matches_the_built_model() {
        use AggregationScheme::{AvgPool, Concat, MaxPool};
        let edge = |agg| Some(EdgeConfig { filters: 4, agg });
        for (local_agg, cloud_agg, edge, cloud_precision) in [
            (MaxPool, Concat, None, Precision::Binary),
            (Concat, MaxPool, None, Precision::Float),
            (AvgPool, AvgPool, edge(Concat), Precision::Binary),
            (Concat, Concat, edge(MaxPool), Precision::Float),
        ] {
            let cfg =
                DdnnConfig { local_agg, cloud_agg, edge, cloud_precision, ..DdnnConfig::paper() };
            assert_eq!(cfg.checked_param_count(), Some(Ddnn::new(cfg.clone()).param_count()));
        }
        assert_eq!(
            DdnnConfig { num_classes: 0, ..DdnnConfig::paper() }.checked_param_count(),
            None
        );
        let huge = DdnnConfig { device_filters: usize::MAX / 2, ..DdnnConfig::paper() };
        assert_eq!(huge.checked_param_count(), None);
    }

    #[test]
    fn cc_cloud_aggregation_changes_cloud_input_width() {
        let cc =
            DdnnConfig::with_aggregation(AggregationScheme::MaxPool, AggregationScheme::Concat);
        let mp =
            DdnnConfig::with_aggregation(AggregationScheme::MaxPool, AggregationScheme::MaxPool);
        // Parameter counts differ because CC's first cloud conv consumes
        // n*f channels instead of f.
        let mut mcc = Ddnn::new(cc);
        let mut mmp = Ddnn::new(mp);
        assert!(mcc.param_count() > mmp.param_count());
    }
}
