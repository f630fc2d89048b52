//! The frozen inference form: a trained model compiled once into the
//! eBNN-style fused sections the paper deploys, running on packed sign
//! bits end to end.
//!
//! [`Ddnn::freeze`] (and `freeze` on each section) turns every ConvP block
//! into one fused back end behind a front end chosen at freeze time:
//!
//! * **XNOR** — binary weights over ±1 maps: the tensor crate's
//!   [`BinaryConvPlan`] with its weights packed once, reading each input
//!   row straight out of the packed maps;
//! * **f32** — [`conv2d`], for the device image, an average of several
//!   maps (an `AvgPool` aggregate is not a sign map) and
//!   [`Precision::Float`](crate::Precision::Float) blocks.
//!
//! The back end takes each clipped pool window's max, one pooled plane
//! per filter ([`max_pool2d_visit`]), applies batch norm's inference
//! arithmetic to every lane through [`BnInference::apply`] — the function
//! the layer stack's `Mode::Eval` calls — and writes the sign bits
//! MSB-first from compare masks of up to 32 lanes. Every step
//! reproduces the f32 reference's values exactly (XNOR sums are exact
//! integers, a max is a selection, the BN arithmetic is shared), so the
//! frozen form is bit-identical to `Ddnn::forward(Mode::Eval)` by
//! construction — ties, `γ ≤ 0` and zero variance included. Exit heads
//! are an XNOR dot against pre-packed weights followed by the same BN
//! function.
//!
//! Maps travel as [`SignMaps`], one byte string per sample in the
//! `Features` wire layout, so a device's map is the payload it sends and a
//! tier runs on the payload it receives.

use crate::aggregation::{check_inputs, elementwise_max, elementwise_mean, AggregationScheme};
use crate::block::{ConvPBlock, ExitHead};
use crate::entropy::{normalized_entropy_rows, ExitPolicy, ExitThreshold};
use crate::model::{
    check_views, CloudPart, Ddnn, DdnnConfig, DevicePart, EdgePart, ExitLogits, ExitPoint,
    GatewayPart, InferenceOutput,
};
use crate::FeatureAggregator;
use ddnn_nn::BnInference;
use ddnn_tensor::bitmatrix::{BinaryConvPlan, BitMatrix};
use ddnn_tensor::bits::{pack_signs, packed_len, unpack_signs};
use ddnn_tensor::conv::{conv2d, max_pool2d_visit, Conv2dSpec};
use ddnn_tensor::{parallel, Result, Tensor, TensorError};
use std::sync::{Arc, OnceLock};

/// A batch of ±1 maps packed one bit per element: each sample's
/// `(c, h, w)` signs in row-major order, MSB-first within each byte, the
/// last byte zero-padded — the layout of [`pack_signs`] and of a
/// `Features` payload's bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignMaps {
    dims: [usize; 3],
    samples: Vec<Arc<[u8]>>,
}

impl SignMaps {
    /// Maps of shape `dims`, one byte string per sample.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for a zero dimension and
    /// [`TensorError::LengthMismatch`] for a sample that is not exactly
    /// `packed_len(c·h·w)` bytes.
    pub fn new(dims: [usize; 3], samples: Vec<Arc<[u8]>>) -> Result<Self> {
        if dims.contains(&0) {
            return Err(TensorError::Empty { op: "sign maps with a zero dimension" });
        }
        let elems = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        let expected = packed_len(elems.ok_or(TensorError::Empty { op: "sign map size" })?);
        if let Some(bad) = samples.iter().find(|bits| bits.len() != expected) {
            return Err(TensorError::LengthMismatch { expected, actual: bad.len() });
        }
        Ok(SignMaps { dims, samples })
    }

    /// Packs an `(n, c, h, w)` tensor by sign: strictly positive elements
    /// become `+1`, everything else `−1`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `maps` is rank 4 with non-zero map
    /// dimensions.
    pub fn pack(maps: &Tensor) -> Result<Self> {
        let &[n, c, h, w] = maps.dims() else {
            return Err(TensorError::RankMismatch { expected: 4, actual: maps.rank() });
        };
        let samples =
            (0..n).map(|b| Ok(pack_signs(&maps.index_axis0(b)?))).collect::<Result<_>>()?;
        SignMaps::new([c, h, w], samples)
    }

    /// Unpacks to an `(n, c, h, w)` ±1 tensor.
    ///
    /// # Errors
    ///
    /// Infallible for maps built through [`SignMaps::new`]; the `Result`
    /// is the unpacker's.
    pub fn unpack(&self) -> Result<Tensor> {
        let [c, h, w] = self.dims;
        let mut data = Vec::with_capacity(self.len() * c * h * w);
        for bits in &self.samples {
            data.extend_from_slice(unpack_signs(bits, [c * h * w])?.data());
        }
        Tensor::from_vec(data, [self.len(), c, h, w])
    }

    /// The batches' samples, in order, as one batch.
    ///
    /// # Errors
    ///
    /// Returns an error for no batch or batches of different map shapes.
    pub fn concat<'a>(batches: impl IntoIterator<Item = &'a SignMaps>) -> Result<Self> {
        let mut batches = batches.into_iter().peekable();
        let dims = batches.peek().ok_or(TensorError::Empty { op: "concat of no sign maps" })?.dims;
        let mut samples = Vec::new();
        for b in batches {
            if b.dims != dims {
                let (lhs, rhs) = (dims.to_vec(), b.dims.to_vec());
                return Err(TensorError::ShapeMismatch { lhs, rhs, op: "sign maps concat" });
            }
            samples.extend_from_slice(&b.samples);
        }
        Ok(SignMaps { dims, samples })
    }

    /// One single-sample batch per sample.
    pub fn split(self) -> Vec<SignMaps> {
        let dims = self.dims;
        self.samples.into_iter().map(|bits| SignMaps { dims, samples: vec![bits] }).collect()
    }

    /// `(channels, height, width)` of every map.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch holds no sample.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Each sample's packed bits.
    pub fn samples(&self) -> &[Arc<[u8]>] {
        &self.samples
    }

    /// Bits per map.
    fn elems(&self) -> usize {
        self.dims.iter().product()
    }
}

/// MSB-first writer of the [`SignMaps`] layout.
struct SignWriter {
    bytes: Vec<u8>,
    /// The bits not yet in `bytes` (fewer than 8) at the bottom of `acc`.
    acc: u64,
    pending: usize,
}

impl SignWriter {
    fn with_bits(n: usize) -> Self {
        SignWriter { bytes: Vec::with_capacity(packed_len(n)), acc: 0, pending: 0 }
    }

    /// Appends the low `n` (`1 ≤ n ≤ 32`) bits of `bits`, most significant
    /// first; no higher bit may be set.
    #[inline(always)]
    fn push_bits(&mut self, bits: u32, n: usize) {
        self.acc = self.acc << n | u64::from(bits);
        self.pending += n;
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
    }

    /// Appends the first `n` bits of an MSB-first stream (whole bytes at
    /// once while the writer is byte-aligned).
    fn extend(&mut self, bits: &[u8], n: usize) {
        let whole = if self.pending == 0 { n / 8 } else { 0 };
        self.bytes.extend_from_slice(&bits[..whole]);
        for i in whole * 8..n {
            self.push_bits(u32::from(bits[i / 8] >> (7 - i % 8) & 1), 1);
        }
    }

    fn finish(mut self) -> Arc<[u8]> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes.into()
    }
}

/// Bits `start..start + w` (`1 ≤ w ≤ 64`) of an MSB-first stream as one
/// LSB-first word: bit `x` set iff element `start + x` is `+1` — a packed
/// map row in the form [`BinaryConvPlan::run_rows`] reads.
fn row_word(bytes: &[u8], start: usize, w: usize) -> u64 {
    let (first, last) = (start / 8, (start + w).div_ceil(8));
    let acc = bytes[first..last].iter().fold(0u128, |acc, &b| acc << 8 | u128::from(b));
    let msb_first = (acc >> ((last - first) * 8 - start % 8 - w)) as u64 & (u64::MAX >> (64 - w));
    msb_first.reverse_bits() >> (64 - w)
}

/// A ConvP block frozen for inference (see the module docs).
#[derive(Debug, Clone)]
struct FrozenConvP {
    /// `sign(W)` for binary blocks, `W` for float ones: what the f32
    /// front end convolves with, and what the XNOR plan packs.
    weight: Tensor,
    in_channels: usize,
    /// Binary weights: ±1 input runs the XNOR plan.
    xnor: bool,
    /// The XNOR plan for the first input geometry seen; another geometry
    /// (a probe's trial input) plans afresh.
    plan: OnceLock<((usize, usize), BinaryConvPlan)>,
    conv: Conv2dSpec,
    pool: Conv2dSpec,
    bn: BnInference,
}

impl FrozenConvP {
    fn new(block: &ConvPBlock) -> Self {
        FrozenConvP {
            weight: block.conv.effective_weight(),
            in_channels: block.conv.in_channels(),
            xnor: block.conv.is_binary(),
            plan: OnceLock::new(),
            conv: *block.conv.spec(),
            pool: *block.pool.spec(),
            bn: block.bn.inference(),
        }
    }

    /// Multiply–accumulates over `n` samples of `h`×`w`, as
    /// [`ConvPBlock::macs`] counts them.
    fn macs(&self, n: usize, h: usize, w: usize) -> usize {
        self.conv.checked_output_size(h, w).map_or(0, |(oh, ow)| n * self.weight.len() * oh * ow)
    }

    /// The block over ±1 maps: the XNOR plan reads the packed rows
    /// directly; float blocks, and rows wider than the plan's word, take
    /// the f32 route on the unpacked signs (as `binary_conv2d` does).
    fn forward_bits(&self, x: &SignMaps) -> Result<SignMaps> {
        let [c, h, w] = x.dims();
        if c != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![x.len(), c, h, w],
                rhs: vec![0, self.in_channels, 0, 0],
                op: "frozen convp",
            });
        }
        if !(self.xnor && BinaryConvPlan::fits(&self.conv, w)) {
            return self.forward_f32(&x.unpack()?);
        }
        let rows: Vec<u64> = (x.samples().iter())
            .flat_map(|bits| (0..c * h).map(move |r| row_word(bits, r * w, w)))
            .collect();
        let cached = match self.plan.get() {
            Some(cached) => cached,
            None => {
                let plan = BinaryConvPlan::new(&self.weight, &self.conv, h, w)?;
                self.plan.get_or_init(|| ((h, w), plan))
            }
        };
        let out = if cached.0 == (h, w) {
            cached.1.run_rows(&rows)?
        } else {
            BinaryConvPlan::new(&self.weight, &self.conv, h, w)?.run_rows(&rows)?
        };
        self.back(&out)
    }

    /// The block over real values (a view, an average of maps): the f32
    /// convolution the layer stack's `Mode::Eval` runs.
    fn forward_f32(&self, x: &Tensor) -> Result<SignMaps> {
        self.back(&conv2d(x, &self.weight, &self.conv)?)
    }

    /// The fused back end: per sample and filter, each clipped pool
    /// window's max, then batch norm's inference arithmetic on every lane
    /// of the pooled plane and the lanes' sign bits from compare masks.
    fn back(&self, conv_out: &Tensor) -> Result<SignMaps> {
        let &[_, f, h, w] = conv_out.dims() else {
            return Err(TensorError::RankMismatch { expected: 4, actual: conv_out.rank() });
        };
        let (ph, pw) = self.pool.checked_output_size(h, w)?;
        let samples = (conv_out.data().chunks(f * h * w))
            .map(|planes| {
                let mut bits = SignWriter::with_bits(f * ph * pw);
                max_pool2d_visit(planes, (f, h, w), &self.pool, |ch, pooled| {
                    for lanes in pooled.chunks(32) {
                        // Lane `i` at bit `i`, then reversed: MSB-first.
                        let mask = (lanes.iter().enumerate()).fold(0u32, |mask, (i, &v)| {
                            mask | u32::from(self.bn.apply(ch, v) > 0.0) << i
                        });
                        bits.push_bits(mask.reverse_bits() >> (32 - lanes.len()), lanes.len());
                    }
                })?;
                Ok(bits.finish())
            })
            .collect::<Result<_>>()?;
        Ok(SignMaps { dims: [f, ph, pw], samples })
    }
}

/// How a frozen exit head takes its dot products.
#[derive(Debug, Clone)]
enum ExitFront {
    /// Binary weights, packed once.
    Xnor(BitMatrix),
    /// Float weights (transposed once) and bias.
    F32 { weight_t: Tensor, bias: Option<Tensor> },
}

/// An exit head frozen for inference: dot products, then batch norm.
#[derive(Debug, Clone)]
struct FrozenExit {
    front: ExitFront,
    in_features: usize,
    bn: BnInference,
}

impl FrozenExit {
    fn new(head: &ExitHead) -> Self {
        let linear = &head.linear;
        let weight = linear.effective_weight();
        let front = if linear.is_binary() && linear.bias().is_none() {
            ExitFront::Xnor(BitMatrix::pack(&weight).expect("a linear weight is rank 2"))
        } else {
            let weight_t = weight.transpose().expect("a linear weight is rank 2");
            ExitFront::F32 { weight_t, bias: linear.bias().cloned() }
        };
        FrozenExit { front, in_features: linear.in_features(), bn: head.bn.inference() }
    }

    /// Class scores `(n, classes)` of a batch of maps.
    fn forward(&self, x: &SignMaps) -> Result<Tensor> {
        let (n, k) = (x.len(), x.elems());
        if k != self.in_features {
            let [c, h, w] = x.dims();
            return Err(TensorError::ShapeMismatch {
                lhs: vec![n, c, h, w],
                rhs: vec![n, self.in_features],
                op: "frozen exit",
            });
        }
        let mut scores = match &self.front {
            ExitFront::Xnor(wbits) => {
                let rows = x.samples().iter().map(|bits| &bits[..]);
                BitMatrix::from_sign_bytes(k, rows)?.xnor_matmul(wbits)?
            }
            ExitFront::F32 { weight_t, bias } => {
                let mut out = x.unpack()?.reshape([n, k])?.matmul(weight_t)?;
                if let Some(b) = bias {
                    out.add_row_broadcast(b)?;
                }
                out
            }
        };
        let classes = self.bn.channels();
        for row in scores.data_mut().chunks_mut(classes) {
            for (ch, y) in row.iter_mut().enumerate() {
                *y = self.bn.apply(ch, *y);
            }
        }
        Ok(scores)
    }
}

/// A device section frozen for inference: its ConvP block on the f32
/// front end (a view is an image, not signs) and its exit head on the
/// packed map.
#[derive(Debug, Clone)]
pub struct FrozenDevice {
    conv: FrozenConvP,
    exit: FrozenExit,
}

impl FrozenDevice {
    /// The packed feature map of an `(n, c, h, w)` view batch — the bits
    /// the device offloads.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed view batch.
    pub fn body(&self, views: &Tensor) -> Result<SignMaps> {
        self.conv.forward_f32(views)
    }

    /// Body plus exit head: `(feature maps, class scores (n, classes))`.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed view batch.
    pub fn forward(&self, views: &Tensor) -> Result<(SignMaps, Tensor)> {
        let maps = self.body(views)?;
        let scores = self.exit.forward(&maps)?;
        Ok((maps, scores))
    }
}

impl DevicePart {
    /// The section frozen for inference; bit-identical to
    /// [`DevicePart::forward`] under `Mode::Eval`.
    pub fn freeze(&self) -> FrozenDevice {
        FrozenDevice { conv: FrozenConvP::new(&self.conv), exit: FrozenExit::new(&self.exit) }
    }
}

/// What a stage's aggregation hands its first ConvP block.
enum Aggregate {
    /// MP, CC or one input: still a sign map.
    Bits(SignMaps),
    /// The average of several maps.
    Float(Tensor),
}

/// A feature stage (an edge, a cloud, any runtime tier) frozen for
/// inference: aggregation, the ConvP chain, the exit head.
#[derive(Debug, Clone)]
pub struct FrozenStage {
    agg: FeatureAggregator,
    convs: Vec<FrozenConvP>,
    exit: FrozenExit,
}

impl FrozenStage {
    /// The stage's output maps from its fan-in's maps, one [`SignMaps`]
    /// per input slot (each with the same batch) — what a non-terminal
    /// tier forwards.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the stage.
    pub fn body(&self, inputs: &[SignMaps]) -> Result<SignMaps> {
        if inputs.len() != self.agg.num_inputs() {
            let expected = self.agg.num_inputs();
            return Err(TensorError::LengthMismatch { expected, actual: inputs.len() });
        }
        let Some(first) = inputs.first() else {
            return Err(TensorError::Empty { op: "frozen stage without inputs" });
        };
        let shape = |m: &SignMaps| [m.len(), m.dims[0], m.dims[1], m.dims[2]].to_vec();
        if let Some(odd) = inputs.iter().find(|m| shape(m) != shape(first)) {
            let (lhs, rhs) = (shape(first), shape(odd));
            return Err(TensorError::ShapeMismatch { lhs, rhs, op: "frozen stage inputs" });
        }
        let (mut maps, rest) = match self.aggregate(inputs)? {
            Aggregate::Bits(maps) => (maps, &self.convs[..]),
            Aggregate::Float(x) => match self.convs.split_first() {
                Some((conv, rest)) => (conv.forward_f32(&x)?, rest),
                None => {
                    let op = "frozen stage: an average of maps without a ConvP block";
                    return Err(TensorError::Empty { op });
                }
            },
        };
        for conv in rest {
            maps = conv.forward_bits(&maps)?;
        }
        Ok(maps)
    }

    /// Body plus exit head: `(output maps, exit logits (n, classes))`.
    ///
    /// # Errors
    ///
    /// Returns an error when the inputs do not fit the stage.
    pub fn forward(&self, inputs: &[SignMaps]) -> Result<(SignMaps, Tensor)> {
        let maps = self.body(inputs)?;
        let logits = self.exit.forward(&maps)?;
        Ok((maps, logits))
    }

    /// Aggregates same-shaped inputs. Any scheme over one map is that map
    /// (an average of one ±1 map is itself), the max of ±1 maps is the OR
    /// of their bits and concatenation appends them; only an average of
    /// several maps leaves the signs, through the aggregator itself.
    fn aggregate(&self, inputs: &[SignMaps]) -> Result<Aggregate> {
        let first = &inputs[0]; // `body` checked there is one
        if inputs.len() == 1 {
            return Ok(Aggregate::Bits(first.clone()));
        }
        let per_sample =
            |combine: &dyn Fn(usize) -> Arc<[u8]>| (0..first.len()).map(combine).collect();
        Ok(match self.agg.scheme() {
            AggregationScheme::MaxPool => Aggregate::Bits(SignMaps {
                dims: first.dims,
                samples: per_sample(&|b| {
                    let mut bits = first.samples[b].to_vec();
                    for other in &inputs[1..] {
                        bits.iter_mut().zip(other.samples[b].iter()).for_each(|(x, y)| *x |= y);
                    }
                    bits.into()
                }),
            }),
            AggregationScheme::Concat => Aggregate::Bits(SignMaps {
                dims: [first.dims[0] * inputs.len(), first.dims[1], first.dims[2]],
                samples: per_sample(&|b| {
                    let mut bits = SignWriter::with_bits(first.elems() * inputs.len());
                    inputs.iter().for_each(|m| bits.extend(&m.samples[b], m.elems()));
                    bits.finish()
                }),
            }),
            AggregationScheme::AvgPool => {
                let maps: Vec<Tensor> =
                    inputs.iter().map(SignMaps::unpack).collect::<Result<_>>()?;
                Aggregate::Float(self.agg.clone().forward(&maps)?)
            }
        })
    }
}

impl CloudPart {
    /// The stage frozen for inference; bit-identical to
    /// [`CloudPart::forward`] under `Mode::Eval`.
    pub fn freeze(&self) -> FrozenStage {
        FrozenStage {
            agg: self.agg.clone(),
            convs: self.convs.iter().map(FrozenConvP::new).collect(),
            exit: FrozenExit::new(&self.exit),
        }
    }
}

impl EdgePart {
    /// The section frozen for inference; bit-identical to
    /// [`EdgePart::forward`] under `Mode::Eval`.
    pub fn freeze(&self) -> FrozenStage {
        CloudPart::from(self.clone()).freeze()
    }
}

/// The gateway frozen for inference: its score aggregation with nothing
/// cached and, for CC, the projection's weights transposed once.
/// Bit-identical to [`GatewayPart::forward`] under `Mode::Eval`.
#[derive(Debug, Clone)]
pub struct FrozenGateway {
    scheme: AggregationScheme,
    num_inputs: usize,
    /// CC's projection: its transposed weights and its bias.
    projection: Option<(Tensor, Option<Tensor>)>,
}

impl GatewayPart {
    /// The section frozen for inference.
    pub fn freeze(&self) -> FrozenGateway {
        let transposed = |p: &ddnn_nn::Linear| {
            let w = p.effective_weight().transpose().expect("a linear layer's weights are rank 2");
            (w, p.bias().cloned())
        };
        FrozenGateway {
            scheme: self.agg.scheme(),
            num_inputs: self.agg.num_inputs,
            projection: self.agg.projection.as_ref().map(transposed),
        }
    }
}

impl FrozenGateway {
    /// Local-exit logits `(n, classes)` from the per-device score batches.
    ///
    /// # Errors
    ///
    /// Returns an error when the score count or shapes are wrong.
    pub fn forward(&self, scores: &[Tensor]) -> Result<Tensor> {
        check_inputs(scores, self.num_inputs, "frozen_gateway.forward")?;
        match self.scheme {
            AggregationScheme::MaxPool => Ok(elementwise_max(scores).0),
            AggregationScheme::AvgPool => elementwise_mean(scores),
            AggregationScheme::Concat => {
                let (weight_t, bias) =
                    self.projection.as_ref().expect("Concat aggregator always has a projection");
                let mut out = Tensor::concat(scores, 1)?.matmul(weight_t)?;
                if let Some(b) = bias {
                    out.add_row_broadcast(b)?;
                }
                Ok(out)
            }
        }
    }
}

/// A [`Ddnn`] frozen for inference: every section in its fused form (see
/// the module docs). Bit-identical to [`Ddnn::forward`] under
/// `Mode::Eval`, which stays the plain f32 reference.
#[derive(Debug, Clone)]
pub struct FrozenDdnn {
    config: DdnnConfig,
    devices: Vec<FrozenDevice>,
    gateway: FrozenGateway,
    edge: Option<FrozenStage>,
    cloud: FrozenStage,
}

impl Ddnn {
    /// The model frozen for inference: weights packed and batch-norm
    /// statistics folded once, maps carried as packed bits.
    pub fn freeze(&self) -> FrozenDdnn {
        let parts = &self.parts;
        FrozenDdnn {
            config: parts.config.clone(),
            devices: parts.devices.iter().map(DevicePart::freeze).collect(),
            gateway: parts.gateway.freeze(),
            edge: parts.edge.as_ref().map(EdgePart::freeze),
            cloud: parts.cloud.freeze(),
        }
    }
}

impl FrozenDdnn {
    /// Runs all exits for a batch: `views[d]` is device `d`'s
    /// `(n, 3, 32, 32)` input batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the view count or any view shape is wrong.
    pub fn forward(&self, views: &[Tensor]) -> Result<ExitLogits> {
        let n = check_views(self.devices.len(), views)?;
        let [_, h, w] = self.config.view_dims();
        let work = self.devices.iter().map(|d| d.conv.macs(n, h, w)).sum();
        // The device sections are independent, so they fan out across the
        // worker pool; results come back in device order regardless of
        // thread count.
        let outputs = parallel::par_map_indexed(self.devices.len(), work, |d| {
            self.devices[d].forward(&views[d])
        });
        let (maps, scores): (Vec<SignMaps>, Vec<Tensor>) =
            outputs.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
        let local = self.gateway.forward(&scores)?;
        let (edge, cloud_inputs) = match &self.edge {
            Some(edge) => {
                let (map, logits) = edge.forward(&maps)?;
                (Some(logits), vec![map])
            }
            None => (None, maps),
        };
        let (_, cloud) = self.cloud.forward(&cloud_inputs)?;
        Ok(ExitLogits { local, edge, cloud })
    }

    /// Staged inference (paper §III-D): classify each sample at the
    /// earliest exit whose [`ExitPolicy`] claims it; the cloud's terminal
    /// policy always classifies what reaches it. The per-exit decisions are
    /// the exact [`ExitPolicy`] the distributed runtime's tier nodes run,
    /// so the in-process and simulated paths cannot drift apart.
    ///
    /// `edge_threshold` is ignored for models without an edge tier.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed views.
    pub fn infer(
        &self,
        views: &[Tensor],
        local_threshold: ExitThreshold,
        edge_threshold: Option<ExitThreshold>,
    ) -> Result<InferenceOutput> {
        let logits = self.forward(views)?;
        let local_eta = normalized_entropy_rows(&logits.local.softmax_rows()?)?;
        let local = ExitPolicy::Entropy(local_threshold).decide_rows(&logits.local)?;
        let edge = match &logits.edge {
            Some(e) => {
                Some(ExitPolicy::Entropy(edge_threshold.unwrap_or_default()).decide_rows(e)?)
            }
            None => None,
        };
        let cloud = ExitPolicy::Terminal.decide_rows(&logits.cloud)?;
        let mut predictions = Vec::with_capacity(cloud.len());
        let mut exits = Vec::with_capacity(cloud.len());
        for i in 0..cloud.len() {
            let (pred, exit) = if let Some(p) = local[i] {
                (p, ExitPoint::Local)
            } else if let Some(p) = edge.as_ref().and_then(|e| e[i]) {
                (p, ExitPoint::Edge)
            } else {
                (cloud[i].expect("terminal policy always classifies"), ExitPoint::Cloud)
            };
            predictions.push(pred);
            exits.push(exit);
        }
        Ok(InferenceOutput { predictions, exits, local_entropy: local_eta, logits })
    }

    /// Predictions when *all* samples exit at the given point (the paper's
    /// "Local/Edge/Cloud Accuracy" measures, §III-F).
    ///
    /// # Errors
    ///
    /// Returns an error on malformed views, or when asking for the edge
    /// exit of an edge-less model.
    pub fn predict_at(&self, views: &[Tensor], point: ExitPoint) -> Result<Vec<usize>> {
        let logits = self.forward(views)?;
        let t = match point {
            ExitPoint::Local => logits.local,
            ExitPoint::Cloud => logits.cloud,
            ExitPoint::Edge => logits.edge.ok_or(TensorError::Empty {
                op: "predict_at(Edge) on a model without an edge tier",
            })?,
        };
        t.softmax_rows()?.argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_word_reads_any_offset_lsb_first() {
        let elems: Vec<f32> = (0..150).map(|i| if (i * 7) % 5 < 2 { 1.0 } else { -1.0 }).collect();
        let bits = pack_signs(&Tensor::from_vec(elems.clone(), [150]).unwrap());
        for (start, w) in [(0, 16), (3, 8), (5, 64), (70, 33), (149, 1)] {
            let expect = (0..w).fold(0u64, |acc, x| acc | u64::from(elems[start + x] > 0.0) << x);
            assert_eq!(row_word(&bits, start, w), expect, "start {start} w {w}");
        }
    }

    #[test]
    fn sign_writer_matches_pack_signs() {
        let t = Tensor::from_fn([2, 13], |i| if i % 3 == 0 { 1.0 } else { -1.0 });
        let (a, b) = (t.row(0).unwrap(), t.row(1).unwrap());
        let mut w = SignWriter::with_bits(26);
        w.extend(&pack_signs(&a), 13);
        w.extend(&pack_signs(&b), 13);
        assert_eq!(w.finish(), pack_signs(&t));
    }

    #[test]
    fn sign_maps_reject_bad_geometry() {
        assert!(SignMaps::new([0, 4, 4], vec![]).is_err());
        assert!(SignMaps::new([1, 3, 3], vec![Arc::from([0u8; 1])]).is_err());
        let maps = SignMaps::new([1, 3, 3], vec![Arc::from([0u8; 2])]).unwrap();
        assert_eq!(maps.unpack().unwrap(), Tensor::full([1, 1, 3, 3], -1.0));
    }
}
