//! The traced pass: per-layer metrics and the span file.
//!
//! Three kinds of measurement, all from the benchmark's own code through
//! public functions:
//!
//! * a **replay** that walks each sample's path single-threaded — capture
//!   codec → device conv + exit → scores over a `link::link` hop →
//!   gateway aggregate + decision → offload → edge → cloud — and one epoch
//!   of training steps, with a span around every call into a layer;
//! * **probes**: kernels, codecs and link hops at the model's own shapes,
//!   min of five batches on the process CPU clock;
//! * **differences** between whole runtime runs of the same samples that
//!   differ in one setting (wire format, ARQ, transport, process
//!   boundary, event sink).
//!
//! End-to-end numbers never come from here.

use crate::procstat::{cpu_seconds_with_children, process_cpu_ns};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{
    self, deadline_expiries, deadlines, model_config, procs_config, stream_config, train_config,
    Checks, ExitMix, InferScene, Inputs, Plan, STREAM_RATE_SPS,
};
use crate::Metric;
use ddnn_core::{accuracy, Ddnn, DdnnPartition, ExitGrads, ExitPoint, ExitPolicy};
use ddnn_nn::{Adam, Layer, Mode, Optimizer, SoftmaxCrossEntropy};
use ddnn_runtime::link::{link, LinkReceiver, LinkSender};
use ddnn_runtime::message::{features_payload, features_tensor};
use ddnn_runtime::{
    crc32, multiproc, run_distributed_inference, Frame, HierarchyConfig, MemorySink, NodeId,
    ObsConfig, Payload, ReliabilityConfig, SimReport, TransportConfig,
};
use ddnn_tensor::bitmatrix::{binary_conv2d, binary_matmul};
use ddnn_tensor::conv::{conv2d, conv2d_backward, Conv2dSpec};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{bits, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The result of one traced run.
#[derive(Debug)]
pub struct TraceOutput {
    /// Samples replayed.
    pub attempted: u64,
    /// Replayed verdicts that differ from `Ddnn::infer`.
    pub failed: u64,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Oracle checks that did not hold.
    pub violations: Vec<String>,
    /// The recording, for the span file.
    pub recorder: Recorder,
}

/// Process-CPU nanoseconds per call: the fastest of five batches, after
/// one warm-up call. CPU time only advances while this process runs, and
/// a co-tenant can only slow a batch down, so the minimum converges on
/// the kernel's own cost.
fn cpu_ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per_batch = iters.div_ceil(5).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = process_cpu_ns();
        for _ in 0..per_batch {
            f();
        }
        best = best.min((process_cpu_ns() - start) / per_batch as f64);
    }
    best
}

/// Runs `f` with `DDNN_THREADS=1` and restores the variable afterwards.
/// The kernels re-read it on every call. Only called while no other
/// thread of this process is running.
fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::env::var("DDNN_THREADS").ok();
    std::env::set_var("DDNN_THREADS", "1");
    let out = f();
    match previous {
        Some(v) => std::env::set_var("DDNN_THREADS", v),
        None => std::env::remove_var("DDNN_THREADS"),
    }
    out
}

fn batch_of_one(t: &Tensor) -> Tensor {
    let mut dims = vec![1];
    dims.extend_from_slice(t.dims());
    t.reshape(dims).expect("prepend batch axis")
}

fn sign_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = rng_from_seed(seed);
    Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut rng)
        .map(|x| if x > 0.0 { 1.0 } else { -1.0 })
}

/// The model sections laid out as the runtime deploys them, plus the exit
/// policies, driven directly by the replay.
struct Replica {
    part: DdnnPartition,
    local: ExitPolicy,
    edge: ExitPolicy,
}

/// One replayed verdict.
struct Verdict {
    prediction: usize,
    exit: ExitPoint,
}

/// Both ends of one in-process link, held by the replaying thread.
type Wire = (LinkSender, LinkReceiver);

/// Sends `frame` over the link and receives it back on the same thread:
/// one hop's encode, queue and decode.
fn hop(rec: &mut Recorder, name: &'static str, sample: u64, wire: &Wire, frame: &Frame) -> Frame {
    rec.span(name, sample, |_| {
        wire.0.send(frame).expect("link send");
        wire.1.recv().expect("link recv")
    })
}

impl Replica {
    /// Replays sample `i` along the path the runtime would take it.
    fn replay_sample(
        &mut self,
        rec: &mut Recorder,
        inputs: &Inputs,
        i: usize,
        wire: &Wire,
    ) -> Verdict {
        let s = i as u64;
        let num_devices = self.part.devices.len();
        rec.span("replay.sample", s, |rec| {
            // Devices: capture in, scores out. In the runtime the six
            // device paths run on six threads; here one after another.
            let mut scores = Vec::with_capacity(num_devices);
            let mut maps = Vec::with_capacity(num_devices);
            for d in 0..num_devices {
                let (score, map) = rec.span("replay.device_path", s, |rec| {
                    let view = inputs.views[d].index_axis0(i).expect("sample view");
                    let capture = Frame::new(s, NodeId::Orchestrator, Payload::Capture { view });
                    let bytes = rec.span("message.encode_capture", s, |_| capture.encode());
                    let frame = rec
                        .span("message.decode_capture", s, |_| Frame::decode(bytes))
                        .expect("decode capture");
                    let Payload::Capture { view } = frame.payload else {
                        panic!("capture frame decoded to another payload");
                    };
                    let part = &mut self.part.devices[d];
                    let (score, map) = rec.span("core.device_section", s, |rec| {
                        let batch = batch_of_one(&view);
                        let map = rec
                            .span("core.device_conv", s, |_| part.conv.forward(&batch, Mode::Eval))
                            .expect("device conv");
                        let score = rec
                            .span("core.device_exit", s, |_| part.exit.forward(&map, Mode::Eval))
                            .expect("device exit");
                        (score, map.index_axis0(0).expect("device map"))
                    });
                    let up = Frame::new(
                        s,
                        NodeId::Device(d as u8),
                        Payload::Scores { scores: score.data().to_vec() },
                    );
                    let Payload::Scores { scores } =
                        hop(rec, "link.hop_scores", s, wire, &up).payload
                    else {
                        panic!("scores frame decoded to another payload");
                    };
                    (scores, map)
                });
                scores.push(score);
                maps.push(map);
            }

            // Gateway: aggregate the score vectors, decide.
            let local = rec.span("core.gateway_section", s, |rec| {
                let inputs: Vec<Tensor> = scores
                    .into_iter()
                    .map(|v| {
                        let c = v.len();
                        Tensor::from_vec(v, [1, c]).expect("score row")
                    })
                    .collect();
                let logits = self.part.gateway.agg.forward(&inputs, Mode::Eval).expect("local agg");
                rec.span("core.exit_decision", s, |_| self.local.evaluate(&logits))
                    .expect("local decision")
            });
            if local.exits {
                return self.verdict(rec, s, wire, local.prediction, ExitPoint::Local);
            }

            // Offload: request down, bit-packed feature map up, per device.
            let mut received = Vec::with_capacity(num_devices);
            for (d, map) in maps.iter().enumerate() {
                let map = rec.span("replay.offload_path", s, |rec| {
                    let request = Frame::new(s, NodeId::Gateway, Payload::OffloadRequest);
                    hop(rec, "link.hop_request", s, wire, &request);
                    let payload = rec
                        .span("message.features_pack", s, |_| features_payload(map))
                        .expect("pack features");
                    let up = Frame::new(s, NodeId::Device(d as u8), payload);
                    let arrived = hop(rec, "link.hop_features", s, wire, &up);
                    unpack(rec, s, arrived)
                });
                received.push(map);
            }

            // Edge: aggregate maps, ConvP, exit head, decide.
            let edge_part = self.part.edge.as_mut().expect("model has an edge tier");
            let (edge_decision, edge_map) = rec.span("core.edge_section", s, |rec| {
                let batched: Vec<Tensor> = received.iter().map(batch_of_one).collect();
                let x = edge_part.agg.forward(&batched).expect("edge agg");
                let x = edge_part.conv.forward(&x, Mode::Eval).expect("edge conv");
                let logits = edge_part.exit.forward(&x, Mode::Eval).expect("edge exit");
                let decision = rec
                    .span("core.exit_decision", s, |_| self.edge.evaluate(&logits))
                    .expect("edge decision");
                (decision, x)
            });
            if edge_decision.exits {
                return self.verdict(rec, s, wire, edge_decision.prediction, ExitPoint::Edge);
            }

            // Cloud: the edge forwards its own map.
            let forwarded = rec.span("replay.forward_path", s, |rec| {
                let map = edge_map.index_axis0(0).expect("edge map");
                let payload = rec
                    .span("message.features_pack", s, |_| features_payload(&map))
                    .expect("pack edge map");
                let up = Frame::new(s, NodeId::Edge, payload);
                let arrived = hop(rec, "link.hop_features", s, wire, &up);
                unpack(rec, s, arrived)
            });
            let cloud = &mut self.part.cloud;
            let decision = rec.span("core.cloud_section", s, |rec| {
                let mut x = cloud.agg.forward(&[batch_of_one(&forwarded)]).expect("cloud agg");
                for conv in &mut cloud.convs {
                    x = conv.forward(&x, Mode::Eval).expect("cloud conv");
                }
                let logits = cloud.exit.forward(&x, Mode::Eval).expect("cloud exit");
                rec.span("core.exit_decision", s, |_| ExitPolicy::Terminal.evaluate(&logits))
                    .expect("cloud decision")
            });
            self.verdict(rec, s, wire, decision.prediction, ExitPoint::Cloud)
        })
    }

    /// The verdict's hop back to the orchestrator.
    fn verdict(
        &self,
        rec: &mut Recorder,
        s: u64,
        wire: &Wire,
        prediction: usize,
        exit: ExitPoint,
    ) -> Verdict {
        let exit_tier = match exit {
            ExitPoint::Local => 0,
            ExitPoint::Edge => 1,
            ExitPoint::Cloud => 2,
        };
        let frame = Frame::new(
            s,
            NodeId::Gateway,
            Payload::Verdict { prediction: prediction as u16, exit_tier },
        );
        rec.span("replay.verdict_path", s, |rec| hop(rec, "link.hop_verdict", s, wire, &frame));
        Verdict { prediction, exit }
    }
}

fn unpack(rec: &mut Recorder, s: u64, frame: Frame) -> Tensor {
    let Payload::Features { channels, height, width, bits } = frame.payload else {
        panic!("features frame decoded to another payload");
    };
    rec.span("message.features_unpack", s, |_| features_tensor(channels, height, width, &bits))
        .expect("unpack features")
}

/// The blocking steps of each replayed sample, in ms: the slowest device
/// path, the gateway, the slowest offload path, the edge, the forward hop,
/// the cloud and the verdict hop — what a run with one thread per device
/// could not overlap.
fn critical_paths_ms(rec: &Recorder) -> Vec<f64> {
    let spans = rec.spans();
    let mut per_sample: BTreeMap<usize, BTreeMap<&'static str, (f64, f64)>> = BTreeMap::new();
    for span in spans {
        let Some(parent) = span.parent else { continue };
        if spans[parent].name != "replay.sample" {
            continue;
        }
        let entry = per_sample.entry(parent).or_default().entry(span.name).or_insert((0.0, 0.0));
        let ms = span.duration_ns() as f64 / 1e6;
        entry.0 += ms; // summed: sequential stages appear once
        entry.1 = entry.1.max(ms); // max: the six parallel paths
    }
    per_sample
        .values()
        .map(|stages| {
            stages
                .iter()
                .map(|(name, (sum, max))| match *name {
                    "replay.device_path" | "replay.offload_path" => *max,
                    _ => *sum,
                })
                .sum()
        })
        .collect()
}

/// One epoch of training steps through the public model API, with spans
/// around forward, backward and the optimizer. Returns the median step
/// duration in ms.
fn replay_training(rec: &mut Recorder, data: &Inputs, seed: u64) -> f64 {
    let cfg = train_config(seed);
    let mut model = Ddnn::new(model_config(seed));
    let mut opt = Adam::with_lr(cfg.lr);
    let loss_fn = SoftmaxCrossEntropy::new();
    let order: Vec<usize> = (0..data.len()).collect();
    let mut step_ms = Vec::new();
    for (step, chunk) in order.chunks(cfg.batch_size).enumerate() {
        let s = step as u64;
        let views: Vec<Tensor> =
            data.views.iter().map(|v| v.select_axis0(chunk).expect("batch views")).collect();
        let batch_labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
        let t = Instant::now();
        rec.span("replay.train_step", s, |rec| {
            model.zero_grad();
            let logits = rec
                .span("nn.train_forward", s, |_| model.forward(&views, Mode::Train))
                .expect("train forward");
            let local = loss_fn.forward(&logits.local, &batch_labels).expect("local loss");
            let cloud = loss_fn.forward(&logits.cloud, &batch_labels).expect("cloud loss");
            let edge =
                logits.edge.as_ref().map(|e| loss_fn.forward(e, &batch_labels).expect("edge loss"));
            let grads =
                ExitGrads { local: local.grad, edge: edge.map(|e| e.grad), cloud: cloud.grad };
            rec.span("nn.train_backward", s, |_| model.backward(&grads)).expect("train backward");
            rec.span("nn.adam_step", s, |_| opt.step(&mut model.params_mut()));
        });
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&step_ms)
}

/// Wall ms per sample of one closed-loop (lockstep) runtime run; the
/// faster of two runs, since interference only adds.
fn lockstep_ms_per_sample(
    part: &DdnnPartition,
    inputs: &Inputs,
    cfg: &HierarchyConfig,
) -> (f64, SimReport) {
    let mut best: Option<(f64, SimReport)> = None;
    for _ in 0..2 {
        let t = Instant::now();
        let report = run_distributed_inference(part, &inputs.views, &inputs.labels, cfg)
            .expect("lockstep layer run");
        let ms = t.elapsed().as_secs_f64() * 1e3 / inputs.len() as f64;
        if best.as_ref().is_none_or(|(b, _)| ms < *b) {
            best = Some((ms, report));
        }
    }
    best.expect("two runs")
}

/// Kernel probes at the model's own shapes.
fn kernel_probes(scene: &InferScene, train_batch: usize, m: &mut Vec<Metric>) {
    let spec = Conv2dSpec::paper_conv();
    let cfg = &scene.partition.config;
    let edge_filters = cfg.edge.expect("edge tier").filters;
    let [dc, dh, dw] = cfg.device_map_dims();
    let edge_in = cfg.num_devices * dc;
    let mut rng = rng_from_seed(17);
    let mut uniform = |dims: &[usize]| Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut rng);

    let view = scene.inputs.views[0].index_axis0(0).expect("a view");
    let view = batch_of_one(&view);
    let w_device = uniform(&[dc, 3, 3, 3]);
    m.push(Metric::new(
        "tensor.conv_device_us",
        cpu_ns_per_call(200, || {
            black_box(conv2d(black_box(&view), &w_device, &spec).expect("device conv"));
        }) / 1e3,
    ));

    let edge_input = sign_tensor(&[1, edge_in, dh, dw], 1);
    let w_edge = sign_tensor(&[edge_filters, edge_in, 3, 3], 2);
    m.push(Metric::new(
        "tensor.binary_conv_edge_us",
        cpu_ns_per_call(200, || {
            black_box(binary_conv2d(black_box(&edge_input), &w_edge, &spec).expect("edge conv"));
        }) / 1e3,
    ));

    // Both cloud ConvP convolutions: 16 → 16 at 8×8, then 16 → 32 at 4×4.
    let [c1, c2] = cfg.cloud_filters;
    let cloud_in1 = sign_tensor(&[1, edge_filters, dh / 2, dw / 2], 3);
    let w_c1 = sign_tensor(&[c1, edge_filters, 3, 3], 4);
    let cloud_in2 = sign_tensor(&[1, c1, dh / 4, dw / 4], 5);
    let w_c2 = sign_tensor(&[c2, c1, 3, 3], 6);
    m.push(Metric::new(
        "tensor.binary_conv_cloud_us",
        cpu_ns_per_call(200, || {
            black_box(binary_conv2d(black_box(&cloud_in1), &w_c1, &spec).expect("cloud conv 1"));
            black_box(binary_conv2d(black_box(&cloud_in2), &w_c2, &spec).expect("cloud conv 2"));
        }) / 1e3,
    ));

    // The edge exit head's product: one flattened 16×8×8 map by 3 classes.
    let exit_in = sign_tensor(&[1, edge_filters * (dh / 2) * (dw / 2)], 7);
    let w_exit = sign_tensor(&[cfg.num_classes, edge_filters * (dh / 2) * (dw / 2)], 8);
    m.push(Metric::new(
        "tensor.xnor_gemm_exit_us",
        cpu_ns_per_call(500, || {
            black_box(binary_matmul(black_box(&exit_in), &w_exit).expect("exit gemm"));
        }) / 1e3,
    ));

    let device_map = sign_tensor(&[dc, dh, dw], 9);
    m.push(Metric::new(
        "tensor.bit_pack_us",
        cpu_ns_per_call(2000, || {
            black_box(bits::pack_signs(black_box(&device_map)));
        }) / 1e3,
    ));

    // Training shapes, a mini-batch at a time: the edge conv lowered to
    // one f32 GEMM, and its backward pass.
    let rows = train_batch * dh * dw;
    let lhs = uniform(&[rows, edge_in * 9]);
    let rhs = uniform(&[edge_in * 9, edge_filters]);
    m.push(Metric::new(
        "tensor.f32_gemm_train_us",
        cpu_ns_per_call(10, || {
            black_box(black_box(&lhs).matmul(&rhs).expect("train gemm"));
        }) / 1e3,
    ));
    let train_in = uniform(&[train_batch, edge_in, dh, dw]);
    let w_train = uniform(&[edge_filters, edge_in, 3, 3]);
    let grad_out = uniform(&[train_batch, edge_filters, dh, dw]);
    m.push(Metric::new(
        "tensor.conv2d_backward_us",
        cpu_ns_per_call(5, || {
            black_box(
                conv2d_backward(black_box(&train_in), &w_train, &grad_out, &spec)
                    .expect("conv backward"),
            );
        }) / 1e3,
    ));
}

/// Codec and link probes on the frames the model actually exchanges.
fn message_probes(scene: &InferScene, m: &mut Vec<Metric>) {
    let view = scene.inputs.views[0].index_axis0(0).expect("a view");
    let capture = Frame::new(1, NodeId::Orchestrator, Payload::Capture { view });
    let scores =
        Frame::new(1, NodeId::Device(0), Payload::Scores { scores: vec![0.25, -1.5, 3.0] });
    let [dc, dh, dw] = scene.partition.config.device_map_dims();
    let map = sign_tensor(&[dc, dh, dw], 10);
    let features = Frame::new(1, NodeId::Device(0), features_payload(&map).expect("pack"));
    let mut ns = |name: &'static str, iters: usize, f: &mut dyn FnMut()| {
        m.push(Metric::new(name, cpu_ns_per_call(iters, f)));
    };
    ns("message.encode_capture_ns", 2000, &mut || {
        black_box(black_box(&capture).encode());
    });
    let capture_bytes = capture.encode();
    ns("message.decode_capture_ns", 2000, &mut || {
        black_box(Frame::decode(black_box(capture_bytes.clone())).expect("decode"));
    });
    ns("message.encode_scores_ns", 20_000, &mut || {
        black_box(black_box(&scores).encode());
    });
    let scores_bytes = scores.encode();
    ns("message.decode_scores_ns", 20_000, &mut || {
        black_box(Frame::decode(black_box(scores_bytes.clone())).expect("decode"));
    });
    ns("message.encode_features_ns", 20_000, &mut || {
        black_box(black_box(&features).encode());
    });
    let features_bytes = features.encode();
    ns("message.decode_features_ns", 20_000, &mut || {
        black_box(Frame::decode(black_box(features_bytes.clone())).expect("decode"));
    });
    ns("message.features_pack_ns", 5000, &mut || {
        black_box(features_payload(black_box(&map)).expect("pack"));
    });
    let packed = bits::pack_signs(&map);
    ns("message.features_unpack_ns", 5000, &mut || {
        black_box(
            features_tensor(dc as u16, dh as u16, dw as u16, black_box(&packed)).expect("unpack"),
        );
    });
    // What the checked (CRC) wire adds to one capture frame's round trip:
    // captures are the bulk of the bytes that cross sockets.
    let plain = cpu_ns_per_call(2000, || {
        black_box(Frame::decode(black_box(&capture).encode()).expect("plain round trip"));
    });
    let checked = cpu_ns_per_call(2000, || {
        black_box(
            Frame::decode_checked(black_box(&capture).encode_checked(0, 7))
                .expect("checked round trip"),
        );
    });
    m.push(Metric::new("message.checked_overhead_ns", checked - plain));
    let block = vec![0xA5u8; 64 * 1024];
    m.push(Metric::new(
        "message.crc32_ns_per_kb",
        cpu_ns_per_call(200, || {
            black_box(crc32(black_box(&block)));
        }) / 64.0,
    ));

    let (tx, rx, _) = link("probe");
    m.push(Metric::new(
        "link.channel_hop_us",
        cpu_ns_per_call(20_000, || {
            tx.send(black_box(&scores)).expect("send");
            black_box(rx.recv().expect("recv"));
        }) / 1e3,
    ));
    m.push(Metric::new("link.thread_handoff_us", thread_handoff_us(&scores, 2000)));
}

/// Two threads bounce a scores frame over two links; half a round trip is
/// one hand-off from a sender to a receiver blocked on another thread.
fn thread_handoff_us(frame: &Frame, round_trips: usize) -> f64 {
    let (ping_tx, ping_rx, _) = link("ping");
    let (pong_tx, pong_rx, _) = link("pong");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..round_trips {
                let frame = ping_rx.recv().expect("ping recv");
                pong_tx.send(&frame).expect("pong send");
            }
        });
        let t = Instant::now();
        for _ in 0..round_trips {
            ping_tx.send(frame).expect("ping send");
            black_box(pong_rx.recv().expect("pong recv"));
        }
        t.elapsed().as_secs_f64() * 1e6 / (2 * round_trips) as f64
    })
}

/// What the inference replay found, beyond its spans.
struct Replayed {
    mismatches: usize,
    critical_ms: f64,
    ms_per_sample: f64,
}

/// Replays `inputs` sample by sample, checks the verdicts against the
/// scene's oracle and reports the exit census.
fn replay_inference(
    rec: &mut Recorder,
    scene: &InferScene,
    inputs: &Inputs,
    checks: &mut Checks,
    m: &mut Vec<Metric>,
) -> Replayed {
    let n = inputs.len();
    let mut replica = Replica {
        part: scene.partition.clone(),
        local: ExitPolicy::Entropy(scene.local_t),
        edge: ExitPolicy::Entropy(scene.edge_t),
    };
    let (tx, rx, _) = link("replay");
    let wire = (tx, rx);
    let t = Instant::now();
    let verdicts: Vec<Verdict> =
        (0..n).map(|i| replica.replay_sample(rec, inputs, i, &wire)).collect();
    let ms_per_sample = t.elapsed().as_secs_f64() * 1e3 / n as f64;
    let mismatches = (0..n)
        .filter(|&i| {
            verdicts[i].prediction != scene.oracle_predictions[i]
                || verdicts[i].exit != scene.oracle_exits[i]
        })
        .count();
    checks.require(mismatches == 0, || {
        format!("{mismatches} of {n} replayed verdicts differ from Ddnn::infer")
    });
    let exits = |p: ExitPoint| verdicts.iter().filter(|v| v.exit == p).count() as f64;
    let predictions: Vec<usize> = verdicts.iter().map(|v| v.prediction).collect();
    m.push(Metric::new("core.exits_local", exits(ExitPoint::Local)));
    m.push(Metric::new("core.exits_edge", exits(ExitPoint::Edge)));
    m.push(Metric::new("core.exits_cloud", exits(ExitPoint::Cloud)));
    m.push(Metric::new("core.accuracy", f64::from(accuracy(&predictions, &inputs.labels))));
    for (metric, span) in [
        ("core.device_section_us", "core.device_section"),
        ("core.gateway_section_us", "core.gateway_section"),
        ("core.edge_section_us", "core.edge_section"),
        ("core.cloud_section_us", "core.cloud_section"),
        ("core.exit_decision_us", "core.exit_decision"),
    ] {
        m.push(Metric::new(metric, rec.median_us(span)));
    }
    Replayed { mismatches, critical_ms: median(&critical_paths_ms(rec)), ms_per_sample }
}

/// Model sections timed directly: what threads cost a small work item,
/// the micro-batched edge drain, the no-runtime floor, one render.
fn section_probes(scene: &InferScene, inputs: &Inputs, seed: u64, m: &mut Vec<Metric>) {
    let n = inputs.len();
    let mut devices = scene.partition.devices.clone();
    let view0 = batch_of_one(&inputs.views[0].index_axis0(0).expect("a view"));
    let mut device_section = || {
        let map = devices[0].conv.forward(&view0, Mode::Eval).expect("device conv");
        black_box(devices[0].exit.forward(&map, Mode::Eval).expect("device exit"));
    };
    let section_default = cpu_ns_per_call(300, &mut device_section);
    let section_single = single_threaded(|| cpu_ns_per_call(300, &mut device_section));
    m.push(Metric::new("tensor.parallel.small_dispatch_ratio", section_default / section_single));

    // The micro-batched drain: eight samples' maps stacked per source and
    // pushed through the edge section as one tensor pass.
    let first_eight: Vec<usize> = (0..8.min(n)).collect();
    let batch8: Vec<Tensor> = devices
        .iter_mut()
        .zip(&inputs.views)
        .map(|(device, views)| {
            let views = views.select_axis0(&first_eight).expect("eight views");
            device.conv.forward(&views, Mode::Eval).expect("device conv")
        })
        .collect();
    let mut edge = scene.partition.edge.clone().expect("edge tier");
    m.push(Metric::new(
        "core.edge_section_batch8_us_per_sample",
        cpu_ns_per_call(100, || {
            let x = edge.agg.forward(&batch8).expect("edge agg");
            let x = edge.conv.forward(&x, Mode::Eval).expect("edge conv");
            black_box(edge.exit.forward(&x, Mode::Eval).expect("edge exit"));
        }) / 1e3
            / first_eight.len() as f64,
    ));

    let mut model = scene.model.clone();
    let infer_us = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(
                model.infer(&inputs.views, scene.local_t, Some(scene.edge_t)).expect("in-process"),
            );
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .fold(f64::INFINITY, f64::min);
    m.push(Metric::new("core.infer_inprocess_us_per_sample", infer_us));

    let t = Instant::now();
    black_box(workloads::render_sets(seed ^ 0x5eed, 0, n));
    m.push(Metric::new("data.render_ms_per_sample", t.elapsed().as_secs_f64() * 1e3 / n as f64));
}

/// Whole runtime runs of the same samples that differ in one setting, and
/// what their differences attribute to wire format, ARQ, transport, event
/// sink, pump and process boundary.
fn runtime_differences(
    scene: &InferScene,
    inputs: &Inputs,
    critical_ms: f64,
    checks: &mut Checks,
    m: &mut Vec<Metric>,
) {
    let n = inputs.len();
    let part = &scene.partition;
    let base_cfg = HierarchyConfig {
        local_threshold: scene.local_t,
        edge_threshold: scene.edge_t,
        deadlines: Some(deadlines()),
        ..HierarchyConfig::default()
    };
    let with =
        |transport, reliability| HierarchyConfig { transport, reliability, ..base_cfg.clone() };
    let mut expiries = 0u64;
    let mut lockstep = |cfg: &HierarchyConfig, checks: &mut Checks| {
        let (ms, report) = lockstep_ms_per_sample(part, inputs, cfg);
        expiries += deadline_expiries(&report);
        let same = report.predictions == scene.oracle_predictions[..n]
            && report.exits == scene.oracle_exits[..n];
        checks.require(same, || {
            format!(
                "{} + {:?}: verdicts differ from Ddnn::infer",
                cfg.transport.name(),
                cfg.reliability.mode
            )
        });
        (ms, report)
    };
    let cpu0 = process_cpu_ns();
    let (channel_ms, channel) = lockstep(&base_cfg, checks);
    // Both of the two runs count: CPU per sample of the in-process runtime.
    m.push(Metric::new(
        "runner.cpu_ms_per_sample",
        (process_cpu_ns() - cpu0) / 1e6 / (2 * n) as f64,
    ));
    let (crc_ms, _) = lockstep(&with(TransportConfig::Channel, ReliabilityConfig::crc()), checks);
    let (arq_ms, _) = lockstep(&with(TransportConfig::Channel, ReliabilityConfig::arq()), checks);
    let (tcp_ms, tcp) = lockstep(&with(TransportConfig::Tcp, ReliabilityConfig::arq()), checks);
    let (udp_ms, _) = lockstep(&with(TransportConfig::Udp, ReliabilityConfig::arq()), checks);
    let sink = Arc::new(MemorySink::default());
    let (sink_ms, _) = lockstep(
        &HierarchyConfig { obs: ObsConfig { sink: Some(sink) }, ..base_cfg.clone() },
        checks,
    );
    m.push(Metric::new("transport.channel_ms_per_sample", channel_ms));
    m.push(Metric::new("transport.tcp_ms_per_sample", tcp_ms - arq_ms));
    m.push(Metric::new("transport.udp_arq_ms_per_sample", udp_ms - arq_ms));
    m.push(Metric::new("reliability.crc_ms_per_sample", crc_ms - channel_ms));
    m.push(Metric::new("reliability.arq_ms_per_sample", arq_ms - crc_ms));
    m.push(Metric::new(
        "obs.memory_sink_overhead_pct",
        (sink_ms - channel_ms) / channel_ms * 100.0,
    ));
    let per_sample = |pick: fn(&ddnn_runtime::LinkStats) -> usize| {
        tcp.links.iter().map(|(_, s)| pick(s)).sum::<usize>() as f64 / n as f64
    };
    m.push(Metric::new("transport.frames_per_sample", per_sample(|s| s.frames)));
    m.push(Metric::new("transport.wire_bytes_per_sample", per_sample(|s| s.total_bytes())));
    m.push(Metric::new("reliability.ack_bytes_per_sample", per_sample(|s| s.ack_bytes)));
    m.push(Metric::new(
        "reliability.retransmits_per_ksample",
        per_sample(|s| s.frames_retransmitted) * 1e3,
    ));
    m.push(Metric::new(
        "node.offloads_per_sample",
        channel
            .counters
            .iter()
            .filter(|(c, _)| c.starts_with("node.device") && c.ends_with(".offloads"))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
            / n as f64,
    ));
    m.push(Metric::new("runner.critical_path_ms", critical_ms));
    m.push(Metric::new("runner.residual_ms", channel_ms - critical_ms));

    let one = inputs.slice(0..1);
    let spinup_ms = (0..3)
        .map(|_| {
            let t = Instant::now();
            run_distributed_inference(part, &one.views, &one.labels, &base_cfg).expect("spin-up");
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    m.push(Metric::new("runner.spinup_ms", spinup_ms));

    // Open loop at the stream_paper rate and at 700/s, on the whole scene.
    let stream = |rate_per_s: f64| {
        let cfg = stream_config(scene, rate_per_s, scene.inputs.len());
        let t = Instant::now();
        let report =
            run_distributed_inference(part, &scene.inputs.views, &scene.inputs.labels, &cfg)
                .expect("stream layer run");
        (t.elapsed().as_secs_f64(), report)
    };
    let (stream_wall_s, at_rate) = stream(STREAM_RATE_SPS);
    let (_, at_700) = stream(700.0);
    expiries += deadline_expiries(&at_rate) + deadline_expiries(&at_700);
    let stream_p50 = percentile(&at_rate.latencies_ms, 0.50);
    m.push(Metric::new("runner.stream_p50_ms", stream_p50));
    m.push(Metric::new("runner.stream_dispatch_floor_ms", stream_p50 - channel_ms));
    m.push(Metric::new("runner.stream_p50_at_700_ms", percentile(&at_700.latencies_ms, 0.50)));
    m.push(Metric::new("runner.stream_p95_ms", percentile(&at_rate.latencies_ms, 0.95)));
    m.push(Metric::new("runner.stream_p99_ms", percentile(&at_rate.latencies_ms, 0.99)));
    m.push(Metric::new("runner.stream_max_ms", percentile(&at_rate.latencies_ms, 1.0)));
    m.push(Metric::new(
        "runner.stream_overrun_s",
        stream_wall_s - scene.inputs.len() as f64 / STREAM_RATE_SPS,
    ));

    // Process boundary: role processes rebuild the model from its seeded
    // configuration, so both sides of this difference run that model (no
    // batch-norm pass, thresholds 0) over TCP + ARQ, in one process and in
    // four.
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let seeded = Ddnn::new(part.config.clone()).partition();
    let proc_cfg = procs_config(TransportConfig::Tcp, ReliabilityConfig::arq());
    let (in_process_ms, in_process) = lockstep_ms_per_sample(&seeded, inputs, &proc_cfg);
    let launch_ms = |set: &Inputs| {
        let t = Instant::now();
        let report = multiproc::launch(&exe, &part.config, &set.views, &set.labels, &proc_cfg)
            .expect("layer launch");
        (t.elapsed().as_secs_f64() * 1e3, report)
    };
    let one_sample_ms = launch_ms(&one).0.min(launch_ms(&one).0);
    let cpu0 = cpu_seconds_with_children();
    let (procs_ms, procs) = launch_ms(inputs);
    // Launcher plus the four reaped role processes.
    m.push(Metric::new(
        "multiproc.cpu_ms_per_sample",
        (cpu_seconds_with_children() - cpu0) * 1e3 / n as f64,
    ));
    expiries += deadline_expiries(&in_process) + deadline_expiries(&procs);
    checks.require(
        procs.predictions == in_process.predictions && procs.exits == in_process.exits,
        || "4-process verdicts differ from the in-process run of the same seeded model".to_string(),
    );
    m.push(Metric::new("multiproc.launch_ms", one_sample_ms));
    m.push(Metric::new(
        "multiproc.process_boundary_ms_per_sample",
        (procs_ms - one_sample_ms) / n as f64 - in_process_ms,
    ));
    m.push(Metric::new("node.deadline_expiries", expiries as f64));
    checks.require(expiries == 0, || format!("{expiries} deadline expiries in the layer runs"));
}

/// Runs the traced pass of `workload`.
pub fn run(workload: &str, plan: &Plan) -> Option<TraceOutput> {
    let mix = match workload {
        "stream_paper" | "train_paper" => ExitMix::Paper,
        "burst_escalate" | "procs_tcp_arq" => ExitMix::AllCloud,
        _ => return None,
    };
    let started = Instant::now();
    let sizes = plan.sizes();
    let mut checks = Checks::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut rec = Recorder::default();

    let scene = InferScene::build(plan.seed, sizes.scene, mix);
    let inputs = scene.inputs.slice(0..sizes.layer.min(scene.inputs.len()));
    let n = inputs.len();

    // Replay: inference, then one epoch of training steps (and the same
    // epoch again on one thread, unrecorded, for the speed-up).
    let replayed = replay_inference(&mut rec, &scene, &inputs, &mut checks, &mut m);
    let (train_set, _) = workloads::render_sets(plan.seed, sizes.train, sizes.test);
    let step_ms = replay_training(&mut rec, &train_set, plan.seed);
    let step_ms_single =
        single_threaded(|| replay_training(&mut Recorder::default(), &train_set, plan.seed));
    let train_steps = rec.spans().iter().filter(|s| s.name == "replay.train_step").count();
    m.push(Metric::new("tensor.parallel.train_speedup", step_ms_single / step_ms));
    m.push(Metric::new("nn.train_forward_ms", rec.median_us("nn.train_forward") / 1e3));
    m.push(Metric::new("nn.train_backward_ms", rec.median_us("nn.train_backward") / 1e3));
    m.push(Metric::new("nn.adam_step_ms", rec.median_us("nn.adam_step") / 1e3));

    kernel_probes(&scene, train_config(plan.seed).batch_size, &mut m);
    section_probes(&scene, &inputs, plan.seed, &mut m);
    message_probes(&scene, &mut m);
    runtime_differences(&scene, &inputs, replayed.critical_ms, &mut checks, &mut m);

    // What the spans themselves say: summed self time per layer.
    let stats = rec.stats();
    let self_ms = |prefix: &str| {
        stats
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.total_self_ns)
            .sum::<f64>()
            / 1e6
    };
    m.push(Metric::new("trace.spans", rec.spans().len() as f64));
    m.push(Metric::new("trace.self.message_ms", self_ms("message.")));
    m.push(Metric::new("trace.self.link_ms", self_ms("link.")));
    m.push(Metric::new("trace.self.core_ms", self_ms("core.")));
    m.push(Metric::new("trace.self.nn_ms", self_ms("nn.")));
    m.push(Metric::new("trace.self.replay_ms", self_ms("replay.")));
    m.push(Metric::new("trace.replay_ms_per_sample", replayed.ms_per_sample));
    m.push(Metric::new("trace.replayed_samples", n as f64));
    m.push(Metric::new("trace.train_steps", train_steps as f64));
    m.push(Metric::new("trace.wall_s", started.elapsed().as_secs_f64()));

    Some(TraceOutput {
        attempted: n as u64,
        failed: replayed.mismatches as u64,
        metrics: m,
        violations: checks.into_violations(),
        recorder: rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn critical_path_takes_the_slowest_parallel_path_and_sums_the_rest() {
        let ms = |x: u64| x * 1_000_000;
        let span = |name, start, end, parent| Span {
            name,
            start_ns: ms(start),
            end_ns: ms(end),
            parent,
            sample: 0,
        };
        let rec = Recorder::from_spans(vec![
            span("replay.sample", 0, 100, None),
            span("replay.device_path", 0, 10, Some(0)),
            span("core.device_section", 1, 9, Some(1)), // grandchild: not counted twice
            span("replay.device_path", 10, 30, Some(0)),
            span("core.gateway_section", 30, 33, Some(0)),
            span("replay.offload_path", 33, 38, Some(0)),
            span("replay.offload_path", 38, 40, Some(0)),
            span("core.edge_section", 40, 47, Some(0)),
            span("replay.verdict_path", 47, 48, Some(0)),
            span("replay.train_step", 100, 200, None),
        ]);
        // max(10, 20) + 3 + max(5, 2) + 7 + 1
        assert_eq!(critical_paths_ms(&rec), vec![36.0]);
    }

    #[test]
    fn fastest_batch_is_reported() {
        let mut calls = 0;
        let ns = cpu_ns_per_call(10, || calls += 1);
        assert_eq!(calls, 1 + 5 * 2);
        assert!(ns >= 0.0 && ns.is_finite());
    }
}
