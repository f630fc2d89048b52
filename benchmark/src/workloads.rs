//! The four measured workloads, their set-up and their oracles.
//!
//! Everything here drives the program from outside through public
//! functions only. A run is: set up (rendered inputs, model, oracle
//! verdicts) a few times and keep the median set-up time; then repeat the
//! workload's *round* until the measurement budget is spent; then turn
//! the per-round readings into metrics, every round-built timing as the
//! median over rounds.

use crate::procstat;
use crate::stats::{median, percentile};
use crate::Metric;
use ddnn_core::{
    normalized_entropy_rows, train, AggregationScheme, CommCostModel, Ddnn, DdnnConfig,
    DdnnPartition, EdgeConfig, EpochStats, ExitPoint, ExitThreshold, TrainConfig,
};
use ddnn_data::{all_device_batches, labels, MvmcConfig, MvmcDataset};
use ddnn_runtime::{
    multiproc, run_distributed_inference, ArrivalProcess, DeadlineConfig, HierarchyConfig,
    ReliabilityConfig, SampleOutcome, SimReport, StreamConfig, TransportConfig,
};
use ddnn_tensor::Tensor;
use std::time::Instant;

/// Offered load of `stream_paper`, samples per second: a camera frame
/// rate, about a quarter of what the pipeline sustains on two cores, so
/// latency is that of an unsaturated system.
pub const STREAM_RATE_SPS: f64 = 300.0;

/// Share of `stream_paper` samples that exit at the gateway / at the edge;
/// the rest reach the cloud. The thresholds are calibrated per seed to hit
/// these shares exactly, so the work mix does not depend on the seed.
pub const LOCAL_EXIT_SHARE: f64 = 0.65;
/// See [`LOCAL_EXIT_SHARE`].
pub const EDGE_EXIT_SHARE: f64 = 0.20;

/// Tier micro-batch budget of the open-loop workloads.
const BATCH_MAX: usize = 8;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Drives the dataset, the model initialisation and the shuffling.
    pub seed: u64,
    /// Measurement budget: rounds start while less than this has elapsed.
    pub seconds: f64,
    /// Seconds-long variant on tiny inputs: same code paths, numbers that
    /// are never comparable.
    pub smoke: bool,
}

/// Input sizes and repetition counts, full-size or smoke.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Test samples rendered for the two open-loop workloads; one
    /// `stream_paper` round streams all of them.
    pub scene: usize,
    /// Samples of one `burst_escalate` burst.
    pub burst: usize,
    /// Samples of one `procs_tcp_arq` launch.
    pub procs: usize,
    /// Samples of the warm-up launch in `procs_tcp_arq` set-up.
    pub procs_warmup: usize,
    /// Train / test split of `train_paper`.
    pub train: usize,
    /// See `train`.
    pub test: usize,
    /// How often set-up is repeated; its median is `setup_s`.
    pub setup_repeats: usize,
    /// Rounds measured even when the first ones overrun the budget.
    pub min_rounds: usize,
    /// Samples the traced pass replays, runs in lockstep and launches as
    /// four processes — the same ones, so per-sample numbers subtract.
    pub layer: usize,
}

impl Plan {
    /// The sizes this plan runs at.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                scene: 48,
                burst: 24,
                procs: 24,
                procs_warmup: 8,
                train: 100,
                test: 30,
                setup_repeats: 1,
                min_rounds: 1,
                layer: 24,
            }
        } else {
            Sizes {
                scene: 684,
                burst: 342,
                procs: 513,
                procs_warmup: 32,
                train: 680,
                test: 171,
                setup_repeats: 3,
                min_rounds: 3,
                layer: 256,
            }
        }
    }
}

/// The result of one untraced run.
#[derive(Debug)]
pub struct RunOutput {
    /// Units of work attempted in the measured phase (inference samples,
    /// or trained samples for `train_paper`).
    pub attempted: u64,
    /// Units that did not end as a clean result: shed, timed out,
    /// degraded by a deadline substitution, or errored.
    pub failed: u64,
    /// Every end-to-end metric.
    pub metrics: Vec<Metric>,
    /// Oracle checks that did not hold; empty on a correct run.
    pub violations: Vec<String>,
    /// Wall seconds of every measured round, in order.
    pub round_walls_s: Vec<f64>,
    /// Each open-loop round's median latency, ms (empty for closed loop).
    pub round_p50_ms: Vec<f64>,
    /// Units per round.
    pub units_per_round: usize,
}

/// Oracle bookkeeping: every failed check is kept with its reason.
#[derive(Debug, Default)]
pub struct Checks {
    violations: Vec<String>,
}

impl Checks {
    /// Records `what()` as a violation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 32 {
            self.violations.push(what());
        }
    }

    /// The violations recorded so far.
    pub fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

/// The paper's evaluated model with a 16-filter concatenating edge tier,
/// initialised from the run's seed.
pub fn model_config(seed: u64) -> DdnnConfig {
    DdnnConfig {
        edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
        seed,
        ..DdnnConfig::paper()
    }
}

/// Deadlines far above any stall a shared two-core box produces: a stall
/// must show up as latency, never as a blank substitution that changes
/// verdicts and bytes.
pub fn deadlines() -> DeadlineConfig {
    DeadlineConfig { aggregation_ms: 2000, watchdog_ms: 20_000, max_retries: 1, suspect_after: 2 }
}

/// Renders `train` + `test` samples and stacks the per-device views.
pub fn render_sets(seed: u64, train_n: usize, test_n: usize) -> (Inputs, Inputs) {
    let ds = MvmcDataset::generate(MvmcConfig {
        train_samples: train_n,
        test_samples: test_n,
        seed,
        ..MvmcConfig::paper()
    });
    let stack = |samples: &[ddnn_data::MvmcSample]| Inputs {
        views: if samples.is_empty() {
            Vec::new()
        } else {
            all_device_batches(samples, ds.num_devices()).expect("stack device views")
        },
        labels: labels(samples),
    };
    (stack(&ds.train), stack(&ds.test))
}

/// Per-device view batches and the shared labels of a sample set.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One `(n, 3, 32, 32)` tensor per device.
    pub views: Vec<Tensor>,
    /// Ground-truth classes.
    pub labels: Vec<usize>,
}

impl Inputs {
    /// Samples in the set.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Samples `range` of every device view.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Inputs {
        let idx: Vec<usize> = range.clone().collect();
        Inputs {
            views: self.views.iter().map(|v| v.select_axis0(&idx).expect("slice views")).collect(),
            labels: self.labels[range].to_vec(),
        }
    }
}

/// Which exits the thresholds of an inference scene are calibrated for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitMix {
    /// [`LOCAL_EXIT_SHARE`] at the gateway, [`EDGE_EXIT_SHARE`] at the
    /// edge, the rest at the cloud.
    Paper,
    /// Thresholds 0: every sample travels device → gateway → edge → cloud.
    AllCloud,
}

/// What a checked inference needs: inputs, the deployed model split along
/// its deployment boundaries, thresholds, and the verdicts `Ddnn::infer`
/// gives at those thresholds.
#[derive(Debug)]
pub struct InferScene {
    /// The rendered test samples.
    pub inputs: Inputs,
    /// The model, for in-process evaluation.
    pub model: Ddnn,
    /// The model split for the distributed runtime.
    pub partition: DdnnPartition,
    /// Gateway exit threshold.
    pub local_t: ExitThreshold,
    /// Edge exit threshold.
    pub edge_t: ExitThreshold,
    /// `Ddnn::infer` predictions at the thresholds.
    pub oracle_predictions: Vec<usize>,
    /// `Ddnn::infer` exit points at the thresholds.
    pub oracle_exits: Vec<ExitPoint>,
}

/// The threshold that lets exactly `take` of `etas` exit (`η ≤ T`): the
/// midpoint between the `take`-th and the next entropy, so no sample sits
/// on the boundary where a last-bit difference could flip it.
fn threshold_for(etas: &[f32], take: usize) -> ExitThreshold {
    let mut sorted = etas.to_vec();
    sorted.sort_by(f32::total_cmp);
    let t = match (take, sorted.len()) {
        (0, _) | (_, 0) => 0.0,
        (k, n) if k >= n => 1.0,
        (k, _) => (sorted[k - 1] + sorted[k]) / 2.0,
    };
    ExitThreshold::new(t)
}

/// What `Ddnn::infer` says about a sample set: verdicts and the exit
/// entropies the thresholds are compared with.
struct InProcess {
    predictions: Vec<usize>,
    exits: Vec<ExitPoint>,
    local_eta: Vec<f32>,
    edge_eta: Vec<f32>,
}

/// Samples per `Ddnn::infer` call of the in-process oracle. Evaluation is
/// row-independent, so chunking changes no verdict; it keeps the oracle's
/// im2col buffers small enough that `peak_rss_mb` is about the runtime and
/// not about one very large batch.
const ORACLE_CHUNK: usize = 57;

fn infer_in_process(
    model: &mut Ddnn,
    inputs: &Inputs,
    local_t: ExitThreshold,
    edge_t: ExitThreshold,
) -> InProcess {
    let mut all =
        InProcess { predictions: vec![], exits: vec![], local_eta: vec![], edge_eta: vec![] };
    let n = inputs.len();
    for start in (0..n).step_by(ORACLE_CHUNK) {
        let chunk = inputs.slice(start..(start + ORACLE_CHUNK).min(n));
        let out = model.infer(&chunk.views, local_t, Some(edge_t)).expect("in-process inference");
        let edge_logits = out.logits.edge.as_ref().expect("model has an edge exit");
        let edge_eta = normalized_entropy_rows(&edge_logits.softmax_rows().expect("edge softmax"))
            .expect("edge entropies");
        all.predictions.extend(out.predictions);
        all.exits.extend(out.exits);
        all.local_eta.extend(out.local_entropy);
        all.edge_eta.extend(edge_eta);
    }
    all
}

impl InferScene {
    /// Renders `n` test samples, builds the seeded model and computes the
    /// in-process oracle verdicts at thresholds calibrated for `mix`.
    pub fn build(seed: u64, n: usize, mix: ExitMix) -> InferScene {
        let (_, inputs) = render_sets(seed, 0, n);
        let mut model = Ddnn::new(model_config(seed));
        // A freshly initialised model has identity batch-norm statistics:
        // its exit scores are sums of hundreds of ±1 products, the softmax
        // saturates and most entropies collapse onto a few values (some
        // exactly 0). One forward-only pass gives the statistics of a
        // deployed model, hence distinct entropies to calibrate on.
        model
            .refresh_batch_norm_stats(&inputs.views, ORACLE_CHUNK, 1)
            .expect("estimate batch-norm statistics");
        let (local_t, edge_t) = match mix {
            ExitMix::AllCloud => (ExitThreshold::new(0.0), ExitThreshold::new(0.0)),
            ExitMix::Paper => calibrate(&mut model, &inputs),
        };
        let oracle = infer_in_process(&mut model, &inputs, local_t, edge_t);
        let partition = model.partition();
        InferScene {
            inputs,
            model,
            partition,
            local_t,
            edge_t,
            oracle_predictions: oracle.predictions,
            oracle_exits: oracle.exits,
        }
    }
}

/// Thresholds at which [`LOCAL_EXIT_SHARE`] of `inputs` exits at the
/// gateway and [`EDGE_EXIT_SHARE`] at the edge, read off the model's own
/// exit entropies.
fn calibrate(model: &mut Ddnn, inputs: &Inputs) -> (ExitThreshold, ExitThreshold) {
    let n = inputs.len();
    let all_exit = ExitThreshold::new(1.0);
    let probe = infer_in_process(model, inputs, all_exit, all_exit);
    let local_take = (LOCAL_EXIT_SHARE * n as f64).round() as usize;
    let local_t = threshold_for(&probe.local_eta, local_take);
    let escalated: Vec<f32> = (0..n)
        .filter(|&i| !local_t.should_exit(probe.local_eta[i]))
        .map(|i| probe.edge_eta[i])
        .collect();
    let edge_take = (EDGE_EXIT_SHARE * n as f64).round() as usize;
    (local_t, threshold_for(&escalated, edge_take))
}

/// Runs `build` `repeats` times and returns the median wall time with the
/// last result.
fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Round accounting of the measured phase.
struct Phase {
    wall0: Instant,
    budget_s: f64,
    min_rounds: usize,
    rounds: usize,
}

impl Phase {
    fn start(plan: &Plan) -> Phase {
        Phase {
            wall0: Instant::now(),
            budget_s: plan.seconds,
            min_rounds: plan.sizes().min_rounds,
            rounds: 0,
        }
    }

    /// Whether another round starts: always up to the minimum, then while
    /// the budget is not spent.
    fn next_round(&mut self) -> bool {
        let go =
            self.rounds < self.min_rounds || self.wall0.elapsed().as_secs_f64() < self.budget_s;
        if go {
            self.rounds += 1;
        }
        go
    }
}

/// What the open-loop and multi-process rounds accumulate.
#[derive(Default)]
struct InferTally {
    attempted: u64,
    failed: u64,
    walls_s: Vec<f64>,
    /// Median of each round's measured per-sample latencies (open-loop
    /// rounds only).
    round_p50_ms: Vec<f64>,
    device_bytes: Vec<usize>,
    offloaded: u64,
}

/// Bytes on the wire ahead of a bit-packed feature map: its shape as three
/// `u16`, which the link counters book as payload.
const FEATURE_SHAPE_BYTES: usize = 6;

/// Eq. 1 of the paper summed over the devices: every one of `n` samples
/// costs each device its float score vector, every offloaded sample its
/// bit-packed feature map (with the wire's shape preamble).
pub fn eq1_device_bytes(config: &DdnnConfig, n: usize, offloaded: usize) -> usize {
    let comm = CommCostModel::from_config(config);
    config.num_devices
        * (comm.summary_bytes() * n + (comm.feature_map_bytes() + FEATURE_SHAPE_BYTES) * offloaded)
}

/// Aggregation deadlines and watchdog timeouts that fired in a run; any is
/// a machine stall turned into changed behaviour, and fails the run.
pub fn deadline_expiries(report: &SimReport) -> u64 {
    report
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".deadline_expiries") || name == "run.watchdog_timeouts")
        .map(|(_, v)| *v)
        .sum()
}

/// Checks one distributed run against the scene's oracle and books it.
fn book_inference(
    report: &SimReport,
    oracle_predictions: &[usize],
    oracle_exits: &[ExitPoint],
    config: &DdnnConfig,
    wall_s: f64,
    tally: &mut InferTally,
    checks: &mut Checks,
) {
    let n = oracle_predictions.len();
    let (classified, shed, timed_out) =
        (report.classified_count(), report.shed_count(), report.timed_out_count());
    checks.require(classified + shed + timed_out == n, || {
        format!(
            "conservation: {classified} classified + {shed} shed + {timed_out} timed out != {n}"
        )
    });
    checks.require(report.degraded_fraction == 0.0, || {
        format!("degraded fraction {} != 0", report.degraded_fraction)
    });
    let expiries = deadline_expiries(report);
    checks.require(expiries == 0, || format!("{expiries} deadline expiries"));
    let mismatches = (0..n)
        .filter(|&i| {
            report.predictions[i] != oracle_predictions[i] || report.exits[i] != oracle_exits[i]
        })
        .count();
    checks.require(mismatches == 0, || {
        format!("{mismatches} of {n} verdicts differ from Ddnn::infer at the same thresholds")
    });
    let offloaded = oracle_exits.iter().filter(|&&e| e != ExitPoint::Local).count();
    let expected = eq1_device_bytes(config, n, offloaded);
    let measured = report.device_first_payload_bytes();
    checks.require(measured == expected, || {
        format!("device payload {measured} B != Eq. 1 at the measured exit share ({expected} B)")
    });

    let degraded = report.degraded_samples.len().saturating_sub(timed_out);
    tally.attempted += n as u64;
    tally.failed += (shed + timed_out + degraded + mismatches) as u64;
    tally.walls_s.push(wall_s);
    tally.device_bytes.push(measured);
    tally.offloaded += report.exits.iter().filter(|&&e| e != ExitPoint::Local).count() as u64;
    let latencies: Vec<f64> = report
        .outcomes
        .iter()
        .zip(&report.latencies_ms)
        .filter(|(outcome, _)| matches!(outcome, SampleOutcome::Classified))
        .map(|(_, &ms)| ms)
        .collect();
    if !latencies.is_empty() {
        tally.round_p50_ms.push(percentile(&latencies, 0.50));
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    setup_s: f64,
    throughput_sps: f64,
    latency_p50_ms: f64,
    device_bytes_per_sample: f64,
    offload_share: f64,
    clean_share: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s),
        Metric::new("throughput_sps", throughput_sps),
        Metric::new("latency_p50_ms", latency_p50_ms),
        Metric::new("peak_rss_mb", procstat::peak_rss_mb()),
        Metric::new("device_bytes_per_sample", device_bytes_per_sample),
        Metric::new("offload_share", offload_share),
        Metric::new("clean_share", clean_share),
    ]
}

/// Turns an inference tally into the run's output. `per_sample_latency`
/// says whether the runtime measured each sample's latency (open loop:
/// the round's median, then the median over rounds) or the latency is the
/// round's wall per sample (closed loop, one sample in flight: median over
/// rounds).
fn finish_inference(
    setup_s: f64,
    tally: InferTally,
    units_per_round: usize,
    throughput_sps: f64,
    per_sample_latency: bool,
    mut checks: Checks,
) -> RunOutput {
    checks.require(tally.device_bytes.windows(2).all(|w| w[0] == w[1]), || {
        format!("device payload bytes differ between rounds: {:?}", tally.device_bytes)
    });
    let p50 = if per_sample_latency {
        median(&tally.round_p50_ms)
    } else {
        median(&tally.walls_s) * 1e3 / units_per_round as f64
    };
    let attempted = tally.attempted as f64;
    RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: end_to_end(
            setup_s,
            throughput_sps,
            p50,
            tally.device_bytes[0] as f64 / units_per_round as f64,
            tally.offloaded as f64 / attempted,
            1.0 - tally.failed as f64 / attempted,
        ),
        violations: checks.into_violations(),
        round_walls_s: tally.walls_s,
        round_p50_ms: if per_sample_latency { tally.round_p50_ms } else { Vec::new() },
        units_per_round,
    }
}

/// Open loop at `rate_per_s` with an admission window of `n` (nothing is
/// shed) at the scene's thresholds.
pub fn stream_config(scene: &InferScene, rate_per_s: f64, n: usize) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: scene.local_t,
        edge_threshold: scene.edge_t,
        deadlines: Some(deadlines()),
        stream: Some(StreamConfig {
            arrival: ArrivalProcess::Fixed { rate_per_s },
            queue_cap: n,
            batch_max: BATCH_MAX,
        }),
        ..HierarchyConfig::default()
    }
}

/// `stream_paper`: open loop at [`STREAM_RATE_SPS`] with mixed exits.
pub fn stream_paper(plan: &Plan) -> RunOutput {
    let sizes = plan.sizes();
    let (setup_s, scene) = timed_setup(sizes.setup_repeats, || {
        InferScene::build(plan.seed, sizes.scene, ExitMix::Paper)
    });
    let n = scene.inputs.len();
    let cfg = stream_config(&scene, STREAM_RATE_SPS, n);
    let mut checks = Checks::default();
    let mut tally = InferTally::default();
    let mut phase = Phase::start(plan);
    while phase.next_round() {
        let t = Instant::now();
        let report = run_distributed_inference(
            &scene.partition,
            &scene.inputs.views,
            &scene.inputs.labels,
            &cfg,
        )
        .expect("stream_paper round");
        let wall_s = t.elapsed().as_secs_f64();
        book_inference(
            &report,
            &scene.oracle_predictions,
            &scene.oracle_exits,
            &scene.partition.config,
            wall_s,
            &mut tally,
            &mut checks,
        );
    }
    // Offered load is fixed, so goodput is total verdicts over total wall:
    // it falls below the offered rate only when the pipeline falls behind.
    let clean = (tally.attempted - tally.failed) as f64;
    let throughput = clean / tally.walls_s.iter().sum::<f64>();
    finish_inference(setup_s, tally, n, throughput, true, checks)
}

/// `burst_escalate`: every sample to the cloud, each round one burst due
/// at once.
pub fn burst_escalate(plan: &Plan) -> RunOutput {
    let sizes = plan.sizes();
    let (setup_s, scene) = timed_setup(sizes.setup_repeats, || {
        InferScene::build(plan.seed, sizes.scene, ExitMix::AllCloud)
    });
    // The scene holds two bursts' worth of samples; rounds alternate.
    let n = sizes.burst;
    let halves: Vec<(Inputs, std::ops::Range<usize>)> =
        [0..n, n..2 * n].into_iter().map(|r| (scene.inputs.slice(r.clone()), r)).collect();
    let cfg = stream_config(&scene, 1e6, n);
    let mut checks = Checks::default();
    let mut tally = InferTally::default();
    let mut phase = Phase::start(plan);
    while phase.next_round() {
        let (inputs, range) = &halves[phase.rounds % 2];
        let t = Instant::now();
        let report =
            run_distributed_inference(&scene.partition, &inputs.views, &inputs.labels, &cfg)
                .expect("burst_escalate round");
        let wall_s = t.elapsed().as_secs_f64();
        book_inference(
            &report,
            &scene.oracle_predictions[range.clone()],
            &scene.oracle_exits[range.clone()],
            &scene.partition.config,
            wall_s,
            &mut tally,
            &mut checks,
        );
    }
    let throughput = median(&tally.walls_s.iter().map(|w| n as f64 / w).collect::<Vec<_>>());
    finish_inference(setup_s, tally, n, throughput, true, checks)
}

/// What `procs_tcp_arq` set-up leaves behind.
struct ProcsScene {
    inputs: Inputs,
    config: DdnnConfig,
    cfg: HierarchyConfig,
    oracle: SimReport,
}

/// The socket configuration of `procs_tcp_arq`: closed-loop lockstep over
/// TCP with ack/retransmit, every sample escalated to the cloud.
pub fn procs_config(transport: TransportConfig, reliability: ReliabilityConfig) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.0),
        edge_threshold: ExitThreshold::new(0.0),
        deadlines: Some(deadlines()),
        reliability,
        transport,
        ..HierarchyConfig::default()
    }
}

/// `procs_tcp_arq`: four OS processes over localhost TCP + ARQ.
pub fn procs_tcp_arq(plan: &Plan) -> RunOutput {
    let sizes = plan.sizes();
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let (setup_s, scene) = timed_setup(sizes.setup_repeats, || {
        let (_, inputs) = render_sets(plan.seed, 0, sizes.procs);
        let config = model_config(plan.seed);
        // The oracle is the same seeded model on the in-process channel
        // with the legacy wire: a path that shares neither sockets, ARQ
        // nor process boundaries with the measured one.
        let oracle = run_distributed_inference(
            &Ddnn::new(config.clone()).partition(),
            &inputs.views,
            &inputs.labels,
            &procs_config(TransportConfig::Channel, ReliabilityConfig::off()),
        )
        .expect("procs_tcp_arq in-process oracle");
        let cfg = procs_config(TransportConfig::Tcp, ReliabilityConfig::arq());
        // One short launch pages the executable in and proves the four
        // roles can handshake before anything is timed.
        let warm = inputs.slice(0..sizes.procs_warmup);
        multiproc::launch(&exe, &config, &warm.views, &warm.labels, &cfg)
            .expect("procs_tcp_arq warm-up launch");
        ProcsScene { inputs, config, cfg, oracle }
    });
    let n = scene.inputs.len();
    let mut checks = Checks::default();
    let mut tally = InferTally::default();
    let mut phase = Phase::start(plan);
    while phase.next_round() {
        let t = Instant::now();
        let report = multiproc::launch(
            &exe,
            &scene.config,
            &scene.inputs.views,
            &scene.inputs.labels,
            &scene.cfg,
        )
        .expect("procs_tcp_arq launch");
        let wall_s = t.elapsed().as_secs_f64();
        book_inference(
            &report,
            &scene.oracle.predictions,
            &scene.oracle.exits,
            &scene.config,
            wall_s,
            &mut tally,
            &mut checks,
        );
        let oracle_bytes = scene.oracle.device_first_payload_bytes();
        checks.require(report.device_first_payload_bytes() == oracle_bytes, || {
            format!("first-payload bytes differ from the in-process channel run ({oracle_bytes})")
        });
    }
    let throughput = median(&tally.walls_s.iter().map(|w| n as f64 / w).collect::<Vec<_>>());
    finish_inference(setup_s, tally, n, throughput, false, checks)
}

/// The training recipe of `train_paper`: one epoch per round.
pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: 50,
        seed,
        stat_refresh_passes: 0,
        ..TrainConfig::default()
    }
}

/// One training round on a freshly initialised model.
pub fn train_round(seed: u64, data: &Inputs) -> (Ddnn, Vec<EpochStats>, f64) {
    let mut model = Ddnn::new(model_config(seed));
    let t = Instant::now();
    let report =
        train(&mut model, &data.views, &data.labels, &train_config(seed)).expect("training round");
    (model, report.epochs, t.elapsed().as_secs_f64())
}

fn loss_bits(epochs: &[EpochStats]) -> Vec<[u32; 4]> {
    epochs
        .iter()
        .map(|e| {
            [
                e.loss.to_bits(),
                e.local_loss.to_bits(),
                e.edge_loss.to_bits(),
                e.cloud_loss.to_bits(),
            ]
        })
        .collect()
}

/// `train_paper`: joint multi-exit training, one epoch per round.
pub fn train_paper(plan: &Plan) -> RunOutput {
    let sizes = plan.sizes();
    let (setup_s, (train_set, test_set, reference)) = timed_setup(sizes.setup_repeats, || {
        let (train_set, test_set) = render_sets(plan.seed, sizes.train, sizes.test);
        // The warm-up round's loss trace is the determinism oracle.
        let (_, reference, _) = train_round(plan.seed, &train_set);
        (train_set, test_set, reference)
    });
    let n = train_set.len();
    let steps = n.div_ceil(train_config(plan.seed).batch_size);
    let mut checks = Checks::default();
    checks.require(reference.iter().all(|e| e.loss.is_finite()), || "non-finite loss".to_string());
    let mut walls_s = Vec::new();
    let mut diverged = 0u64;
    let mut last_model = None;
    let mut phase = Phase::start(plan);
    while phase.next_round() {
        let (model, epochs, wall_s) = train_round(plan.seed, &train_set);
        if loss_bits(&epochs) != loss_bits(&reference) {
            diverged += 1;
        }
        walls_s.push(wall_s);
        last_model = Some(model);
    }
    checks.require(diverged == 0, || {
        format!("{diverged} rounds' loss traces differ bit-wise from the warm-up round's")
    });
    // Timing has stopped. The communication tripwires of a training run:
    // the last round's model evaluated on the test split with both exits
    // shut (thresholds 0), the upper end of Eq. 1. Any operating point in
    // between would depend on the seed through the model's entropies.
    let mut model = last_model.expect("at least one round");
    let shut = ExitThreshold::new(0.0);
    let out = infer_in_process(&mut model, &test_set, shut, shut);
    let evaluated = test_set.len();
    let offloaded = out.exits.iter().filter(|&&e| e != ExitPoint::Local).count();
    let offload = offloaded as f64 / evaluated as f64;
    let device_bytes =
        eq1_device_bytes(model.config(), evaluated, offloaded) as f64 / evaluated as f64;

    let attempted = (phase.rounds * n) as u64;
    let failed = diverged * n as u64;
    RunOutput {
        attempted,
        failed,
        metrics: end_to_end(
            setup_s,
            median(&walls_s.iter().map(|w| n as f64 / w).collect::<Vec<_>>()),
            median(&walls_s) * 1e3 / steps as f64,
            device_bytes,
            offload,
            1.0 - failed as f64 / attempted as f64,
        ),
        violations: checks.into_violations(),
        round_walls_s: walls_s,
        round_p50_ms: Vec::new(),
        units_per_round: n,
    }
}

/// Runs the named workload untraced.
pub fn run(workload: &str, plan: &Plan) -> Option<RunOutput> {
    match workload {
        "stream_paper" => Some(stream_paper(plan)),
        "burst_escalate" => Some(burst_escalate(plan)),
        "procs_tcp_arq" => Some(procs_tcp_arq(plan)),
        "train_paper" => Some(train_paper(plan)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exits_at(etas: &[f32], t: ExitThreshold) -> usize {
        etas.iter().filter(|&&e| t.should_exit(e)).count()
    }

    #[test]
    fn threshold_lets_exactly_the_requested_count_exit() {
        let etas = [0.9, 0.1, 0.5, 0.3, 0.7];
        for take in 0..=etas.len() {
            assert_eq!(exits_at(&etas, threshold_for(&etas, take)), take, "take {take}");
        }
        // The threshold sits strictly between the two neighbours.
        let t = threshold_for(&etas, 2).value();
        assert!(0.3 < t && t < 0.5);
        assert_eq!(exits_at(&[], threshold_for(&[], 3)), 0);
    }

    #[test]
    fn tied_entropies_exit_together() {
        let etas = [0.2, 0.4, 0.4, 0.4, 0.8];
        // Asking for two can only deliver the whole tie group.
        assert_eq!(exits_at(&etas, threshold_for(&etas, 2)), 4);
    }

    #[test]
    fn eq1_matches_the_paper_constants() {
        let config = model_config(1);
        // 6 devices x (12 B scores x 10 samples + (128 + 6) B maps x 4 offloaded).
        assert_eq!(eq1_device_bytes(&config, 10, 4), 6 * (12 * 10 + 134 * 4));
        assert_eq!(eq1_device_bytes(&config, 10, 0), 6 * 12 * 10);
    }
}
