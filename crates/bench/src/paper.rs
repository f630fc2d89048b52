//! The paper's evaluation as one table of experiments: Tables I–II,
//! Figs. 6–10, the §IV-H communication reduction, the edge tier and two
//! ablations (see `DESIGN.md` §4 for the index). Every experiment reads
//! one [`PaperRun`], which builds the dataset once and trains each
//! distinct model once, and returns the text of its `results/<name>.txt`
//! artifact.

use crate::harness::{format_table, pct, train_and_evaluate, ExperimentContext, TrainedDdnn};
use ddnn_core::{
    accuracy, evaluate_exit_accuracies, evaluate_overall, fail_devices, fail_devices_with,
    single_failures, AggregationScheme, CommCostModel, DdnnConfig, EdgeConfig, ExitPoint,
    ExitThreshold, IndividualModel, Precision, TrainConfig, BLANK_INPUT_VALUE, RAW_IMAGE_BYTES,
};
use ddnn_data::device_stats;
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, ChaosAction, ChaosPlan, ChaosTarget,
    ChaosWhen, HierarchyConfig, Result,
};

/// One experiment: renders its artifact from the shared run.
pub type Experiment = fn(&mut PaperRun) -> Result<String>;

/// Every experiment by artifact name, in the order a full run takes them.
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("figure6", figure6),
    ("figure7", figure7),
    ("figure8", figure8),
    ("figure9", figure9),
    ("figure10", figure10),
    ("comm_reduction", comm_reduction),
    ("edge_hierarchy", edge_hierarchy),
    ("ablation_binary", ablation_binary),
    ("ablation_fault", ablation_fault),
];

/// The state experiments share: the dataset and every model trained so far.
pub struct PaperRun {
    ctx: ExperimentContext,
    epochs: Option<usize>,
    memo: Vec<(ModelKey, TrainedDdnn)>,
}

/// Everything that sets a trained model's weights.
#[derive(PartialEq)]
struct ModelKey {
    model: DdnnConfig,
    /// `TrainConfig`'s `Debug` text: it holds `f32`s, so it has no `Eq`,
    /// and `Debug` prints each float exactly.
    train: String,
    /// The devices whose views it trained on; `None` is all, in order.
    devices: Option<Vec<usize>>,
}

impl PaperRun {
    /// A run over `ctx`. `epochs` overrides every experiment's own
    /// training budget (40 or 60 epochs) when set.
    pub fn new(ctx: ExperimentContext, epochs: Option<usize>) -> Self {
        PaperRun { ctx, epochs, memo: Vec::new() }
    }

    /// How many DDNNs this run has trained: one per distinct model.
    pub fn trained_models(&self) -> usize {
        self.memo.len()
    }

    fn train_config(&self, default_epochs: usize) -> TrainConfig {
        TrainConfig { epochs: self.epochs.unwrap_or(default_epochs), ..TrainConfig::default() }
    }

    /// `model` trained and evaluated on `devices`' views in that order, or
    /// on every device when `None`. It trains on the first request; later
    /// ones get a clone from the memo, so no experiment sees another's use
    /// of a model.
    fn trained(
        &mut self,
        model: DdnnConfig,
        train: &TrainConfig,
        devices: Option<&[usize]>,
    ) -> Result<TrainedDdnn> {
        let key =
            ModelKey { model, train: format!("{train:?}"), devices: devices.map(<[_]>::to_vec) };
        if let Some((_, trained)) = self.memo.iter().find(|(k, _)| *k == key) {
            return Ok(trained.clone());
        }
        let subset = devices.map(|d| self.ctx.subset_devices(d));
        let ctx = subset.as_ref().unwrap_or(&self.ctx);
        let trained = train_and_evaluate(ctx, key.model.clone(), train, ExitThreshold::default())?;
        self.memo.push((key, trained.clone()));
        Ok(trained)
    }
}

/// **E1 — Table I**: accuracy of the nine aggregation-scheme pairs (MP/AP/CC
/// at the local aggregator × MP/AP/CC at the cloud aggregator).
///
/// Paper reference values (local %, cloud %): MP-MP 95/91, MP-CC 98/98,
/// AP-AP 86/98, AP-CC 75/96, CC-CC 85/94, AP-MP 88/93, MP-AP 89/97, CC-MP
/// 77/87, CC-AP 80/94. Shape criteria: MP-CC is the best pair; MP beats AP
/// locally; CC is the strongest cloud aggregator.
fn table1(run: &mut PaperRun) -> Result<String> {
    use AggregationScheme::{AvgPool, Concat, MaxPool};
    let train = run.train_config(40);
    // The paper's Table I row order.
    let pairs = [
        (MaxPool, MaxPool),
        (MaxPool, Concat),
        (AvgPool, AvgPool),
        (AvgPool, Concat),
        (Concat, Concat),
        (AvgPool, MaxPool),
        (MaxPool, AvgPool),
        (Concat, MaxPool),
        (Concat, AvgPool),
    ];
    let mut rows = Vec::new();
    for (local, cloud) in pairs {
        let exits =
            run.trained(DdnnConfig::with_aggregation(local, cloud), &train, None)?.exit_accuracies;
        eprintln!(
            "{local}-{cloud}: local {:.1}% cloud {:.1}%",
            exits.local * 100.0,
            exits.cloud * 100.0
        );
        rows.push(vec![format!("{local}-{cloud}"), pct(exits.local), pct(exits.cloud)]);
    }
    Ok(format!(
        "Table I — Accuracy of aggregation schemes ({} epochs)\n{}\n",
        train.epochs,
        format_table(&["Schemes", "Local Acc. (%)", "Cloud Acc. (%)"], &rows)
    ))
}

/// **E2 — Table II**: effect of the local exit threshold T on local exit
/// rate, overall accuracy and per-device communication (Eq. 1).
///
/// Paper reference: T=0.1 → 0% exit, 96%, 140 B; T=0.8 → 60.82% exit, 97%,
/// 62 B (the chosen operating point); T=1.0 → 100% exit, 92%, 12 B. Shape
/// criteria: comm falls monotonically from 140 B to 12 B; overall accuracy
/// peaks at an intermediate T before dropping when everything exits
/// locally.
fn table2(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(60);
    let mut model = run.trained(DdnnConfig::paper(), &train, None)?.model;
    let ctx = &run.ctx;
    let comm = CommCostModel::from_config(model.config());
    let mut rows = Vec::new();
    for t in [0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let e = evaluate_overall(
            &mut model,
            &ctx.test_views,
            &ctx.test_labels,
            ExitThreshold::new(t),
            None,
        )?;
        rows.push(vec![
            format!("{t:.1}"),
            pct(e.local_exit_fraction),
            pct(e.accuracy),
            format!("{:.0}", comm.bytes_per_sample(e.local_exit_fraction)),
        ]);
    }
    Ok(format!(
        "Table II — Exit threshold sweep ({} epochs)\n{}\n",
        train.epochs,
        format_table(&["T", "Local Exit (%)", "Overall Acc. (%)", "Comm. (B)"], &rows)
    ))
}

/// **E3 — Figure 6**: per-device class distribution of the (synthetic)
/// multi-view multi-camera dataset.
///
/// Shape criteria: strong per-device imbalance; cars are the most common
/// class; low-visibility devices (1, 2) have many "not present" samples
/// while device 6 has few.
fn figure6(run: &mut PaperRun) -> Result<String> {
    let ds = &run.ctx.dataset;
    let rows: Vec<Vec<String>> = device_stats(&ds.train, ds.num_devices())
        .iter()
        .enumerate()
        .map(|(d, s)| {
            vec![
                format!("{}", d + 1),
                s.per_class[0].to_string(),
                s.per_class[1].to_string(),
                s.per_class[2].to_string(),
                s.not_present.to_string(),
                s.total().to_string(),
            ]
        })
        .collect();
    Ok(format!(
        "Figure 6 — Distribution of class samples per end device (train split)\n{}\n",
        format_table(&["Device", "Car", "Bus", "Person", "Not-present", "Total"], &rows)
    ))
}

/// **E4 — Figure 7**: overall accuracy and local-exit percentage as the
/// local exit threshold T sweeps 0 → 1 (the curve form of Table II).
///
/// Shape criteria: local exit % rises monotonically with T; overall
/// accuracy is flat or slightly rising through intermediate T (the "sweet
/// spot" where easy samples exit locally) and declines as T → 1.
fn figure7(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(60);
    let mut model = run.trained(DdnnConfig::paper(), &train, None)?.model;
    let ctx = &run.ctx;
    let mut rows = Vec::new();
    for i in 0..=20 {
        let t = i as f32 / 20.0;
        let e = evaluate_overall(
            &mut model,
            &ctx.test_views,
            &ctx.test_labels,
            ExitThreshold::new(t),
            None,
        )?;
        rows.push(vec![format!("{t:.2}"), pct(e.accuracy), pct(e.local_exit_fraction)]);
    }
    Ok(format!(
        "Figure 7 — Impact of exit threshold ({} epochs)\n{}\n",
        train.epochs,
        format_table(&["T", "Overall Acc. (%)", "Local Exit (%)"], &rows)
    ))
}

/// **E5 — Figure 8**: accuracy of the DDNN system as end devices are added
/// one at a time, ordered from the worst individual device to the best.
///
/// For each device count k, a fresh DDNN is trained on the k selected
/// devices; "Individual" is the standalone single-device model of §III-F.
/// Shape criteria: the cloud exit beats the local exit at every count;
/// both rise with more devices; the fused system beats the best individual
/// device by a wide margin; overall ≈ cloud accuracy at T = 0.8.
fn figure8(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(40);
    // Individual accuracy per device (paper "Individual" curve).
    let mut order = Vec::new();
    let ctx = &run.ctx;
    for d in 0..ctx.num_devices() {
        let mut m = IndividualModel::new(4, 3, 1000 + d as u64);
        m.train(&ctx.train_views[d], &ctx.train_labels, &train)?;
        let acc = accuracy(&m.predict(&ctx.test_views[d])?, &ctx.test_labels);
        eprintln!("individual device {}: {:.1}%", d + 1, acc * 100.0);
        order.push((d, acc));
    }
    // Worst-to-best device order, as the paper plots.
    order.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut rows = Vec::new();
    for k in 1..=order.len() {
        let devices: Vec<usize> = order[..k].iter().map(|&(d, _)| d).collect();
        let cfg = DdnnConfig { num_devices: k, seed: 42 + k as u64, ..DdnnConfig::paper() };
        let trained = run.trained(cfg, &train, Some(&devices))?;
        let (exits, overall) = (trained.exit_accuracies, trained.overall);
        let added = order[k - 1];
        eprintln!(
            "k={k} (added device {}): local {:.1}% cloud {:.1}% overall {:.1}%",
            added.0 + 1,
            exits.local * 100.0,
            exits.cloud * 100.0,
            overall.accuracy * 100.0
        );
        rows.push(vec![
            k.to_string(),
            format!("{}", added.0 + 1),
            pct(added.1),
            pct(exits.local),
            pct(exits.cloud),
            pct(overall.accuracy),
            pct(overall.local_exit_fraction),
        ]);
    }
    let header = [
        "#Devices",
        "Added",
        "Individual (%)",
        "Local (%)",
        "Cloud (%)",
        "Overall (%)",
        "Local Exit (%)",
    ];
    Ok(format!(
        "Figure 8 — Scaling end devices, worst-to-best ({} epochs, T=0.8)\n{}\n",
        train.epochs,
        format_table(&header, &rows)
    ))
}

/// **E6 — Figure 9**: accuracy vs communication as the end devices get more
/// filters (f = 1..4), with the exit threshold tuned so that ~75% of
/// samples exit locally (the paper's §IV-F setup).
///
/// Shape criteria: all device models stay under 2 KB; accuracy rises with
/// f; the cloud/overall exits beat the local exit by ~5% at every size
/// (the benefit of offloading hard samples); communication grows with f.
fn figure9(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(40);
    let mut rows = Vec::new();
    for f in 1..=4 {
        let cfg = DdnnConfig { device_filters: f, ..DdnnConfig::paper() };
        let mut trained = run.trained(cfg, &train, None)?;
        let ctx = &run.ctx;
        // Tune T so ~75% of samples exit locally, as the paper does.
        let mut best = (ExitThreshold::new(0.8), f32::INFINITY, None);
        for i in 0..=40 {
            let t = ExitThreshold::new(i as f32 / 40.0);
            let e =
                evaluate_overall(&mut trained.model, &ctx.test_views, &ctx.test_labels, t, None)?;
            let gap = (e.local_exit_fraction - 0.75).abs();
            if gap < best.1 {
                best = (t, gap, Some(e));
            }
        }
        let e = best.2.expect("at least one threshold evaluated");
        let comm = CommCostModel::from_config(trained.model.config());
        let bytes = comm.bytes_per_sample(e.local_exit_fraction);
        let mem = trained.model.device_memory_bytes();
        eprintln!(
            "f={f}: mem {mem} B, T={:.3}, local exit {:.1}%, overall {:.1}%",
            best.0.value(),
            e.local_exit_fraction * 100.0,
            e.accuracy * 100.0
        );
        rows.push(vec![
            f.to_string(),
            mem.to_string(),
            format!("{bytes:.0}"),
            pct(trained.exit_accuracies.local),
            pct(trained.exit_accuracies.cloud),
            pct(e.accuracy),
            pct(e.local_exit_fraction),
        ]);
    }
    let header = [
        "f",
        "Device mem (B)",
        "Comm (B)",
        "Local (%)",
        "Cloud (%)",
        "Overall (%)",
        "Local Exit (%)",
    ];
    Ok(format!(
        "Figure 9 — Accuracy vs communication as device filters scale ({} epochs, ~75% local exit)\n{}\n",
        train.epochs,
        format_table(&header, &rows)
    ))
}

/// **E7 — Figure 10**: fault tolerance — system accuracy when any single
/// end device fails, plus the progressive-failure reading of §IV-G.
///
/// Shape criteria: overall accuracy stays high (paper: >95%) under any
/// single failure; losing even the best device costs only a few points;
/// accuracy degrades gracefully as more devices fail.
fn figure10(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(60);
    let mut trained = run.trained(DdnnConfig::paper(), &train, None)?;
    let ctx = &run.ctx;
    let t = ExitThreshold::default();
    let baseline =
        evaluate_overall(&mut trained.model, &ctx.test_views, &ctx.test_labels, t, None)?;
    let mut out = format!(
        "No failure: overall {:.1}% (local {:.1}%, cloud {:.1}%)\n",
        baseline.accuracy * 100.0,
        trained.exit_accuracies.local * 100.0,
        trained.exit_accuracies.cloud * 100.0
    );

    let mut rows = Vec::new();
    for failure in single_failures(ctx.num_devices()) {
        let views = fail_devices(&ctx.test_views, &failure)?;
        let exits = evaluate_exit_accuracies(&mut trained.model, &views, &ctx.test_labels)?;
        let overall = evaluate_overall(&mut trained.model, &views, &ctx.test_labels, t, None)?;
        rows.push(vec![
            format!("{}", failure[0] + 1),
            pct(exits.local),
            pct(exits.cloud),
            pct(overall.accuracy),
        ]);
    }
    out += &format!(
        "\nFigure 10 — Single-device failure ({} epochs, T=0.8)\n{}\n",
        train.epochs,
        format_table(&["Failed device", "Local (%)", "Cloud (%)", "Overall (%)"], &rows)
    );

    // Progressive failure: drop best devices first (hardest case).
    let order = [5usize, 4, 3, 2, 1];
    let mut rows = Vec::new();
    for k in 1..=order.len() {
        let failed = &order[..k];
        let views = fail_devices(&ctx.test_views, failed)?;
        let overall = evaluate_overall(&mut trained.model, &views, &ctx.test_labels, t, None)?;
        rows.push(vec![device_list(failed), pct(overall.accuracy)]);
    }
    out += &format!(
        "\nProgressive failure (best devices first)\n{}\n",
        format_table(&["Failed devices", "Overall (%)"], &rows)
    );
    Ok(out)
}

/// **E8 — §IV-H**: the >20× communication reduction of DDNN vs offloading
/// raw sensor data to the cloud, *measured* on the wire of the distributed
/// runtime (not just the analytic Eq. 1).
///
/// Shape criteria: raw offload costs 3072 B/sample/device; the DDNN average
/// is ≤140 B/sample/device; the reduction factor exceeds 20×; the measured
/// bytes match Eq. 1 (up to the 6-byte wire shape preamble per offloaded
/// map).
fn comm_reduction(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(60);
    let partition = run.trained(DdnnConfig::paper(), &train, None)?.model.partition();
    let ctx = &run.ctx;
    let n = ctx.test_labels.len();
    let devices = ctx.num_devices();
    let cfg = HierarchyConfig::default();

    let ddnn = run_distributed_inference(&partition, &ctx.test_views, &ctx.test_labels, &cfg)?;
    let measured = ddnn.device_payload_per_sample(devices);
    let first = ddnn.device_first_payload_per_sample(devices);
    let retx_total: usize = ddnn
        .links
        .iter()
        .filter(|(name, _)| name.starts_with("device"))
        .map(|(_, s)| s.retx_payload_bytes)
        .sum();
    let comm = CommCostModel::from_config(&partition.config);
    let modeled = comm.bytes_per_sample(ddnn.local_exit_fraction);
    let offloaded = ddnn.exits.iter().filter(|&&e| e != ExitPoint::Local).count();

    let baseline = run_cloud_only_baseline(&partition, &ctx.test_views, &ctx.test_labels, &cfg)?;
    let raw_per_sample = baseline
        .links
        .iter()
        .filter(|(name, _)| name.starts_with("device"))
        .map(|(_, s)| s.payload_bytes)
        .sum::<usize>() as f32
        / (n * devices) as f32;

    Ok([
        format!("Communication reduction (paper §IV-H), measured over {n} test samples x {devices} devices"),
        format!("  Samples classified (no timeouts):      {}/{n}", ddnn.classified_count()),
        format!("  DDNN accuracy (distributed, T=0.8):    {:.1}%", ddnn.accuracy * 100.0),
        format!("  Cloud-offload baseline accuracy:       {:.1}%", baseline.accuracy * 100.0),
        format!("  Local exit rate:                       {:.2}%", ddnn.local_exit_fraction * 100.0),
        format!("  Raw offload per device-sample:         {raw_per_sample:.0} B (paper: {RAW_IMAGE_BYTES} B)"),
        format!("  DDNN measured per device-sample:       {measured:.1} B"),
        format!(
            "  ... first transmission / retransmit:   {first:.1} B / {:.1} B ({retx_total} B retransmitted total)",
            measured - first
        ),
        format!("  DDNN Eq.1 model per device-sample:     {modeled:.1} B"),
        format!(
            "  Wire preamble overhead:                {:.1} B ({} offloaded maps x 6 B / {n} samples / {devices} devices)",
            (offloaded * devices * 6) as f32 / (n * devices) as f32,
            offloaded * devices
        ),
        format!("  Reduction factor (measured):           {:.1}x", raw_per_sample / measured),
        format!(
            "  Reduction factor (Eq.1):               {:.1}x",
            comm.reduction_factor(ddnn.local_exit_fraction)
        ),
        format!(
            "  Simulated latency local/offload:       {:.1} ms / {:.1} ms",
            ddnn.mean_local_latency_ms, ddnn.mean_offload_latency_ms
        ),
    ]
    .map(|line| line + "\n")
    .concat())
}

/// **E9 — Fig. 2 (d)/(e)**: vertical scaling with an edge (fog) tier — a
/// three-exit DDNN (device / edge / cloud) trained jointly and run on the
/// distributed hierarchy simulator with the §III-D three-stage protocol.
///
/// Shape criteria: all three exits train to useful accuracy, ordered local
/// ≤ edge ≤ cloud; staged inference splits traffic across tiers; samples
/// exiting lower in the hierarchy see lower simulated latency.
fn edge_hierarchy(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(60);
    let cfg = DdnnConfig {
        edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
        ..DdnnConfig::paper()
    };
    let trained = run.trained(cfg, &train, None)?;
    let ctx = &run.ctx;
    let exits = trained.exit_accuracies;
    let partition = trained.model.partition();
    let mut rows = Vec::new();
    for (tl, te) in [(0.5, 0.8), (0.8, 0.8), (0.3, 0.6)] {
        let report = run_distributed_inference(
            &partition,
            &ctx.test_views,
            &ctx.test_labels,
            &HierarchyConfig {
                local_threshold: ExitThreshold::new(tl),
                edge_threshold: ExitThreshold::new(te),
                ..HierarchyConfig::default()
            },
        )?;
        rows.push(vec![
            format!("{tl:.1}/{te:.1}"),
            pct(report.exit_fraction(ExitPoint::Local)),
            pct(report.exit_fraction(ExitPoint::Edge)),
            pct(report.exit_fraction(ExitPoint::Cloud)),
            pct(report.accuracy),
            format!("{:.1}", report.mean_latency_ms),
        ]);
    }
    Ok(format!(
        "Edge hierarchy (device -> edge -> cloud), {} epochs\n\
         Forced-exit accuracy: local {:.1}% | edge {:.1}% | cloud {:.1}%\n{}\n",
        train.epochs,
        exits.local * 100.0,
        exits.edge.unwrap_or(0.0) * 100.0,
        exits.cloud * 100.0,
        format_table(
            &["T local/edge", "Local (%)", "Edge (%)", "Cloud (%)", "Overall (%)", "Latency (ms)"],
            &rows
        )
    ))
}

/// **Ablation (DESIGN.md §6 / paper §VI)**: binary vs float weights in the
/// cloud section — the mixed-precision scheme the paper proposes as future
/// work ("the end devices use binary NN layers and the cloud uses
/// mixed-precision or floating-point NN layers").
///
/// Devices stay binary (they must fit in 2 KB); only the cloud section's
/// weight precision changes. Expectation: float cloud weights match or beat
/// the all-binary cloud at a 32x weight-memory cost that the cloud can
/// afford.
fn ablation_binary(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(40);
    let mut rows = Vec::new();
    for (name, precision) in [
        ("all-binary (paper)", Precision::Binary),
        ("binary devices + float cloud", Precision::Float),
    ] {
        let cfg = DdnnConfig { cloud_precision: precision, ..DdnnConfig::paper() };
        let trained = run.trained(cfg, &train, None)?;
        rows.push(vec![
            name.to_string(),
            pct(trained.exit_accuracies.local),
            pct(trained.exit_accuracies.cloud),
            pct(trained.overall.accuracy),
        ]);
    }
    Ok(format!(
        "Ablation — cloud weight precision ({} epochs)\n{}\n",
        train.epochs,
        format_table(&["Configuration", "Local (%)", "Cloud (%)", "Overall (%)"], &rows)
    ))
}

/// **Ablation (DESIGN.md §6)**: failure encoding — blank-grey substitution
/// (the dataset's "object not present" value, what DDNN trains on) vs a
/// zero image (a regime the aggregators never saw).
///
/// Expectation: blank substitution degrades gracefully (the paper's
/// automatic fault tolerance); zero substitution is measurably worse,
/// showing the fault tolerance comes from the *encoding match*, not luck.
///
/// A second sweep exercises the *dynamic* fault model (DESIGN.md "Fault
/// model"): the same device crashes mid-run after a varying number of
/// transmitted frames, and the deadline-driven runtime discovers the death
/// and degrades by blank substitution. A crash before the first frame must
/// land on the static-failure accuracy; later crashes interpolate between
/// the healthy and failed regimes, with the degraded fraction tracking the
/// portion of the run the device was dead for.
fn ablation_fault(run: &mut PaperRun) -> Result<String> {
    let train = run.train_config(40);
    let mut model = run.trained(DdnnConfig::paper(), &train, None)?.model;
    let ctx = &run.ctx;
    let t = ExitThreshold::default();
    let healthy = evaluate_overall(&mut model, &ctx.test_views, &ctx.test_labels, t, None)?;
    let mut out = format!("No failure: overall {:.1}%\n", healthy.accuracy * 100.0);

    let mut rows = Vec::new();
    for (name, value) in
        [("blank grey (trained encoding)", BLANK_INPUT_VALUE), ("zeros (mismatched)", 0.0)]
    {
        for failed in [&[5usize][..], &[5, 4], &[5, 4, 3]] {
            let views = fail_devices_with(&ctx.test_views, failed, value)?;
            let e = evaluate_overall(&mut model, &views, &ctx.test_labels, t, None)?;
            rows.push(vec![
                name.to_string(),
                device_list(failed),
                pct(e.accuracy),
                pct(e.local_exit_fraction),
            ]);
        }
    }
    out += &format!(
        "\nAblation — failure encoding ({} epochs, T=0.8)\n{}\n",
        train.epochs,
        format_table(&["Substitution", "Failed devices", "Overall (%)", "Local exit (%)"], &rows)
    );

    // Dynamic sweep: device 6 crashes after N transmitted frames and the
    // deadline runtime has to notice. One frame per sample at minimum, so
    // N indexes roughly "how far into the test set the device survived".
    let part = model.partition();
    let n = ctx.test_labels.len();
    let crash_device = ctx.num_devices() - 1;
    let static_cfg =
        HierarchyConfig { failed_devices: vec![crash_device], ..HierarchyConfig::default() };
    let mut runs = vec![("static failure (reference)".to_string(), static_cfg)];
    for after_frames in [0, n as u64 / 4, n as u64 / 2, n as u64, u64::MAX] {
        let label = if after_frames == u64::MAX {
            "no crash".to_string()
        } else {
            format!("crash after {after_frames} frames")
        };
        let cfg = HierarchyConfig {
            chaos: ChaosPlan { seed: 77, events: vec![] }.with(
                ChaosWhen::AfterFrames(after_frames),
                ChaosTarget::Device(crash_device),
                ChaosAction::Down,
            ),
            ..HierarchyConfig::default()
        };
        runs.push((label, cfg));
    }
    let mut rows = Vec::new();
    for (label, cfg) in runs {
        let report = run_distributed_inference(&part, &ctx.test_views, &ctx.test_labels, &cfg)?;
        rows.push(vec![
            label,
            pct(report.accuracy),
            pct(report.local_exit_fraction),
            pct(report.degraded_fraction),
            format!("{}/{n}", report.classified_count()),
            report.device_timeouts[crash_device].to_string(),
            report.capture_retries.to_string(),
        ]);
    }
    let header = [
        "Fault",
        "Overall (%)",
        "Local exit (%)",
        "Degraded (%)",
        "Classified",
        "Substitutions",
        "Retries",
    ];
    out += &format!(
        "Ablation — dynamic crash of device {} ({n} test samples, T=0.8)\n{}\n",
        crash_device + 1,
        format_table(&header, &rows)
    );
    Ok(out)
}

/// One-based, comma-separated device numbers, e.g. `"6,5"`.
fn device_list(devices: &[usize]) -> String {
    devices.iter().map(|d| (d + 1).to_string()).collect::<Vec<_>>().join(",")
}
