//! **Observability overhead bench (DESIGN.md §11)**: prices the runtime
//! observability layer on the topology workload and captures one chaos
//! timeline.
//!
//! Three interleaved variants run the identical staged-inference workload:
//!
//! * `disabled` — the default [`ObsConfig`]: counters accumulate (relaxed
//!   atomics), the event path is a single untaken branch per site;
//! * `noop-sink` — a sink installed but discarding every event: the full
//!   event-construction cost, an upper bound on what the disabled branch
//!   could possibly hide;
//! * `jsonl` — the [`JsonlSink`] streaming the timeline to disk.
//!
//! Variants are interleaved round-robin and summarized by median wall
//! time, so drift (thermal, cache, page warmup) hits all three equally.
//! A second leg runs a chaotic ARQ configuration with the JSONL sink and
//! reports per-kind event counts from the written timeline, proving the
//! exit / deadline / corruption / retransmission spans all surface.
//!
//! Emits `results/BENCH_obs.json` and `results/obs_timeline.jsonl`. Pass
//! `--smoke` (or set `DDNN_BENCH_SMOKE=1`) for a seconds-long run.

use ddnn_bench::harness::{epochs_from_args, format_table, train_and_evaluate, ExperimentContext};
use ddnn_core::{DdnnConfig, ExitThreshold, TrainConfig};
use ddnn_runtime::{
    run_distributed_inference, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, DeadlineConfig,
    HierarchyConfig, Impairment, JsonlSink, ObsConfig, ObsEvent, ObsSink, ReliabilityConfig,
};
use ddnn_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// A sink that pays the full event-construction path and discards the
/// result — the upper bound on enabled-but-unconsumed overhead.
struct NoopSink;

impl ObsSink for NoopSink {
    fn record(&self, _t_ms: u64, _event: &ObsEvent) {}
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("DDNN_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let epochs = epochs_from_args(if smoke { 2 } else { 40 });
    let ctx = ExperimentContext::paper().expect("dataset generation");
    let trained = train_and_evaluate(
        &ctx,
        DdnnConfig::paper(),
        &TrainConfig { epochs, ..TrainConfig::default() },
        ExitThreshold::default(),
    )
    .expect("training");
    let part = trained.model.partition();

    let n = if smoke { 24.min(ctx.test_labels.len()) } else { ctx.test_labels.len() };
    let indices: Vec<usize> = (0..n).collect();
    let views: Vec<Tensor> =
        ctx.test_views.iter().map(|v| v.select_axis0(&indices).expect("test subset")).collect();
    let labels: Vec<usize> = ctx.test_labels[..n].to_vec();
    std::fs::create_dir_all("results").expect("create results dir");

    // Leg 1: the fault-free topology workload under the three variants,
    // interleaved. The JSONL variant writes to a throwaway path so its
    // I/O cost is measured without clobbering the chaos timeline.
    let rounds = if smoke { 3 } else { 7 };
    let scratch = "results/obs_timeline_scratch.jsonl";
    let config_of = |sink: Option<Arc<dyn ObsSink>>| HierarchyConfig {
        obs: ObsConfig { sink },
        ..HierarchyConfig::default()
    };
    let mut times: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    // One untimed warmup pass fills caches and the thread pool.
    run_distributed_inference(&part, &views, &labels, &config_of(None)).expect("warmup run");
    for _ in 0..rounds {
        for (v, sink) in [
            None,
            Some(Arc::new(NoopSink) as Arc<dyn ObsSink>),
            Some(Arc::new(JsonlSink::create(scratch).expect("scratch sink")) as Arc<dyn ObsSink>),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = config_of(sink);
            let t = Instant::now();
            run_distributed_inference(&part, &views, &labels, &cfg).expect("timed run");
            times[v].push(t.elapsed().as_secs_f64() * 1000.0);
        }
    }
    let disabled_ms = median(&mut times[0]);
    let noop_ms = median(&mut times[1]);
    let jsonl_ms = median(&mut times[2]);
    let pct_over = |x: f64| (x - disabled_ms) / disabled_ms * 100.0;
    let _ = std::fs::remove_file(scratch);

    println!("Observability overhead ({n} samples, {rounds} rounds, median wall time)");
    println!(
        "{}",
        format_table(
            &["Variant", "Median (ms)", "Overhead vs disabled"],
            &[
                vec!["disabled".into(), format!("{disabled_ms:.1}"), "baseline".into()],
                vec![
                    "noop-sink".into(),
                    format!("{noop_ms:.1}"),
                    format!("{:+.2}%", pct_over(noop_ms))
                ],
                vec![
                    "jsonl".into(),
                    format!("{jsonl_ms:.1}"),
                    format!("{:+.2}%", pct_over(jsonl_ms))
                ],
            ],
        )
    );

    // Leg 2: the chaos timeline — lossy, corrupting ARQ links plus a
    // dead-on-arrival device, streamed to the committed artifact path.
    let timeline_path = "results/obs_timeline.jsonl";
    {
        let cfg = HierarchyConfig {
            local_threshold: ExitThreshold::default(),
            chaos: ChaosPlan::links(
                41,
                Impairment { drop: 0.2, corrupt: 0.05, ..Impairment::none() },
            )
            .with(
                ChaosWhen::AfterFrames(0),
                ChaosTarget::Device(part.devices.len() - 1),
                ChaosAction::Down,
            ),
            deadlines: Some(DeadlineConfig {
                aggregation_ms: 150,
                watchdog_ms: 800,
                max_retries: 2,
                suspect_after: 2,
            }),
            reliability: ReliabilityConfig::arq(),
            obs: ObsConfig {
                sink: Some(Arc::new(JsonlSink::create(timeline_path).expect("timeline sink"))),
            },
            ..HierarchyConfig::default()
        };
        run_distributed_inference(&part, &views, &labels, &cfg).expect("chaos timeline run");
        // cfg (and with it the last sink handle) drops here, flushing the file.
    }
    let timeline = std::fs::read_to_string(timeline_path).expect("read timeline");
    let kinds = [
        "sample_enqueued",
        "tier_aggregate",
        "exit_taken",
        "escalated",
        "deadline_fired",
        "watchdog_timeout",
        "frame_corrupt",
        "retransmit",
        "ack_sent",
    ];
    let count_of = |kind: &str| {
        let tag = format!("\"event\": \"{kind}\"");
        timeline.lines().filter(|l| l.contains(&tag)).count()
    };
    println!("\nChaos timeline ({timeline_path}, {} events):", timeline.lines().count());
    for kind in kinds {
        println!("  {kind:18} {}", count_of(kind));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"samples\": {n},\n"));
    json.push_str(&format!("  \"rounds\": {rounds},\n"));
    json.push_str(&format!("  \"disabled_ms\": {disabled_ms:.2},\n"));
    json.push_str(&format!("  \"noop_sink_ms\": {noop_ms:.2},\n"));
    json.push_str(&format!("  \"jsonl_ms\": {jsonl_ms:.2},\n"));
    json.push_str(&format!("  \"noop_sink_overhead_pct\": {:.3},\n", pct_over(noop_ms)));
    json.push_str(&format!("  \"jsonl_overhead_pct\": {:.3},\n", pct_over(jsonl_ms)));
    json.push_str("  \"timeline\": {\n");
    for (i, kind) in kinds.iter().enumerate() {
        json.push_str(&format!(
            "    \"{kind}\": {}{}\n",
            count_of(kind),
            if i + 1 < kinds.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = "results/BENCH_obs.json";
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
