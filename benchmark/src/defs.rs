//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `benchmark manifest` written to a file, and a test
//! holds the two together.

use crate::json;

/// Seconds one run measures (`run_seconds` of the manifest, and the
/// default `--seconds`).
pub const RUN_SECONDS: u32 = 20;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `module.metric` name; the module is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "stream_paper",
        "open loop at 300 samples/s, 65/20/15 % local/edge/cloud exits: the paper's case; \
         device sections, link hand-offs and pump wake-ups dominate, tiers do little",
    ),
    (
        "burst_escalate",
        "bursts of 342 samples all due at once, every sample to the cloud: saturation; \
         tier micro-batching, XNOR kernels and thread dispatch dominate, pacing does nothing",
    ),
    (
        "procs_tcp_arq",
        "4 OS processes, TCP + ARQ, closed loop, every sample to the cloud: framing, CRC, \
         sockets, acks and process spawn/handshake/reap dominate, compute is a minority",
    ),
    (
        "train_paper",
        "joint multi-exit training, batch 50: the same tensor/nn layers run backwards with \
         large work items, so a kernel change that buys inference at training's cost shows",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics, printed by every untraced run of every
/// workload. The timing bounds are the largest the driver allows: on the
/// shared two-core box the quartile spread over ten seeds is 2–5 % in a
/// quiet quarter of an hour and 10–14 % in a busy one, and the medians of
/// two such periods have differed by up to 24 % (README, "Spreads and
/// bounds"). The three exact metrics are guarded exactly by the oracle
/// inside every run; their bound only has to absorb the rare seed where
/// samples with identical entropies straddle a calibrated threshold.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_sps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("device_bytes_per_sample", "bytes", Better::Lower, 0.05),
    e2e("offload_share", "ratio", Better::Lower, 0.05),
    e2e("clean_share", "ratio", Better::Higher, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: [PerLayer; 72] = [
    layer("tensor.conv_device_us", "us", Better::Lower),
    layer("tensor.binary_conv_edge_us", "us", Better::Lower),
    layer("tensor.binary_conv_cloud_us", "us", Better::Lower),
    layer("tensor.xnor_gemm_exit_us", "us", Better::Lower),
    layer("tensor.bit_pack_us", "us", Better::Lower),
    layer("tensor.f32_gemm_train_us", "us", Better::Lower),
    layer("tensor.conv2d_backward_us", "us", Better::Lower),
    layer("tensor.parallel.small_dispatch_ratio", "ratio", Better::Lower),
    layer("tensor.parallel.train_speedup", "ratio", Better::Higher),
    layer("nn.train_forward_ms", "ms", Better::Lower),
    layer("nn.train_backward_ms", "ms", Better::Lower),
    layer("nn.adam_step_ms", "ms", Better::Lower),
    layer("core.device_section_us", "us", Better::Lower),
    layer("core.gateway_section_us", "us", Better::Lower),
    layer("core.edge_section_us", "us", Better::Lower),
    layer("core.cloud_section_us", "us", Better::Lower),
    layer("core.exit_decision_us", "us", Better::Lower),
    layer("core.edge_section_batch8_us_per_sample", "us", Better::Lower),
    layer("core.infer_inprocess_us_per_sample", "us", Better::Lower),
    layer("core.exits_local", "count", Better::Higher),
    layer("core.exits_edge", "count", Better::Higher),
    layer("core.exits_cloud", "count", Better::Lower),
    layer("core.accuracy", "ratio", Better::Higher),
    layer("data.render_ms_per_sample", "ms", Better::Lower),
    layer("message.encode_capture_ns", "ns", Better::Lower),
    layer("message.decode_capture_ns", "ns", Better::Lower),
    layer("message.encode_scores_ns", "ns", Better::Lower),
    layer("message.decode_scores_ns", "ns", Better::Lower),
    layer("message.encode_features_ns", "ns", Better::Lower),
    layer("message.decode_features_ns", "ns", Better::Lower),
    layer("message.features_pack_ns", "ns", Better::Lower),
    layer("message.features_unpack_ns", "ns", Better::Lower),
    layer("message.checked_overhead_ns", "ns", Better::Lower),
    layer("message.crc32_ns_per_kb", "ns", Better::Lower),
    layer("link.channel_hop_us", "us", Better::Lower),
    layer("link.thread_handoff_us", "us", Better::Lower),
    layer("transport.channel_ms_per_sample", "ms", Better::Lower),
    layer("transport.tcp_ms_per_sample", "ms", Better::Lower),
    layer("transport.udp_arq_ms_per_sample", "ms", Better::Lower),
    layer("transport.frames_per_sample", "count", Better::Lower),
    layer("transport.wire_bytes_per_sample", "bytes", Better::Lower),
    layer("reliability.crc_ms_per_sample", "ms", Better::Lower),
    layer("reliability.arq_ms_per_sample", "ms", Better::Lower),
    layer("reliability.ack_bytes_per_sample", "bytes", Better::Lower),
    layer("reliability.retransmits_per_ksample", "count", Better::Lower),
    layer("runner.spinup_ms", "ms", Better::Lower),
    layer("runner.cpu_ms_per_sample", "ms", Better::Lower),
    layer("runner.stream_p50_ms", "ms", Better::Lower),
    layer("runner.stream_dispatch_floor_ms", "ms", Better::Lower),
    layer("runner.stream_p50_at_700_ms", "ms", Better::Lower),
    layer("runner.stream_p95_ms", "ms", Better::Lower),
    layer("runner.stream_p99_ms", "ms", Better::Lower),
    layer("runner.stream_max_ms", "ms", Better::Lower),
    layer("runner.stream_overrun_s", "s", Better::Lower),
    layer("runner.critical_path_ms", "ms", Better::Lower),
    layer("runner.residual_ms", "ms", Better::Lower),
    layer("multiproc.launch_ms", "ms", Better::Lower),
    layer("multiproc.process_boundary_ms_per_sample", "ms", Better::Lower),
    layer("multiproc.cpu_ms_per_sample", "ms", Better::Lower),
    layer("node.deadline_expiries", "count", Better::Lower),
    layer("node.offloads_per_sample", "count", Better::Lower),
    layer("obs.memory_sink_overhead_pct", "%", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
    layer("trace.self.message_ms", "ms", Better::Lower),
    layer("trace.self.link_ms", "ms", Better::Lower),
    layer("trace.self.core_ms", "ms", Better::Lower),
    layer("trace.self.nn_ms", "ms", Better::Lower),
    layer("trace.self.replay_ms", "ms", Better::Lower),
    layer("trace.replay_ms_per_sample", "ms", Better::Lower),
    layer("trace.replayed_samples", "count", Better::Higher),
    layer("trace.train_steps", "count", Better::Higher),
    layer("trace.wall_s", "s", Better::Lower),
];

/// The unit the manifest gives metric `name`.
///
/// # Panics
///
/// Panics when no end-to-end or per-layer metric has that name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the manifest"))
        .1
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> String {
    let strings =
        |items: &[&str]| json::array(&items.iter().map(|s| json::string(s)).collect::<Vec<_>>());
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            json::object(&[("name", json::string(name)), ("why", json::string(why))])
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            json::object(&[
                ("name", json::string(m.name)),
                ("unit", json::string(m.unit)),
                ("better", json::string(m.better.name())),
                ("bound", json::number(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            json::object(&[
                ("name", json::string(m.name)),
                ("unit", json::string(m.unit)),
                ("better", json::string(m.better.name())),
            ])
        })
        .collect();
    let lines = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
        strings(&["benchmark"]),
        lines(&workloads),
        lines(&end_to_end),
        lines(&per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest(), "regenerate with `benchmark manifest > BENCHMARK.json`");
    }
}
