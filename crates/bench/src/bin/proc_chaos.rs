//! **Process-chaos bench (DESIGN.md §14)**: graceful degradation of the
//! supervised multi-process runtime under real role kills. Each cell
//! runs the same seeded four-process hierarchy (devices, gateway, two
//! feature tiers) over localhost sockets and SIGKILLs a growing set of
//! roles at seeded sample points — plus a final cell that respawns every
//! killed role two samples later. Classified fraction and accuracy must
//! fall *gradually* with the kill set (a dead terminal tier only starves
//! the samples that would have escalated to it) and recover with
//! respawns; every sample always terminates with a typed outcome.
//!
//! Emits `results/BENCH_proc_chaos.json`. Pass `--smoke` (or set
//! `DDNN_BENCH_SMOKE=1`) for a seconds-long run on fewer samples.

use ddnn_bench::harness::format_table;
use ddnn_bench::util::{smoke_mode, write_results_json};
use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    multiproc, ChaosPlan, ChaosTarget, DeadlineConfig, HierarchyConfig, ProcTarget,
    ReliabilityConfig, SampleOutcome, SimReport, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `ddnn-node` binary: `DDNN_NODE_EXE` if set, else the sibling of
/// this bench binary (both live in the same Cargo target directory).
fn node_exe() -> PathBuf {
    if let Ok(p) = std::env::var("DDNN_NODE_EXE") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push(format!("ddnn-node{}", std::env::consts::EXE_SUFFIX));
    assert!(
        p.exists(),
        "ddnn-node not found at {} — build it (`cargo build --release -p ddnn-runtime`) or set \
         DDNN_NODE_EXE",
        p.display()
    );
    p
}

struct Cell {
    transport: TransportConfig,
    scenario: &'static str,
    samples: usize,
    classified: usize,
    timed_out: usize,
    kills: u64,
    respawns: u64,
    accuracy: f32,
    wall_s: f64,
}

fn counter_sum(report: &SimReport, suffix: &str) -> u64 {
    report
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("proc.") && n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

fn run_cell(
    node: &Path,
    model: &Ddnn,
    views: &[Tensor],
    labels: &[usize],
    transport: TransportConfig,
    (scenario, roles, respawn_after): (&'static str, &[ProcTarget], u64),
) -> Cell {
    let n = labels.len();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig {
            aggregation_ms: 100,
            watchdog_ms: 500,
            max_retries: 1,
            suspect_after: 2,
        }),
        reliability: ReliabilityConfig::arq(),
        transport,
        chaos: ChaosPlan::seeded_kills(
            0xD15EA5E,
            n as u64,
            &roles.iter().map(|&r| ChaosTarget::Process(r)).collect::<Vec<_>>(),
            respawn_after,
        ),
        ..HierarchyConfig::default()
    };
    let t0 = Instant::now();
    let report = multiproc::launch(node, model.config(), views, labels, &cfg)
        .unwrap_or_else(|e| panic!("{} {scenario} cell failed: {e}", transport.name()));
    let wall_s = t0.elapsed().as_secs_f64();
    let classified =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
    let timed_out =
        report.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count();
    assert_eq!(classified + timed_out, n, "{scenario}: untyped outcome");
    Cell {
        transport,
        scenario,
        samples: n,
        classified,
        timed_out,
        kills: counter_sum(&report, ".kills"),
        respawns: counter_sum(&report, ".respawns"),
        accuracy: report.accuracy,
        wall_s,
    }
}

fn main() {
    let smoke = smoke_mode();
    let n = if smoke { 10 } else { 32 };
    let model = Ddnn::new(DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        seed: 11,
        ..DdnnConfig::default()
    });
    let mut rng = rng_from_seed(6);
    let views: Vec<Tensor> =
        (0..2).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let node = node_exe();

    let all_roles =
        [ProcTarget::Devices, ProcTarget::Gateway, ProcTarget::Tier(0), ProcTarget::Tier(1)];
    // The kill set grows from the leaf of the escalation chain inward:
    // a dead terminal tier starves only escalations, a dead tier0 starves
    // all of them, a dead gateway or devices process starves everything.
    let scenarios: [(&'static str, &[ProcTarget], u64); 5] = [
        ("fault-free", &[], 0),
        ("kill-tier1", &[ProcTarget::Tier(1)], 0),
        ("kill-tiers", &[ProcTarget::Tier(0), ProcTarget::Tier(1)], 0),
        ("kill-all", &all_roles, 0),
        ("kill-all+respawn", &all_roles, 2),
    ];

    let mut cells = Vec::new();
    for transport in [TransportConfig::Tcp, TransportConfig::Udp] {
        let mut by_scenario = Vec::new();
        for scenario in scenarios {
            by_scenario.push(run_cell(&node, &model, &views, &labels, transport, scenario));
        }
        assert_eq!(
            by_scenario[0].classified,
            n,
            "{}: the fault-free cell must classify everything",
            transport.name()
        );
        // Degradation is graded, and respawns buy samples back.
        assert!(
            by_scenario[1].classified >= by_scenario[3].classified,
            "{}: killing one leaf tier starved more than killing every role",
            transport.name()
        );
        assert!(
            by_scenario[4].classified >= by_scenario[3].classified,
            "{}: respawning every killed role classified fewer samples than leaving them dead",
            transport.name()
        );
        cells.extend(by_scenario);
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.transport.name().to_string(),
                c.scenario.to_string(),
                c.samples.to_string(),
                c.classified.to_string(),
                c.timed_out.to_string(),
                c.kills.to_string(),
                c.respawns.to_string(),
                format!("{:.3}", c.accuracy),
                format!("{:.2}", c.wall_s),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "transport",
                "scenario",
                "samples",
                "classified",
                "timed_out",
                "kills",
                "respawns",
                "accuracy",
                "wall_s"
            ],
            &rows,
        )
    );

    let mut json = String::from("{\n  \"bench\": \"proc_chaos\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"scenario\": \"{}\", \"samples\": {}, \
             \"classified\": {}, \"timed_out\": {}, \"kills\": {}, \"respawns\": {}, \
             \"accuracy\": {:.4}, \"wall_s\": {:.3}}}{}\n",
            c.transport.name(),
            c.scenario,
            c.samples,
            c.classified,
            c.timed_out,
            c.kills,
            c.respawns,
            c.accuracy,
            c.wall_s,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    write_results_json("results/BENCH_proc_chaos.json", &json);
}
