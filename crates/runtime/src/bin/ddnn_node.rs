//! `ddnn-node` — the runtime's multi-process face.
//!
//! * `ddnn-node host` hosts one topology role (all devices, the gateway,
//!   or a feature tier) over the launcher's stdio handshake; data frames
//!   travel over localhost TCP or UDP sockets. This is the subcommand
//!   [`multiproc::launch`] spawns — it is not meant to be run by hand.
//! * `ddnn-node demo --transport tcp|udp [--samples N]` is the
//!   end-to-end smoke check: it runs a seeded edge hierarchy once
//!   in-process and once as four OS processes on localhost, and exits
//!   nonzero unless the two runs agree verdict for verdict. CI runs this
//!   as the multi-process gate.
//! * `ddnn-node demo ... --kill <role>@<sample> [--respawn-after N]`
//!   SIGKILLs a role process (`devices`, `gateway`, `tier0`, `tier1`,
//!   ...) mid-run — optionally respawning it N samples later — and shows
//!   the supervised runtime degrading with typed outcomes instead of
//!   hanging. Pre-kill verdicts must still match the fault-free run.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    multiproc, run_topology, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, HierarchyConfig,
    ProcTarget, ReliabilityConfig, SampleOutcome, SimReport, Topology, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ddnn-node host");
    eprintln!(
        "       ddnn-node demo --transport tcp|udp [--samples N] \
         [--kill <role>@<sample> [--respawn-after N]]"
    );
    eprintln!("       roles: devices, gateway, tier0, tier1, ...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("host") => multiproc::host_role().map_err(|e| format!("ddnn-node host: {e}")),
        Some("demo") => match demo_args(&args[1..]) {
            Some((transport, samples, kill, respawn_after)) => {
                demo(transport, samples, kill, respawn_after)
                    .map_err(|e| format!("ddnn-node demo: {e}"))
            }
            None => return usage(),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// A kill of a role process before a sample.
type Kill = Option<(ProcTarget, u64)>;

/// The demo's flags — transport, sample count, kill and respawn delay —
/// or `None` for a command line that is not one.
fn demo_args(args: &[String]) -> Option<(TransportConfig, usize, Kill, Option<u64>)> {
    let (mut transport, mut samples, mut kill, mut respawn_after) = (None, 10, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--transport" => {
                transport = Some(value.parse().ok().filter(|t: &TransportConfig| t.is_socket())?)
            }
            "--samples" => samples = value.parse().ok().filter(|&n| n > 0)?,
            "--kill" => {
                let (role, at) = value.split_once('@')?;
                kill = Some((role.parse().ok()?, at.parse().ok()?));
            }
            "--respawn-after" => respawn_after = Some(value.parse().ok().filter(|&n| n > 0)?),
            _ => return None,
        }
    }
    // A respawn needs a kill.
    Some((transport?, samples, kill, respawn_after))
        .filter(|_| kill.is_some() || respawn_after.is_none())
}

fn demo(
    transport: TransportConfig,
    samples: usize,
    kill: Kill,
    respawn_after: Option<u64>,
) -> Result<(), String> {
    let mut chaos = ChaosPlan::none();
    if let Some((role, at)) = kill {
        let target = ChaosTarget::Process(role);
        chaos = chaos.with(ChaosWhen::BeforeSample(at), target.clone(), ChaosAction::Down);
        if let Some(after) = respawn_after {
            chaos = chaos.with(ChaosWhen::BeforeSample(at + after), target, ChaosAction::Up);
        }
    }

    // A seeded edge hierarchy: devices + gateway + edge tier + cloud
    // tier, so the launcher spawns all four role processes.
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
        (0..2).map(|_| Tensor::rand_uniform([samples, 3, 32, 32], 0.0, 1.0, &mut rng)).collect();
    let labels: Vec<usize> = (0..samples).map(|i| i % 3).collect();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        // ARQ everywhere: required on UDP, exercised on TCP too so the
        // demo covers the ack path on both socket transports.
        reliability: ReliabilityConfig::arq(),
        transport,
        chaos,
        ..HierarchyConfig::default()
    };

    let topology = Topology::from_partition(&model.partition());
    // The in-process reference is always fault-free: it is what the
    // surviving samples of a chaotic run are compared against.
    let channel = HierarchyConfig {
        transport: TransportConfig::Channel,
        chaos: ChaosPlan::none(),
        ..cfg.clone()
    };
    let reference = run_topology(&topology, &views, &labels, &channel)
        .map_err(|e| format!("in-process reference run failed: {e}"))?;
    let node_exe =
        std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let multi = multiproc::launch(&node_exe, model.config(), &views, &labels, &cfg)
        .map_err(|e| format!("multi-process launch failed: {e}"))?;

    if let Some((role, at)) = kill {
        // Chaotic run: every sample must end typed, and the samples
        // classified before the kill must still match the fault-free run.
        let classified =
            multi.outcomes.iter().filter(|o| matches!(o, SampleOutcome::Classified)).count();
        let timed_out =
            multi.outcomes.iter().filter(|o| matches!(o, SampleOutcome::TimedOut { .. })).count();
        if classified + timed_out != samples {
            return Err(format!("untyped outcome in {:?}", multi.outcomes));
        }
        let pre_kill = at.min(samples as u64) as usize;
        if multi.predictions[..pre_kill] != reference.predictions[..pre_kill] {
            return Err("pre-kill verdicts diverged from the fault-free run".to_string());
        }
        let counter = |suffix: &str| {
            let name = format!("proc.{role}.{suffix}");
            multi.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
        };
        println!(
            "ddnn-node demo: killed {role} at sample {at} over {} — {classified} classified, \
             {timed_out} typed timeouts, kills={}, respawns={}; no hang, no panic",
            transport.name(),
            counter("kills"),
            counter("respawns"),
        );
        return Ok(());
    }

    let verdicts = |r: &SimReport| (r.predictions.clone(), r.exits.clone());
    if verdicts(&reference) != verdicts(&multi) {
        return Err(format!(
            "VERDICT MISMATCH over {0}\n  in-process: {1:?} {2:?}\n  {0}-process: {3:?} {4:?}",
            transport.name(),
            reference.predictions,
            reference.exits,
            multi.predictions,
            multi.exits
        ));
    }
    println!(
        "ddnn-node demo: {} samples over {} — 4 role processes agreed with the in-process run \
         (accuracy {:.3}, local exits {:.2})",
        samples,
        transport.name(),
        multi.accuracy,
        multi.local_exit_fraction,
    );
    Ok(())
}
