//! Dynamic fault injection (DESIGN.md §7): the network misbehaves *mid-run*
//! and the hierarchy degrades instead of hanging.
//!
//! Unlike `fault_tolerance` (where failures are declared before the run),
//! this example injects a seeded fault plan into the live links — 10% frame
//! drops, 5% duplication, delay jitter, and one camera crashing partway
//! through the test set — and lets the deadline-based aggregators discover
//! the damage: missing contributions are substituted with blank signatures
//! after a deadline, the orchestrator watchdog retransmits lost captures,
//! and the run always terminates, reporting exactly how degraded it was.
//!
//! Run with: `cargo run --release --example dynamic_faults`

use ddnn::core::{train, Ddnn, DdnnConfig, ExitThreshold, TrainConfig};
use ddnn::data::{all_device_batches, labels, MvmcConfig, MvmcDataset};
use ddnn::runtime::{
    run_distributed_inference, ChaosAction, ChaosPlan, ChaosTarget, ChaosWhen, HierarchyConfig,
    Impairment,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = MvmcDataset::generate(MvmcConfig::tiny(480, 120, 33));
    let n_dev = ds.num_devices();
    let train_views = all_device_batches(&ds.train, n_dev)?;
    let test_views = all_device_batches(&ds.test, n_dev)?;
    let test_labels = labels(&ds.test);
    let n_samples = test_labels.len();

    let mut model = Ddnn::new(DdnnConfig::paper());
    train(
        &mut model,
        &train_views,
        &labels(&ds.train),
        &TrainConfig { epochs: 35, ..TrainConfig::default() },
    )?;
    let partition = model.partition();
    let t = ExitThreshold::new(0.8);

    let clean = run_distributed_inference(
        &partition,
        &test_views,
        &test_labels,
        &HierarchyConfig { local_threshold: t, ..HierarchyConfig::default() },
    )?;
    println!(
        "calm network      : accuracy {:.1}%, {:.0}% exited locally",
        clean.accuracy * 100.0,
        clean.local_exit_fraction * 100.0
    );

    // A hostile network: every link drops 10% of frames and duplicates 5%,
    // with up to 2 ms of jitter, and camera 6 dies mid-run. The seeded plan
    // makes the whole disaster reproducible.
    let hostile = Impairment { drop: 0.10, duplicate: 0.05, delay_ms: 2, ..Impairment::none() };
    let plan = ChaosPlan::links(42, hostile).with(
        ChaosWhen::AfterFrames(n_samples as u64 / 2),
        ChaosTarget::Device(5),
        ChaosAction::Down,
    );
    let report = run_distributed_inference(
        &partition,
        &test_views,
        &test_labels,
        &HierarchyConfig { local_threshold: t, chaos: plan, ..HierarchyConfig::default() },
    )?;

    println!(
        "hostile network   : accuracy {:.1}%, {:.0}% exited locally",
        report.accuracy * 100.0,
        report.local_exit_fraction * 100.0
    );
    println!(
        "degradation       : {:.0}% of samples finalized with a blank substitution",
        report.degraded_fraction * 100.0
    );
    println!(
        "                    {} substitutions charged to camera 6, {} watchdog retransmissions, {} samples abandoned",
        report.device_timeouts[5],
        report.capture_retries,
        report.timed_out_count()
    );
    let (dropped, duplicated): (usize, usize) = report
        .links
        .iter()
        .fold((0, 0), |(d, u), (_, s)| (d + s.frames_dropped, u + s.frames_duplicated));
    println!("on the wire       : {dropped} frames dropped, {duplicated} duplicated deliveries");
    println!("\nevery sample accounted for — no hang, no retraining, no reconfiguration.");
    Ok(())
}
