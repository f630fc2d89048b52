//! The chaos plan's contract (DESIGN.md §7): every `(when, target, action)`
//! combination is accepted by exactly the runners the table there says
//! support it, and `ChaosPlan::validate` — the one gate in front of all of
//! them — never panics on an arbitrary event list and only lets strictly
//! alternating Down/Up schedules through.

use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig};
use ddnn_runtime::{
    run_cloud_only_baseline, ChaosAction, ChaosEvent, ChaosPlan, ChaosTarget, ChaosWhen,
    DeadlineConfig, ElasticConfig, HierarchyConfig, Impairment, ProcTarget, ReliabilityConfig,
    RuntimeError, Topology, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;

const DEVICES: usize = 2;

fn edge_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: DEVICES,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        ..DdnnConfig::default()
    })
}

/// Who is about to execute the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Runner {
    /// `run_topology`, in-process channels, elastic orchestration on.
    Channel,
    /// `run_topology` over localhost TCP, elastic orchestration on.
    Tcp,
    /// `run_cloud_only_baseline` (channels, no gateway, no elastic).
    Baseline,
    /// `multiproc::launch` over TCP + ARQ.
    Launcher,
    /// `multiproc::launch` over TCP + ARQ, elastic orchestration on.
    ElasticLauncher,
}
use Runner::{Baseline, Channel, ElasticLauncher, Launcher, Tcp};

/// What `runner` says to `plan`: `Ok` or its typed configuration error.
/// The staged runners are asked through `ChaosPlan::validate`, the one
/// function all of them call; the baseline through its entry point (its
/// cloud-only topology is not constructible from outside the crate).
fn verdict(runner: Runner, plan: &ChaosPlan) -> Result<(), String> {
    let model = edge_model();
    let base = HierarchyConfig {
        chaos: plan.clone(),
        deadlines: Some(DeadlineConfig::fast()),
        ..HierarchyConfig::default()
    };
    let elastic = Some(ElasticConfig::fast());
    let topology = Topology::from_partition(&model.partition());
    let result = match runner {
        Channel => plan.validate(&topology, &HierarchyConfig { elastic, ..base.clone() }, false),
        Tcp => {
            let cfg = HierarchyConfig { elastic, transport: TransportConfig::Tcp, ..base.clone() };
            plan.validate(&topology, &cfg, false)
        }
        Launcher | ElasticLauncher => {
            let cfg = HierarchyConfig {
                elastic: elastic.filter(|_| runner == ElasticLauncher),
                transport: TransportConfig::Tcp,
                reliability: ReliabilityConfig::arq(),
                ..base.clone()
            };
            plan.validate(&topology, &cfg, true)
        }
        Baseline => {
            let mut rng = rng_from_seed(4);
            let views: Vec<Tensor> = (0..DEVICES)
                .map(|_| Tensor::rand_uniform([2, 3, 32, 32], 0.0, 1.0, &mut rng))
                .collect();
            run_cloud_only_baseline(&model.partition(), &views, &[0, 1], &base).map(|_| ())
        }
    };
    match result {
        Ok(()) => Ok(()),
        Err(RuntimeError::Config { reason }) => Err(reason),
        Err(other) => panic!("{runner:?} answered {plan:?} with a non-Config error: {other}"),
    }
}

fn whens() -> [ChaosWhen; 3] {
    [ChaosWhen::Start, ChaosWhen::BeforeSample(1), ChaosWhen::AfterFrames(3)]
}

fn targets() -> [ChaosTarget; 5] {
    [
        ChaosTarget::Links,
        ChaosTarget::Device(0),
        ChaosTarget::Gateway,
        ChaosTarget::Tier("edge".to_string()),
        ChaosTarget::Process(ProcTarget::Gateway),
    ]
}

fn actions() -> [ChaosAction; 3] {
    let lossy = Impairment { drop: 0.1, delay_ms: 1, ..Impairment::none() };
    [ChaosAction::Impair(lossy), ChaosAction::Down, ChaosAction::Up]
}

/// DESIGN.md §7: the runners that accept each supported combination.
/// Every other combination is rejected by every runner.
fn supported(when: ChaosWhen, target: &ChaosTarget, action: ChaosAction) -> &'static [Runner] {
    use {ChaosAction as A, ChaosTarget as T, ChaosWhen as W};
    match (when, target, action) {
        (W::Start, T::Links, A::Impair(_)) | (W::AfterFrames(_), T::Device(_), A::Down) => {
            &[Channel, Tcp, Baseline, Launcher, ElasticLauncher]
        }
        (W::BeforeSample(_), T::Device(_) | T::Gateway | T::Tier(_), A::Down | A::Up) => {
            &[Channel, Tcp, ElasticLauncher]
        }
        (W::BeforeSample(_), T::Process(_), A::Down | A::Up) => &[Launcher, ElasticLauncher],
        (W::AfterFrames(_), T::Gateway | T::Tier(_), A::Down) => {
            &[Channel, Tcp, Launcher, ElasticLauncher]
        }
        _ => &[],
    }
}

#[test]
fn each_combination_is_accepted_by_exactly_the_runners_that_support_it() {
    for when in whens() {
        for target in targets() {
            for action in actions() {
                let mut plan = ChaosPlan { seed: 3, events: Vec::new() };
                if action == ChaosAction::Up && when == ChaosWhen::BeforeSample(1) {
                    // An Up needs the Down it undoes.
                    plan = plan.with(ChaosWhen::BeforeSample(0), target.clone(), ChaosAction::Down);
                }
                plan = plan.with(when, target.clone(), action);
                let supported = supported(when, &target, action);
                for runner in [Channel, Tcp, Baseline, Launcher, ElasticLauncher] {
                    let got = verdict(runner, &plan);
                    assert_eq!(
                        got.is_ok(),
                        supported.contains(&runner),
                        "{runner:?} on {when:?} × {target:?} × {action:?}: {got:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn rejections_name_what_the_event_needs() {
    let rejected = |runner, plan: &ChaosPlan, needle: &str| {
        let reason = verdict(runner, plan).expect_err("must be rejected");
        assert!(reason.contains(needle), "{runner:?}: expected {needle:?} in {reason:?}");
    };
    let impair =
        |target, imp| ChaosPlan::none().with(ChaosWhen::Start, target, ChaosAction::Impair(imp));
    // A process can only be killed where there are processes: one reason,
    // from both in-process entry points.
    let kill = ChaosPlan::none().with(
        ChaosWhen::BeforeSample(1),
        ChaosTarget::Process(ProcTarget::Gateway),
        ChaosAction::Down,
    );
    rejected(Channel, &kill, "multi-process");
    rejected(Baseline, &kill, "multi-process");
    let far = ChaosTarget::Process(ProcTarget::Tier(9));
    let plan = ChaosPlan::none().with(ChaosWhen::BeforeSample(1), far, ChaosAction::Down);
    rejected(Launcher, &plan, "out of range");
    // Node churn needs the elastic driver's pings; the baseline has
    // devices only.
    let lossy = Impairment { drop: 0.1, ..Impairment::none() };
    let churn =
        ChaosPlan::none().with(ChaosWhen::BeforeSample(1), ChaosTarget::Gateway, ChaosAction::Down);
    rejected(Launcher, &churn, "elastic");
    let gateway =
        ChaosPlan::none().with(ChaosWhen::AfterFrames(1), ChaosTarget::Gateway, ChaosAction::Down);
    rejected(Baseline, &gateway, "no gateway or tiers");
    // Only a TCP stream can be severed; every other rate applies on every
    // runner, and all of them lie in [0, 1].
    let sever = Impairment { sever: 0.2, ..Impairment::none() };
    rejected(Channel, &impair(ChaosTarget::Links, sever), "TCP");
    rejected(Baseline, &impair(ChaosTarget::Links, sever), "TCP");
    for runner in [Tcp, Launcher, ElasticLauncher] {
        assert!(verdict(runner, &impair(ChaosTarget::Links, sever)).is_ok(), "{runner:?}");
    }
    for imp in [
        Impairment { corrupt: 0.1, ..Impairment::none() },
        Impairment { truncate: 0.1, ..Impairment::none() },
        Impairment { reorder: 0.1, ..Impairment::none() },
    ] {
        for runner in [Channel, Tcp, Baseline, Launcher, ElasticLauncher] {
            assert!(verdict(runner, &impair(ChaosTarget::Links, imp)).is_ok(), "{imp:?}");
        }
    }
    for imp in [
        Impairment { drop: 1.5, ..Impairment::none() },
        Impairment { duplicate: -0.1, ..Impairment::none() },
        Impairment { sever: 2.0, ..Impairment::none() },
        Impairment { drop: f32::NAN, ..Impairment::none() },
    ] {
        rejected(Tcp, &impair(ChaosTarget::Links, imp), "outside [0, 1]");
    }
    rejected(
        Channel,
        &impair(ChaosTarget::Links, lossy).with(
            ChaosWhen::Start,
            ChaosTarget::Links,
            ChaosAction::Impair(lossy),
        ),
        "twice",
    );
    // An all-zero impairment is no chaos at all; a delay alone is.
    assert!(!impair(ChaosTarget::Links, Impairment::none()).is_active());
    assert!(
        impair(ChaosTarget::Links, Impairment { delay_ms: 5, ..Impairment::none() }).is_active()
    );

    // What the run itself must offer: elastic orchestration for node
    // churn. Every run has deadlines, so link impairments need nothing.
    let model = edge_model();
    let topology = Topology::from_partition(&model.partition());
    let needs = |plan: &ChaosPlan, cfg: &HierarchyConfig, needle: &str| match plan
        .validate(&topology, cfg, false)
    {
        Err(RuntimeError::Config { reason }) => assert!(reason.contains(needle), "{reason}"),
        other => panic!("expected a {needle:?} rejection, got {other:?}"),
    };
    for imp in [lossy, Impairment::none()] {
        let plan = impair(ChaosTarget::Links, imp);
        assert!(plan.validate(&topology, &HierarchyConfig::default(), false).is_ok());
    }
    let churn = ChaosPlan::none().with(
        ChaosWhen::BeforeSample(0),
        ChaosTarget::Device(1),
        ChaosAction::Down,
    );
    needs(&churn, &HierarchyConfig::default(), "elastic");
}

/// Decodes one arbitrary word into an event: every `when`, every target
/// kind (in and out of range, known and unknown names) and every action
/// (with in-range, out-of-range and NaN rates) is reachable.
fn event_from(word: u64) -> ChaosEvent {
    let field = |shift: u32, n: u64| (word >> shift) % n;
    let when = match field(0, 4) {
        0 => ChaosWhen::Start,
        1 => ChaosWhen::AfterFrames(field(8, 5)),
        _ => ChaosWhen::BeforeSample(field(8, 5)),
    };
    let target = match field(16, 8) {
        0 | 1 => ChaosTarget::Links,
        2 | 3 => ChaosTarget::Device(field(24, 3) as usize),
        4 => ChaosTarget::Gateway,
        5 => ChaosTarget::Tier(["edge", "cloud", "fog"][field(24, 3) as usize].to_string()),
        6 => ChaosTarget::Process(ProcTarget::Tier(field(24, 3) as usize)),
        _ => ChaosTarget::Process(ProcTarget::Devices),
    };
    let rate = |shift: u32| [0.0, 0.0, 0.25, 1.0, 1.5, -0.1, f32::NAN][field(shift, 7) as usize];
    let action = match field(32, 5) {
        0 => ChaosAction::Impair(Impairment {
            drop: rate(36),
            delay_ms: field(40, 3) as u32,
            corrupt: rate(44),
            sever: rate(48),
            ..Impairment::none()
        }),
        1 | 2 => ChaosAction::Down,
        _ => ChaosAction::Up,
    };
    ChaosEvent { when, target, action }
}

#[test]
fn validate_never_panics_and_accepts_only_alternating_schedules() {
    let model = edge_model();
    let topology = Topology::from_partition(&model.partition());
    let everything = HierarchyConfig {
        deadlines: Some(DeadlineConfig::fast()),
        elastic: Some(ElasticConfig::fast()),
        reliability: ReliabilityConfig::arq(),
        transport: TransportConfig::Tcp,
        ..HierarchyConfig::default()
    };
    let plans = prop::collection::vec(0u64..u64::MAX, 0..5);
    let mut rng = proptest::test_runner::rng_for("chaos_plan_validate");
    let mut accepted = 0;
    for _ in 0..2000 {
        let events: Vec<ChaosEvent> = plans.sample(&mut rng).into_iter().map(event_from).collect();
        let plan = ChaosPlan { seed: 1, events };
        for processes in [false, true] {
            match plan.validate(&topology, &everything, processes) {
                Err(RuntimeError::Config { .. }) => continue,
                Err(other) => panic!("{plan:?}: non-Config error {other}"),
                Ok(()) => accepted += 1,
            }
            for target in plan.events.iter().map(|e| &e.target) {
                let mut steps: Vec<(u64, ChaosAction)> = (plan.events.iter())
                    .filter(|e| e.target == *target)
                    .filter_map(|e| match e.when {
                        ChaosWhen::BeforeSample(at) => Some((at, e.action)),
                        _ => None,
                    })
                    .collect();
                steps.sort_by_key(|&(at, _)| at);
                for (i, &(at, action)) in steps.iter().enumerate() {
                    let expected = if i % 2 == 0 { ChaosAction::Down } else { ChaosAction::Up };
                    assert_eq!(action, expected, "{target:?} step {i} of {plan:?}");
                    assert!(
                        i == 0 || steps[i - 1].0 < at,
                        "{target:?} repeats sample {at}: {plan:?}"
                    );
                }
            }
        }
    }
    assert!(
        accepted >= 100,
        "only {accepted} arbitrary plans were accepted: the property is vacuous"
    );
}
