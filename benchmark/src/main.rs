//! `benchmark` — the one repeatable DDNN-RS benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run <workload> [--seed S] [--seconds N] [--trace] [--smoke]
//! benchmark all        [--seed S] [--seconds N] [--smoke]
//! benchmark selfcheck  [--seed S] [--seconds N]
//! benchmark manifest   (prints BENCHMARK.json)
//! benchmark host       (a role process of `procs_tcp_arq`; not for hand use)
//! ```
//!
//! A run prints a report header (one JSON line) and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace` the per-layer
//! metrics (the spans go to `benchmark/results/trace_<workload>.json`).
//! The exit code is non-zero when an oracle check failed. `README.md`
//! defines every metric.

mod defs;
mod json;
mod layers;
mod procstat;
mod report;
mod stats;
mod trace;
mod workloads;

use defs::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::RunInfo;
use std::process::ExitCode;
use workloads::Plan;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A reading of the manifest metric `name`; the unit comes from the
    /// manifest, so a report cannot disagree with `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when the manifest lists no such metric.
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value, unit: defs::unit_of(name) }
    }
}

/// Where the span files go, relative to the checkout root.
const RESULTS_DIR: &str = "benchmark/results";

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       benchmark run <workload> [--seed S] [--seconds N] [--trace] [--smoke]
       benchmark all [--seed S] [--seconds N] [--smoke]
       benchmark selfcheck [--seed S] [--seconds N]
       benchmark manifest
workloads: stream_paper burst_escalate procs_tcp_arq train_paper";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        it.next();
        if cli.command == "run" {
            cli.workload = Some(it.next().ok_or("run needs a workload")?.clone());
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {s} must be positive"));
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` (driver form) or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

impl Cli {
    fn plan(&self) -> Plan {
        let default = if self.smoke { 0.3 } else { f64::from(RUN_SECONDS) };
        Plan { seed: self.seed, seconds: self.seconds.unwrap_or(default), smoke: self.smoke }
    }
}

/// One finished run, traced or not.
struct Finished {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    info: RunInfo,
}

impl Finished {
    fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Puts `metrics` in manifest order and insists on exactly the manifest's
/// set, so a metric can be neither forgotten nor invented.
fn in_manifest_order(metrics: Vec<Metric>, names: &[&'static str]) -> Vec<Metric> {
    assert_eq!(metrics.len(), names.len(), "metric count differs from the manifest");
    names
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .clone()
        })
        .collect()
}

fn run_one(workload: &str, plan: &Plan, trace: bool) -> Option<Finished> {
    let mut info = RunInfo { trace, ..RunInfo::of(workload, plan) };
    let (attempted, failed, metrics, violations) = if trace {
        let out = layers::run(workload, plan)?;
        info.units_per_round = out.attempted as usize;
        let names: Vec<&'static str> = PER_LAYER.iter().map(|m| m.name).collect();
        let path = format!("{RESULTS_DIR}/trace_{workload}.json");
        let written = std::fs::create_dir_all(RESULTS_DIR)
            .and_then(|()| std::fs::write(&path, out.recorder.to_json(&report::header(&info))));
        match written {
            Ok(()) => eprintln!("benchmark: wrote {} spans to {path}", out.recorder.spans().len()),
            Err(e) => eprintln!("benchmark: could not write {path}: {e}"),
        }
        (out.attempted, out.failed, in_manifest_order(out.metrics, &names), out.violations)
    } else {
        let out = workloads::run(workload, plan)?;
        info.round_walls_ms = out.round_walls_s.iter().map(|w| w * 1e3).collect();
        info.round_p50_ms = out.round_p50_ms;
        info.units_per_round = out.units_per_round;
        let names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
        (out.attempted, out.failed, in_manifest_order(out.metrics, &names), out.violations)
    };
    for v in &violations {
        eprintln!("benchmark: {workload}: CHECK FAILED: {v}");
    }
    Some(Finished { correct: violations.is_empty(), attempted, failed, metrics, info })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload as a process of its own and returns its result line
/// with whether it exited cleanly. `all` and `selfcheck` go through here so
/// that every run starts from a fresh heap: inside one process the
/// allocator keeps what earlier runs freed, and `peak_rss_mb` would grow
/// from run to run.
fn run_in_child(workload: &str, plan: &Plan) -> (String, bool) {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut command = std::process::Command::new(exe);
    command.args(["run", workload, "--seed", &plan.seed.to_string()]);
    command.args(["--seconds", &plan.seconds.to_string()]);
    if plan.smoke {
        command.arg("--smoke");
    }
    // stderr is inherited: failed checks stay visible.
    let out = command.stderr(std::process::Stdio::inherit()).output().expect("run a workload");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("null").to_string();
    (line, out.status.success())
}

/// Reads one metric's value back out of a result line this binary wrote.
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// `all`: the four workloads one after another, one merged JSON line.
fn run_all(plan: &Plan) -> ExitCode {
    let mut ok = true;
    let mut fields = Vec::new();
    for (workload, _) in WORKLOADS {
        let (line, clean) = run_in_child(workload, plan);
        ok &= clean;
        fields.push((workload, line));
    }
    println!(
        "{}",
        json::object(&[
            ("header", report::header(&RunInfo::of("all", plan))),
            ("smoke", plan.smoke.to_string()),
            ("workloads", json::object(&fields)),
        ])
    );
    exit_code(ok)
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when it is better.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `selfcheck`: two sets of three runs of the same code per workload; the
/// second set's median may not be worse than the first's by more than the
/// metric's bound.
fn selfcheck(plan: &Plan) -> ExitCode {
    const RUNS_PER_SET: u64 = 3;
    let mut ok = true;
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut sets: Vec<Vec<String>> = Vec::new();
        for _ in 0..2 {
            let runs: Vec<String> = (0..RUNS_PER_SET)
                .map(|k| {
                    let (line, clean) =
                        run_in_child(workload, &Plan { seed: plan.seed + k, ..*plan });
                    ok &= clean;
                    line
                })
                .collect();
            sets.push(runs);
        }
        for def in &END_TO_END {
            let values = |set: &[String]| -> Vec<f64> {
                set.iter().filter_map(|line| metric_value(line, def.name)).collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            if first.len() + second.len() < 2 * RUNS_PER_SET as usize {
                eprintln!("selfcheck {workload}: {} missing from a result", def.name);
                ok = false;
                continue;
            }
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let worse = worsening(def.better, m1, m2);
            let both: Vec<f64> = first.iter().chain(&second).copied().collect();
            let within = worse <= def.bound;
            ok &= within;
            eprintln!(
                "selfcheck {workload:<15} {:<24} {m1:>12.4} -> {m2:>12.4}  worse by {:>7.3} %  \
                 (bound {:>5.1} %, spread {:>6.3} %) {}",
                def.name,
                worse * 100.0,
                def.bound * 100.0,
                stats::quartile_spread(&both) * 100.0,
                if within { "ok" } else { "PAST BOUND" },
            );
            rows.push(json::object(&[
                ("workload", json::string(workload)),
                ("metric", json::string(def.name)),
                ("first_median", json::number(m1)),
                ("second_median", json::number(m2)),
                ("worse_by", json::number(worse)),
                ("bound", json::number(def.bound)),
                ("quartile_spread", json::number(stats::quartile_spread(&both))),
                ("within_bound", within.to_string()),
            ]));
        }
    }
    println!(
        "{}",
        json::object(&[
            ("header", report::header(&RunInfo::of("selfcheck", plan))),
            ("ok", ok.to_string()),
            ("rows", json::array(&rows)),
        ])
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = cli.plan();
    match cli.command.as_str() {
        "host" => match ddnn_runtime::multiproc::host_role() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark host: {e}");
                ExitCode::FAILURE
            }
        },
        "manifest" => {
            print!("{}", defs::manifest());
            ExitCode::SUCCESS
        }
        "all" => run_all(&plan),
        "selfcheck" => selfcheck(&plan),
        "run" => {
            let Some(done) = cli.workload.as_deref().and_then(|w| run_one(w, &plan, cli.trace))
            else {
                eprintln!("benchmark: name one of the workloads\n{USAGE}");
                return ExitCode::from(2);
            };
            println!("{}", report::header(&done.info));
            println!("{}", done.result_line());
            exit_code(done.correct)
        }
        other => {
            eprintln!("benchmark: unknown command {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_run_form_parse_to_the_same_plan() {
        let driver =
            cli(&["--workload", "stream_paper", "--seed", "9", "--seconds", "15", "--trace", "0"])
                .unwrap();
        let by_hand = cli(&["run", "stream_paper", "--seed", "9", "--seconds", "15"]).unwrap();
        assert_eq!(driver, by_hand);
        assert!(!driver.trace && driver.seed == 9 && driver.seconds == Some(15.0));
        assert!(cli(&["--workload", "x", "--trace", "1"]).unwrap().trace);
        assert!(cli(&["run", "x", "--trace", "--smoke"]).unwrap().trace);
        assert!(cli(&["run", "x", "--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(cli(&["host"]).unwrap().command, "host");
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["run"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "minus"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn metric_values_read_back_from_a_result_line() {
        let line = report::result_line(
            true,
            10,
            0,
            &[Metric::new("setup_s", 1.25), Metric::new("throughput_sps", 299.5)],
        );
        assert_eq!(metric_value(&line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(&line, "throughput_sps"), Some(299.5));
        assert_eq!(metric_value(&line, "latency_p50_ms"), None);
        assert_eq!(metric_value("null", "setup_s"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn manifest_order_rejects_missing_and_extra_metrics() {
        let ordered = in_manifest_order(
            vec![Metric::new("throughput_sps", 2.0), Metric::new("setup_s", 1.0)],
            &["setup_s", "throughput_sps"],
        );
        assert_eq!(ordered[0].name, "setup_s");
        let missing = std::panic::catch_unwind(|| {
            in_manifest_order(
                vec![Metric::new("setup_s", 1.0), Metric::new("clean_share", 1.0)],
                &["setup_s", "throughput_sps"],
            )
        });
        assert!(missing.is_err());
    }
}
