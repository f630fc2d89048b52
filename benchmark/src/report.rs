//! The one report writer: the header every output carries and the result
//! line the driver reads.

use crate::json;
use crate::workloads::Plan;
use crate::Metric;
use ddnn_tensor::{parallel, simd};
use std::path::Path;
use std::process::Command;

/// How timings are taken, stated in every header.
const TIMING_METHOD: &str = "wall clock (Instant) around public calls, median over rounds; \
    CPU from /proc/self/stat incl. reaped children; kernel probes: min of 5 batches on the \
    process CPU clock";

/// Resolves `HEAD` of the git repository at `root` by reading its files —
/// no process is spawned and nothing outside `root` is touched. A checkout
/// that is not a repository has no revision.
pub fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD holds the sha itself
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

fn rustc_version() -> String {
    Command::new("rustc").arg("--version").output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_string(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    )
}

/// What was run, for the header.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name, or `all` / `selfcheck`.
    pub workload: String,
    /// The `--seed`.
    pub seed: u64,
    /// The `--seconds` budget.
    pub seconds: f64,
    /// Whether this is the traced per-layer pass.
    pub trace: bool,
    /// Smoke runs are never comparable.
    pub smoke: bool,
    /// Wall ms of every measured round (empty before the run and for the
    /// traced pass).
    pub round_walls_ms: Vec<f64>,
    /// Each open-loop round's median latency, ms.
    pub round_p50_ms: Vec<f64>,
    /// Units of work per round.
    pub units_per_round: usize,
}

impl RunInfo {
    /// The header fields of an untraced `workload` under `plan`, before
    /// any round has run.
    pub fn of(workload: &str, plan: &Plan) -> RunInfo {
        RunInfo {
            workload: workload.to_string(),
            seed: plan.seed,
            seconds: plan.seconds,
            trace: false,
            smoke: plan.smoke,
            round_walls_ms: Vec::new(),
            round_p50_ms: Vec::new(),
            units_per_round: 0,
        }
    }
}

fn numbers(values: &[f64]) -> String {
    json::array(&values.iter().map(|v| json::number(*v)).collect::<Vec<_>>())
}

/// The report header as one JSON object: enough to tell whether two
/// results may be compared at all.
pub fn header(info: &RunInfo) -> String {
    let env = |name: &str| match std::env::var(name) {
        Ok(v) => json::string(&v),
        Err(_) => "null".to_string(),
    };
    json::object(&[
        ("benchmark", json::string("ddnn-benchmark")),
        ("workload", json::string(&info.workload)),
        ("seed", info.seed.to_string()),
        ("seconds", json::number(info.seconds)),
        ("trace", info.trace.to_string()),
        ("smoke", info.smoke.to_string()),
        ("rounds", info.round_walls_ms.len().to_string()),
        ("units_per_round", info.units_per_round.to_string()),
        (
            "git_sha",
            git_sha(Path::new(".")).map_or_else(|| "null".to_string(), |s| json::string(&s)),
        ),
        ("nproc", std::thread::available_parallelism().map_or(1, usize::from).to_string()),
        ("ddnn_threads_env", env("DDNN_THREADS")),
        ("ddnn_threads_effective", parallel::num_threads().to_string()),
        ("ddnn_simd_env", env("DDNN_SIMD")),
        ("simd_tier", json::string(simd::active_tier().name())),
        ("rustc", json::string(&rustc_version())),
        ("timing_method", json::string(TIMING_METHOD)),
        ("round_walls_ms", numbers(&info.round_walls_ms)),
        ("round_p50_ms", numbers(&info.round_p50_ms)),
    ])
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                json::object(&[("value", json::number(m.value)), ("unit", json::string(m.unit))]),
            )
        })
        .collect();
    json::object(&fields)
}

/// The result line of the driver's contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    json::object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[Metric::new("latency_p50_ms", 1.2034), Metric::new("setup_s", 0.8127)],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn git_sha_follows_refs_packed_refs_and_detached_heads() {
        // Scratch space inside the package's own ignored results directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_sha(&dir), None);
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack-refs\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_is_one_object_naming_the_run() {
        let h = header(&RunInfo {
            workload: "stream_paper".to_string(),
            seed: 7,
            seconds: 15.0,
            trace: false,
            smoke: true,
            round_walls_ms: vec![1.5, 2.5, 3.5],
            round_p50_ms: Vec::new(),
            units_per_round: 48,
        });
        assert!(h.starts_with('{') && h.ends_with('}'));
        for key in ["\"git_sha\"", "\"nproc\"", "\"simd_tier\"", "\"rustc\"", "\"timing_method\""] {
            assert!(h.contains(key), "{key} missing from {h}");
        }
        assert!(h.contains("\"smoke\": true") && h.contains("\"seed\": 7"));
    }
}
