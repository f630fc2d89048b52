//! Measurement utilities for the `transport` sweep binary: latency
//! percentiles, smoke-mode detection and the `results/` JSON artifact
//! convention.

use ddnn_runtime::{SampleOutcome, SimReport};

/// Nearest-rank percentile (`p` in `[0, 1]`) over unsorted latencies.
/// Empty input yields 0 so an all-shed sweep cell still renders.
pub fn percentile(latencies: &[f64], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The latencies of samples that actually classified — shed samples never
/// entered (latency 0) and timed-out samples record the watchdog budget,
/// so neither belongs in an end-to-end latency distribution.
pub fn classified_latencies(report: &SimReport) -> Vec<f64> {
    report
        .outcomes
        .iter()
        .zip(&report.latencies_ms)
        .filter(|(o, _)| matches!(o, SampleOutcome::Classified))
        .map(|(_, &ms)| ms)
        .collect()
}

/// True when the binary should run its seconds-long smoke variant:
/// `--smoke` on the command line or `DDNN_BENCH_SMOKE` set (non-`"0"`).
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("DDNN_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Writes a hand-rolled JSON artifact to `path` (creating its directory)
/// and announces the path — the shared tail of every sweep binary.
///
/// # Panics
///
/// Panics when the directory or file cannot be written: a bench without
/// its artifact is a failed bench.
pub fn write_results_json(path: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.50), 20.0);
        assert_eq!(percentile(&xs, 0.51), 30.0);
        assert_eq!(percentile(&xs, 0.95), 40.0);
        assert_eq!(percentile(&xs, 0.0), 10.0); // rank clamps to 1
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let xs = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 0.25), 10.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
    }
}
