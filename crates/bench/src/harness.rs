//! Shared experiment plumbing: dataset/model preparation, table formatting.

use ddnn_core::{
    evaluate_exit_accuracies, evaluate_overall, train, Ddnn, DdnnConfig, ExitAccuracies,
    ExitThreshold, OverallEvaluation, TrainConfig,
};
use ddnn_data::{all_device_batches, labels, MvmcConfig, MvmcDataset};
use ddnn_tensor::{Result, Tensor};

/// Everything an experiment needs about the dataset, precomputed once:
/// batched per-device views and labels for both splits.
pub struct ExperimentContext {
    /// The generated dataset.
    pub dataset: MvmcDataset,
    /// Per-device training batches.
    pub train_views: Vec<Tensor>,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Per-device test batches.
    pub test_views: Vec<Tensor>,
    /// Test labels.
    pub test_labels: Vec<usize>,
}

impl ExperimentContext {
    /// Builds the paper-shaped dataset context (680 train / 171 test).
    ///
    /// # Errors
    ///
    /// Returns an error if batching fails (it cannot for a well-formed
    /// dataset).
    pub fn paper() -> Result<Self> {
        Self::from_config(MvmcConfig::paper())
    }

    /// Builds a context from a custom dataset configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if batching fails.
    pub fn from_config(config: MvmcConfig) -> Result<Self> {
        let n = config.num_devices();
        let dataset = MvmcDataset::generate(config);
        Ok(ExperimentContext {
            train_views: all_device_batches(&dataset.train, n)?,
            train_labels: labels(&dataset.train),
            test_views: all_device_batches(&dataset.test, n)?,
            test_labels: labels(&dataset.test),
            dataset,
        })
    }

    /// Number of devices in the context.
    pub fn num_devices(&self) -> usize {
        self.train_views.len()
    }

    /// Restricts the context to the first `k` entries of `device_order`
    /// (for the Fig. 8 device-scaling sweep). Views of excluded devices
    /// are dropped entirely (the model is built for `k` devices).
    pub fn subset_devices(&self, device_order: &[usize]) -> ExperimentContext {
        let pick = |views: &[Tensor]| -> Vec<Tensor> {
            device_order.iter().map(|&d| views[d].clone()).collect()
        };
        ExperimentContext {
            dataset: self.dataset.clone(),
            train_views: pick(&self.train_views),
            train_labels: self.train_labels.clone(),
            test_views: pick(&self.test_views),
            test_labels: self.test_labels.clone(),
        }
    }
}

/// A trained DDNN plus its test-set evaluation.
#[derive(Clone)]
pub struct TrainedDdnn {
    /// The trained model.
    pub model: Ddnn,
    /// Forced-exit accuracies on the test set.
    pub exit_accuracies: ExitAccuracies,
    /// Staged evaluation at the given threshold.
    pub overall: OverallEvaluation,
}

/// Trains a DDNN on the context's training split and evaluates it on the
/// test split at `threshold`.
///
/// # Errors
///
/// Returns an error on shape mismatches (a config/context disagreement).
pub fn train_and_evaluate(
    ctx: &ExperimentContext,
    model_cfg: DdnnConfig,
    train_cfg: &TrainConfig,
    threshold: ExitThreshold,
) -> Result<TrainedDdnn> {
    let mut model = Ddnn::new(model_cfg);
    train(&mut model, &ctx.train_views, &ctx.train_labels, train_cfg)?;
    let exit_accuracies = evaluate_exit_accuracies(&mut model, &ctx.test_views, &ctx.test_labels)?;
    let overall = evaluate_overall(&mut model, &ctx.test_views, &ctx.test_labels, threshold, None)?;
    Ok(TrainedDdnn { model, exit_accuracies, overall })
}

/// Renders rows as an aligned text table with a header, the way every
/// paper experiment reports its artifact.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<w$} ", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with one decimal, e.g. `"60.8"`.
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_table_aligns_columns() {
        let t = format_table(
            &["Scheme", "Acc"],
            &[vec!["MP-CC".into(), "98".into()], vec!["AP".into(), "7".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Scheme"));
        assert!(lines[1].starts_with('-'));
        // All rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pct_formats_one_decimal() {
        assert_eq!(pct(0.608), "60.8");
        assert_eq!(pct(1.0), "100.0");
        assert_eq!(pct(0.0), "0.0");
    }

    #[test]
    fn tiny_context_builds() {
        let ctx = ExperimentContext::from_config(MvmcConfig::tiny(8, 4, 0)).unwrap();
        assert_eq!(ctx.num_devices(), 6);
        assert_eq!(ctx.train_labels.len(), 8);
        assert_eq!(ctx.test_views[0].dims(), &[4, 3, 32, 32]);
    }

    #[test]
    fn subset_devices_picks_in_order() {
        let ctx = ExperimentContext::from_config(MvmcConfig::tiny(4, 2, 1)).unwrap();
        let sub = ctx.subset_devices(&[5, 0]);
        assert_eq!(sub.num_devices(), 2);
        assert_eq!(sub.train_views[0], ctx.train_views[5]);
        assert_eq!(sub.train_views[1], ctx.train_views[0]);
    }
}
