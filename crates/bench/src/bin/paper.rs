//! Reproduces the paper's evaluation: `paper [NAME...]` runs the named
//! experiments (all of them when none is named) in one process over one
//! dataset, training each distinct model once, and writes each artifact to
//! `results/<name>.txt`. `DDNN_EPOCHS` overrides every experiment's
//! training budget; progress goes to stderr.

use ddnn_bench::paper::{PaperRun, EXPERIMENTS};
use ddnn_bench::ExperimentContext;
use std::process::exit;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("paper: unknown experiment `{bad}`; known: {}", known.join(" "));
        exit(2);
    }
    let epochs = std::env::var("DDNN_EPOCHS").ok().map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("paper: DDNN_EPOCHS must be a number of epochs, got `{v}`");
            exit(2)
        })
    });
    let ctx = ExperimentContext::paper().expect("dataset generation");
    let mut run = PaperRun::new(ctx, epochs);
    std::fs::create_dir_all("results").expect("create results dir");
    for (name, experiment) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let text = experiment(&mut run).unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = format!("results/{name}.txt");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path} ({} DDNNs trained so far)", run.trained_models());
    }
}
