//! One `paper` run shares each trained model among the experiments that
//! read it. Every `evaluate_*` takes `&mut Ddnn`, so this guards that
//! sharing never changes an artifact: experiments run together render
//! what each renders in a run of its own.

use ddnn_bench::paper::{PaperRun, EXPERIMENTS};
use ddnn_bench::ExperimentContext;
use ddnn_data::MvmcConfig;

fn tiny_run() -> PaperRun {
    let ctx = ExperimentContext::from_config(MvmcConfig::tiny(12, 6, 3)).unwrap();
    PaperRun::new(ctx, Some(1))
}

#[test]
fn experiments_sharing_the_paper_model_render_what_fresh_runs_render() {
    let readers = ["table2", "figure7", "figure10", "comm_reduction"];
    let experiments: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| readers.contains(name)).collect();
    assert_eq!(experiments.len(), readers.len());
    let mut shared = tiny_run();
    let together: Vec<String> =
        experiments.iter().map(|(_, experiment)| experiment(&mut shared).unwrap()).collect();
    assert_eq!(shared.trained_models(), 1, "the paper model trains once per run");
    for ((name, experiment), text) in experiments.iter().zip(&together) {
        let mut fresh = tiny_run();
        assert_eq!(experiment(&mut fresh).unwrap(), *text, "{name}");
        assert_eq!(fresh.trained_models(), 1);
    }
}
