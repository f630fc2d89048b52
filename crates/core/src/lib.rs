//! # ddnn-core
//!
//! The core of DDNN-RS: a faithful Rust implementation of *Distributed
//! Deep Neural Networks over the Cloud, the Edge and End Devices*
//! (Teerapittayanon, McDanel, Kung — ICDCS 2017).
//!
//! A [`Ddnn`] maps one jointly trained network onto a distributed
//! hierarchy:
//!
//! * each **end device** runs a fused binary ConvP block
//!   ([`ConvPBlock`]) and an exit classifier ([`ExitHead`]) — under 2 KB
//!   of weights;
//! * the **local aggregator** fuses per-device class scores
//!   ([`VectorAggregator`]) and exits confident samples by normalized
//!   entropy ([`normalized_entropy`], [`ExitThreshold`]);
//! * an optional **edge** tier and the **cloud** aggregate the per-device
//!   binary feature maps ([`FeatureAggregator`]), run further ConvP blocks
//!   and make the final decision.
//!
//! Training ([`train`]) follows the paper: the sum of softmax
//! cross-entropy losses at every exit, optimized with Adam (α = 0.001),
//! gradients flowing through the aggregators into the shared device
//! trunks. The communication-cost model of Eq. 1 is [`CommCostModel`];
//! fault injection for §IV-G is in [`fault`].
//!
//! ```no_run
//! use ddnn_core::{Ddnn, DdnnConfig, TrainConfig, train, ExitThreshold};
//! use ddnn_data::{MvmcDataset, all_device_batches, labels};
//!
//! # fn main() -> Result<(), ddnn_tensor::TensorError> {
//! let ds = MvmcDataset::paper();
//! let views = all_device_batches(&ds.train, 6)?;
//! let y = labels(&ds.train);
//! let mut model = Ddnn::new(DdnnConfig::paper());
//! train(&mut model, &views, &y, &TrainConfig::paper())?;
//! let test_views = all_device_batches(&ds.test, 6)?;
//! let out = model.infer(&test_views, ExitThreshold::new(0.8), None)?;
//! println!("{} samples exited locally", out.exit_fraction(ddnn_core::ExitPoint::Local));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod aggregation;
pub mod block;
pub mod checkpoint;
pub mod comm;
pub mod entropy;
pub mod fault;
pub mod frozen;
pub mod individual;
pub mod metrics;
pub mod model;
pub mod train;

pub use aggregation::{AggregationScheme, FeatureAggregator, VectorAggregator};
pub use block::{ConvPBlock, ExitHead, FcBlock, Precision};
pub use checkpoint::CheckpointError;
pub use comm::{CommCostModel, RAW_IMAGE_BYTES};
pub use entropy::{
    normalized_entropy, normalized_entropy_rows, search_threshold, ExitDecision, ExitPolicy,
    ExitThreshold,
};
pub use fault::{fail_devices, fail_devices_with, single_failures};
pub use frozen::{FrozenDdnn, FrozenDevice, FrozenGateway, FrozenStage, SignMaps};
pub use individual::IndividualModel;
pub use metrics::{
    accuracy, evaluate_exit_accuracies, evaluate_overall, ExitAccuracies, OverallEvaluation,
};
pub use model::{
    CloudPart, Ddnn, DdnnConfig, DdnnPartition, DevicePart, EdgeConfig, EdgePart, ExitGrads,
    ExitLogits, ExitPoint, GatewayPart, InferenceOutput, BLANK_INPUT_VALUE, DEVICE_MAP_SIZE,
    INPUT_CHANNELS, INPUT_SIZE,
};
pub use train::{train, EpochStats, TrainConfig, TrainReport};
