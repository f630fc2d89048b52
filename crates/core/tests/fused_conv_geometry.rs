//! Tripwire: every convolution of the paper's architectures sees an input
//! narrow enough for the fused bit-packed kernel.
//!
//! `binary_conv2d` hands rows the kernel does not cover to the f32
//! convolution — bit-identical, and roughly ten times slower. A model
//! change that pushes a tier over the bound (raising `INPUT_SIZE` past 62,
//! say) must fail here, where the message says what to do, instead of
//! quietly losing the XNOR path. The widths are observed on a partitioned
//! model's own tensors, with the predicate `binary_conv2d` itself selects
//! on.

use ddnn_core::{Ddnn, DdnnConfig, EdgeConfig};
use ddnn_nn::{Layer, Mode};
use ddnn_tensor::bitmatrix::BinaryConvPlan;
use ddnn_tensor::conv::Conv2dSpec;
use ddnn_tensor::Tensor;

#[test]
fn every_paper_conv_input_fits_the_fused_kernel() {
    // Every ConvP block convolves with this spec (`ConvPBlock::new`).
    let spec = Conv2dSpec::paper_conv();
    let check = |tier: &str, x: &Tensor| {
        let w = x.dims()[3];
        assert!(
            BinaryConvPlan::fits(&spec, w),
            "{tier} conv input is {w} wide: past `BinaryConvPlan::fits`, so this tier would run \
             the f32 convolution — widen the kernel in crates/tensor/src/bitmatrix.rs to \
             multi-word rows before growing the model's maps"
        );
    };
    for edge in [None, Some(EdgeConfig::default())] {
        let config = DdnnConfig { edge, ..DdnnConfig::paper() };
        let [c, h, w] = config.view_dims();
        let view = Tensor::full([1, c, h, w], 0.5);
        let mut parts = Ddnn::new(config).partition();
        let mut maps = Vec::new();
        for device in &mut parts.devices {
            check("device", &view);
            maps.push(device.conv.forward(&view, Mode::Eval).unwrap());
        }
        if let Some(e) = &mut parts.edge {
            let x = e.agg.forward(&maps).unwrap();
            check("edge", &x);
            maps = vec![e.conv.forward(&x, Mode::Eval).unwrap()];
        }
        let mut x = parts.cloud.agg.forward(&maps).unwrap();
        for conv in &mut parts.cloud.convs {
            check("cloud", &x);
            x = conv.forward(&x, Mode::Eval).unwrap();
        }
    }
}
