//! Device-failure injection (paper §IV-G).
//!
//! A failed end device simply stops contributing: its view is replaced by
//! the blank frame the dataset already uses for "object not present". The
//! jointly trained aggregators were trained on exactly this encoding, which
//! is what makes DDNN's fault tolerance automatic.

use crate::model::BLANK_INPUT_VALUE;
use ddnn_tensor::{Result, Tensor, TensorError};

/// Returns a copy of the per-device view batches with the given devices
/// failed (their batches replaced by blank frames).
///
/// # Errors
///
/// Returns an error if a failed index is out of range.
pub fn fail_devices(views: &[Tensor], failed: &[usize]) -> Result<Vec<Tensor>> {
    fail_devices_with(views, failed, BLANK_INPUT_VALUE)
}

/// Like [`fail_devices`] but substituting an arbitrary constant input for
/// failed devices — used by the failure-encoding ablation (`DESIGN.md`
/// §6): substituting zeros instead of the dataset's blank grey puts the
/// aggregators in a regime they never saw during training.
///
/// # Errors
///
/// Returns an error if a failed index is out of range.
pub fn fail_devices_with(views: &[Tensor], failed: &[usize], value: f32) -> Result<Vec<Tensor>> {
    for &d in failed {
        if d >= views.len() {
            return Err(TensorError::IndexOutOfBounds { index: vec![d], shape: vec![views.len()] });
        }
    }
    Ok(views
        .iter()
        .enumerate()
        .map(|(d, v)| {
            if failed.contains(&d) {
                // Same shape as the view it replaces, whatever the model's
                // input geometry.
                Tensor::full(v.dims().to_vec(), value)
            } else {
                v.clone()
            }
        })
        .collect())
}

/// All single-device failure scenarios for `num_devices` devices — the
/// x-axis of the paper's Fig. 10.
pub fn single_failures(num_devices: usize) -> Vec<Vec<usize>> {
    (0..num_devices).map(|d| vec![d]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize) -> Vec<Tensor> {
        (0..3).map(|d| Tensor::full([n, 3, 32, 32], d as f32 * 0.1)).collect()
    }

    #[test]
    fn failed_device_becomes_blank() {
        let v = views(2);
        let out = fail_devices(&v, &[1]).unwrap();
        assert_eq!(out[0], v[0]);
        assert!(out[1].data().iter().all(|&x| x == BLANK_INPUT_VALUE));
        assert_eq!(out[2], v[2]);
        assert_eq!(out[1].dims(), &[2, 3, 32, 32]);
    }

    #[test]
    fn fail_with_custom_value() {
        let v = views(1);
        let out = fail_devices_with(&v, &[0], 0.0).unwrap();
        assert!(out[0].data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn no_failures_is_identity() {
        let v = views(1);
        let out = fail_devices(&v, &[]).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn multiple_failures() {
        let v = views(1);
        let out = fail_devices(&v, &[0, 2]).unwrap();
        assert!(out[0].data().iter().all(|&x| x == BLANK_INPUT_VALUE));
        assert_eq!(out[1], v[1]);
        assert!(out[2].data().iter().all(|&x| x == BLANK_INPUT_VALUE));
    }

    #[test]
    fn out_of_range_failure_errors() {
        let v = views(1);
        assert!(fail_devices(&v, &[3]).is_err());
    }

    #[test]
    fn single_failures_enumerates_each_device() {
        let f = single_failures(6);
        assert_eq!(f.len(), 6);
        assert_eq!(f[0], vec![0]);
        assert_eq!(f[5], vec![5]);
    }

    #[test]
    fn blank_matches_dataset_encoding() {
        // The fault encoding must equal the dataset's not-present frames;
        // both use the same grey level.
        assert_eq!(BLANK_INPUT_VALUE, 0.5);
    }
}
