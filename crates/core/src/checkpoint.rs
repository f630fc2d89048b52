//! Checkpointing: serialize a trained [`Ddnn`] (architecture, parameters
//! and batch-norm running statistics) to a compact binary format.
//!
//! A real DDNN deployment trains in the cloud (paper §III-C: "the DDNN
//! system can be trained on a single powerful server") and then ships each
//! device its tiny section; the checkpoint is the artifact that crosses
//! that boundary. Loading a checkpoint reproduces the model bit-for-bit:
//! inference on a restored model equals inference on the original.

use crate::aggregation::AggregationScheme;
use crate::block::Precision;
use crate::model::{Ddnn, DdnnConfig, EdgeConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Magic bytes identifying a DDNN checkpoint.
pub const MAGIC: &[u8; 4] = b"DDNN";
/// Checkpoint format version.
pub const VERSION: u16 = 1;

/// Error produced by checkpoint encoding/decoding.
#[derive(Debug)]
pub enum CheckpointError {
    /// The buffer is not a DDNN checkpoint.
    BadMagic,
    /// The checkpoint was written by an incompatible format version.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The buffer ended prematurely or contains inconsistent sizes.
    Malformed {
        /// What is wrong.
        reason: String,
    },
    /// An I/O error while reading or writing a checkpoint file.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a DDNN checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (expected {VERSION})")
            }
            CheckpointError::Malformed { reason } => write!(f, "malformed checkpoint: {reason}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn encode_agg(a: AggregationScheme) -> u8 {
    match a {
        AggregationScheme::MaxPool => 0,
        AggregationScheme::AvgPool => 1,
        AggregationScheme::Concat => 2,
    }
}

fn decode_agg(v: u8) -> Result<AggregationScheme, CheckpointError> {
    match v {
        0 => Ok(AggregationScheme::MaxPool),
        1 => Ok(AggregationScheme::AvgPool),
        2 => Ok(AggregationScheme::Concat),
        other => Err(CheckpointError::Malformed { reason: format!("aggregation tag {other}") }),
    }
}

fn encode_config(cfg: &DdnnConfig, buf: &mut BytesMut) {
    buf.put_u32_le(cfg.num_devices as u32);
    buf.put_u32_le(cfg.num_classes as u32);
    buf.put_u32_le(cfg.device_filters as u32);
    buf.put_u8(encode_agg(cfg.local_agg));
    buf.put_u8(encode_agg(cfg.cloud_agg));
    match cfg.edge {
        Some(e) => {
            buf.put_u8(1);
            buf.put_u32_le(e.filters as u32);
            buf.put_u8(encode_agg(e.agg));
        }
        None => {
            buf.put_u8(0);
            buf.put_u32_le(0);
            buf.put_u8(0);
        }
    }
    buf.put_u32_le(cfg.cloud_filters[0] as u32);
    buf.put_u32_le(cfg.cloud_filters[1] as u32);
    buf.put_u8(match cfg.cloud_precision {
        Precision::Binary => 0,
        Precision::Float => 1,
    });
    buf.put_u64_le(cfg.seed);
}

fn need(buf: &Bytes, n: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(CheckpointError::Malformed { reason: format!("truncated: need {n} more bytes") })
    } else {
        Ok(())
    }
}

fn decode_config(buf: &mut Bytes) -> Result<DdnnConfig, CheckpointError> {
    need(buf, 4 * 3 + 2 + 1 + 4 + 1 + 4 * 2 + 1 + 8)?;
    let num_devices = buf.get_u32_le() as usize;
    let num_classes = buf.get_u32_le() as usize;
    let device_filters = buf.get_u32_le() as usize;
    let local_agg = decode_agg(buf.get_u8())?;
    let cloud_agg = decode_agg(buf.get_u8())?;
    let has_edge = buf.get_u8() == 1;
    let edge_filters = buf.get_u32_le() as usize;
    let edge_agg_tag = buf.get_u8();
    let edge = if has_edge {
        Some(EdgeConfig { filters: edge_filters, agg: decode_agg(edge_agg_tag)? })
    } else {
        None
    };
    let cloud_filters = [buf.get_u32_le() as usize, buf.get_u32_le() as usize];
    let cloud_precision = match buf.get_u8() {
        0 => Precision::Binary,
        1 => Precision::Float,
        other => {
            return Err(CheckpointError::Malformed { reason: format!("precision tag {other}") })
        }
    };
    let seed = buf.get_u64_le();
    Ok(DdnnConfig {
        num_devices,
        num_classes,
        device_filters,
        local_agg,
        cloud_agg,
        edge,
        cloud_filters,
        cloud_precision,
        seed,
    })
}

fn put_f32s(buf: &mut BytesMut, xs: &[f32]) {
    buf.put_u32_le(xs.len() as u32);
    for &x in xs {
        buf.put_f32_le(x);
    }
}

fn get_f32s(buf: &mut Bytes) -> Result<Vec<f32>, CheckpointError> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    need(buf, 4 * n)?;
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

impl Ddnn {
    /// Serializes the model (config + parameters + batch-norm statistics)
    /// to bytes.
    pub fn save_bytes(&mut self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        encode_config(self.config(), &mut buf);
        let params = self.params_mut();
        buf.put_u32_le(params.len() as u32);
        for p in params {
            put_f32s(&mut buf, p.value.data());
        }
        let blocks = self.blocks_mut();
        buf.put_u32_le(blocks.len() as u32);
        for b in blocks {
            put_f32s(&mut buf, &b.extra_state());
        }
        buf.freeze()
    }

    /// Restores a model from bytes produced by [`Ddnn::save_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on malformed or version-mismatched
    /// input.
    pub fn load_bytes(data: &[u8]) -> Result<Ddnn, CheckpointError> {
        let mut buf = Bytes::copy_from_slice(data);
        need(&buf, 6)?;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let config = decode_config(&mut buf)?;
        // The header is untrusted: size the model it claims before
        // building it, so a few hostile bytes cannot demand an allocation
        // the rest of the file could never fill.
        let claimed = config.checked_param_count().and_then(|n| n.checked_mul(4));
        if claimed.is_none_or(|bytes| bytes > buf.remaining()) {
            return Err(CheckpointError::Malformed {
                reason: format!(
                    "header claims {claimed:?} parameter bytes (None: a zero dimension or \
                     overflow), {} follow",
                    buf.remaining()
                ),
            });
        }
        let mut model = Ddnn::new(config);
        let n_params = {
            need(&buf, 4)?;
            buf.get_u32_le() as usize
        };
        {
            let mut params = model.params_mut();
            if params.len() != n_params {
                return Err(CheckpointError::Malformed {
                    reason: format!(
                        "checkpoint has {n_params} parameters, model expects {}",
                        params.len()
                    ),
                });
            }
            for p in params.iter_mut() {
                let xs = get_f32s(&mut buf)?;
                if xs.len() != p.value.len() {
                    return Err(CheckpointError::Malformed {
                        reason: format!(
                            "parameter `{}` has {} values, expected {}",
                            p.name,
                            xs.len(),
                            p.value.len()
                        ),
                    });
                }
                p.value.data_mut().copy_from_slice(&xs);
            }
        }
        let n_blocks = {
            need(&buf, 4)?;
            buf.get_u32_le() as usize
        };
        {
            let mut blocks = model.blocks_mut();
            if blocks.len() != n_blocks {
                return Err(CheckpointError::Malformed {
                    reason: format!(
                        "checkpoint has {n_blocks} stateful blocks, model expects {}",
                        blocks.len()
                    ),
                });
            }
            for b in blocks.iter_mut() {
                let xs = get_f32s(&mut buf)?;
                b.load_extra_state(&xs).map_err(|e| CheckpointError::Malformed {
                    reason: format!("block state: {e}"),
                })?;
            }
        }
        if buf.has_remaining() {
            return Err(CheckpointError::Malformed {
                reason: format!("{} trailing bytes", buf.remaining()),
            });
        }
        Ok(model)
    }

    /// Writes a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError::Io`] on filesystem errors.
    pub fn save_to(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        std::fs::write(path, self.save_bytes())?;
        Ok(())
    }

    /// Reads a checkpoint file written by [`Ddnn::save_to`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O or decoding failure.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Ddnn, CheckpointError> {
        let data = std::fs::read(path)?;
        Ddnn::load_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ExitThreshold;
    use ddnn_nn::Mode;
    use ddnn_tensor::rng::rng_from_seed;
    use ddnn_tensor::Tensor;

    fn small_config() -> DdnnConfig {
        DdnnConfig {
            num_devices: 2,
            device_filters: 2,
            cloud_filters: [4, 8],
            ..DdnnConfig::default()
        }
    }

    fn views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = rng_from_seed(seed);
        (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
    }

    #[test]
    fn round_trip_preserves_inference_exactly() {
        let mut model = Ddnn::new(small_config());
        let v = views(5, 2, 0);
        // Perturb state away from init: one train-mode pass moves BN stats.
        model.forward(&v, Mode::Train).unwrap();
        let expected = model.infer(&v, ExitThreshold::new(0.5), None).unwrap();
        let bytes = model.save_bytes();
        let mut restored = Ddnn::load_bytes(&bytes).unwrap();
        let got = restored.infer(&v, ExitThreshold::new(0.5), None).unwrap();
        assert_eq!(got.predictions, expected.predictions);
        assert_eq!(got.exits, expected.exits);
        assert_eq!(got.local_entropy, expected.local_entropy);
    }

    #[test]
    fn round_trip_preserves_config() {
        let mut cfg = small_config();
        cfg.edge = Some(EdgeConfig { filters: 4, agg: AggregationScheme::AvgPool });
        cfg.cloud_precision = Precision::Float;
        cfg.seed = 77;
        let mut model = Ddnn::new(cfg.clone());
        let restored = Ddnn::load_bytes(&model.save_bytes()).unwrap();
        assert_eq!(restored.config(), &cfg);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(Ddnn::load_bytes(b"NOPE!!"), Err(CheckpointError::BadMagic)));
        assert!(Ddnn::load_bytes(b"DD").is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut model = Ddnn::new(small_config());
        let mut bytes = model.save_bytes().to_vec();
        bytes[4] = 99;
        assert!(matches!(Ddnn::load_bytes(&bytes), Err(CheckpointError::BadVersion { found: 99 })));
    }

    #[test]
    fn truncation_rejected() {
        let mut model = Ddnn::new(small_config());
        let bytes = model.save_bytes();
        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(Ddnn::load_bytes(cut), Err(CheckpointError::Malformed { .. })));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut model = Ddnn::new(small_config());
        let mut bytes = model.save_bytes().to_vec();
        bytes.extend_from_slice(&[0, 1, 2]);
        assert!(matches!(Ddnn::load_bytes(&bytes), Err(CheckpointError::Malformed { .. })));
    }

    #[test]
    fn hostile_headers_are_rejected_before_the_model_is_built() {
        // A header is 6 + 39 bytes; each of these claims a model no
        // 45-byte file can hold (or no model at all). Building it first
        // would loop or abort on allocation instead of returning.
        let hostile = |edit: fn(&mut DdnnConfig)| {
            let mut cfg = small_config();
            edit(&mut cfg);
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u16_le(VERSION);
            encode_config(&cfg, &mut buf);
            Ddnn::load_bytes(&buf)
        };
        const MAX: usize = u32::MAX as usize;
        for edit in [
            (|c| c.num_devices = MAX) as fn(&mut DdnnConfig),
            |c| c.device_filters = MAX,
            |c| c.cloud_filters = [MAX, MAX],
            |c| c.edge = Some(EdgeConfig { filters: MAX, agg: AggregationScheme::Concat }),
            |c| c.num_classes = 0,
            |c| c.num_devices = 0,
            |_| {}, // an honest header with its parameters cut off
        ] {
            assert!(matches!(hostile(edit), Err(CheckpointError::Malformed { .. })));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ddnn-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ddnn");
        let mut model = Ddnn::new(small_config());
        model.save_to(&path).unwrap();
        let restored = Ddnn::load_from(&path).unwrap();
        assert_eq!(restored.config(), model.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(Ddnn::load_from("/nonexistent/ddnn.ckpt"), Err(CheckpointError::Io(_))));
    }
}
