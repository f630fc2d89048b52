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
use ddnn_tensor::cursor::{Cursor, ShortRead};
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

impl From<ShortRead> for CheckpointError {
    fn from(e: ShortRead) -> Self {
        CheckpointError::Malformed { reason: format!("truncated: {e}") }
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

fn encode_config(cfg: &DdnnConfig, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(cfg.num_devices as u32).to_le_bytes());
    buf.extend_from_slice(&(cfg.num_classes as u32).to_le_bytes());
    buf.extend_from_slice(&(cfg.device_filters as u32).to_le_bytes());
    buf.push(encode_agg(cfg.local_agg));
    buf.push(encode_agg(cfg.cloud_agg));
    match cfg.edge {
        Some(e) => {
            buf.push(1);
            buf.extend_from_slice(&(e.filters as u32).to_le_bytes());
            buf.push(encode_agg(e.agg));
        }
        None => buf.extend_from_slice(&[0; 6]), // no edge: flag, filters and agg all zero
    }
    buf.extend_from_slice(&(cfg.cloud_filters[0] as u32).to_le_bytes());
    buf.extend_from_slice(&(cfg.cloud_filters[1] as u32).to_le_bytes());
    buf.push(match cfg.cloud_precision {
        Precision::Binary => 0,
        Precision::Float => 1,
    });
    buf.extend_from_slice(&cfg.seed.to_le_bytes());
}

fn decode_config(buf: &mut Cursor<'_>) -> Result<DdnnConfig, CheckpointError> {
    let num_devices = buf.u32()? as usize;
    let num_classes = buf.u32()? as usize;
    let device_filters = buf.u32()? as usize;
    let local_agg = decode_agg(buf.u8()?)?;
    let cloud_agg = decode_agg(buf.u8()?)?;
    let has_edge = buf.u8()? == 1;
    let edge_filters = buf.u32()? as usize;
    let edge_agg_tag = buf.u8()?;
    let edge = if has_edge {
        Some(EdgeConfig { filters: edge_filters, agg: decode_agg(edge_agg_tag)? })
    } else {
        None
    };
    let cloud_filters = [buf.u32()? as usize, buf.u32()? as usize];
    let cloud_precision = match buf.u8()? {
        0 => Precision::Binary,
        1 => Precision::Float,
        other => {
            return Err(CheckpointError::Malformed { reason: format!("precision tag {other}") })
        }
    };
    let seed = buf.u64()?;
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

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn get_f32s(buf: &mut Cursor<'_>) -> Result<Vec<f32>, CheckpointError> {
    let n = buf.u32()? as usize;
    Ok(buf.f32s(n)?)
}

impl Ddnn {
    /// Serializes the model (config + parameters + batch-norm statistics)
    /// to bytes.
    pub fn save_bytes(&mut self) -> Vec<u8> {
        let mut buf = [&MAGIC[..], &VERSION.to_le_bytes()].concat();
        encode_config(self.config(), &mut buf);
        let params = self.params_mut();
        buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
        for p in params {
            put_f32s(&mut buf, p.value.data());
        }
        let blocks = self.blocks_mut();
        buf.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in blocks {
            put_f32s(&mut buf, &b.extra_state());
        }
        buf
    }

    /// Restores a model from bytes produced by [`Ddnn::save_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on malformed or version-mismatched
    /// input.
    pub fn load_bytes(data: &[u8]) -> Result<Ddnn, CheckpointError> {
        let mut buf = Cursor::new(data);
        if buf.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = buf.u16()?;
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
        let n_params = buf.u32()? as usize;
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
        let n_blocks = buf.u32()? as usize;
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
        if buf.remaining() > 0 {
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
            let mut buf = [&MAGIC[..], &VERSION.to_le_bytes()].concat();
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
