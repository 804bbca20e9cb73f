//! Model checkpointing: flat parameter vectors with a versioned header.
//!
//! All models in this crate expose their parameters as one flat `f32`
//! buffer, so a checkpoint is the buffer plus a length guard — enough for
//! clients to persist/restore local models or for a server to snapshot the
//! global model between deployments.

use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"FGTP";
const VERSION: u8 = 1;

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a parameter checkpoint stream.
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// The stored vector's length differs from what the model expects.
    LengthMismatch {
        /// Length the model expects.
        expected: usize,
        /// Length found in the stream.
        found: usize,
    },
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a parameter checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::LengthMismatch { expected, found } => {
                write!(f, "checkpoint has {found} params, model expects {expected}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Writes a flat parameter vector as a checkpoint.
pub fn save_params<W: Write>(w: &mut W, params: &[f32]) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for &p in params {
        w.write_all(&p.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a checkpoint, validating against `expected_len` (the target
/// model's [`crate::GraphModel::num_params`]).
pub fn load_params<R: Read>(r: &mut R, expected_len: usize) -> Result<Vec<f32>, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut ver = [0u8; 1];
    r.read_exact(&mut ver)?;
    if ver[0] != VERSION {
        return Err(CheckpointError::BadVersion(ver[0]));
    }
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let found = u64::from_le_bytes(len8) as usize;
    if found != expected_len {
        return Err(CheckpointError::LengthMismatch { expected: expected_len, found });
    }
    let mut out = Vec::with_capacity(found);
    let mut b = [0u8; 4];
    for _ in 0..found {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelConfig, ModelKind};

    #[test]
    fn roundtrip_restores_model_exactly() {
        let cfg = ModelConfig {
            kind: ModelKind::Sign,
            hidden: 8,
            layers: 2,
            k: 2,
            seed: 3,
            ..ModelConfig::default()
        };
        let m = build_model(&cfg, 6, 3);
        let mut buf = Vec::new();
        save_params(&mut buf, &m.params()).unwrap();
        let loaded = load_params(&mut buf.as_slice(), m.num_params()).unwrap();
        assert_eq!(loaded, m.params());
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut buf = Vec::new();
        save_params(&mut buf, &[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            load_params(&mut buf.as_slice(), 4),
            Err(CheckpointError::LengthMismatch { expected: 4, found: 3 })
        ));
    }

    #[test]
    fn garbage_is_rejected() {
        let buf = b"oops".to_vec();
        assert!(load_params(&mut buf.as_slice(), 1).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        save_params(&mut buf, &[1.0; 10]).unwrap();
        buf.truncate(buf.len() - 6);
        assert!(matches!(load_params(&mut buf.as_slice(), 10), Err(CheckpointError::Io(_))));
    }
}
