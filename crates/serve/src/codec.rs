//! Binary codec for stored results.
//!
//! Layout (all little-endian), in the spirit of the trace format
//! ([`bpred_trace::binfmt`]):
//!
//! ```text
//! magic    : 4 bytes  b"BPRR"
//! version  : u16      currently 1
//! reserved : u16      zero
//! key      : varint length + UTF-8 canonical cell key
//! predictor: varint length + UTF-8 label
//! state    : varint   state_bits
//! cond     : varint   conditionals
//! mispred  : varint   mispredictions
//! flags    : u8       bit 0 = alias stats present, bit 1 = BHT stats
//! [alias]  : 3 varints (accesses, conflicts, harmless_conflicts)
//! [bht]    : 2 varints (accesses, misses)
//! checksum : u64      FNV-1a of everything before it
//! ```
//!
//! The canonical cell key is embedded verbatim so a load can confirm
//! the object answers the question being asked — a digest collision
//! (or a hand-renamed file) yields [`CodecError::KeyMismatch`]
//! instead of silently wrong numbers. The checksum trailer catches
//! truncation and bit rot; any mismatch is a [`CodecError`], and the
//! store treats every codec error as "not cached".

use std::fmt;

use bpred_core::{AliasStats, BhtStats};
use bpred_sim::SimResult;
use bpred_trace::fnv;

const MAGIC: &[u8; 4] = b"BPRR";
const VERSION: u16 = 1;

const FLAG_ALIAS: u8 = 1;
const FLAG_BHT: u8 = 1 << 1;

/// Error decoding a stored result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The object does not start with the `BPRR` magic.
    BadMagic,
    /// The object's format version is not understood.
    BadVersion(u16),
    /// The object ended early or a varint/string was malformed.
    Truncated,
    /// The checksum trailer does not match the payload.
    BadChecksum,
    /// The object decodes cleanly but answers a different cell.
    KeyMismatch {
        /// The canonical key embedded in the object.
        stored: String,
    },
    /// Trailing bytes follow the checksum.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a result object (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported result format version {v}"),
            CodecError::Truncated => write!(f, "truncated or malformed result object"),
            CodecError::BadChecksum => write!(f, "result object checksum mismatch"),
            CodecError::KeyMismatch { stored } => {
                write!(f, "result object answers a different cell: {stored:?}")
            }
            CodecError::TrailingBytes => write!(f, "trailing bytes after result object"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    let (&byte, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(byte)
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
        let byte = get_u8(buf)?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = usize::try_from(get_varint(buf)?).map_err(|_| CodecError::Truncated)?;
    if buf.len() < len {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(head.to_vec()).map_err(|_| CodecError::Truncated)
}

/// Encodes `result` as the object stored for the cell with canonical
/// key `canonical_key`.
pub fn encode(canonical_key: &str, result: &SimResult) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + canonical_key.len() + result.predictor.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    put_string(&mut buf, canonical_key);
    put_string(&mut buf, &result.predictor);
    put_varint(&mut buf, result.state_bits);
    put_varint(&mut buf, result.conditionals);
    put_varint(&mut buf, result.mispredictions);
    let mut flags = 0u8;
    if result.alias.is_some() {
        flags |= FLAG_ALIAS;
    }
    if result.bht.is_some() {
        flags |= FLAG_BHT;
    }
    buf.push(flags);
    if let Some(alias) = &result.alias {
        put_varint(&mut buf, alias.accesses);
        put_varint(&mut buf, alias.conflicts);
        put_varint(&mut buf, alias.harmless_conflicts);
    }
    if let Some(bht) = &result.bht {
        put_varint(&mut buf, bht.accesses);
        put_varint(&mut buf, bht.misses);
    }
    let checksum = fnv::fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Decodes a stored object, verifying the checksum and that its
/// embedded canonical key equals `expect_key`.
pub fn decode(bytes: &[u8], expect_key: &str) -> Result<SimResult, CodecError> {
    let (stored_key, result) = decode_verified(bytes)?;
    if stored_key != expect_key {
        return Err(CodecError::KeyMismatch { stored: stored_key });
    }
    Ok(result)
}

/// Decodes a stored object, verifying the checksum and structure but
/// accepting whatever canonical key it embeds — the key is returned
/// alongside the result so the caller can judge identity itself.
///
/// [`ResultStore::get_raw`](crate::ResultStore::get_raw) reads by
/// digest alone, so it checks that the digest of the returned key is
/// the content address it read, without knowing the key in advance.
pub fn decode_verified(bytes: &[u8]) -> Result<(String, SimResult), CodecError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CodecError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(trailer.try_into().expect("trailer is eight bytes"));
    if fnv::fnv64(payload) != checksum {
        return Err(CodecError::BadChecksum);
    }

    let mut buf = payload;
    let magic = &buf[..MAGIC.len()];
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    buf = &buf[MAGIC.len()..];
    let version = u16::from_le_bytes([get_u8(&mut buf)?, get_u8(&mut buf)?]);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let _reserved = [get_u8(&mut buf)?, get_u8(&mut buf)?];

    let stored_key = get_string(&mut buf)?;
    let predictor = get_string(&mut buf)?;
    let state_bits = get_varint(&mut buf)?;
    let conditionals = get_varint(&mut buf)?;
    let mispredictions = get_varint(&mut buf)?;
    let flags = get_u8(&mut buf)?;
    let alias = if flags & FLAG_ALIAS != 0 {
        Some(AliasStats {
            accesses: get_varint(&mut buf)?,
            conflicts: get_varint(&mut buf)?,
            harmless_conflicts: get_varint(&mut buf)?,
        })
    } else {
        None
    };
    let bht = if flags & FLAG_BHT != 0 {
        Some(BhtStats {
            accesses: get_varint(&mut buf)?,
            misses: get_varint(&mut buf)?,
        })
    } else {
        None
    };
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok((
        stored_key,
        SimResult {
            predictor,
            state_bits,
            conditionals,
            mispredictions,
            alias,
            bht,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            predictor: "gshare(2^10)".to_owned(),
            state_bits: 2048,
            conditionals: 1_000_000,
            mispredictions: 123_456,
            alias: Some(AliasStats {
                accesses: 1_000_000,
                conflicts: 5_000,
                harmless_conflicts: 1_200,
            }),
            bht: Some(BhtStats {
                accesses: 1_000_000,
                misses: 31,
            }),
        }
    }

    #[test]
    fn round_trips_with_and_without_stats() {
        let key = "cell-v2|workload:x@0/s1/n10/j0|gshare:h=8,c=2|w0";
        for (alias, bht) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut r = sample();
            if !alias {
                r.alias = None;
            }
            if !bht {
                r.bht = None;
            }
            let bytes = encode(key, &r);
            assert_eq!(decode(&bytes, key).unwrap(), r);
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let key = "cell-v2|s|gshare:h=2,c=0|w0";
        let bytes = encode(key, &sample());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len], key).is_err(), "length {len} passed");
        }
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let key = "cell-v2|s|gshare:h=2,c=0|w0";
        let bytes = encode(key, &sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad, key).is_err(), "flip at {i} passed");
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let bytes = encode("cell-v2|a|gshare:h=2,c=0|w0", &sample());
        match decode(&bytes, "cell-v2|b|gshare:h=2,c=0|w0") {
            Err(CodecError::KeyMismatch { stored }) => {
                assert_eq!(stored, "cell-v2|a|gshare:h=2,c=0|w0");
            }
            other => panic!("expected key mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let key = "cell-v2|s|gshare:h=2,c=0|w0";
        let mut bytes = encode(key, &sample());
        // Valid payload + garbage + a recomputed "checksum" still fails
        // because the embedded trailer no longer lines up.
        bytes.push(0);
        assert!(decode(&bytes, key).is_err());
    }
}
