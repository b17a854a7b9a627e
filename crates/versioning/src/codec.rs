//! Compact wire encoding for low-level deltas.
//!
//! The paper's reference \[2\] ("Transmitting RDF graph deltas for a cheaper
//! semantic Web") motivates shipping deltas rather than snapshots between
//! replicas. This module provides that wire format: triples are sorted,
//! subject-delta-encoded, and LEB128-varint packed, which compresses the
//! long runs of shared subjects typical of RDF deltas.
//!
//! Format (`EVD1`):
//! ```text
//! magic  b"EVD1"
//! added:   varint count, then per triple: varint Δs, varint p, varint o
//! removed: varint count, same layout
//! ```
//! where `Δs` is the difference to the previous subject id (first triple:
//! the raw id), exploiting SPO sort order.

use crate::delta::LowLevelDelta;
use evorec_kb::{TermId, Triple};
use std::fmt;

const MAGIC: &[u8; 4] = b"EVD1";

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input does not start with the `EVD1` magic.
    BadMagic,
    /// Input ended mid-structure.
    UnexpectedEof,
    /// A varint exceeded the 32-bit identifier space.
    Overflow,
    /// Trailing bytes after a complete delta.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic: expected EVD1"),
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Overflow => write!(f, "varint overflows u32"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after delta"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a delta into its wire representation.
pub fn encode_delta(delta: &LowLevelDelta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + delta.size() * 6);
    buf.extend_from_slice(MAGIC);
    encode_side(&mut buf, delta.added.iter());
    encode_side(&mut buf, delta.removed.iter());
    buf
}

/// Decode a wire representation produced by [`encode_delta`].
pub fn decode_delta(bytes: &[u8]) -> Result<LowLevelDelta, CodecError> {
    let Some(mut buf) = bytes.strip_prefix(MAGIC) else {
        return Err(CodecError::BadMagic);
    };
    let added = decode_side(&mut buf)?;
    let removed = decode_side(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.len()));
    }
    Ok(LowLevelDelta::from_parts(added, removed))
}

fn encode_side(buf: &mut Vec<u8>, triples: impl Iterator<Item = Triple>) {
    let sorted: Vec<Triple> = triples.collect(); // store iterates in SPO order
    put_varint(buf, sorted.len() as u64);
    let mut prev_s = 0u32;
    for t in &sorted {
        let s = t.s.as_u32();
        put_varint(buf, u64::from(s.wrapping_sub(prev_s)));
        put_varint(buf, u64::from(t.p.as_u32()));
        put_varint(buf, u64::from(t.o.as_u32()));
        prev_s = s;
    }
}

fn decode_side(buf: &mut &[u8]) -> Result<Vec<Triple>, CodecError> {
    let count = get_varint(buf)?;
    let count = usize::try_from(count).map_err(|_| CodecError::Overflow)?;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    let mut prev_s = 0u32;
    for _ in 0..count {
        let ds = get_varint_u32(buf)?;
        let s = prev_s.wrapping_add(ds);
        let p = get_varint_u32(buf)?;
        let o = get_varint_u32(buf)?;
        out.push(Triple::new(
            TermId::from_u32(s),
            TermId::from_u32(p),
            TermId::from_u32(o),
        ));
        prev_s = s;
    }
    Ok(out)
}

fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(CodecError::UnexpectedEof);
        };
        *buf = rest;
        // The tenth byte lands at shift 63, where only its lowest payload
        // bit still fits in a u64; any higher bit would be shifted out.
        let payload = u64::from(byte & 0x7f);
        if shift >= 64 || (payload << shift) >> shift != payload {
            return Err(CodecError::Overflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn get_varint_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| CodecError::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(t(s), t(p), t(o))
    }

    #[test]
    fn roundtrip_empty() {
        let d = LowLevelDelta::new();
        let wire = encode_delta(&d);
        assert_eq!(decode_delta(&wire).unwrap(), d);
    }

    #[test]
    fn roundtrip_mixed_delta() {
        let d = LowLevelDelta::from_parts(
            [tr(10, 1, 2), tr(10, 1, 3), tr(11, 2, 2), tr(500_000, 7, 8)],
            [tr(9, 1, 2), tr(4_000_000_000, 1, 1)],
        );
        let wire = encode_delta(&d);
        assert_eq!(decode_delta(&wire).unwrap(), d);
    }

    #[test]
    fn subject_delta_encoding_compresses_runs() {
        // 100 triples sharing one subject: the Δs of 99 of them is zero,
        // so the payload should be well under 3 raw u32s per triple.
        let triples: Vec<Triple> = (0..100).map(|i| tr(1000, 1, i)).collect();
        let d = LowLevelDelta::from_parts(triples, []);
        let wire = encode_delta(&d);
        assert!(
            wire.len() < 100 * 12 / 2,
            "wire {} bytes, raw would be 1200",
            wire.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_delta(b"NOPE"), Err(CodecError::BadMagic));
        assert_eq!(decode_delta(b""), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let d = LowLevelDelta::from_parts([tr(1, 2, 3)], []);
        let wire = encode_delta(&d);
        for cut in 4..wire.len() {
            assert!(
                decode_delta(&wire[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = LowLevelDelta::new();
        let mut wire = encode_delta(&d);
        wire.push(0);
        assert_eq!(decode_delta(&wire), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let d =
            LowLevelDelta::from_parts([tr(10, 1, 2), tr(10, 1, 3), tr(300, 2, 2)], [tr(9, 1, 2)]);
        let expected: &[u8] = &[
            0x45, 0x56, 0x44, 0x31, // magic "EVD1"
            0x03, // added count
            0x0A, 0x01, 0x02, // Δs 10, p 1, o 2
            0x00, 0x01, 0x03, // Δs 0, p 1, o 3
            0xA2, 0x02, 0x02, 0x02, // Δs 290 (two-byte varint), p 2, o 2
            0x01, // removed count
            0x09, 0x01, 0x02, // Δs 9, p 1, o 2
        ];
        let wire = encode_delta(&d);
        assert_eq!(&wire[..], expected);
        assert_eq!(decode_delta(expected).unwrap(), d);
    }

    #[test]
    fn over_long_varint_rejected() {
        // Nine continuation bytes put the tenth at shift 63, where its
        // payload 2 does not fit in a u64.
        let mut wire = b"EVD1".to_vec();
        wire.extend_from_slice(&[0x80; 9]);
        wire.extend_from_slice(&[0x02, 0x00]);
        assert_eq!(decode_delta(&wire), Err(CodecError::Overflow));
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 127, 128, 16_383, 16_384, u32::MAX as u64] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn error_display() {
        assert!(CodecError::BadMagic.to_string().contains("EVD1"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
    }
}
