//! The binary trace format: one encoder, [`TraceWriter`], and one
//! decoder, [`TraceReader`], streaming over any `Write`/`Read`.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   : 4 bytes  b"BPRT"
//! version : u16      currently 1
//! reserved: u16      zero
//! count   : u64      number of records
//! records : count × { tag: u8, pc_delta: zigzag-varint, target_delta: zigzag-varint }
//! ```
//!
//! The tag byte packs the [`BranchKind::code`] (low 3 bits) and the
//! [`Outcome`] (bit 3); its high four bits are zero. Addresses are
//! delta-encoded with wrapping arithmetic: `pc_delta` is the
//! difference from the previous record's `pc` (from zero for the first
//! record), and `target_delta` the difference from the record's own
//! `pc`. Branches are local in address space, so deltas are small and
//! the LEB128 varints keep typical records at 3–5 bytes. No record is
//! shorter than three bytes, so a decoder never reserves more records
//! than its input can hold, whatever the header's count claims.
//!
//! Everything else is a caller of the writer and the reader: [`encode`]
//! and [`decode`] over in-memory buffers, [`io`](crate::io) over
//! buffered files, and [`Trace::fingerprint`] over a hasher. Traces
//! larger than memory (the paper's real traces ran to 1.4B
//! instructions) can be produced and consumed record by record.
//!
//! # Examples
//!
//! ```
//! use bpred_trace::binfmt::{self, TraceReader, TraceWriter};
//! use bpred_trace::{BranchRecord, Outcome, Trace};
//!
//! let trace: Trace = (0..100u64)
//!     .map(|i| BranchRecord::conditional(0x1000 + 4 * i, 0x1000, Outcome::from(i % 3 == 0)))
//!     .collect();
//! let bytes = binfmt::encode(&trace);
//! assert_eq!(binfmt::decode(&bytes)?, trace);
//!
//! // The same bytes, one record at a time.
//! let mut writer = TraceWriter::new(Vec::new(), trace.len() as u64)?;
//! for record in trace.iter() {
//!     writer.write(record)?;
//! }
//! assert_eq!(writer.finish()?, bytes);
//! let mut reader = TraceReader::new(bytes.as_slice())?;
//! assert_eq!(reader.remaining(), 100);
//! assert_eq!(reader.next_record()?, Some(trace[0]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{Error, ErrorKind, Read, Write};

use crate::{BranchKind, BranchRecord, DecodeTraceError, Outcome, Trace};

const MAGIC: &[u8; 4] = b"BPRT";
const VERSION: u16 = 1;
/// Bytes before the first record.
const HEADER_LEN: u64 = 16;
/// Fewest bytes a record takes: its tag and two one-byte varints.
const MIN_RECORD_LEN: u64 = 3;
/// Most bytes a record takes: its tag and two ten-byte varints.
const MAX_RECORD_LEN: usize = 21;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes the LEB128 varint of `v` into `buf` at `at`, returning the
/// position after it.
fn put_varint(buf: &mut [u8; MAX_RECORD_LEN], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

fn read_u8<R: Read>(source: &mut R) -> Result<u8, Error> {
    let mut byte = [0u8; 1];
    source.read_exact(&mut byte)?;
    Ok(byte[0])
}

fn read_varint<R: Read>(source: &mut R) -> Result<u64, Error> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = read_u8(source)?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(Error::new(
        ErrorKind::InvalidData,
        "varint is longer than 64 bits",
    ))
}

/// A format fault as an [`ErrorKind::InvalidData`] error.
fn invalid(fault: DecodeTraceError) -> Error {
    Error::new(ErrorKind::InvalidData, fault)
}

/// Streams records into the binary trace format.
///
/// The record count is part of the header, so it must be declared up
/// front; [`TraceWriter::finish`] verifies the promise was kept.
#[derive(Debug)]
pub struct TraceWriter<W> {
    sink: W,
    declared: u64,
    written: u64,
    prev_pc: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header for a trace of exactly `records` records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W, records: u64) -> Result<Self, Error> {
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&0u16.to_le_bytes())?;
        sink.write_all(&records.to_le_bytes())?;
        Ok(TraceWriter {
            sink,
            declared: records,
            written: 0,
            prev_pc: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Fails with [`ErrorKind::InvalidInput`] when more records are
    /// written than declared, and propagates sink errors.
    pub fn write(&mut self, record: &BranchRecord) -> Result<(), Error> {
        if self.written == self.declared {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!("trace declared {} records", self.declared),
            ));
        }
        let mut buf = [0u8; MAX_RECORD_LEN];
        buf[0] = record.kind.code() | (u8::from(record.outcome.is_taken()) << 3);
        let pc_delta = record.pc.wrapping_sub(self.prev_pc) as i64;
        let target_delta = record.target.wrapping_sub(record.pc) as i64;
        let len = put_varint(&mut buf, 1, zigzag(pc_delta));
        let len = put_varint(&mut buf, len, zigzag(target_delta));
        self.sink.write_all(&buf[..len])?;
        self.prev_pc = record.pc;
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the sink, verifying the declared count.
    ///
    /// # Errors
    ///
    /// Fails with [`ErrorKind::InvalidInput`] if fewer records were
    /// written than declared, and propagates sink errors.
    pub fn finish(mut self) -> Result<W, Error> {
        if self.written != self.declared {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "trace declared {} records but only {} were written",
                    self.declared, self.written
                ),
            ));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streams records out of the binary trace format.
///
/// A bad magic, version or tag is an [`ErrorKind::InvalidData`] error
/// carrying its [`DecodeTraceError`]. The header's count is never
/// trusted for sizing: the iterator reports no size hint.
#[derive(Debug)]
pub struct TraceReader<R> {
    source: R,
    remaining: u64,
    prev_pc: u64,
    index: u64,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// Fails with [`ErrorKind::InvalidData`] on a bad magic or
    /// unsupported version, and propagates source errors.
    pub fn new(mut source: R) -> Result<Self, Error> {
        let mut header = [0u8; HEADER_LEN as usize];
        source.read_exact(&mut header)?;
        if header[..4] != MAGIC[..] {
            return Err(invalid(DecodeTraceError::BadMagic));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(invalid(DecodeTraceError::UnsupportedVersion {
                found: version,
            }));
        }
        // header[6..8] is the reserved field.
        let remaining = u64::from_le_bytes(header[8..].try_into().expect("eight bytes"));
        Ok(TraceReader {
            source,
            remaining,
            prev_pc: 0,
            index: 0,
        })
    }

    /// Records not yet read, as the header declared them.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next record, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Fails with [`ErrorKind::InvalidData`] on a malformed record and
    /// propagates source errors (including truncation, reported as
    /// [`ErrorKind::UnexpectedEof`]).
    pub fn next_record(&mut self) -> Result<Option<BranchRecord>, Error> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let tag = read_u8(&mut self.source)?;
        let kind = BranchKind::from_code(tag & 0x07)
            .filter(|_| tag & !0x0f == 0)
            .ok_or_else(|| {
                invalid(DecodeTraceError::BadTag {
                    tag,
                    index: self.index,
                })
            })?;
        let outcome = Outcome::from(tag & 0x08 != 0);
        let pc = self
            .prev_pc
            .wrapping_add_signed(unzigzag(read_varint(&mut self.source)?));
        let target = pc.wrapping_add_signed(unzigzag(read_varint(&mut self.source)?));
        self.prev_pc = pc;
        self.remaining -= 1;
        self.index += 1;
        Ok(Some(BranchRecord::new(pc, target, kind, outcome)))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<BranchRecord, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Writes `trace` to `sink` through a [`TraceWriter`] and returns the
/// flushed sink.
pub(crate) fn write_trace<W: Write>(sink: W, trace: &Trace) -> Result<W, Error> {
    let mut writer = TraceWriter::new(sink, trace.len() as u64)?;
    for record in trace.iter() {
        writer.write(record)?;
    }
    writer.finish()
}

/// Reads a whole trace of `input_len` bytes through a [`TraceReader`],
/// reserving no more records than those bytes can hold. A format fault
/// is an [`ErrorKind::InvalidData`] error carrying its
/// [`DecodeTraceError`]; other I/O errors pass through.
pub(crate) fn read_trace<R: Read>(source: R, input_len: u64) -> Result<Trace, Error> {
    let mut reader = TraceReader::new(source).map_err(|e| fault(e, DecodeTraceError::BadMagic))?;
    let expected = reader.remaining();
    let room = input_len.saturating_sub(HEADER_LEN) / MIN_RECORD_LEN;
    let mut trace = Trace::with_capacity(usize::try_from(expected.min(room)).unwrap_or(0));
    while let Some(record) = reader.next_record().map_err(|e| {
        let decoded = trace.len() as u64;
        fault(e, DecodeTraceError::Truncated { decoded, expected })
    })? {
        trace.push(record);
    }
    Ok(trace)
}

/// Names the fault behind a reader error: the end of the input or an
/// overlong varint is `otherwise`, and the rest pass through.
fn fault(e: Error, otherwise: DecodeTraceError) -> Error {
    let named = e
        .get_ref()
        .is_some_and(|inner| inner.is::<DecodeTraceError>());
    match e.kind() {
        ErrorKind::UnexpectedEof | ErrorKind::InvalidData if !named => invalid(otherwise),
        _ => e,
    }
}

/// Encodes a trace into the binary format.
///
/// The returned bytes can be written to disk verbatim and later read
/// back with [`decode`].
pub fn encode(trace: &Trace) -> Vec<u8> {
    // Typical record is ~4 bytes; reserve generously to avoid re-allocation.
    let buf = Vec::with_capacity(HEADER_LEN as usize + trace.len() * 6);
    write_trace(buf, trace).expect("writing to a Vec cannot fail")
}

/// Decodes a buffer produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecodeTraceError`] if the buffer is shorter than a header,
/// the magic or version is wrong, the buffer ends before the declared
/// number of records, or a record carries an invalid tag byte.
pub fn decode(buf: &[u8]) -> Result<Trace, DecodeTraceError> {
    read_trace(buf, buf.len() as u64).map_err(|e| {
        // A byte slice fails only where its bytes run out, so every
        // error is a named format fault.
        *e.into_inner()
            .and_then(|inner| inner.downcast().ok())
            .expect("slice reads fail only on format faults")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            BranchRecord::conditional(0x0040_0100, 0x0040_00c0, Outcome::Taken),
            BranchRecord::jump(0x0040_0104, 0x0041_0000),
            BranchRecord::new(0x0041_0000, 0x0040_0108, BranchKind::Return, Outcome::Taken),
            BranchRecord::conditional(0x0040_0108, 0x0040_0200, Outcome::NotTaken),
            BranchRecord::new(0x0040_020c, 0x0100_0000, BranchKind::Call, Outcome::Taken),
            BranchRecord::new(
                0x0100_0040,
                0x0200_0000,
                BranchKind::Indirect,
                Outcome::Taken,
            ),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let t = sample();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn round_trip_empty() {
        let t = Trace::new();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn deltas_wrap_across_the_whole_address_space() {
        // Each step's signed difference overflows i64.
        let t: Trace = [
            0x40,
            0x8000_0000_0000_0000,
            0x7fff_ffff_ffff_fff0,
            u64::MAX,
            0,
        ]
        .into_iter()
        .map(|pc| BranchRecord::conditional(pc, pc ^ (1 << 63), Outcome::Taken))
        .collect();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn encoding_is_compact_for_local_branches() {
        let t: Trace = (0..1000u64)
            .map(|i| BranchRecord::conditional(0x1000 + 4 * (i % 64), 0x1000, Outcome::Taken))
            .collect();
        let bytes = encode(&t);
        // header + <=4 bytes per record for branches within one page
        assert!(bytes.len() <= 16 + 4 * 1000, "got {}", bytes.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode(b"nope").unwrap_err(), DecodeTraceError::BadMagic);
        let mut bytes = encode(&sample()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), DecodeTraceError::BadMagic);
        let err = TraceReader::new(&b"XXXXxxxxxxxxxxxx"[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[4] = 9;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeTraceError::UnsupportedVersion { found: 9 }
        );
    }

    #[test]
    fn truncation_is_detected_with_progress() {
        let bytes = encode(&sample());
        let cut = &bytes[..bytes.len() - 1];
        match decode(cut).unwrap_err() {
            DecodeTraceError::Truncated { decoded, expected } => {
                assert_eq!(expected, 6);
                assert!(decoded < 6);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_huge_declared_count_reserves_nothing_it_cannot_fill() {
        for count in [u64::MAX, 1 << 40, 1 << 26] {
            let mut bytes = encode(&Trace::new());
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                decode(&bytes),
                Err(DecodeTraceError::Truncated {
                    decoded: 0,
                    expected: count
                })
            );
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            assert_eq!(reader.size_hint(), (0, None));
        }
    }

    #[test]
    fn an_overlong_varint_is_truncation() {
        let mut bytes = encode(&Trace::new());
        bytes[8] = 1;
        bytes.push(0);
        bytes.extend([0x80; 10]);
        bytes.push(0);
        assert_eq!(
            decode(&bytes),
            Err(DecodeTraceError::Truncated {
                decoded: 0,
                expected: 1
            })
        );
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(
            reader.next_record().unwrap_err().kind(),
            ErrorKind::InvalidData
        );
    }

    #[test]
    fn bad_tag_is_detected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[16] = 0x07; // kind code 7 does not exist
        match decode(&bytes).unwrap_err() {
            DecodeTraceError::BadTag { tag, index } => {
                assert_eq!(tag, 0x07);
                assert_eq!(index, 0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn high_tag_bits_are_rejected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[16] |= 0xf0;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            DecodeTraceError::BadTag { .. }
        ));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123_456, -987_654] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = [0u8; MAX_RECORD_LEN];
            let len = put_varint(&mut buf, 0, v);
            let mut slice: &[u8] = &buf[..len];
            assert_eq!(read_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_empty() {
        let mut empty: &[u8] = &[];
        assert_eq!(
            read_varint(&mut empty).unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        );
        let mut unterminated: &[u8] = &[0x80, 0x80];
        assert_eq!(
            read_varint(&mut unterminated).unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn streaming_round_trip() {
        let trace = sample();
        let mut writer = TraceWriter::new(Vec::new(), trace.len() as u64).unwrap();
        for r in trace.iter() {
            writer.write(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes, encode(&trace));
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let records: Result<Vec<BranchRecord>, Error> = reader.collect();
        assert_eq!(Trace::from_records(records.unwrap()), trace);
    }

    #[test]
    fn over_writing_is_rejected() {
        let mut writer = TraceWriter::new(Vec::new(), 1).unwrap();
        writer.write(&BranchRecord::default()).unwrap();
        let err = writer.write(&BranchRecord::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn under_writing_is_rejected_at_finish() {
        let writer = TraceWriter::new(Vec::new(), 5).unwrap();
        let err = writer.finish().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("declared 5"));
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let trace = sample();
        let bytes = encode(&trace);
        let cut = &bytes[..bytes.len() / 2];
        let mut reader = TraceReader::new(cut).unwrap();
        let mut last = Ok(None);
        for _ in 0..trace.len() {
            last = reader.next_record();
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn iterator_ends_cleanly() {
        let trace = sample();
        let bytes = encode(&trace);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut count = 0;
        for result in reader.by_ref() {
            result.unwrap();
            count += 1;
        }
        assert_eq!(count, trace.len());
        assert_eq!(reader.remaining(), 0);
        assert!(reader.next_record().unwrap().is_none());
    }
}
