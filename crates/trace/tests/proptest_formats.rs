//! Property tests: serialization round-trips and statistics
//! invariants over arbitrary traces.

use proptest::prelude::*;

use bpred_trace::stats::{BranchProfile, TraceStats};
use bpred_trace::{
    binfmt, textfmt, BranchKind, BranchRecord, DecodeTraceError, Outcome, ParseTraceErrorKind,
    Trace,
};

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

prop_compose! {
    fn arb_record()(
        pc in 0u64..=0xFFFF_FFFF_FFFFu64,
        target in 0u64..=0xFFFF_FFFF_FFFFu64,
        kind in arb_kind(),
        taken in any::<bool>(),
    ) -> BranchRecord {
        BranchRecord::new(pc, target, kind, Outcome::from(taken))
    }
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_record(), 0..200).prop_map(Trace::from_records)
}

/// The whole-buffer decoder as it stood before the format had a single
/// codec, kept as the oracle the streaming decoder must agree with on
/// every input. One change: it reserves no more records than the
/// buffer can hold (three bytes each), where it used to trust the
/// header's count.
mod oracle {
    use bpred_trace::{BranchKind, BranchRecord, DecodeTraceError, Outcome, Trace};

    fn kind_from_code(code: u8) -> Option<BranchKind> {
        Some(match code {
            0 => BranchKind::Conditional,
            1 => BranchKind::Unconditional,
            2 => BranchKind::Call,
            3 => BranchKind::Return,
            4 => BranchKind::Indirect,
            _ => return None,
        })
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    fn get_u8(buf: &mut &[u8]) -> Option<u8> {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        Some(byte)
    }

    fn get_varint(buf: &mut &[u8]) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            if shift >= 64 {
                return None;
            }
            let byte = get_u8(buf)?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    pub fn decode(mut buf: &[u8]) -> Result<Trace, DecodeTraceError> {
        if buf.len() < 16 {
            return Err(DecodeTraceError::BadMagic);
        }
        let (header, rest) = buf.split_at(16);
        buf = rest;
        if &header[0..4] != b"BPRT" {
            return Err(DecodeTraceError::BadMagic);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != 1 {
            return Err(DecodeTraceError::UnsupportedVersion { found: version });
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
        let room = (buf.len() / 3) as u64;
        let mut trace = Trace::with_capacity(count.min(room) as usize);
        let mut prev_pc = 0i64;
        for index in 0..count {
            let truncated = DecodeTraceError::Truncated {
                decoded: index,
                expected: count,
            };
            let tag = get_u8(&mut buf).ok_or_else(|| truncated.clone())?;
            let kind = kind_from_code(tag & 0x07)
                .filter(|_| tag & !0x0f == 0)
                .ok_or(DecodeTraceError::BadTag { tag, index })?;
            let outcome = Outcome::from(tag & 0x08 != 0);
            let pc_delta = get_varint(&mut buf).ok_or_else(|| truncated.clone())?;
            let target_delta = get_varint(&mut buf).ok_or(truncated)?;
            let pc = prev_pc.wrapping_add(unzigzag(pc_delta));
            let target = pc.wrapping_add(unzigzag(target_delta));
            prev_pc = pc;
            trace.push(BranchRecord::new(pc as u64, target as u64, kind, outcome));
        }
        Ok(trace)
    }
}

/// A valid version-1 header declaring `count` records.
fn header(count: u64) -> Vec<u8> {
    let mut bytes = b"BPRT\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes
}

/// Record counts from small to any `u64`.
fn arb_count() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, any::<u64>(), Just(u64::MAX), Just(1 << 40)]
}

proptest! {
    #[test]
    fn binary_round_trip(trace in arb_trace()) {
        let decoded = binfmt::decode(&binfmt::encode(&trace)).expect("decode");
        prop_assert_eq!(decoded, trace);
    }

    #[test]
    fn text_round_trip(trace in arb_trace()) {
        let parsed = textfmt::parse(&textfmt::emit(&trace)).expect("parse");
        prop_assert_eq!(parsed, trace);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Corrupt input must produce Err, never a panic.
        let _ = binfmt::decode(&bytes);
    }

    #[test]
    fn decode_matches_the_oracle_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(binfmt::decode(&bytes), oracle::decode(&bytes));
    }

    #[test]
    fn any_declared_count_over_a_short_body_never_panics(
        count in arb_count(),
        body in prop::collection::vec(any::<u8>(), 0..=64),
    ) {
        let mut bytes = header(count);
        bytes.extend_from_slice(&body);
        let decoded = binfmt::decode(&bytes);
        prop_assert_eq!(&decoded, &oracle::decode(&bytes));
        if let Ok(trace) = decoded {
            prop_assert_eq!(trace.len() as u64, count);
            prop_assert!(trace.len() <= body.len() / 3);
        }
    }

    #[test]
    fn a_count_beyond_the_records_present_is_truncated(
        trace in prop::collection::vec(arb_record(), 0..8).prop_map(Trace::from_records),
        count in arb_count(),
    ) {
        let mut bytes = binfmt::encode(&trace);
        bytes[8..16].copy_from_slice(&count.to_le_bytes());
        let decoded = binfmt::decode(&bytes);
        prop_assert_eq!(&decoded, &oracle::decode(&bytes));
        let present = trace.len() as u64;
        if count > present {
            prop_assert_eq!(
                decoded,
                Err(DecodeTraceError::Truncated { decoded: present, expected: count })
            );
        } else {
            prop_assert_eq!(decoded, Ok(trace.truncated(count as usize)));
        }
    }

    #[test]
    fn decode_survives_truncation(trace in arb_trace(), cut in 0usize..64) {
        let bytes = binfmt::encode(&trace);
        let keep = bytes.len().saturating_sub(cut);
        let _ = binfmt::decode(&bytes[..keep]);
    }

    // --- corrupt inputs must surface the matching error variant ---

    #[test]
    fn truncated_record_bytes_report_truncated(
        trace in prop::collection::vec(arb_record(), 1..100).prop_map(Trace::from_records),
        cut in 1usize..32,
    ) {
        let bytes = binfmt::encode(&trace);
        // Keep the 16-byte header intact; cut into the record bytes.
        let keep = bytes.len().saturating_sub(cut).max(16);
        match binfmt::decode(&bytes[..keep]) {
            Err(DecodeTraceError::Truncated { decoded, expected }) => {
                prop_assert!(decoded < expected);
                prop_assert_eq!(expected, trace.len() as u64);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn corrupted_magic_reports_bad_magic(trace in arb_trace(), pos in 0usize..4, flip in 1u8..=255) {
        let mut bytes = binfmt::encode(&trace);
        bytes[pos] ^= flip;
        prop_assert_eq!(binfmt::decode(&bytes), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn short_input_reports_bad_magic(bytes in prop::collection::vec(any::<u8>(), 0..16)) {
        prop_assert_eq!(binfmt::decode(&bytes), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn unknown_version_reports_unsupported(trace in arb_trace(), version in 2u16..1000) {
        let mut bytes = binfmt::encode(&trace);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            binfmt::decode(&bytes),
            Err(DecodeTraceError::UnsupportedVersion { found: version })
        );
    }

    #[test]
    fn reserved_tag_bits_report_bad_tag(
        trace in prop::collection::vec(arb_record(), 1..100).prop_map(Trace::from_records),
        garbage in 0x10u8..=0xF0,
    ) {
        let mut bytes = binfmt::encode(&trace);
        // Byte 16 is the first record's tag; bits above taken<<3 are
        // reserved and must be rejected, not decoded.
        bytes[16] |= garbage & 0xF0;
        prop_assume!(bytes[16] & 0xF0 != 0);
        match binfmt::decode(&bytes) {
            Err(DecodeTraceError::BadTag { tag, index }) => {
                prop_assert_eq!(tag, bytes[16]);
                prop_assert_eq!(index, 0);
            }
            other => prop_assert!(false, "expected BadTag, got {:?}", other),
        }
    }

    #[test]
    fn wrong_field_count_reports_line_and_count(
        trace in arb_trace(),
        extra in 1usize..8,
    ) {
        prop_assume!(extra != 4);
        let mut text = textfmt::emit(&trace);
        text.push_str(&"f ".repeat(extra));
        let err = textfmt::parse(&text).expect_err("bad field count");
        prop_assert_eq!(err.line, trace.len() + 1);
        prop_assert_eq!(err.kind, ParseTraceErrorKind::FieldCount { found: extra });
    }

    #[test]
    fn non_hex_address_reports_bad_address(trace in arb_trace(), which in 0usize..2) {
        let mut text = textfmt::emit(&trace);
        text.push_str(if which == 0 { "xyz 20 C T" } else { "10 xyz C T" });
        let err = textfmt::parse(&text).expect_err("bad address");
        prop_assert_eq!(err.line, trace.len() + 1);
        prop_assert_eq!(
            err.kind,
            ParseTraceErrorKind::BadAddress { field: "xyz".to_owned() }
        );
    }

    #[test]
    fn unknown_kind_mnemonic_reports_bad_kind(
        trace in arb_trace(),
        // Anything outside the C/J/L/R/I mnemonic set.
        c in prop::sample::select("ABDEFGHKMOPQSUVWXYZ".chars().collect::<Vec<char>>()),
    ) {
        let mut text = textfmt::emit(&trace);
        text.push_str(&format!("10 20 {c} T"));
        let err = textfmt::parse(&text).expect_err("bad kind");
        prop_assert_eq!(err.line, trace.len() + 1);
        prop_assert_eq!(err.kind, ParseTraceErrorKind::BadKind { field: c.to_string() });
    }

    #[test]
    fn unknown_outcome_mnemonic_reports_bad_outcome(
        trace in arb_trace(),
        // Anything outside the T/N outcome set.
        c in prop::sample::select("ABCDEFGHIJKLMOPQRSUVWXYZ".chars().collect::<Vec<char>>()),
    ) {
        let mut text = textfmt::emit(&trace);
        text.push_str(&format!("10 20 C {c}"));
        let err = textfmt::parse(&text).expect_err("bad outcome");
        prop_assert_eq!(err.line, trace.len() + 1);
        prop_assert_eq!(err.kind, ParseTraceErrorKind::BadOutcome { field: c.to_string() });
    }

    #[test]
    fn stats_counts_are_consistent(trace in arb_trace()) {
        let stats = TraceStats::measure(&trace);
        prop_assert_eq!(stats.total_records, trace.len());
        prop_assert_eq!(stats.dynamic_conditionals as usize, trace.conditional_len());
        prop_assert!(stats.static_conditionals <= trace.conditional_len());
        prop_assert!((0.0..=1.0).contains(&stats.taken_rate));
        prop_assert!((0.0..=1.0).contains(&stats.highly_biased_fraction));
    }

    #[test]
    fn coverage_buckets_partition_statics(trace in arb_trace()) {
        let stats = TraceStats::measure(&trace);
        prop_assert_eq!(stats.coverage.total(), stats.static_conditionals);
    }

    #[test]
    fn static_for_fraction_is_monotone(trace in arb_trace()) {
        let profile = BranchProfile::measure(&trace);
        let mut previous = 0usize;
        for pct in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let n = profile.static_for_fraction(pct);
            prop_assert!(n >= previous, "{pct}: {n} < {previous}");
            previous = n;
        }
        prop_assert!(previous <= profile.static_conditionals());
    }

    #[test]
    fn profile_execution_counts_sum_to_dynamic(trace in arb_trace()) {
        let profile = BranchProfile::measure(&trace);
        let total: u64 = profile.iter().map(|(_, c)| c.executions).sum();
        prop_assert_eq!(total, profile.dynamic_conditionals());
        for (_, counts) in profile.iter() {
            prop_assert!(counts.taken <= counts.executions);
            prop_assert!((0.5..=1.0).contains(&counts.bias()));
        }
    }

    #[test]
    fn truncation_is_a_prefix(trace in arb_trace(), n in 0usize..250) {
        let head = trace.truncated(n);
        prop_assert_eq!(head.len(), n.min(trace.len()));
        for (i, r) in head.iter().enumerate() {
            prop_assert_eq!(r, &trace[i]);
        }
    }
}

/// A fixed trace that reaches every corner of the binary encoding:
/// every kind and outcome, negative pc and target deltas, pcs at and
/// above 2^63, and deltas whose zigzag needs a 10-byte varint.
fn pinned_trace() -> Trace {
    let wide = 0x8000_0000_0100_0100u64;
    vec![
        BranchRecord::conditional(0x0040_0100, 0x0040_00c0, Outcome::Taken),
        BranchRecord::jump(0x0040_0104, 0x0041_0000),
        BranchRecord::new(0x0041_0000, 0x0040_0108, BranchKind::Call, Outcome::Taken),
        BranchRecord::new(0x0040_0108, 0x0040_0200, BranchKind::Return, Outcome::Taken),
        BranchRecord::new(
            0x0100_0040,
            0x0200_0000,
            BranchKind::Indirect,
            Outcome::Taken,
        ),
        // pc delta -(2^63) + 0xc0: a 10-byte varint.
        BranchRecord::conditional(wide, wide - 0x100, Outcome::NotTaken),
        // pc delta 2^63 - 16 - 0x0100_0100: a 10-byte varint again.
        BranchRecord::new(u64::MAX - 15, 0x10, BranchKind::Call, Outcome::Taken),
        BranchRecord::new(0x20, u64::MAX - 11, BranchKind::Return, Outcome::Taken),
        BranchRecord::conditional(0x1c, 0x8, Outcome::Taken),
        BranchRecord::new(0x1c, 0x1c, BranchKind::Indirect, Outcome::NotTaken),
    ]
    .into_iter()
    .collect()
}

/// The encoding's bytes are pinned through their FNV-64: trace-file
/// cache keys (`tracefile:<fingerprint>`) hash them, so a change here
/// silently orphans every cached trace-file result.
#[test]
fn encoding_and_fingerprint_bytes_are_pinned() {
    let trace = pinned_trace();
    let bytes = binfmt::encode(&trace);
    assert_eq!(bytes.len(), 83);
    assert_eq!(bpred_trace::fnv::fnv64(&bytes), 0x74fa_4261_9038_8051);
    assert_eq!(trace.fingerprint(), 0x74fa_4261_9038_8051);
    assert_eq!(binfmt::decode(&bytes), Ok(trace));
}
