//! Property fuzz for the incremental HTTP/1.1 parser: arbitrary byte
//! noise never panics, valid requests round-trip under any read-chunk
//! split (including folding and body boundaries landing mid-chunk),
//! and prefix feeding is monotone — `Incomplete` until the full
//! request, then the same parse as one-shot. Then the `/sweep` query
//! parser: any mix of known and unknown keys, huge or zero numbers and
//! configs of every scheme ends in a sweep within the counter budget
//! or a 400, never a panic.

use bpred_core::PredictorConfig;
use bpred_serve::http::{parse_request, Parsed, Request};
use bpred_serve::service::{SweepRequest, MAX_SWEEP_COUNTERS};
use proptest::prelude::*;

/// A string drawn from `alphabet`, `min..max` chars (the vendored
/// proptest subset has no regex strategies).
fn chars_of(alphabet: &'static str, min: usize, max: usize) -> impl Strategy<Value = String> {
    let letters: Vec<char> = alphabet.chars().collect();
    prop::collection::vec(prop::sample::select(letters), min..max)
        .prop_map(|chars| chars.into_iter().collect())
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const QUERYISH: &str = "abcdefghijklmnopqrstuvwxyz0123456789%+.=-";

/// Every scheme name the config parser knows, aliases included, with
/// the parameter letters it reads.
const SCHEMES: [(&str, &str); 18] = [
    ("taken", ""),
    ("not-taken", ""),
    ("btfn", ""),
    ("last", "a"),
    ("bimodal", "a"),
    ("gag", "h"),
    ("gas", "hc"),
    ("gshare", "hc"),
    ("path", "rcq"),
    ("pas", "hcew"),
    ("pag", "hew"),
    ("tournament", "ahk"),
    ("sas", "hsc"),
    ("sag", "hs"),
    ("agree", "hi"),
    ("bimode", "hdk"),
    ("gskew", "hb"),
    ("yags", "kbt"),
];

/// Every parameter letter any scheme reads.
const PARAM_KEYS: [char; 13] = [
    'a', 'h', 'c', 'r', 'q', 'e', 'w', 'k', 's', 'i', 'd', 'b', 't',
];

/// The powers of two up to `2^max_bits`.
fn powers_of_two(max_bits: u32) -> Vec<u64> {
    (0..=max_bits).map(|bits| 1u64 << bits).collect()
}

/// A parameter value in 0..=70: often under 13, where tables fit, or
/// a power of two, as `w=` needs.
fn param_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=12,
        0u64..=24,
        0u64..=70,
        prop::sample::select(powers_of_two(6)),
    ]
}

/// One `<scheme>[:<k>=<v>,…]` config: each of the scheme's own letters
/// present three times in four, half the time one more letter of any
/// scheme, and `e=` (first-level entries) up to 2^40.
fn config_text() -> impl Strategy<Value = String> {
    let entries = prop_oneof![
        0u64..=70,
        0u64..=1 << 40,
        prop::sample::select(powers_of_two(40)),
    ];
    let present = prop::sample::select(vec![true, true, true, false]);
    let own = prop::collection::vec((present, param_value()), 4);
    let extra = (
        any::<bool>(),
        prop::sample::select(PARAM_KEYS.to_vec()),
        param_value(),
    );
    let scheme = prop::sample::select(SCHEMES.to_vec());
    (scheme, own, entries, extra).prop_map(|((scheme, letters), own, entries, extra)| {
        let mut params: Vec<(char, u64)> = (letters.chars().zip(own))
            .filter(|(_, (present, _))| *present)
            .map(|(key, (_, value))| (key, if key == 'e' { entries } else { value }))
            .collect();
        if let (true, key, value) = extra {
            params.push((key, value));
        }
        let params: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if params.is_empty() {
            scheme.to_owned()
        } else {
            format!("{scheme}:{}", params.join(","))
        }
    })
}

/// A `configs=` value: zero to three configs joined by `;`.
fn config_list() -> impl Strategy<Value = String> {
    prop::collection::vec(config_text(), 0..4).prop_map(|configs| configs.join(";"))
}

/// A value for any query key: counts from zero past `u128::MAX`,
/// non-numbers, workload names known and unknown, or a config list.
fn query_value() -> impl Strategy<Value = String> {
    let words = [
        "0",
        "1",
        "1996",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "-1",
        "x",
        "",
        "espresso",
        "real_gcc",
        "nope",
    ];
    prop_oneof![
        prop::sample::select(words.map(str::to_owned).to_vec()),
        config_list(),
    ]
}

/// Reference one-shot parse, as (method, path, query, body,
/// keep_alive, consumed).
fn parse_ok(buf: &[u8]) -> Option<(Request, usize)> {
    match parse_request(buf) {
        Parsed::Request(request, consumed) => Some((request, consumed)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: parse returns Incomplete/Error/Request but
    /// never panics, and consumed never exceeds the buffer.
    #[test]
    fn arbitrary_noise_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        match parse_request(&bytes) {
            Parsed::Request(_, consumed) => prop_assert!(consumed <= bytes.len()),
            Parsed::Incomplete | Parsed::Error(_) => {}
        }
    }

    /// Noise appended after a valid request never changes the first
    /// parse (pipelining safety).
    #[test]
    fn trailing_noise_does_not_change_the_first_parse(
        path_seg in chars_of(LOWER, 1, 12),
        param in chars_of(LOWER, 1, 8),
        value in chars_of(QUERYISH, 0, 16),
        noise in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let head = format!("GET /{path_seg}?{param}={value} HTTP/1.1\r\nHost: x\r\n\r\n");
        let (want, consumed) = parse_ok(head.as_bytes()).expect("valid request parses");
        prop_assert_eq!(consumed, head.len());

        let mut buf = head.clone().into_bytes();
        buf.extend_from_slice(&noise);
        let (got, consumed2) = parse_ok(&buf).expect("still parses with a pipelined tail");
        prop_assert_eq!(consumed2, consumed);
        prop_assert_eq!(got.method, want.method);
        prop_assert_eq!(got.path, want.path);
        prop_assert_eq!(got.query, want.query);
        prop_assert_eq!(got.keep_alive, want.keep_alive);
    }

    /// Incremental feeding: every strict prefix of a valid request is
    /// Incomplete (never an error, never a short parse), and the full
    /// buffer parses identically no matter how it arrived.
    #[test]
    fn prefix_feeding_is_monotone(
        path_seg in chars_of(LOWER, 1, 10),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        keep_alive in any::<bool>(),
    ) {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut full = format!(
            "POST /{path_seg} HTTP/1.1\r\nHost: x\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        let head_len = full.len();
        full.extend_from_slice(&body);

        for cut in 0..full.len() {
            match parse_request(&full[..cut]) {
                Parsed::Incomplete => {}
                Parsed::Request(_, consumed) => {
                    // A strict prefix may only parse if the request
                    // was already complete at the cut (cannot happen:
                    // content-length pins the end).
                    prop_assert!(consumed <= cut);
                    prop_assert!(cut >= head_len + body.len());
                }
                Parsed::Error(e) => prop_assert!(false, "prefix {cut} errored: {e:?}"),
            }
        }
        let (request, consumed) = parse_ok(&full).expect("full request parses");
        prop_assert_eq!(consumed, full.len());
        prop_assert_eq!(request.method, "POST");
        prop_assert_eq!(request.path, format!("/{path_seg}"));
        prop_assert_eq!(request.body, body);
        prop_assert_eq!(request.keep_alive, keep_alive);
    }

    /// Folded (obs-fold) headers parse identically however the fold
    /// is split, and never panic.
    #[test]
    fn folded_headers_survive_any_split(
        first in chars_of(ALNUM, 1, 16),
        second in chars_of(ALNUM, 1, 16),
        ws in prop::sample::select(vec![" ", "\t", "   "]),
    ) {
        let head = format!(
            "GET /x HTTP/1.1\r\nHost: x\r\nX-Fold: {first}\r\n{ws}{second}\r\n\r\n"
        );
        let (request, consumed) = parse_ok(head.as_bytes()).expect("folded header parses");
        prop_assert_eq!(consumed, head.len());
        prop_assert_eq!(request.path, "/x");
        // Every strict prefix stays Incomplete.
        for cut in 0..head.len() {
            prop_assert!(
                matches!(parse_request(head.as_bytes()[..cut].as_ref()), Parsed::Incomplete),
                "prefix {cut} must be incomplete"
            );
        }
    }

    /// Chunked arrival: reassembling a valid request from arbitrary
    /// split points always yields the same parse as one-shot.
    #[test]
    fn chunk_boundaries_do_not_change_the_parse(
        query_val in chars_of(QUERYISH, 0, 24),
        body in proptest::collection::vec(any::<u8>(), 0..48),
        splits in proptest::collection::vec(1usize..64, 0..6),
    ) {
        let mut full = format!(
            "POST /sweep?q={query_val} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        full.extend_from_slice(&body);

        let (want, want_consumed) = parse_ok(&full).expect("valid request");

        // Feed in chunks at the given split points, parsing after
        // every chunk exactly as the server's read loop does.
        let mut buf: Vec<u8> = Vec::new();
        let mut offset = 0usize;
        let mut outcome = None;
        for &s in &splits {
            let end = (offset + s).min(full.len());
            buf.extend_from_slice(&full[offset..end]);
            offset = end;
            match parse_request(&buf) {
                Parsed::Incomplete => {}
                Parsed::Request(r, c) => { outcome = Some((r, c)); break; }
                Parsed::Error(e) => prop_assert!(false, "chunked feed errored: {e:?}"),
            }
        }
        if outcome.is_none() {
            buf.extend_from_slice(&full[offset..]);
            outcome = parse_ok(&buf);
        }
        let (got, consumed) = outcome.expect("reassembled request parses");
        prop_assert_eq!(consumed, want_consumed);
        prop_assert_eq!(got.method, want.method);
        prop_assert_eq!(got.path, want.path);
        prop_assert_eq!(got.query, want.query);
        prop_assert_eq!(got.body, want.body);
        prop_assert_eq!(got.keep_alive, want.keep_alive);
    }
}

proptest! {
    // One parse per case, so many cases are cheap; most end in a 400,
    // and a few hundred in a sweep.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A `/sweep` query of known and unknown keys parses to a sweep
    /// with configs, within `MAX_SWEEP_COUNTERS`, whose config ids
    /// parse back to the same configs; anything else is a 400. The
    /// debug build traps integer overflow, so no arithmetic on a huge
    /// value goes unnoticed.
    #[test]
    fn sweep_queries_parse_to_a_budgeted_sweep_or_a_400(
        with_head in prop::sample::select(vec![true, true, true, false]),
        configs in config_list(),
        extra in prop::collection::vec(
            (
                prop::sample::select(vec![
                    "workload", "seed", "branches", "warmup", "configs", "bogus", "Workload",
                ]),
                query_value(),
            ),
            0..3,
        ),
    ) {
        let mut pairs: Vec<String> = Vec::new();
        if with_head {
            pairs.push("workload=espresso".to_owned());
            pairs.push(format!("configs={configs}"));
        }
        pairs.extend(extra.iter().map(|(key, value)| format!("{key}={value}")));
        let query = pairs.join("&");
        match SweepRequest::parse(&query) {
            Ok(request) => {
                prop_assert!(!request.configs.is_empty(), "{query}: no configs");
                let counters: u128 = request.configs.iter().map(|c| u128::from(c.counters())).sum();
                prop_assert!(
                    counters <= u128::from(MAX_SWEEP_COUNTERS),
                    "{query}: {counters} counters"
                );
                for config in &request.configs {
                    prop_assert_eq!(
                        config.config_id().parse::<PredictorConfig>(),
                        Ok(*config)
                    );
                }
            }
            Err(bad) => prop_assert_eq!(bad.status, 400, "{}: {:?}", query, bad),
        }
    }
}
