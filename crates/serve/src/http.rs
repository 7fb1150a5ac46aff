//! Minimal HTTP/1.1 plumbing for the event-driven server.
//!
//! The parser is **incremental**: [`parse_request`] looks at whatever
//! bytes have arrived so far and reports [`Parsed::Incomplete`] until
//! a full request (head plus declared body) is buffered, so the
//! reactor can feed it from nonblocking reads split at arbitrary
//! boundaries. It implements exactly the subset the service speaks —
//! request line, headers (with obs-fold continuation lines),
//! `Content-Length` bodies — and rejects everything else with a
//! typed error that maps onto a status code: `400` for malformed
//! syntax, `431` when the head exceeds [`MAX_HEAD_BYTES`], `413` when
//! the declared body exceeds [`MAX_BODY_BYTES`]. `Transfer-Encoding`
//! is refused outright (no chunked bodies, no smuggling ambiguity).
//!
//! Responses are built as byte vectors by [`response`]; every
//! response carries `Content-Length` and an explicit `Connection:
//! keep-alive`/`close`, so clients can reuse connections and
//! pipeline requests while the framing stays unambiguous.

use std::fmt;
use std::io::Write as _;

/// Maximum accepted size of the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string, percent-decoded *not* applied.
    pub path: String,
    /// Raw query string (no leading `?`), empty when absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this
    /// one: HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection: close`/`keep-alive` header overrides either way.
    pub keep_alive: bool,
}

/// Why a buffered request could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The request violates the subset of HTTP this server speaks.
    Malformed(&'static str),
    /// The request line plus headers exceed [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl ParseError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            ParseError::BodyTooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Outcome of examining the buffered bytes of a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// No full request is buffered yet; read more bytes and retry.
    Incomplete,
    /// One full request, consuming the given prefix of the buffer
    /// (any remainder is the start of the next pipelined request).
    Request(Request, usize),
    /// The buffered bytes can never become a valid request.
    Error(ParseError),
}

/// Locates the head terminator (blank line): returns
/// `(head_len, body_start)` where `head_len` includes the final
/// newline of the last header line.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some((i + 1, i + 2)),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some((i + 1, i + 3)),
            _ => {}
        }
    }
    None
}

/// Attempts to parse one request from the front of `buf`.
///
/// Incremental: call again with more bytes appended after
/// [`Parsed::Incomplete`]. Never panics on arbitrary input — any
/// byte sequence either eventually parses, stays incomplete, or
/// yields a [`ParseError`].
pub fn parse_request(buf: &[u8]) -> Parsed {
    let Some((head_len, body_start)) = find_head_end(buf) else {
        return if buf.len() > MAX_HEAD_BYTES {
            Parsed::Error(ParseError::HeadTooLarge)
        } else {
            Parsed::Incomplete
        };
    };
    if head_len > MAX_HEAD_BYTES {
        return Parsed::Error(ParseError::HeadTooLarge);
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_len]) else {
        return Parsed::Error(ParseError::Malformed("head is not UTF-8"));
    };

    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parsed::Error(ParseError::Malformed("request line"));
    };
    if method.is_empty() || target.is_empty() || parts.next().is_some() {
        return Parsed::Error(ParseError::Malformed("request line"));
    }
    if !version.starts_with("HTTP/1.") || version.len() <= "HTTP/1.".len() {
        return Parsed::Error(ParseError::Malformed("http version"));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    // Unfold headers: a line starting with SP/HT continues the
    // previous header's value (obs-fold).
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            let Some(last) = headers.last_mut() else {
                return Parsed::Error(ParseError::Malformed("folded header without a predecessor"));
            };
            last.1.push(' ');
            last.1.push_str(line.trim_matches([' ', '\t']));
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error(ParseError::Malformed("header without colon"));
        };
        if name.is_empty() || name.contains([' ', '\t']) {
            return Parsed::Error(ParseError::Malformed("header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut content_length = 0usize;
    let mut saw_length = false;
    for (name, value) in &headers {
        match name.as_str() {
            "content-length" => {
                let Ok(n) = value.parse::<usize>() else {
                    return Parsed::Error(ParseError::Malformed("content-length"));
                };
                if saw_length && n != content_length {
                    return Parsed::Error(ParseError::Malformed("conflicting content-length"));
                }
                saw_length = true;
                content_length = n;
            }
            "transfer-encoding" => {
                return Parsed::Error(ParseError::Malformed("transfer-encoding is not supported"));
            }
            "connection" => {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Parsed::Error(ParseError::BodyTooLarge);
    }

    let need = body_start + content_length;
    if buf.len() < need {
        return Parsed::Incomplete;
    }
    Parsed::Request(
        Request {
            method: method.to_owned(),
            path,
            query,
            body: buf[body_start..need].to_vec(),
            keep_alive,
        },
        need,
    )
}

/// The standard reason phrase for the statuses this server sends.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Response",
    }
}

/// Builds one response with the mandatory framing headers and an
/// explicit `Connection:` disposition, plus any `extra_headers`
/// (each a full `Name: value` line without CRLF).
pub fn response(
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(160 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for header in extra_headers {
        let _ = write!(out, "{header}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Splits a query string into decoded `(key, value)` pairs, in
/// order. Pairs without `=` decode to an empty value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Percent-decodes a URL component; `+` decodes to a space. Invalid
/// escapes pass through literally.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(bytes: &[u8]) -> Request {
        match parse_request(bytes) {
            Parsed::Request(r, consumed) => {
                assert_eq!(consumed, bytes.len(), "consumes exactly the request");
                r
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    fn error(bytes: &[u8]) -> ParseError {
        match parse_request(bytes) {
            Parsed::Error(e) => e,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r = complete(b"GET /sweep?workload=espresso&n=5 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/sweep");
        assert_eq!(r.query, "workload=espresso&n=5");
        assert!(r.body.is_empty());
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let r = complete(b"POST /sweep HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn connection_and_version_drive_keep_alive() {
        let r = complete(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let r = complete(b"GET /x HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = complete(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(r.keep_alive);
    }

    #[test]
    fn incremental_feeding_reports_incomplete_until_done() {
        let full = b"POST /sweep HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert_eq!(
                parse_request(&full[..cut]),
                Parsed::Incomplete,
                "prefix of {cut} bytes"
            );
        }
        let r = complete(full);
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn pipelined_requests_consume_only_the_first() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Parsed::Request(r, consumed) = parse_request(two) else {
            panic!("first request parses");
        };
        assert_eq!(r.path, "/a");
        let Parsed::Request(r2, consumed2) = parse_request(&two[consumed..]) else {
            panic!("second request parses");
        };
        assert_eq!(r2.path, "/b");
        assert_eq!(consumed + consumed2, two.len());
    }

    #[test]
    fn folded_headers_join() {
        let r =
            complete(b"GET /x HTTP/1.1\r\nX-Long: part one\r\n  part two\r\n\tpart three\r\n\r\n");
        assert_eq!(r.path, "/x");
        // Folding only affects ignored headers; a folded Connection
        // continuation still applies once joined.
        let r = complete(b"GET /x HTTP/1.1\r\nConnection: keep-alive,\r\n close\r\n\r\n");
        assert!(!r.keep_alive, "folded close token honoured");
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(error(b"NOT HTTP\r\n\r\n").status(), 400);
        assert_eq!(error(b"GET /x HTTP/2\r\n\r\n").status(), 400);
        assert_eq!(error(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n").status(), 400);
        assert_eq!(
            error(b"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n").status(),
            400
        );
        assert_eq!(
            error(b"GET /x HTTP/1.1\r\n folded: first\r\n\r\n").status(),
            400
        );
        assert_eq!(
            error(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").status(),
            400
        );
        assert_eq!(
            error(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n").status(),
            400
        );
    }

    #[test]
    fn oversized_head_is_431() {
        // No terminator within the cap: a slowloris header flood.
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        assert_eq!(error(&huge), ParseError::HeadTooLarge);
        // Terminated but past the cap.
        let mut fat = b"GET /x HTTP/1.1\r\n".to_vec();
        while fat.len() <= MAX_HEAD_BYTES {
            fat.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        fat.extend_from_slice(b"\r\n");
        assert_eq!(error(&fat), ParseError::HeadTooLarge);
    }

    #[test]
    fn oversized_body_declaration_is_413() {
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(error(huge.as_bytes()), ParseError::BodyTooLarge);
    }

    #[test]
    fn response_frames_correctly() {
        let out = response(200, "text/plain", &[], b"hi", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));

        let out = response(429, "text/plain", &["Retry-After: 1".to_owned()], b"", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn query_decoding() {
        let pairs = parse_query("a=1&b=x%20y&flag&c=1%2B2+3");
        assert_eq!(
            pairs,
            vec![
                ("a".to_owned(), "1".to_owned()),
                ("b".to_owned(), "x y".to_owned()),
                ("flag".to_owned(), String::new()),
                ("c".to_owned(), "1+2 3".to_owned()),
            ]
        );
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
