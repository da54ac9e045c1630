//! Property-based suites for the HTTP request parser: the parser is
//! total (any byte buffer maps to `Ok` or a typed error, never a panic),
//! valid requests round-trip through percent-encoding exactly, and a
//! kept-alive connection's bytes frame into the heads sent, however the
//! reads cut them.
//!
//! Totality is what keeps the server's per-connection `catch_unwind` a
//! last-resort backstop instead of a load-bearing control path: the
//! chaos bench can throw arbitrary bytes at a worker and the worker
//! answers `400`, it does not unwind.

use proptest::prelude::*;
use surveyor_server::http::take_head;
use surveyor_server::{parse_head, percent_encode, HttpError, Method, Request, MAX_HEAD_BYTES};

/// Path/query components, biased toward the troublemakers: empty-ish
/// ASCII, multibyte UTF-8, and characters that must percent-escape.
fn component() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9]{1,12}",
        "[ -~]{1,12}",
        Just("Los Angeles".to_string()),
        Just("très grand".to_string()),
        Just("ぴかぴか".to_string()),
        Just("a/b?c&d=e%f+g".to_string()),
    ]
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Get), Just(Method::Post)]
}

/// Renders a request head the way a well-behaved client would: every
/// segment and query token percent-encoded.
fn render_head(
    method: Method,
    segments: &[String],
    query: &[(String, String)],
    headers: &[String],
) -> String {
    let mut target = String::new();
    for segment in segments {
        target.push('/');
        target.push_str(&percent_encode(segment));
    }
    if target.is_empty() {
        target.push('/');
    }
    if !query.is_empty() {
        target.push('?');
        for (i, (k, v)) in query.iter().enumerate() {
            if i > 0 {
                target.push('&');
            }
            target.push_str(&percent_encode(k));
            target.push('=');
            target.push_str(&percent_encode(v));
        }
    }
    let mut head = format!("{} {target} HTTP/1.1\r\n", method.as_str());
    for (i, value) in headers.iter().enumerate() {
        head.push_str(&format!("x-h{i}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// Any valid head: its method, path segments, query pairs and headers.
fn head() -> impl Strategy<Value = String> {
    (
        method(),
        prop::collection::vec(component(), 0..4),
        prop::collection::vec((component(), component()), 0..3),
        prop::collection::vec("[ -~]{0,20}", 0..4),
    )
        .prop_map(|(method, segments, query, headers)| {
            render_head(method, &segments, &query, &headers)
        })
}

/// Frames `bytes` as a connection's reads arrive, one read ending at
/// each of `cuts` (taken modulo the length) and one at the end, taking
/// every complete head after each read. Returns the heads in order and
/// the bytes left over.
fn frame_reads(bytes: &[u8], cuts: &[usize]) -> Result<(Vec<Vec<u8>>, Vec<u8>), HttpError> {
    let mut ends: Vec<usize> = cuts.iter().map(|&cut| cut % (bytes.len() + 1)).collect();
    ends.push(bytes.len());
    ends.sort_unstable();
    let (mut heads, mut buffered, mut start, mut scanned) = (Vec::new(), Vec::new(), 0, 0);
    for end in ends {
        buffered.extend_from_slice(&bytes[start..end]);
        start = end;
        while let Some(head) = take_head(&mut buffered, &mut scanned)? {
            heads.push(head);
        }
    }
    Ok((heads, buffered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pipelined heads come back whole and in order, with nothing left
    /// over, wherever the reads cut them.
    #[test]
    fn pipelined_heads_frame_at_any_cut(
        heads in prop::collection::vec(head(), 1..=8),
        cuts in prop::collection::vec(0usize..4096, 0..16),
    ) {
        let (framed, rest) = frame_reads(heads.concat().as_bytes(), &cuts)
            .map_err(|e| TestCaseError::Fail(format!("valid heads rejected: {e}")))?;
        let framed: Vec<String> =
            framed.into_iter().map(|h| String::from_utf8_lossy(&h).into_owned()).collect();
        prop_assert_eq!(framed, heads);
        prop_assert!(rest.is_empty(), "left over: {:?}", rest);
    }

    /// A head past `MAX_HEAD_BYTES` is `TooLarge` wherever the reads cut
    /// it, whether its blank line arrives or not, after any valid heads.
    #[test]
    fn an_oversize_head_is_too_large_at_any_cut(
        before in prop::collection::vec(head(), 0..3),
        pad in 0usize..2 * MAX_HEAD_BYTES,
        terminated in prop::bool::ANY,
        cuts in prop::collection::vec(0usize..4 * MAX_HEAD_BYTES, 0..16),
    ) {
        let mut bytes = before.concat();
        bytes.push_str("GET /x HTTP/1.1\r\nx-pad: ");
        bytes.push_str(&"a".repeat(MAX_HEAD_BYTES - 20 + pad));
        if terminated {
            bytes.push_str("\r\n\r\n");
        }
        prop_assert_eq!(frame_reads(bytes.as_bytes(), &cuts), Err(HttpError::TooLarge));
    }

    /// Arbitrary bytes parse to `Ok` or a typed error — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = parse_head(&data);
    }

    /// Arbitrary *text* after a plausible request-line prefix — the fuzz
    /// reaches past the method/version gate into target and header
    /// parsing.
    #[test]
    fn arbitrary_suffixes_never_panic(
        prefix in prop_oneof![Just("GET "), Just("POST "), Just("")],
        suffix in "[ -~\r\n%]{0,256}",
    ) {
        let head = format!("{prefix}{suffix}");
        let _ = parse_head(head.as_bytes());
    }

    /// Single-byte corruptions of a valid head parse to `Ok` or a typed
    /// error — never a panic.
    #[test]
    fn mutated_heads_never_panic(
        method in method(),
        segments in prop::collection::vec(component(), 0..4),
        query in prop::collection::vec((component(), component()), 0..3),
        position in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let mut bytes = render_head(method, &segments, &query, &[]).into_bytes();
        let index = (position % bytes.len() as u64) as usize;
        bytes[index] ^= mask;
        let _ = parse_head(&bytes);
    }

    /// A well-formed request round-trips: encode → parse recovers the
    /// method, every segment, and every query pair, in order.
    #[test]
    fn valid_requests_round_trip(
        method in method(),
        segments in prop::collection::vec(component(), 0..4),
        query in prop::collection::vec((component(), component()), 0..3),
        headers in prop::collection::vec("[ -~]{0,20}", 0..4),
    ) {
        let head = render_head(method, &segments, &query, &headers);
        let request = parse_head(head.as_bytes()).map_err(|e| {
            TestCaseError::Fail(format!("valid head rejected: {e}\n{head}"))
        })?;
        let want = Request { method, segments, query };
        prop_assert_eq!(request, want, "head was: {:?}", head);
    }

    /// `query_param` finds the first binding of a key.
    #[test]
    fn query_param_returns_first_binding(
        key in "[a-z]{1,8}",
        first in component(),
        second in component(),
    ) {
        let head = format!(
            "GET /x?{k}={a}&{k}={b} HTTP/1.1\r\n\r\n",
            k = percent_encode(&key),
            a = percent_encode(&first),
            b = percent_encode(&second),
        );
        let request = parse_head(head.as_bytes()).map_err(|e| {
            TestCaseError::Fail(format!("valid head rejected: {e}"))
        })?;
        prop_assert_eq!(request.query_param(&key), Some(first.as_str()));
    }
}
