//! Property coverage for the hand-rolled HTTP parser: whatever bytes
//! arrive — malformed request lines, oversized or split headers, bad
//! `Content-Length`, disconnects mid-body, raw binary noise — the parser
//! must return a typed 4xx-mappable error or a valid request, and must
//! never panic. Split-read equivalence is checked by re-parsing every
//! input through tiny `BufReader` capacities, which fragments the
//! request line, headers, and body across refills.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_serve::http::{
    read_request, ParseError, Request, MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE,
};
use proptest::prelude::*;
use std::io::BufReader;

/// Parses with the given `BufReader` capacity (1 fragments every line
/// byte-by-byte across refills).
fn parse_with_capacity(raw: &[u8], capacity: usize) -> Result<Request, ParseError> {
    read_request(&mut BufReader::with_capacity(capacity.max(1), raw))
}

fn parse(raw: &[u8]) -> Result<Request, ParseError> {
    parse_with_capacity(raw, 8 * 1024)
}

/// A parse either succeeds or fails with a status the server can answer;
/// the status set is closed. (Panics abort the test process and fail the
/// whole suite, so just reaching the match is the property.)
fn assert_typed(result: &Result<Request, ParseError>) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        let status = e.status();
        if !matches!(status, 400 | 413 | 431) {
            return Err(TestCaseError::Fail(format!(
                "parse error maps to unexpected status {status}: {e}"
            )));
        }
    }
    Ok(())
}

/// Request-line shaped fragments to recombine into mostly-broken lines.
fn line_tokens() -> Vec<&'static str> {
    vec![
        "GET",
        "POST",
        "/query",
        "/facts",
        "HTTP/1.1",
        "HTTP/1.0",
        "HTTP/2",
        "",
        " ",
        "\t",
        "p[t](X)",
        "GETX",
        "%%%",
        "\u{00e9}clair",
    ]
}

fn header_fragments() -> Vec<&'static str> {
    vec![
        "Host: x",
        "Content-Length: 4",
        "Content-Length: -1",
        "Content-Length: 999999999999999999999999",
        "Content-Length: 4x",
        "X-Itdb-Request-Id: r-50",
        "No-Colon-Here",
        ": empty-name",
        "Connection: close",
        "Connection: keep-alive",
        "X-Bin: \u{0001}\u{0002}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random recombinations of request-line tokens: never a panic,
    /// always Ok or a typed 4xx.
    #[test]
    fn malformed_request_lines_are_typed(
        picks in proptest::collection::vec(0usize..14, 0..6),
        trailing_crlf in 0u8..2,
    ) {
        let tokens = line_tokens();
        let line = picks
            .iter()
            .map(|i| tokens[*i])
            .collect::<Vec<_>>()
            .join(" ");
        let raw = if trailing_crlf == 1 {
            format!("{line}\r\n\r\n")
        } else {
            format!("{line}\n\n")
        };
        let result = parse(raw.as_bytes());
        assert_typed(&result)?;
        // If it parsed, the line really had the 3-token shape.
        if let Ok(req) = &result {
            prop_assert!(!req.method.is_empty());
            prop_assert!(!req.path.is_empty());
        }
    }

    /// Shuffled header fragments under a valid request line: parse or
    /// typed rejection, and bad Content-Length never slips through.
    #[test]
    fn header_soup_is_typed(
        picks in proptest::collection::vec(0usize..11, 0..8),
        body in proptest::collection::vec(0u8..255, 0..8),
    ) {
        let fragments = header_fragments();
        let mut raw = String::from("POST /query HTTP/1.1\r\n");
        for i in &picks {
            raw.push_str(fragments[*i]);
            raw.push_str("\r\n");
        }
        raw.push_str("\r\n");
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&body);
        let result = parse(&bytes);
        assert_typed(&result)?;
        if let Ok(req) = &result {
            // An accepted Content-Length was honored exactly.
            if let Some(cl) = req.header("content-length") {
                let len: usize = cl.parse().map_err(|_| TestCaseError::Fail(
                    format!("accepted unparseable Content-Length `{cl}`")
                ))?;
                prop_assert_eq!(req.body.len(), len);
            }
        }
    }

    /// Splitting the same bytes across arbitrarily small reads changes
    /// nothing: same Ok/Err, same parsed fields.
    #[test]
    fn split_reads_are_equivalent(
        capacity in 1usize..32,
        picks in proptest::collection::vec(0usize..11, 0..5),
    ) {
        let fragments = header_fragments();
        let mut raw = String::from("POST /facts HTTP/1.1\r\n");
        for i in &picks {
            raw.push_str(fragments[*i]);
            raw.push_str("\r\n");
        }
        raw.push_str("\r\n1234");
        let whole = parse(raw.as_bytes());
        let split = parse_with_capacity(raw.as_bytes(), capacity);
        match (&whole, &split) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.method, &b.method);
                prop_assert_eq!(&a.path, &b.path);
                prop_assert_eq!(&a.headers, &b.headers);
                prop_assert_eq!(&a.body, &b.body);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.status(), b.status()),
            _ => return Err(TestCaseError::Fail(format!(
                "split reads diverged: whole={whole:?} split={split:?}"
            ))),
        }
    }

    /// A Content-Length promising more bytes than the client sends (a
    /// mid-body disconnect) is a clean 400, never a hang or panic.
    #[test]
    fn mid_body_disconnect_is_a_clean_400(
        promised in 1usize..64,
        delivered_frac in 0usize..100,
    ) {
        let delivered = promised * delivered_frac / 100; // always < promised
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {promised}\r\n\r\n{}",
            "x".repeat(delivered)
        );
        let err = match parse(raw.as_bytes()) {
            Ok(r) => return Err(TestCaseError::Fail(format!(
                "truncated body must not parse: {r:?}"
            ))),
            Err(e) => e,
        };
        prop_assert!(matches!(err, ParseError::Io(_)), "typed Io error, got {:?}", err);
        prop_assert_eq!(err.status(), 400);
    }

    /// Raw binary noise: never a panic, always typed.
    #[test]
    fn binary_noise_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        capacity in 1usize..64,
    ) {
        assert_typed(&parse(&bytes))?;
        assert_typed(&parse_with_capacity(&bytes, capacity))?;
    }
}

/// The size bounds stay exact at the boundary (deterministic spot checks
/// complementing the generated cases above).
#[test]
fn bounds_hold_at_the_edges() {
    // Request line exactly at the cap parses; one over is 431.
    let path_ok = "a".repeat(MAX_REQUEST_LINE - "GET  HTTP/1.1".len());
    let ok = parse(format!("GET {path_ok} HTTP/1.1\r\n\r\n").as_bytes());
    assert!(ok.is_ok(), "{ok:?}");
    let path_over = "a".repeat(MAX_REQUEST_LINE);
    let over = parse(format!("GET {path_over} HTTP/1.1\r\n\r\n").as_bytes());
    assert_eq!(over.unwrap_err().status(), 431);

    // Header line over the cap is 431 even when split into tiny reads.
    let raw = format!(
        "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
        "v".repeat(MAX_HEADER_LINE)
    );
    assert_eq!(
        parse_with_capacity(raw.as_bytes(), 3).unwrap_err().status(),
        431
    );

    // Exactly MAX_HEADERS headers parse; one more is 431.
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..MAX_HEADERS {
        raw.push_str(&format!("x-h-{i}: v\r\n"));
    }
    let mut over = raw.clone();
    raw.push_str("\r\n");
    assert!(parse(raw.as_bytes()).is_ok());
    over.push_str("x-h-more: v\r\n\r\n");
    assert_eq!(parse(over.as_bytes()).unwrap_err().status(), 431);

    // Body exactly at the cap parses; one over is 413 before any read.
    let raw = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), 413);
}
