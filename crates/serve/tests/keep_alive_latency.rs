//! Keep-alive round trips over loopback are not held back by Nagle's
//! algorithm: every response leaves the server in one write, so the client
//! never waits for its own delayed ACK (~40 ms) before the rest of a
//! response arrives. Written piece by piece, 50 round trips take about 2 s.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{parse_workload, CancelToken};
use itdb_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "\
    tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
    rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n";

/// Reads one `Content-Length` response off a keep-alive connection and
/// returns its status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "closed mid-headers"
        );
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    status
}

#[test]
fn fifty_keep_alive_round_trips_finish_under_a_second() {
    let server = Server::bind(
        "127.0.0.1:0",
        parse_workload(WORKLOAD).unwrap(),
        ServeConfig {
            max_requests_per_conn: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let shutdown = CancelToken::new();
    let token = shutdown.clone();
    let handle = thread::spawn(move || server.run(&token));

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    for _ in 0..50 {
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let status = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    }
    let elapsed = start.elapsed();
    drop((writer, reader));
    shutdown.cancel();
    handle.join().unwrap().unwrap();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive round trips took {elapsed:?}"
    );
}
