//! A minimal keep-alive HTTP/1.1 client: one request written in one
//! `write_all`, one `Content-Length` response read back.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, decoded as UTF-8.
    pub body: String,
}

/// A connection reused until the server says `Connection: close`.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    /// A client for `addr`; it connects on the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Whether the next request must open a new connection.
    pub fn needs_connect(&self) -> bool {
        self.conn.is_none()
    }

    /// Sends `request` and reads the response, connecting first when
    /// needed. Any transport error drops the connection.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        let result = self.exchange_inner(request);
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
        }
        result.map(|(r, _)| r)
    }

    fn exchange_inner(&mut self, request: &[u8]) -> io::Result<(Response, bool)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            // The request goes out in one write; NODELAY keeps the
            // client from adding a Nagle stall of its own.
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        let (writer, reader) = self.conn.as_mut().expect("connected above");
        writer.write_all(request)?;
        read_response(reader)
    }
}

/// Reads one response; the flag says whether the connection stays open.
fn read_response(r: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        ));
    }
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut keep = true;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("headers truncated"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0; length.ok_or_else(|| bad("no Content-Length"))?];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((Response { status, body }, keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_body_and_connection() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let (resp, keep) = read_response(&mut &raw[..]).expect("well-formed");
        assert_eq!((resp.status, resp.body.as_str(), keep), (202, "{}", false));
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n";
        assert!(read_response(&mut &raw[..]).expect("well-formed").1);
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\n"[..]).is_err());
    }
}
