//! A deliberately minimal HTTP/1.1 front for the serving loop.
//!
//! The workspace builds offline, so there is no HTTP dependency to
//! lean on; this module implements exactly the slice of RFC 9112 the
//! `dita serve` endpoints need — request line, headers,
//! `Content-Length`-delimited bodies, and `Connection: close`
//! responses — over blocking [`std::net::TcpStream`]s. Every response
//! closes the connection: the clients of this surface (the CI smoke
//! job's `curl` loop, the round-trip tests) speak one request per
//! connection, which keeps the worker pool free of keep-alive
//! bookkeeping.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest accepted request body. Snapshot-sized engines travel the
/// other way (responses), so event batches are the only large bodies;
/// 16 MiB is orders of magnitude above any sane batch.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Longest accepted request or header line, and cap on header count.
const MAX_HEADER_BYTES: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included, undecoded.
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Reads one request off the stream. `Ok(None)` means the peer closed
/// the connection before sending a request line.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if read_line_capped(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_uppercase(), p.to_string()),
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed request line: {line:?}"),
            ))
        }
    };

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let mut header = String::new();
        if read_line_capped(&mut reader, &mut header)? == 0 {
            return Ok(None); // peer hung up mid-headers
        }
        let header = header.trim_end();
        if header.is_empty() {
            let mut body = String::new();
            if content_length > 0 {
                let mut buf = vec![0u8; content_length];
                reader.read_exact(&mut buf)?;
                body = String::from_utf8(buf).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "body is not UTF-8")
                })?;
            }
            return Ok(Some(Request { method, path, body }));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
                if content_length > MAX_BODY_BYTES {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "body too large",
                    ));
                }
            }
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "too many headers",
    ))
}

/// Appends one `\n`-terminated line to `line` and returns its length
/// (0 at end of stream). At most `MAX_HEADER_BYTES + 1` bytes are read,
/// so a client that never sends `\n` cannot grow the buffer without
/// bound; a longer line is `InvalidData`.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    let n = reader.take(MAX_HEADER_BYTES as u64 + 1).read_line(line)?;
    if n > MAX_HEADER_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request or header line too long",
        ));
    }
    Ok(n)
}

/// Writes one `application/json` response and flushes. The connection
/// is marked `Connection: close`; the caller drops the stream after.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str) -> std::io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip("POST /events HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n[1,2,3]")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/events");
        assert_eq!(req.body, "[1,2,3]");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = roundtrip("GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_connection_is_none() {
        assert!(roundtrip("").unwrap().is_none());
    }

    #[test]
    fn oversized_content_length_is_refused() {
        let raw = format!(
            "POST /events HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(roundtrip(&raw).is_err());
    }

    #[test]
    fn overlong_lines_are_refused() {
        let long = "a".repeat(9 * 1024);
        for raw in [
            format!("GET /{long} HTTP/1.1\r\n\r\n"),
            format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n"),
        ] {
            let err = roundtrip(&raw).expect_err("line over the cap");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
