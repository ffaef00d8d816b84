//! A deliberately minimal HTTP/1.1 front for the serving loop.
//!
//! The workspace builds offline, so there is no HTTP dependency to
//! lean on; this module implements exactly the slice of RFC 9112 the
//! `dita serve` endpoints need — request line, headers,
//! `Content-Length`-delimited bodies, and persistent connections —
//! over blocking [`std::net::TcpStream`]s. A connection stays open
//! after a response unless the client asks otherwise
//! ([`Request::keep_alive`]), so [`read_request`] reads from a
//! [`BufRead`] the caller keeps for the whole connection: bytes past
//! one request are the start of the next. Since a misread boundary
//! would turn the rest of a body into a request, requests framed any
//! other way — `Transfer-Encoding`, or more than one `Content-Length`
//! — are refused.

use std::io::{BufRead, Read, Write};

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
    /// Whether the client lets the connection stay open after the
    /// response: the HTTP/1.1 default, unless it sent
    /// `Connection: close`. An HTTP/1.0 (or older) client must ask with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one request off a connection's reader, consuming exactly its
/// bytes: whatever follows stays buffered for the next call.
/// `Ok(None)` means the peer closed the connection before sending a
/// request line. Any byte stream is safe input: a malformed request is
/// an `Err` (`InvalidData`, or `FileTooLarge` for a `Content-Length`
/// over [`MAX_BODY_BYTES`]), never a panic, and after an `Err` the
/// reader's position is not a request boundary.
pub fn read_request(reader: &mut impl BufRead) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if read_line_capped(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_uppercase(), p.to_string()),
        _ => return Err(invalid(&format!("malformed request line: {line:?}"))),
    };
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut content_length: Option<usize> = None;
    for _ in 0..MAX_HEADERS {
        let mut header = String::new();
        if read_line_capped(reader, &mut header)? == 0 {
            return Ok(None); // peer hung up mid-headers
        }
        let header = header.trim_end();
        if header.is_empty() {
            let mut body = String::new();
            let length = content_length.unwrap_or(0);
            if length > 0 {
                let mut buf = vec![0u8; length];
                reader.read_exact(&mut buf)?;
                body = String::from_utf8(buf).map_err(|_| invalid("body is not UTF-8"))?;
            }
            return Ok(Some(Request {
                method,
                path,
                body,
                keep_alive,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(invalid("more than one Content-Length"));
            }
            let length = value
                .trim()
                .parse()
                .map_err(|_| invalid("bad Content-Length"))?;
            if length > MAX_BODY_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::FileTooLarge,
                    "body too large",
                ));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(invalid("Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            for option in value.split(',').map(str::trim) {
                if option.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if option.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    Err(invalid("too many headers"))
}

/// Appends one `\n`-terminated line to `line` and returns its length
/// (0 at end of stream). At most `MAX_HEADER_BYTES + 1` bytes are read,
/// so a client that never sends `\n` cannot grow the buffer without
/// bound; a longer line is `InvalidData`.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    let n = reader.take(MAX_HEADER_BYTES as u64 + 1).read_line(line)?;
    if n > MAX_HEADER_BYTES {
        return Err(invalid("request or header line too long"));
    }
    Ok(n)
}

/// Writes one `application/json` response in a single `write_all`, so
/// a response never waits on the peer's delayed ACK between its head
/// and its body. Its `connection` header says whether the server keeps
/// the connection open after it (`keep_alive`).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &str) -> std::io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let req = read_request(&mut BufReader::new(stream));
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
    fn back_to_back_requests_are_read_in_turn() {
        let raw = "POST /events HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]\
                   GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = raw.as_bytes();
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_str()),
            ("/events", "[]")
        );
        assert!(first.keep_alive);
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (second.path.as_str(), second.body.as_str()),
            ("/healthz", "")
        );
        assert!(!second.keep_alive);
        assert!(read_request(&mut reader).unwrap().is_none());
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
        let err = roundtrip(&raw).expect_err("a body over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::FileTooLarge);
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

    /// A valid `POST /events` request: the seed the mutations start from.
    fn valid_post() -> Vec<u8> {
        let body = r#"[{"type":"worker_departure","worker":3},{"type":"worker_arrival","worker":{"id":4,"location":{"x":0.25,"y":0.5},"radius_km":6.5,"speed_kmh":7.5}}]"#;
        format!(
            "POST /events HTTP/1.1\r\nHost: dita\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn the_mutation_seed_parses() {
        let req = read_request(&mut valid_post().as_slice()).unwrap().unwrap();
        assert_eq!(req.path, "/events");
        assert!(req.body.starts_with("[{"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — every byte value, up to 4 KiB — are `Ok`
        /// or `Err`, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..=4096)) {
            if let Ok(Some(req)) = read_request(&mut bytes.as_slice()) {
                prop_assert!(req.body.len() < bytes.len());
            }
        }

        /// A valid request truncated, with one byte flipped, with a
        /// random `Content-Length` (small or up to one past the cap),
        /// or with a `\r` dropped is `Ok` or `Err`, never a panic; a
        /// body that parses is never longer than the cap.
        #[test]
        fn mutated_requests_never_panic(
            mutation in 0u8..4,
            at in 0usize..4096,
            byte in 1u8..=255,
            big in 0usize..=MAX_BODY_BYTES + 1,
        ) {
            let mut raw = valid_post();
            let at = at % raw.len();
            match mutation {
                0 => raw.truncate(at),
                1 => raw[at] ^= byte,
                2 => {
                    let length = if byte.is_multiple_of(2) { at } else { big };
                    let text = String::from_utf8(raw).unwrap();
                    let (head, rest) = text.split_once("Content-Length: ").unwrap();
                    let (_, tail) = rest.split_once("\r\n").unwrap();
                    raw = format!("{head}Content-Length: {length}\r\n{tail}").into_bytes();
                }
                _ => {
                    let crs: Vec<usize> = (0..raw.len()).filter(|&i| raw[i] == b'\r').collect();
                    raw.remove(crs[at % crs.len()]);
                }
            }
            if let Ok(Some(req)) = read_request(&mut raw.as_slice()) {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }
    }
}
