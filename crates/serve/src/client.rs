//! A matching HTTP/1.1 client with persistent connections.
//!
//! [`request`] keeps one connection per calling thread, to the last
//! address it was called with, and sends each request on it: the
//! serve surface keeps connections open, so a client that sends many
//! small requests pays for one TCP connection, not one each. This
//! module is what the `dita` replay driver, servebench and the smoke
//! tests use to talk to a running `dita serve` — same no-dependency
//! constraint as the server side.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// An open connection and the address it was opened to.
struct Connection {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

thread_local! {
    /// This thread's connection, kept between calls.
    static CONNECTION: RefCell<Option<Connection>> = const { RefCell::new(None) };
}

/// How one exchange on a connection failed.
enum Failure {
    /// Before any byte of the response arrived: a write error, or end
    /// of stream or a reset instead of a response.
    NoResponse(std::io::Error),
    /// After the response began, or for another reason.
    Other(std::io::Error),
}

/// Sends one request and returns `(status, body)`. `addr` is anything
/// resolvable (`"127.0.0.1:7117"`, a [`std::net::SocketAddr`], …).
///
/// The request goes out on this thread's open connection to `addr`
/// when there is one, else on a new one, which is kept for the next
/// call unless the server answers `connection: close`. If a reused
/// connection fails before any byte of the response arrives — the
/// server closed it while it was idle — the request is sent once more
/// on a new connection: the server answers every request it reads, so
/// it never read this one. Every other failure is returned.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let message = format!(
        "{method} {path} HTTP/1.1\r\nhost: dita\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let cached = CONNECTION
        .with(|slot| slot.borrow_mut().take())
        .filter(|c| addrs.contains(&c.addr));
    let reused = cached.is_some();
    let mut connection = match cached {
        Some(connection) => connection,
        None => connect(&addrs)?,
    };
    let mut outcome = exchange(&mut connection, &message);
    if reused && matches!(outcome, Err(Failure::NoResponse(_))) {
        connection = connect(&addrs)?;
        outcome = exchange(&mut connection, &message);
    }
    match outcome {
        Ok((status, body, keep_alive)) => {
            if keep_alive {
                CONNECTION.with(|slot| *slot.borrow_mut() = Some(connection));
            }
            Ok((status, body))
        }
        Err(Failure::NoResponse(e) | Failure::Other(e)) => Err(e),
    }
}

fn connect(addrs: &[SocketAddr]) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addrs)?;
    stream.set_nodelay(true)?;
    Ok(Connection {
        addr: stream.peer_addr()?,
        reader: BufReader::new(stream),
    })
}

/// Writes `message` in one `write_all` and reads the response framed
/// by its `content-length`. Returns `(status, body, keep_alive)`.
fn exchange(connection: &mut Connection, message: &str) -> Result<(u16, String, bool), Failure> {
    connection
        .reader
        .get_mut()
        .write_all(message.as_bytes())
        .map_err(Failure::NoResponse)?;
    loop {
        match connection.reader.fill_buf() {
            Ok([]) => return Err(Failure::NoResponse(ErrorKind::UnexpectedEof.into())),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                return Err(Failure::NoResponse(e))
            }
            Err(e) => return Err(Failure::Other(e)),
        }
    }
    read_response(&mut connection.reader).map_err(Failure::Other)
}

fn malformed(what: &str) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// Reads one response: status line, headers, and a body of
/// `content-length` bytes.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(u16, String, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed(&line))?;
    let (mut length, mut keep_alive) = (None, true);
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(malformed("end of stream in the headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.trim().parse().map_err(|_| malformed(header))?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive &= !value.trim().eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| malformed("no content-length"))?;
    let mut body = Vec::new();
    reader.take(length).read_to_end(&mut body)?;
    if body.len() as u64 != length {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok((status, body, keep_alive))
}
