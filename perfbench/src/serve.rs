//! The `kibamrm-serve` child process and the benchmark's HTTP clients:
//! one request per connection through the shipped
//! `kibamrm_net::client`, and a keep-alive connection of the benchmark's
//! own (the shipped client always closes).

use kibamrm_net::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Socket timeout of every benchmark request.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `kibamrm-serve`, stopped (drained or killed) on drop.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the binary with `args` and returns once it printed its
    /// `listening <addr>` line. Its stderr goes to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<ServerProc, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(Duration::from_secs(60));
        let _ = reader.join();
        let mut server = ServerProc {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = line.map_err(|_| "server printed no banner within 60 s".to_string())?;
        server.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful drain (stdin EOF); the server must exit 0 within 30 s.
    pub fn drain(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server drain exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not drain within 30 s".to_string()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }

    /// `GET /stats`, parsed.
    pub fn stats(&self) -> Result<Json, String> {
        let r = kibamrm_net::client::get(self.addr, "/stats", REQUEST_TIMEOUT)
            .map_err(|e| format!("GET /stats: {e}"))?;
        Json::parse(&r.body_string()).map_err(|e| format!("/stats body: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A counter of `/stats` (`"service"` or `"net"` section).
pub fn stat(stats: &Json, section: &str, name: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// One response read off a keep-alive connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    pub body: Vec<u8>,
}

const MAX_LINE: usize = 8 << 10;
const MAX_HEADERS: usize = 64;
const MAX_BODY: usize = 16 << 20;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<()> {
    line.clear();
    let n = (&mut *reader)
        .take(MAX_LINE as u64)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    if line.last() != Some(&b'\n') {
        return Err(bad("response line too long or truncated"));
    }
    Ok(())
}

/// Reads exactly one response, leaving any bytes after its body in
/// `reader` for the next one.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut line = Vec::new();
    read_line(reader, &mut line)?;
    let status_line = std::str::from_utf8(&line).map_err(|_| bad("status line not UTF-8"))?;
    let mut parts = status_line.split_whitespace();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(bad("not an HTTP/1.x response"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status code"))?;
    let mut length = None;
    let mut close = false;
    for _ in 0..=MAX_HEADERS {
        read_line(reader, &mut line)?;
        let text = std::str::from_utf8(&line).map_err(|_| bad("header not UTF-8"))?;
        let text = text.trim_end_matches(['\r', '\n']);
        if text.is_empty() {
            let length = length.ok_or_else(|| bad("no Content-Length"))?;
            let mut body = vec![0; length];
            reader.read_exact(&mut body)?;
            return Ok(Response {
                status,
                close,
                body,
            });
        }
        let (name, value) = text.split_once(':').ok_or_else(|| bad("bad header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value.parse().map_err(|_| bad("bad Content-Length"))?;
            if n > MAX_BODY {
                return Err(bad("response body too large"));
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Err(bad("too many response headers"))
}

fn query_bytes(device: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "POST /query HTTP/1.1\r\nx-device: {device}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    request
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A persistent HTTP/1.1 connection.
pub struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    pub fn connect(addr: SocketAddr) -> io::Result<KeepAlive> {
        let stream = connect(addr)?;
        Ok(KeepAlive {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `POST /query` with `body`, quota-keyed to `device`; the connection
    /// stays open unless the response says otherwise.
    pub fn post_query(&mut self, device: &str, body: &[u8]) -> io::Result<Response> {
        self.writer.write_all(&query_bytes(device, body))?;
        read_response(&mut self.reader)
    }
}

/// `POST /query` over a fresh connection with the shipped client (it
/// sends `connection: close`), keyed to `device` for quotas.
pub fn post_fresh(addr: SocketAddr, device: &str, body: &[u8]) -> io::Result<Response> {
    let r = kibamrm_net::client::request(
        addr,
        "POST",
        "/query",
        &[("x-device", device)],
        body,
        REQUEST_TIMEOUT,
    )?;
    Ok(Response {
        status: r.status,
        close: true,
        body: r.body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_to_back_responses_without_overreading() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}\
HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_response(&mut reader).unwrap();
        assert_eq!(
            first,
            Response {
                status: 200,
                close: false,
                body: b"{}".to_vec()
            }
        );
        let second = read_response(&mut reader).unwrap();
        assert_eq!(second.status, 429);
        assert!(second.close);
        assert_eq!(second.body, b"hello");
        let eof = read_response(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn refuses_truncated_and_garbage_responses() {
        for wire in [
            &b"SMTP ready\r\n\r\n"[..],
            b"HTTP/1.1 abc Bad\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2",
        ] {
            assert!(
                read_response(&mut BufReader::new(wire)).is_err(),
                "{wire:?}"
            );
        }
    }
}
