//! A raw-socket HTTP/1.1 client that timestamps each phase of a round
//! trip: connect, send, first response byte, and end of body.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One finished round trip with its phase timestamps.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status.
    pub status: u16,
    /// The `X-Cache` header (`hit` or `miss`) of synchronous endpoints.
    pub x_cache: Option<String>,
    /// The `Location` header of job submissions.
    pub location: Option<String>,
    /// The response body.
    pub body: String,
    /// Before `connect`.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request fully written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Body read to EOF (the server closes every connection).
    pub done: Instant,
}

/// Sends one request on a fresh connection and reads the whole response.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Exchange, String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket setup: {e}"))?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let n = stream
        .read(&mut chunk)
        .map_err(|e| format!("receive: {e}"))?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&chunk[..n]);
    if n > 0 {
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("receive: {e}"))?;
    }
    let done = Instant::now();
    let (status, headers, body) = parse(&raw)?;
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    };
    Ok(Exchange {
        status,
        x_cache: header("x-cache"),
        location: header("location"),
        body,
        start,
        connected,
        sent,
        first_byte,
        done,
    })
}

type Parsed = (u16, Vec<(String, String)>, String);

fn parse(raw: &[u8]) -> Result<Parsed, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    let mut body = &raw[head_end + 4..];
    if let Some(len) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if len != body.len() {
            return Err(format!(
                "body is {} bytes, Content-Length says {len}",
                body.len()
            ));
        }
        body = &body[..len];
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "body is not UTF-8")?;
    Ok((status, headers, body))
}

/// Reads one sample of a Prometheus text exposition: the value of the
/// first line starting with `prefix` (name plus any labels).
pub fn metric(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(prefix)
                .filter(|rest| rest.starts_with(' '))
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Sums every sample of a metric family whose line starts with `prefix`.
pub fn metric_sum(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}
