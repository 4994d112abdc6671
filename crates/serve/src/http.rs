//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`]: request
//! parsing, plain responses, and chunked `text/event-stream` writing.
//!
//! Only what the campaign service needs — method + path + body in,
//! status + content-type + body out — with hard limits on header and
//! body size so a misbehaving client cannot balloon memory. Keep-alive
//! is deliberately not implemented: every response closes the
//! connection, which makes draining trivial to reason about.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (campaign specs are small).
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request: enough routing surface for the service.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component only (query strings are not supported).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads and parses one request from `stream` (the server passes its
/// `TcpStream`; any reader works).
///
/// Returns `Err` on malformed syntax, oversized head/body, or a closed
/// socket; the caller answers with 400 where a response is still
/// possible.
pub fn read_request(stream: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    // Request line.
    read_line_limited(&mut reader, &mut head, MAX_HEAD)?;
    let mut parts = head.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| "request line missing path".to_string())?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    let mut total = head.len();
    loop {
        let mut line = String::new();
        read_line_limited(&mut reader, &mut line, MAX_HEAD - total)?;
        total += line.len();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Reads one line into `out`, taking at most `budget + 1` bytes from
/// the socket: a line that does not end within the head's remaining
/// `budget` is rejected as soon as the budget is spent, not when the
/// client finally sends `\n` or hangs up.
fn read_line_limited(
    reader: &mut BufReader<impl Read>,
    out: &mut String,
    budget: usize,
) -> Result<(), String> {
    let n = Read::take(&mut *reader, budget as u64 + 1)
        .read_line(out)
        .map_err(|e| format!("cannot read request: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-request".to_string());
    }
    if n > budget {
        return Err("request head too large".to_string());
    }
    Ok(())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete response and flushes; errors are swallowed (the
/// client may already be gone, which is its prerogative).
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// [`respond`] with `application/json` and a trailing newline.
pub fn respond_json(stream: &mut TcpStream, status: u16, json: &str) {
    let mut body = json.to_string();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    respond(stream, status, "application/json", body.as_bytes());
}

/// [`respond`] with a plain-text message (newline-terminated).
pub fn respond_text(stream: &mut TcpStream, status: u16, msg: &str) {
    let mut body = msg.to_string();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    respond(stream, status, "text/plain; charset=utf-8", body.as_bytes());
}

/// A chunked `text/event-stream` writer: call [`SseWriter::events`]
/// per batch of payload lines, then [`SseWriter::finish`]. Any transport error turns
/// the writer inert — callers just notice [`SseWriter::is_dead`] and
/// stop producing.
pub struct SseWriter<'s> {
    stream: &'s mut TcpStream,
    dead: bool,
}

impl<'s> SseWriter<'s> {
    /// Sends the response head and returns the writer.
    pub fn begin(stream: &'s mut TcpStream) -> SseWriter<'s> {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
        let mut w = SseWriter {
            stream,
            dead: false,
        };
        w.raw(head.as_bytes());
        w
    }

    fn raw(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        if self
            .stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .is_err()
        {
            self.dead = true;
        }
    }

    /// Sends each payload as one SSE event (`data: <payload>\n\n`)
    /// in a chunk of its own, the whole batch in one write: a batch of
    /// progress lines costs one syscall, not one per line. An empty
    /// batch writes nothing.
    pub fn events(&mut self, payloads: &[String]) {
        if payloads.is_empty() {
            return;
        }
        let mut batch = String::new();
        for payload in payloads {
            let data_len = "data: \n\n".len() + payload.len();
            let _ = write!(batch, "{data_len:x}\r\ndata: {payload}\n\n\r\n");
        }
        self.raw(batch.as_bytes());
    }

    /// Sends the terminating zero-length chunk.
    pub fn finish(&mut self) {
        self.raw(b"0\r\n\r\n");
    }

    /// Whether the client went away (writes have started failing).
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.flush().unwrap();
            // Keep the socket open until the server has parsed.
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        drop(client.join().unwrap());
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            round_trip("POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nspec")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.body, b"spec");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_non_http_and_bad_lengths() {
        assert!(round_trip("NONSENSE\r\n\r\n").is_err());
        assert!(round_trip("GET / SPDY/9\r\n\r\n").is_err());
        assert!(round_trip("GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n").is_err());
    }
}
