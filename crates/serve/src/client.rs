//! Minimal blocking HTTP/1.1 client for driving the server.
//!
//! Used by the integration tests, including the ones that drive spawned
//! `autoac_serve` processes, so none of them need `curl` or an HTTP
//! dependency. Keeps one connection alive across
//! requests, mirroring the framing rules in [`crate::http`].

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A keep-alive connection to one server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A parsed response: status code, headers, and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes, decoded per `Content-Length`.
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == needle).map(|(_, v)| v.as_str())
    }

    /// The request's trace id from the `x-autoac-trace` echo header, when
    /// the server traced it.
    pub fn trace_id(&self) -> Option<u64> {
        self.header("x-autoac-trace").and_then(|v| u64::from_str_radix(v, 16).ok())
    }
}

impl Client {
    /// Connects with a generous read timeout (model loads can take a
    /// moment under load).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: Vec::new() })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, body.as_bytes())
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: autoac\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before response header",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let header = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let mut lines = header.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let total = header_end + 4 + content_length;
        while self.buf.len() < total {
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = self.buf[header_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Response { status, headers, body })
    }
}
