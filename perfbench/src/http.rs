//! A minimal HTTP/1.1 client: one connection per request, `connection:
//! close`, so each request crosses the server's accept queue.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    /// The server's own time for the request (`x-dtc-duration-us`).
    pub server_us: Option<u64>,
    pub body: String,
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let server_us = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-dtc-duration-us"))
        .and_then(|(_, v)| v.trim().parse().ok());
    Ok(Reply { status, server_us, body: body.to_string() })
}
