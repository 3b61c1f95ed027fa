//! A keep-alive HTTP/1.1 client connection: the browser side of the web
//! workloads. One request is in flight at a time (closed loop).

use std::io::{Read, Write};
use std::net::TcpStream;

use domino_netio::base64_encode;

use crate::fixture::{ANONYMOUS, USERS};

/// The parts of a response the oracle reads.
pub struct Reply<'a> {
    pub status: u16,
    /// `X-Command-Cache: hit`.
    pub cache_hit: bool,
    pub body: &'a str,
}

pub struct Client {
    stream: TcpStream,
    /// Response bytes (head + body) of the last exchange.
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to listener");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Send `request` and block for the whole response.
    pub fn exchange(&mut self, request: &[u8]) -> Reply<'_> {
        self.stream.write_all(request).expect("write request");
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let (head_end, body_len) = loop {
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed the connection mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..pos]).expect("response head utf-8");
                let len = header(head, "Content-Length")
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("Content-Length header");
                break (pos + 4, len);
            }
        };
        while self.buf.len() < head_end + body_len {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "server closed the connection mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let head = std::str::from_utf8(&self.buf[..head_end - 4]).expect("head utf-8");
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        Reply {
            status,
            cache_hit: header(head, "X-Command-Cache") == Some("hit"),
            body: std::str::from_utf8(&self.buf[head_end..head_end + body_len])
                .expect("response body utf-8"),
        }
    }
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// `Authorization` header line for identity `user` (empty for Anonymous).
pub fn auth_line(user: usize) -> String {
    if user == ANONYMOUS {
        return String::new();
    }
    let u = USERS[user];
    format!(
        "Authorization: Basic {}\r\n",
        base64_encode(format!("{}:{}", u.name, u.password).as_bytes())
    )
}

/// Render a GET for `target` as `user` into `out` (cleared first).
pub fn render_get(out: &mut Vec<u8>, target: &str, auth: &str) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
    out.extend_from_slice(auth.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Render a form POST of `body` to `target` into `out` (cleared first).
pub fn render_post(out: &mut Vec<u8>, target: &str, auth: &str, body: &str) {
    out.clear();
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
    out.extend_from_slice(auth.as_bytes());
    out.extend_from_slice(b"Content-Type: application/x-www-form-urlencoded\r\n");
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body.as_bytes());
}
