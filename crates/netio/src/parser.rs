//! Incremental HTTP/1.1 request parsing.
//!
//! A socket hands the listener bytes at arbitrary boundaries; the
//! [`HttpParser`] is a resumable state machine that accumulates them
//! until one full request — request line, headers, and a
//! `Content-Length` body — is available, then yields a typed
//! [`domino_server::Request`] plus its keep-alive verdict. Percent
//! decoding of the target is *not* done here: that stays delegated to
//! the existing URL-command parser (`domino_server::url`), exactly as
//! for in-process requests, so both front doors share one grammar.
//!
//! Robustness contract (pinned by `tests/prop_http_parse.rs`): any byte
//! stream either yields requests or a [`ParseError`] mapping to `400`
//! or `413` — never a panic — and buffered memory is bounded by the
//! configured head/body caps no matter what arrives.

use domino_server::{Credentials, Method, Request};

/// Parser limits (defaults mirror Domino's `HTTP.MaxHeaderSize` spirit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserLimits {
    /// Bytes the request line + headers may occupy before `413`.
    pub max_head_bytes: usize,
    /// Bytes a request body may declare before `413`.
    pub max_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> ParserLimits {
        ParserLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed, with its HTTP answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request — answer `400 Bad Request`.
    Bad(String),
    /// Head or body exceeds the configured cap — answer
    /// `413 Content Too Large`.
    TooLarge(String),
}

impl ParseError {
    /// The status code this error maps to.
    pub fn status_code(&self) -> u16 {
        match self {
            ParseError::Bad(_) => 400,
            ParseError::TooLarge(_) => 413,
        }
    }

    /// The canonical reason phrase for [`ParseError::status_code`].
    pub fn reason(&self) -> &'static str {
        match self {
            ParseError::Bad(_) => "Bad Request",
            ParseError::TooLarge(_) => "Content Too Large",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            ParseError::Bad(m) | ParseError::TooLarge(m) => m,
        }
    }
}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError::Bad(msg.into())
}

/// One fully parsed request, ready for the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The typed request the in-process executor consumes.
    pub request: Request,
    /// May the connection carry another request after this one?
    pub keep_alive: bool,
}

#[derive(Debug)]
enum Phase {
    /// Accumulating up to the blank line; the first `scanned` buffered
    /// bytes hold no complete `\r\n\r\n`.
    Head { scanned: usize },
    /// Head parsed; waiting for `need` body bytes.
    Body { head: Head, need: usize },
}

#[derive(Debug)]
struct Head {
    method: Method,
    target: String,
    credentials: Credentials,
    keep_alive: bool,
}

/// Resumable HTTP/1.1 request parser (one per connection).
#[derive(Debug)]
pub struct HttpParser {
    limits: ParserLimits,
    buf: Vec<u8>,
    phase: Phase,
}

impl HttpParser {
    /// A fresh parser with the given limits.
    pub fn new(limits: ParserLimits) -> HttpParser {
        HttpParser {
            limits,
            buf: Vec::new(),
            phase: Phase::Head { scanned: 0 },
        }
    }

    /// Bytes buffered awaiting completion (bounded by the limits).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feed bytes read from the socket; returns a complete request as
    /// soon as one is available. Call with an empty slice to re-poll
    /// (pipelined requests may already be buffered).
    ///
    /// After an `Err` the connection must be closed: the stream position
    /// is no longer trustworthy.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<ParsedRequest>, ParseError> {
        self.buf.extend_from_slice(bytes);
        loop {
            match &mut self.phase {
                Phase::Head { scanned } => {
                    // Resume the search where the last feed left it: a
                    // head trickled in byte by byte is scanned once.
                    let from = scanned.saturating_sub(3);
                    let Some(head_end) = find_blank_line(&self.buf[from..]).map(|i| from + i)
                    else {
                        *scanned = self.buf.len();
                        if self.buf.len() > self.limits.max_head_bytes {
                            return Err(ParseError::TooLarge(format!(
                                "request head exceeds {} bytes",
                                self.limits.max_head_bytes
                            )));
                        }
                        return Ok(None);
                    };
                    if head_end > self.limits.max_head_bytes {
                        return Err(ParseError::TooLarge(format!(
                            "request head exceeds {} bytes",
                            self.limits.max_head_bytes
                        )));
                    }
                    let head_bytes = &self.buf[..head_end];
                    let (head, content_length) = parse_head(head_bytes, &self.limits)?;
                    self.buf.drain(..head_end + 4);
                    self.phase = Phase::Body {
                        head,
                        need: content_length,
                    };
                }
                Phase::Body { need, .. } => {
                    if self.buf.len() < *need {
                        return Ok(None);
                    }
                    let need = *need;
                    let Phase::Body { head, .. } =
                        std::mem::replace(&mut self.phase, Phase::Head { scanned: 0 })
                    else {
                        unreachable!("phase checked above");
                    };
                    let body_bytes: Vec<u8> = self.buf.drain(..need).collect();
                    let body = String::from_utf8(body_bytes)
                        .map_err(|_| bad("request body is not UTF-8"))?;
                    return Ok(Some(ParsedRequest {
                        request: Request {
                            method: head.method,
                            target: head.target,
                            credentials: head.credentials,
                            body,
                        },
                        keep_alive: head.keep_alive,
                    }));
                }
            }
        }
    }
}

/// Offset of the `\r\n\r\n` terminating the head, if present.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse the head (everything before the blank line) into its typed
/// parts plus the declared body length.
fn parse_head(head: &[u8], limits: &ParserLimits) -> Result<(Head, usize), ParseError> {
    let text = std::str::from_utf8(head).map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(bad(format!(
                "malformed request line {request_line:?} (want METHOD SP TARGET SP VERSION)"
            )))
        }
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(bad(format!("unsupported method {other:?}"))),
    };
    let default_keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(bad(format!("unsupported protocol version {other:?}"))),
    };
    if !target.starts_with('/') {
        return Err(bad(format!("request target {target:?} must start with /")));
    }

    let mut content_length = 0usize;
    let mut keep_alive = default_keep_alive;
    let mut credentials = Credentials::Anonymous;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') || name.chars().any(|c| c.is_control()) {
            return Err(bad(format!("malformed header name {name:?}")));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: u64 = value
                .parse()
                .map_err(|_| bad(format!("Content-Length {value:?} is not a number")))?;
            if n > limits.max_body_bytes as u64 {
                return Err(ParseError::TooLarge(format!(
                    "declared body of {n} bytes exceeds cap of {}",
                    limits.max_body_bytes
                )));
            }
            content_length = n as usize;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("authorization") {
            credentials = parse_basic_auth(value)?;
        }
    }
    Ok((
        Head {
            method,
            target: target.to_string(),
            credentials,
            keep_alive,
        },
        content_length,
    ))
}

/// `Authorization: Basic base64(user:password)` → typed credentials.
fn parse_basic_auth(value: &str) -> Result<Credentials, ParseError> {
    let Some(encoded) = value
        .strip_prefix("Basic ")
        .or_else(|| value.strip_prefix("basic "))
    else {
        return Err(bad("only Basic authorization is supported"));
    };
    let decoded = base64_decode(encoded.trim())
        .ok_or_else(|| bad("Authorization value is not valid base64"))?;
    let text =
        String::from_utf8(decoded).map_err(|_| bad("Authorization credentials are not UTF-8"))?;
    let Some((user, password)) = text.split_once(':') else {
        return Err(bad("Authorization credentials lack a ':' separator"));
    };
    Ok(Credentials::Basic {
        user: user.to_string(),
        password: password.to_string(),
    })
}

/// Encode bytes as standard base64 (for clients building an
/// `Authorization` header — the example and tests use this).
pub fn base64_encode(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decode standard base64 (padding optional). `None` on any invalid
/// character or truncated quantum.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let stripped: &[u8] = s.as_bytes();
    let stripped = match stripped {
        [rest @ .., b'=', b'='] => rest,
        [rest @ .., b'='] => rest,
        rest => rest,
    };
    let mut out = Vec::with_capacity(stripped.len() * 3 / 4);
    for quantum in stripped.chunks(4) {
        if quantum.len() == 1 {
            return None; // a lone 6 bits cannot encode a byte
        }
        let mut acc = 0u32;
        for (i, c) in quantum.iter().enumerate() {
            acc |= val(*c)? << (18 - 6 * i);
        }
        out.push((acc >> 16) as u8);
        if quantum.len() > 2 {
            out.push((acc >> 8) as u8);
        }
        if quantum.len() > 3 {
            out.push(acc as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_whole(raw: &str) -> Result<Option<ParsedRequest>, ParseError> {
        HttpParser::new(ParserLimits::default()).feed(raw.as_bytes())
    }

    #[test]
    fn parses_a_simple_get() {
        let got = parse_whole("GET /db.nsf/v?OpenView HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(got.request.method, Method::Get);
        assert_eq!(got.request.target, "/db.nsf/v?OpenView");
        assert_eq!(got.request.credentials, Credentials::Anonymous);
        assert!(got.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body_and_basic_auth() {
        let auth = base64_encode(b"alice:pw-a");
        let raw = format!(
            "POST /db.nsf/Topic?CreateDocument HTTP/1.1\r\nAuthorization: Basic {auth}\r\n\
             Content-Length: 10\r\nConnection: close\r\n\r\nSubject=hi"
        );
        let got = parse_whole(&raw).unwrap().unwrap();
        assert_eq!(got.request.method, Method::Post);
        assert_eq!(got.request.body, "Subject=hi");
        assert_eq!(
            got.request.credentials,
            Credentials::Basic {
                user: "alice".into(),
                password: "pw-a".into()
            }
        );
        assert!(!got.keep_alive);
    }

    #[test]
    fn resumes_across_arbitrary_splits() {
        let raw = b"GET /a.nsf/v?OpenView HTTP/1.1\r\nHost: h\r\n\r\n";
        for split in 1..raw.len() - 1 {
            let mut p = HttpParser::new(ParserLimits::default());
            assert_eq!(p.feed(&raw[..split]).unwrap(), None, "split at {split}");
            let got = p.feed(&raw[split..]).unwrap().unwrap();
            assert_eq!(got.request.target, "/a.nsf/v?OpenView");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let raw = b"GET /a.nsf/v?OpenView HTTP/1.1\r\n\r\nGET /b.nsf/w?OpenView HTTP/1.1\r\n\r\n";
        let mut p = HttpParser::new(ParserLimits::default());
        let first = p.feed(raw).unwrap().unwrap();
        assert_eq!(first.request.target, "/a.nsf/v?OpenView");
        let second = p.feed(&[]).unwrap().unwrap();
        assert_eq!(second.request.target, "/b.nsf/w?OpenView");
        assert_eq!(p.feed(&[]).unwrap(), None);
    }

    #[test]
    fn malformed_inputs_are_400() {
        for raw in [
            "FLORP /a.nsf HTTP/1.1\r\n\r\n",
            "GET /a.nsf HTTP/2.0\r\n\r\n",
            "GET/a.nsf HTTP/1.1\r\n\r\n",
            "GET /a.nsf HTTP/1.1 extra\r\n\r\n",
            "GET a.nsf HTTP/1.1\r\n\r\n",
            "GET /a.nsf HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
            "GET /a.nsf HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            "GET /a.nsf HTTP/1.1\r\nAuthorization: Basic !!!\r\n\r\n",
            "GET /a.nsf HTTP/1.1\r\nAuthorization: Bearer tok\r\n\r\n",
        ] {
            match parse_whole(raw) {
                Err(e) => assert_eq!(e.status_code(), 400, "{raw:?} -> {e:?}"),
                other => panic!("{raw:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_and_body_are_413() {
        let limits = ParserLimits {
            max_head_bytes: 128,
            max_body_bytes: 64,
        };
        // A header that never ends.
        let mut p = HttpParser::new(limits);
        let mut err = None;
        for _ in 0..64 {
            match p.feed(b"X-Filler: yes\r\n") {
                Ok(None) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
                Ok(Some(r)) => panic!("unterminated head parsed: {r:?}"),
            }
        }
        let e = err.expect("oversized head must error");
        assert_eq!(e.status_code(), 413);
        assert!(p.buffered() <= 128 + 16, "memory must stay bounded");

        // A declared body over the cap errors before any body byte.
        let mut p = HttpParser::new(limits);
        let e = p
            .feed(b"POST /a.nsf?CreateDocument HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
            .unwrap_err();
        assert_eq!(e.status_code(), 413);
    }

    #[test]
    fn base64_roundtrip_and_rejects() {
        for s in ["", "a", "ab", "abc", "abcd", "alice:pw", "☃ unicode"] {
            assert_eq!(
                base64_decode(&base64_encode(s.as_bytes())).unwrap(),
                s.as_bytes()
            );
        }
        assert!(base64_decode("!!!!").is_none());
        assert!(base64_decode("A").is_none());
    }
}
