//! The TCP front door: a real `std::net` HTTP/1.1 listener in front of
//! [`DominoServer`].
//!
//! Connection model (Domino's, scaled down): an accept thread admits up
//! to [`HttpConfig::max_connections`] concurrent connections — beyond
//! that it answers `503` on the spot and closes, the connection-level
//! twin of the worker pool's load shed. Each admitted connection gets a
//! thread that only does I/O: it feeds bytes to an incremental
//! [`HttpParser`] and hands every complete
//! request to [`DominoServer::serve`], which is the *bounded* worker-pool
//! front door — a full request queue still answers `503`, exactly as for
//! in-process callers. Keep-alive connections are closed after
//! [`HttpConfig::idle_timeout`] without a byte; a started request must
//! complete its I/O within [`HttpConfig::io_timeout`].
//!
//! Graceful drain ([`HttpListener::drain`], console `tell http quit`):
//! stop accepting, let in-flight requests finish, close idle keep-alive
//! connections, then wait for the worker pool's queue to empty
//! ([`DominoServer::drain`]). Accepted work is never dropped.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use domino_obs as obs;
use domino_server::{DominoServer, Response};
use domino_types::{DominoError, Result};

use crate::parser::{HttpParser, ParseError, ParserLimits};
use crate::ConnThreads;

struct Metrics {
    accepted: &'static obs::Counter,
    active: &'static obs::Gauge,
    rejected: &'static obs::Counter,
    requests: &'static obs::Counter,
    bad_requests: &'static obs::Counter,
    drained: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        accepted: obs::counter("Http.Conn.Accepted"),
        active: obs::gauge("Http.Conn.Active"),
        rejected: obs::counter("Http.Conn.Rejected"),
        requests: obs::counter("Http.Conn.Requests"),
        bad_requests: obs::counter("Http.Conn.BadRequests"),
        drained: obs::counter("Http.Conn.Drained"),
    })
}

/// How often blocked reads wake to check deadlines and the stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Sizing and timeout knobs for the listener (OPERATIONS.md §11).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// `host:port` to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Concurrent connections admitted before 503-and-close (the
    /// connection-level load shed; Domino: `Server_MaxSessions`).
    pub max_connections: usize,
    /// Close a keep-alive connection after this long without a byte.
    pub idle_timeout: Duration,
    /// A request that started must finish its socket I/O within this.
    pub io_timeout: Duration,
    /// Request head/body size caps (`400`/`413` beyond them).
    pub limits: ParserLimits,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 256,
            idle_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            limits: ParserLimits::default(),
        }
    }
}

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections open when the drain began.
    pub connections_at_start: usize,
    /// Connections still open when the wait gave up (0 = clean drain).
    pub remaining: usize,
}

struct HttpShared {
    server: DominoServer,
    config: HttpConfig,
    stop: AtomicBool,
    active: Mutex<usize>,
    all_idle: Condvar,
}

impl HttpShared {
    fn active(&self) -> usize {
        *self.active.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The running HTTP listener task.
pub struct HttpListener {
    addr: std::net::SocketAddr,
    shared: Arc<HttpShared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    conn_threads: Arc<ConnThreads>,
}

impl HttpListener {
    /// Bind and start serving `server` at `config.addr`.
    pub fn start(server: DominoServer, config: HttpConfig) -> Result<HttpListener> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| DominoError::Unavailable(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DominoError::Unavailable(format!("local_addr: {e}")))?;
        let shared = Arc::new(HttpShared {
            server,
            config,
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            all_idle: Condvar::new(),
        });
        let conn_threads = Arc::new(ConnThreads::default());
        let accept_shared = shared.clone();
        let accept_conns = conn_threads.clone();
        let accept_thread = std::thread::Builder::new()
            .name("http-listener".into())
            .spawn(move || accept_loop(&listener, addr, &accept_shared, &accept_conns))
            .map_err(|e| DominoError::Unavailable(format!("spawn http-listener: {e}")))?;
        Ok(HttpListener {
            addr,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
            conn_threads,
        })
    }

    /// The bound address, e.g. `127.0.0.1:41237`.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.shared.active()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// close idle keep-alive connections, then drain the worker pool.
    /// Waits up to `timeout` for connections to finish; idempotent.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let connections_at_start = self.shared.active();
        if !self.shared.stop.swap(true, Ordering::SeqCst) {
            // First drain: wake the blocking accept and retire it.
            let _ = TcpStream::connect(self.addr);
            if let Some(t) = self
                .accept_thread
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take()
            {
                let _ = t.join();
            }
        }
        let deadline = Instant::now() + timeout;
        let mut active = self.shared.active.lock().unwrap_or_else(|p| p.into_inner());
        while *active > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (g, _) = self
                .shared
                .all_idle
                .wait_timeout(active, left)
                .unwrap_or_else(|p| p.into_inner());
            active = g;
        }
        let remaining = *active;
        drop(active);
        if remaining == 0 {
            self.conn_threads.join_all();
            // Finish whatever the connections queued before joining is
            // observable: the pool's explicit drain.
            self.shared.server.drain();
        }
        obs::emit(
            obs::Event::new(obs::EventKind::Http, obs::Severity::Normal, "Http.Drain")
                .with("connections", connections_at_start as u64)
                .with("remaining", remaining as u64),
        );
        DrainReport {
            connections_at_start,
            remaining,
        }
    }
}

impl Drop for HttpListener {
    fn drop(&mut self) {
        self.drain(Duration::from_secs(10));
    }
}

fn accept_loop(
    listener: &TcpListener,
    addr: std::net::SocketAddr,
    shared: &Arc<HttpShared>,
    conns: &ConnThreads,
) {
    let task = obs::register_task("http-listener", "HTTP listener");
    task.set_status(&format!("Listen http://{addr}/"));
    obs::emit(
        obs::Event::new(obs::EventKind::Http, obs::Severity::Normal, "Http.Listen")
            .with("addr", addr.to_string()),
    );
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        task.beat();
        {
            let mut active = shared.active.lock().unwrap_or_else(|p| p.into_inner());
            if *active >= shared.config.max_connections {
                drop(active);
                m().rejected.inc();
                obs::emit(
                    obs::Event::new(
                        obs::EventKind::Http,
                        obs::Severity::Warning,
                        "Http.Conn.Rejected",
                    )
                    .with("max", shared.config.max_connections as u64),
                );
                reject_overloaded(stream);
                continue;
            }
            *active += 1;
        }
        m().accepted.inc();
        m().active.add(1);
        let conn_shared = shared.clone();
        match std::thread::Builder::new()
            .name("http-conn".into())
            .spawn(move || {
                let outcome = serve_http_conn(stream, &conn_shared);
                m().active.add(-1);
                let mut active = conn_shared.active.lock().unwrap_or_else(|p| p.into_inner());
                *active -= 1;
                if *active == 0 {
                    conn_shared.all_idle.notify_all();
                }
                drop(active);
                obs::emit(
                    obs::Event::new(
                        obs::EventKind::Http,
                        obs::Severity::Info,
                        "Http.Conn.Closed",
                    )
                    .with("outcome", outcome),
                );
            }) {
            Ok(h) => conns.hold(h),
            Err(_) => {
                // Could not spawn: undo the admission.
                m().active.add(-1);
                let mut active = shared.active.lock().unwrap_or_else(|p| p.into_inner());
                *active -= 1;
                if *active == 0 {
                    shared.all_idle.notify_all();
                }
            }
        }
    }
    task.set_status("Quit");
}

/// Over the connection cap: answer 503 without admitting the socket.
fn reject_overloaded(mut stream: TcpStream) {
    let body = "server connection limit reached - retry later";
    let wire = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(wire.as_bytes());
}

/// One admitted connection: parse → serve → respond until close.
/// Returns a short outcome label for the close event.
fn serve_http_conn(mut stream: TcpStream, shared: &HttpShared) -> &'static str {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let mut parser = HttpParser::new(shared.config.limits);
    let mut buf = [0u8; 8192];
    let mut last_activity = Instant::now();
    let mut request_since: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) && request_since.is_none() {
            m().drained.inc();
            return "drained";
        }
        match request_since {
            Some(t) if t.elapsed() > shared.config.io_timeout => return "request deadline",
            None if last_activity.elapsed() > shared.config.idle_timeout => return "idle timeout",
            _ => {}
        }
        let fed = match stream.read(&mut buf) {
            Ok(0) => return "peer closed",
            Ok(n) => &buf[..n],
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return "read error",
        };
        last_activity = Instant::now();
        let mut chunk = fed;
        loop {
            match parser.feed(chunk) {
                Ok(Some(parsed)) => {
                    chunk = &[];
                    m().requests.inc();
                    let resp = shared.server.serve(parsed.request);
                    // Honour the client's keep-alive wish unless a drain
                    // is in progress — then close as soon as we're done.
                    let keep = parsed.keep_alive && !shared.stop.load(Ordering::SeqCst);
                    if write_response(&mut stream, &resp, keep).is_err() {
                        return "write error";
                    }
                    request_since = None;
                    last_activity = Instant::now();
                    if !keep {
                        return "closed";
                    }
                }
                Ok(None) => {
                    request_since = if parser.buffered() > 0 {
                        Some(request_since.unwrap_or_else(Instant::now))
                    } else {
                        None
                    };
                    break;
                }
                Err(e) => {
                    m().bad_requests.inc();
                    obs::emit(
                        obs::Event::new(
                            obs::EventKind::Http,
                            obs::Severity::Warning,
                            "Http.Conn.BadRequest",
                        )
                        .with("status", u64::from(e.status_code()))
                        .with("detail", e.detail().to_string()),
                    );
                    let _ = write_parse_error(&mut stream, &e);
                    return "bad request";
                }
            }
        }
    }
}

/// Serialize a typed [`Response`] back onto the wire. The
/// `X-Command-Cache` header surfaces the command-cache diagnostic the
/// in-process `Response` carries as a boolean. Head and body leave in one
/// write: the socket is `TCP_NODELAY`, so two writes would be two
/// segments (and two syscalls) per response.
fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
         X-Command-Cache: {}\r\nConnection: {}\r\n\r\n",
        resp.status.code(),
        resp.status.reason(),
        resp.content_type,
        resp.body.len(),
        if resp.from_cache { "hit" } else { "miss" },
        if keep_alive { "keep-alive" } else { "close" },
    );
    wire.reserve_exact(resp.body.len());
    wire.push_str(&resp.body);
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

/// A request the parser refused never reaches the executor; answer the
/// `400`/`413` directly and close.
fn write_parse_error(stream: &mut TcpStream, e: &ParseError) -> std::io::Result<()> {
    let body = format!("{} {}: {}\n", e.status_code(), e.reason(), e.detail());
    let wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        e.status_code(),
        e.reason(),
        body.len()
    );
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_server::ServerConfig;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let server = DominoServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let listener = HttpListener::start(server, HttpConfig::default()).unwrap();
        crate::assert_finished_connections_reaped(&listener.conn_threads, || {
            let mut s = TcpStream::connect(listener.addr()).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let _ = s.read_to_end(&mut Vec::new());
        });
    }
}
