//! Replication over a real socket: the NRPC stand-in port 1352.
//!
//! Two halves:
//!
//! * [`ReplicaListener`] — the server side. It accepts TCP connections,
//!   answers the [`Frame::hello`] handshake, and acks every
//!   [`Opcode::Deliver`] frame, or nacks the ones its
//!   [`FaultPlan`] fails ([`ReplicaListener::fault_plan`]): the socket
//!   side of the same schedule a `Faulty` transport follows in-process.
//! * [`SocketTransport`] — the client side: a second `Transport` impl,
//!   so `Replicator::pull_via`/`pull_with_retry` run *unchanged* over a
//!   real connection. Every transport fault (refused connect, reset,
//!   timeout, corrupt frame, nack) maps to `DominoError::Unavailable`,
//!   the transient error the pull cursor parks on — exactly the contract
//!   the simulated transports implement. The next `deliver` call
//!   reconnects and re-handshakes transparently.
//!
//! Note application stays in-process (the `Replicator` holds both
//! databases); the socket carries the *message round-trips* — one
//! `Deliver`/`Ack` exchange per negotiation round or candidate batch,
//! the unit `Transport::deliver` models. That is what makes the PR 4
//! interrupt/resume proptests runnable over both transports: the fault
//! points line up one-to-one.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use domino_obs as obs;
use domino_replica::Transport;
use domino_types::{DominoError, FaultPlan, Frame, FrameDecoder, Opcode, Result};

use crate::ConnThreads;

struct Metrics {
    accepted: &'static obs::Counter,
    active: &'static obs::Gauge,
    frames: &'static obs::Counter,
    delivered: &'static obs::Counter,
    nacked: &'static obs::Counter,
    dropped: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        accepted: obs::counter("Net.Conn.Accepted"),
        active: obs::gauge("Net.Conn.Active"),
        frames: obs::counter("Net.Conn.Frames"),
        delivered: obs::counter("Net.Conn.Delivered"),
        nacked: obs::counter("Net.Conn.Nacked"),
        dropped: obs::counter("Net.Conn.Dropped"),
    })
}

/// How long socket reads/writes may stall before the peer is considered
/// gone (both sides use it as their I/O deadline).
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// The poll tick idle server connections use to notice a shutdown.
const POLL_TICK: Duration = Duration::from_millis(25);

struct ListenerShared {
    stop: AtomicBool,
    /// `Deliver` frames received, across all connections.
    deliveries: AtomicU64,
    /// Ticked once per `Deliver` frame; a failed tick is a nack.
    plan: FaultPlan,
}

/// The server side of the replication wire protocol.
///
/// Bound to an ephemeral loopback port by default; hand
/// [`ReplicaListener::addr`] to a [`SocketTransport`].
pub struct ReplicaListener {
    addr: std::net::SocketAddr,
    shared: Arc<ListenerShared>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<ConnThreads>,
}

impl ReplicaListener {
    /// Bind and start accepting. `addr` is a `host:port` string; port 0
    /// picks an ephemeral port (read it back with
    /// [`ReplicaListener::addr`]).
    pub fn bind(addr: &str) -> Result<ReplicaListener> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DominoError::Unavailable(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| DominoError::Unavailable(format!("local_addr: {e}")))?;
        let shared = Arc::new(ListenerShared {
            stop: AtomicBool::new(false),
            deliveries: AtomicU64::new(0),
            plan: FaultPlan::default(),
        });
        let conn_threads = Arc::new(ConnThreads::default());
        let accept_shared = shared.clone();
        let accept_conns = conn_threads.clone();
        let accept_thread = std::thread::Builder::new()
            .name("replica-listener".into())
            .spawn(move || {
                let task = obs::register_task("replica-listener", "Replication wire listener");
                task.set_status(&format!("Listen {local}"));
                obs::emit(
                    obs::Event::new(obs::EventKind::Replica, obs::Severity::Normal, "Net.Listen")
                        .with("addr", local.to_string()),
                );
                for stream in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    m().accepted.inc();
                    task.beat();
                    let conn_shared = accept_shared.clone();
                    if let Ok(h) = std::thread::Builder::new()
                        .name("replica-conn".into())
                        .spawn(move || serve_connection(stream, &conn_shared))
                    {
                        accept_conns.hold(h);
                    }
                }
                task.set_status("Quit");
            })
            .map_err(|e| DominoError::Unavailable(format!("spawn listener: {e}")))?;
        Ok(ReplicaListener {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (connect a [`SocketTransport`] here).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The plan every `Deliver` frame ticks, across connections and
    /// reconnects; a frame it fails is nacked. Set its rules, or clone it
    /// into a `Faulty` transport so both sides follow one schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.shared.plan
    }

    /// `Deliver` frames received so far (acked + nacked).
    pub fn deliveries(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }

    /// Stop accepting and join every connection thread.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.conn_threads.join_all();
    }
}

impl Drop for ReplicaListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted connection: handshake, then ack/nack deliveries until
/// the peer quits, errors, or the listener stops.
fn serve_connection(stream: TcpStream, shared: &ListenerShared) {
    m().active.add(1);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    obs::emit(
        obs::Event::new(
            obs::EventKind::Replica,
            obs::Severity::Info,
            "Net.Conn.Open",
        )
        .with("peer", peer.clone()),
    );
    let outcome = serve_frames(stream, shared);
    m().active.add(-1);
    obs::emit(
        obs::Event::new(
            obs::EventKind::Replica,
            obs::Severity::Info,
            "Net.Conn.Close",
        )
        .with("peer", peer)
        .with("outcome", outcome),
    );
}

fn serve_frames(mut stream: TcpStream, shared: &ListenerShared) -> &'static str {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(IO_DEADLINE));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut greeted = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return "listener stopped";
        }
        match stream.read(&mut buf) {
            Ok(0) => return "peer closed",
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return "read error",
        }
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    m().dropped.inc();
                    return "corrupt frame";
                }
            };
            m().frames.inc();
            let reply = match frame.opcode {
                Opcode::Hello => {
                    if !frame.handshake_ok() {
                        m().dropped.inc();
                        return "bad handshake";
                    }
                    greeted = true;
                    Frame::hello_ack()
                }
                Opcode::Deliver if greeted => {
                    shared.deliveries.fetch_add(1, Ordering::SeqCst);
                    if let Some(op) = shared.plan.tick() {
                        m().nacked.inc();
                        Frame::nack(&format!("injected message loss at delivery {op}"))
                    } else {
                        m().delivered.inc();
                        Frame::bare(Opcode::Ack)
                    }
                }
                Opcode::Quit => return "peer quit",
                _ => {
                    m().dropped.inc();
                    return "protocol error";
                }
            };
            if stream.write_all(&reply.encode()).is_err() {
                return "write error";
            }
            // A nacked delivery ends the exchange: the client parks its
            // cursor and reconnects for the resumed pass, mirroring a
            // dropped dial-up link.
            if reply.opcode == Opcode::Nack {
                let _ = stream.shutdown(Shutdown::Both);
                return "nacked";
            }
        }
    }
}

/// `Transport` impl that ships every delivery as a `Deliver`/`Ack`
/// round-trip over a real TCP connection.
///
/// Connects lazily on the first `deliver` and re-connects after any
/// fault, so a parked pull cursor resumes over a fresh connection —
/// the socket equivalent of redialling the modem.
pub struct SocketTransport {
    addr: String,
    conn: Option<Conn>,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl SocketTransport {
    /// A transport that will dial `addr` (e.g. from
    /// [`ReplicaListener::addr`]) on first use.
    pub fn connect(addr: &str) -> SocketTransport {
        SocketTransport {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| DominoError::Unavailable(format!("connect {}: {e}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(IO_DEADLINE))
                .map_err(|e| DominoError::Unavailable(format!("set deadline: {e}")))?;
            let _ = stream.set_write_timeout(Some(IO_DEADLINE));
            let mut conn = Conn {
                stream,
                dec: FrameDecoder::new(),
            };
            let ack = round_trip(&mut conn, &Frame::hello())?;
            if ack.opcode != Opcode::HelloAck || !ack.handshake_ok() {
                return Err(DominoError::Unavailable(format!(
                    "handshake refused by {}",
                    self.addr
                )));
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }
}

/// Send one frame and block for the peer's answer.
fn round_trip(conn: &mut Conn, frame: &Frame) -> Result<Frame> {
    conn.stream
        .write_all(&frame.encode())
        .map_err(|e| DominoError::Unavailable(format!("write: {e}")))?;
    let mut buf = [0u8; 4096];
    loop {
        if let Some(f) = conn
            .dec
            .next_frame()
            .map_err(|e| DominoError::Unavailable(format!("corrupt reply: {e}")))?
        {
            return Ok(f);
        }
        let n = conn
            .stream
            .read(&mut buf)
            .map_err(|e| DominoError::Unavailable(format!("read: {e}")))?;
        if n == 0 {
            return Err(DominoError::Unavailable(
                "connection closed mid-reply".into(),
            ));
        }
        conn.dec.feed(&buf[..n]);
    }
}

impl Transport for SocketTransport {
    fn deliver(&mut self, notes: u64) -> Result<()> {
        let result = (|| {
            let conn = self.ensure_conn()?;
            let reply = round_trip(conn, &Frame::deliver(notes))?;
            match reply.opcode {
                Opcode::Ack => Ok(()),
                Opcode::Nack => Err(DominoError::Unavailable(
                    String::from_utf8_lossy(&reply.payload).into_owned(),
                )),
                other => Err(DominoError::Unavailable(format!(
                    "unexpected reply {other:?} to a delivery"
                ))),
            }
        })();
        if result.is_err() {
            // Any fault poisons the connection: drop it so the next
            // delivery redials, and let the cursor park meanwhile.
            self.conn = None;
        }
        result
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = conn.stream.write_all(&Frame::bare(Opcode::Quit).encode());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_replica::CleanTransport;
    use domino_types::Faulty;

    #[test]
    fn clean_deliveries_ack_over_a_real_socket() {
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        let mut t = SocketTransport::connect(&listener.addr());
        for notes in [1, 1, 1, 16, 4] {
            t.deliver(notes).unwrap();
        }
        drop(t);
        assert_eq!(listener.deliveries(), 5);
    }

    #[test]
    fn scripted_nacks_match_scripted_transport_semantics() {
        // One plan numbers the deliveries of both transports globally:
        // whichever one carries delivery `i`, the plan alone decides it.
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        let plan = listener.fault_plan().clone();
        plan.fail_at([1, 2, 5, 6]);
        let mut socket = SocketTransport::connect(&listener.addr());
        let mut local = Faulty::new(CleanTransport, plan.clone());
        let got: Vec<bool> = (0..4)
            .flat_map(|_| [socket.deliver(2).is_ok(), local.deliver(2).is_ok()])
            .collect();
        assert_eq!(got, [true, false, false, true, true, false, false, true]);
        assert_eq!((plan.ops(), plan.faults()), (8, 4));
        drop(socket);
        assert_eq!(listener.deliveries(), 4);
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        crate::assert_finished_connections_reaped(&listener.conn_threads, || {
            SocketTransport::connect(&listener.addr())
                .deliver(1)
                .unwrap()
        });
    }

    #[test]
    fn connection_faults_are_transient() {
        let addr = {
            let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
            listener.addr()
            // listener drops here: the port is closed.
        };
        let mut t = SocketTransport::connect(&addr);
        match t.deliver(1) {
            Err(DominoError::Unavailable(_)) => {}
            other => panic!("dead peer must be Unavailable, got {other:?}"),
        }
    }
}
