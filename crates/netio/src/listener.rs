//! The accept side both socket listeners share: bind, an accept task on
//! the roster, one thread per admitted connection, and the stop that
//! wakes and joins them.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use domino_obs::{self as obs, Task};
use domino_types::{DominoError, Result};

/// How often a connection's blocked read wakes to check its deadlines
/// and the stop flag.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(25);

/// A bound socket and the threads that serve it.
pub(crate) struct Listener {
    /// The bound address.
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<Task>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Listener {
    /// Bind `addr` and accept on the task `{name}-listener`. `admit` sees
    /// each accepted socket and returns the work for its `{name}-conn`
    /// thread, or `None` once it has answered the socket itself.
    /// Connection work watches `stop`, which [`Listener::close`] raises.
    pub(crate) fn start<W: FnOnce() + Send + 'static>(
        addr: &str,
        name: &str,
        kind: &'static str,
        stop: Arc<AtomicBool>,
        admit: impl Fn(TcpStream) -> Option<W> + Send + 'static,
    ) -> Result<Listener> {
        let socket = TcpListener::bind(addr)
            .map_err(|e| DominoError::Unavailable(format!("bind {addr}: {e}")))?;
        let local = socket
            .local_addr()
            .map_err(|e| DominoError::Unavailable(format!("local_addr: {e}")))?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (flag, threads) = (stop.clone(), conns.clone());
        let conn_name = format!("{name}-conn");
        let accept = Task::spawn(&format!("{name}-listener"), kind, move |task| {
            task.set_status(&format!("Listen {local}"));
            for stream in socket.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                task.beat();
                let Some(work) = admit(stream) else { continue };
                if let Ok(h) = obs::task::thread(&conn_name, work) {
                    // Dropping a finished thread's handle frees its stack;
                    // the rest are joined when the listener stops.
                    let mut held = threads.lock().unwrap_or_else(|p| p.into_inner());
                    held.retain(|h| !h.is_finished());
                    held.push(h);
                }
            }
        })
        .map_err(|e| DominoError::Unavailable(format!("spawn {name}-listener: {e}")))?;
        Ok(Listener {
            addr: local,
            stop,
            accept: Mutex::new(Some(accept)),
            conns,
        })
    }

    /// Stop accepting: raise the stop flag, wake the blocking accept with
    /// a throwaway connection and join the accept task. False when the
    /// listener was already closed.
    pub(crate) fn close(&self) -> bool {
        if self.stop.swap(true, Ordering::SeqCst) {
            return false;
        }
        let _ = TcpStream::connect(self.addr);
        drop(self.accept.lock().unwrap_or_else(|p| p.into_inner()).take());
        true
    }

    /// Join every connection thread.
    pub(crate) fn join(&self) {
        let held = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for h in held {
            let _ = h.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.close();
    }
}

/// Serve 200 connections one after another with `cycle`, then keep
/// cycling until at most four handles are held; fail after ten seconds.
#[cfg(test)]
pub(crate) fn assert_finished_connections_reaped(listener: &Listener, cycle: impl Fn()) {
    use std::time::Instant;
    for _ in 0..200 {
        cycle();
    }
    // A thread ends shortly after its peer is done; the next accept drops
    // its handle.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let held = listener.conns.lock().unwrap().len();
        if held <= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{held} handles held after 200 connections"
        );
        std::thread::sleep(Duration::from_millis(20));
        cycle();
    }
}
