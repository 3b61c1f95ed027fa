//! Server tasks: the one runtime for long-lived background threads, and
//! the roster behind the `show tasks` console command.
//!
//! Every long-lived server thread (the checkpointer, the agent manager,
//! the logger, and the accept loops of the HTTP and replication
//! listeners) is a [`Task`]. [`Task::spawn`] starts a named thread and
//! lists it on the roster for exactly the thread's life; [`Task::every`]
//! runs a tick on an interval. Stopping or dropping the `Task` wakes the
//! thread at once (it waits on a channel, never in sleep slices) and
//! joins it. `show tasks` renders the live roster the way a
//! Domino console does: task name, state, and activity.
//!
//! A thread that serves one connection is not a server task: [`thread`]
//! names it without listing it, and its listener joins it. DDM probes
//! are not tasks either; they are evaluated inside the logger's drain.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::process_nanos;

/// Shared state of one registered task.
struct TaskEntry {
    name: String,
    kind: &'static str,
    started_nanos: u64,
    beats: AtomicU64,
    last_beat_nanos: AtomicU64,
    status: Mutex<String>,
}

/// A point-in-time description of one live task (what [`tasks`] returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInfo {
    /// Task name (`"logger"`, `"checkpointer:log"`, …).
    pub name: String,
    /// What kind of work it does (free-form static label).
    pub kind: &'static str,
    /// Monotonic nanos (event-bus clock) when it registered.
    pub started_nanos: u64,
    /// Completed work cycles.
    pub beats: u64,
    /// Monotonic nanos of the most recent beat (0 before the first).
    pub last_beat_nanos: u64,
    /// Latest free-form status line (`"Idle"` until the task says more).
    pub status: String,
}

/// A running task's view of itself: it keeps the task on the roster,
/// beats once per cycle, and waits for a stop request. Dropped when the
/// task's thread returns, which de-lists the task.
pub struct TaskHandle {
    entry: Arc<TaskEntry>,
    /// Disconnected when the task's owner stops it.
    stop: Receiver<()>,
}

impl TaskHandle {
    /// Record one completed work cycle.
    pub fn beat(&self) {
        self.entry.beats.fetch_add(1, Ordering::Relaxed);
        self.entry
            .last_beat_nanos
            .store(process_nanos(), Ordering::Relaxed);
    }

    /// Replace the task's status line.
    pub fn set_status(&self, status: &str) {
        *self.entry.status.lock().unwrap_or_else(|p| p.into_inner()) = status.to_string();
    }

    /// Wait up to `timeout` for a stop request; true once one has come.
    pub fn wait_stop(&self, timeout: Duration) -> bool {
        self.stop.recv_timeout(timeout) != Err(RecvTimeoutError::Timeout)
    }
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.retain(|w| match w.upgrade() {
            Some(e) => !Arc::ptr_eq(&e, &self.entry),
            None => false,
        });
    }
}

fn registry() -> &'static Mutex<Vec<Weak<TaskEntry>>> {
    static REG: OnceLock<Mutex<Vec<Weak<TaskEntry>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// List a task on the `show tasks` roster until the handle drops;
/// dropping the returned sender asks the task to stop.
fn register_task(name: &str, kind: &'static str) -> (TaskHandle, Sender<()>) {
    let entry = Arc::new(TaskEntry {
        name: name.to_string(),
        kind,
        started_nanos: process_nanos(),
        beats: AtomicU64::new(0),
        last_beat_nanos: AtomicU64::new(0),
        status: Mutex::new("Idle".to_string()),
    });
    registry()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(Arc::downgrade(&entry));
    let (stop, stopped) = mpsc::channel();
    (
        TaskHandle {
            entry,
            stop: stopped,
        },
        stop,
    )
}

/// A running server task. [`Task::stop`], or dropping the `Task`, asks
/// the thread to stop, wakes it, and joins it.
#[must_use = "dropping a Task stops its thread"]
pub struct Task {
    stop: Option<Sender<()>>,
    join: Option<JoinHandle<()>>,
}

impl Task {
    /// Run `body` on a thread named `name`, listed on the roster as
    /// `name` (`kind`) until `body` returns. `body` sees stop requests
    /// through [`TaskHandle::wait_stop`]; a body that blocks elsewhere
    /// (an accept loop) must be woken by its owner before the task stops.
    pub fn spawn(
        name: &str,
        kind: &'static str,
        body: impl FnOnce(&TaskHandle) + Send + 'static,
    ) -> io::Result<Task> {
        let (task, stop) = register_task(name, kind);
        let join = thread(name, move || body(&task))?;
        Ok(Task {
            stop: Some(stop),
            join: Some(join),
        })
    }

    /// Run `tick` every `interval` until the task is stopped or `tick`
    /// returns false, then run `last` once. Each completed tick is one
    /// beat on the roster. Panics if the OS cannot start a thread, as
    /// [`std::thread::spawn`] does.
    pub fn every(
        name: &str,
        kind: &'static str,
        interval: Duration,
        mut tick: impl FnMut(&TaskHandle) -> bool + Send + 'static,
        last: impl FnOnce() + Send + 'static,
    ) -> Task {
        Task::spawn(name, kind, move |task| {
            while !task.wait_stop(interval) && tick(task) {
                task.beat();
            }
            last();
        })
        .unwrap_or_else(|e| panic!("spawn task {name}: {e}"))
    }

    /// Stop the thread and wait for it to exit (what dropping does).
    pub fn stop(self) {}
}

impl Drop for Task {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Start a named thread that is not a server task: a connection's
/// thread lives as long as its peer, so the roster does not list it and
/// its listener joins it.
pub fn thread(name: &str, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.to_string()).spawn(f)
}

/// Snapshot the live task roster, in registration order.
pub fn tasks() -> Vec<TaskInfo> {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.retain(|w| w.strong_count() > 0);
    reg.iter()
        .filter_map(Weak::upgrade)
        .map(|e| TaskInfo {
            name: e.name.clone(),
            kind: e.kind,
            started_nanos: e.started_nanos,
            beats: e.beats.load(Ordering::Relaxed),
            last_beat_nanos: e.last_beat_nanos.load(Ordering::Relaxed),
            status: e.status.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        })
        .collect()
}

/// The `show tasks` console dump.
pub fn show_tasks() -> String {
    let mut out = String::from("> show tasks\n");
    let roster = tasks();
    if roster.is_empty() {
        out.push_str("  (no background tasks running)\n");
        return out;
    }
    let now = process_nanos();
    for t in roster {
        let up_secs = now.saturating_sub(t.started_nanos) / 1_000_000_000;
        out.push_str(&format!(
            "  {:<24} {:<16} up {:>6}s  beats {:>8}  {}\n",
            t.name, t.kind, up_secs, t.beats, t.status
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn listed(name: &str) -> bool {
        tasks().iter().any(|t| t.name == name)
    }

    #[test]
    fn register_beat_and_delist() {
        let (h, _stop) = register_task("test-task-alpha", "Test driver");
        h.beat();
        h.beat();
        h.set_status("ticking");
        let info = tasks()
            .into_iter()
            .find(|t| t.name == "test-task-alpha")
            .expect("registered task listed");
        assert_eq!(info.beats, 2);
        assert_eq!(info.status, "ticking");
        assert!(info.last_beat_nanos >= info.started_nanos);
        let dump = show_tasks();
        assert!(dump.starts_with("> show tasks\n"));
        assert!(dump.contains("test-task-alpha"));
        drop(h);
        assert!(!tasks().iter().any(|t| t.name == "test-task-alpha"));
    }

    #[test]
    fn a_stopped_task_wakes_at_once_runs_its_last_action_once_and_leaves_the_roster() {
        let ticks = Arc::new(AtomicU64::new(0));
        let lasts = Arc::new(AtomicU64::new(0));
        let (t, l) = (ticks.clone(), lasts.clone());
        let task = Task::every(
            "test-task-beta",
            "Test driver",
            Duration::from_secs(10),
            move |_| {
                t.fetch_add(1, Ordering::Relaxed);
                true
            },
            move || {
                l.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(listed("test-task-beta"));
        let began = Instant::now();
        task.stop();
        assert!(began.elapsed() < Duration::from_millis(100));
        assert_eq!(ticks.load(Ordering::Relaxed), 0);
        assert_eq!(lasts.load(Ordering::Relaxed), 1);
        assert!(!listed("test-task-beta"));
    }

    #[test]
    fn a_tick_that_returns_false_ends_the_task_and_its_last_action_runs_once() {
        let lasts = Arc::new(AtomicU64::new(0));
        let l = lasts.clone();
        let mut left = 3;
        let task = Task::every(
            "test-task-gamma",
            "Test driver",
            Duration::from_millis(1),
            move |_| {
                left -= 1;
                left > 0
            },
            move || {
                l.fetch_add(1, Ordering::Relaxed);
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while listed("test-task-gamma") {
            assert!(Instant::now() < deadline, "the task never ended");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(task);
        assert_eq!(lasts.load(Ordering::Relaxed), 1);
    }
}
