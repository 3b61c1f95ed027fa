//! Server tasks: the one runtime for periodic and long-lived background
//! work, and the roster behind the `show tasks` console command.
//!
//! Every long-lived server thread (the checkpointer, the agent manager,
//! the logger, and the accept loops of the HTTP and replication
//! listeners) is a [`Task`]. [`Task::spawn`] starts a named thread and
//! lists it on the roster for exactly the thread's life; [`Task::every`]
//! runs a tick at a [`Cadence`]: a wall-clock `Duration`, on a thread
//! that waits on a channel (never in sleep slices), or a tick count on a
//! logical [`Timeline`], with no thread. Whoever steps a timeline runs
//! its due ticks, by due tick and then by registration, with the queue
//! unlocked while a tick runs. Both cadences share the roster, the beats,
//! the `tick → false` exit and the exactly-once last action, and stopping
//! or dropping the `Task` ends it at once. `show tasks` renders the live
//! roster the way a Domino console does: task name, state, and activity.
//!
//! A thread that serves one connection is not a server task: [`thread`]
//! names it without listing it, and its listener joins it. DDM probes
//! are not tasks either; they are evaluated inside the logger's drain.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
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

/// A running task's view of itself: it keeps the task on the roster and
/// beats once per cycle. Dropped when the task ends, which de-lists it.
pub struct TaskHandle {
    entry: Arc<TaskEntry>,
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

/// List a task on the `show tasks` roster until the handle drops.
fn register_task(name: &str, kind: &'static str) -> TaskHandle {
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
    TaskHandle { entry }
}

/// How often [`Task::every`] ticks: on the wall clock, or on a logical
/// [`Timeline`]. A `Duration` converts into a cadence.
pub enum Cadence {
    /// Every `Duration`, on the task's own thread.
    Wall(Duration),
    /// `(timeline, first, every)`: at tick `first` of the timeline, then
    /// every `every` ticks (at least 1), run by its stepper. The timeline
    /// keeps no present of its own: the caller names the first due tick.
    Ticks(Timeline, u64, u64),
}

impl From<Duration> for Cadence {
    fn from(every: Duration) -> Cadence {
        Cadence::Wall(every)
    }
}

/// A periodic task parked on a [`Timeline`]: `None` once it has ended.
type Job = Arc<Mutex<Option<Periodic>>>;

struct Periodic {
    task: TaskHandle,
    tick: Box<dyn FnMut(&TaskHandle) -> bool + Send>,
    last: Box<dyn FnOnce() + Send>,
}

#[derive(Default)]
struct Queue {
    registered: u64,
    /// `(due tick, registration) → (every, job)`.
    due: BTreeMap<(u64, u64), (u64, Job)>,
}

/// A logical clock's due-queue of periodic tasks: no thread, no wall
/// time. Clones share the queue. A tick may register or stop other
/// tasks; to end its own task it returns false.
#[derive(Clone, Default)]
pub struct Timeline {
    queue: Arc<Mutex<Queue>>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// The earliest tick at which a task falls due, if any task is listed.
    pub fn next_due(&self) -> Option<u64> {
        self.lock().due.keys().next().map(|&(due, _)| due)
    }

    /// Run every tick due at or before `until`, ordered by due tick and
    /// then by registration.
    pub fn run_until(&self, until: u64) {
        loop {
            let next = (self.lock().due.first_entry())
                .filter(|e| e.key().0 <= until)
                .map(|e| e.remove_entry());
            let Some(((due, order), (every, job))) = next else {
                return;
            };
            let mut slot = job.lock().unwrap_or_else(|p| p.into_inner());
            let Some(p) = slot.as_mut() else {
                continue;
            };
            if (p.tick)(&p.task) {
                p.task.beat();
                self.lock()
                    .due
                    .insert((due + every, order), (every, job.clone()));
            } else if let Some(p) = slot.take() {
                drop(slot);
                (p.last)();
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running server task. [`Task::stop`], or dropping the `Task`, ends
/// it at once: a thread is woken and joined, a timeline task is taken
/// off its queue (after its running tick, if one is running) and its
/// last action runs.
#[must_use = "dropping a Task stops it"]
pub struct Task {
    /// Dropped to wake a wall-clock task's thread.
    stop: Option<Sender<()>>,
    join: Option<JoinHandle<()>>,
    timed: Option<(Timeline, Job)>,
}

impl Task {
    /// Run `body` on a thread named `name`, listed on the roster as
    /// `name` (`kind`) until `body` returns. Stopping the task joins the
    /// thread: a body that blocks (an accept loop) must be woken by its
    /// owner first.
    pub fn spawn(
        name: &str,
        kind: &'static str,
        body: impl FnOnce(&TaskHandle) + Send + 'static,
    ) -> io::Result<Task> {
        let task = register_task(name, kind);
        let join = thread(name, move || body(&task))?;
        Ok(Task {
            stop: None,
            join: Some(join),
            timed: None,
        })
    }

    /// Run `tick` at `cadence` until the task is stopped or `tick`
    /// returns false, then run `last` once. Each completed tick is one
    /// beat on the roster. A wall-clock cadence panics if the OS cannot
    /// start a thread, as [`std::thread::spawn`] does.
    pub fn every(
        name: &str,
        kind: &'static str,
        cadence: impl Into<Cadence>,
        mut tick: impl FnMut(&TaskHandle) -> bool + Send + 'static,
        last: impl FnOnce() + Send + 'static,
    ) -> Task {
        match cadence.into() {
            Cadence::Wall(interval) => {
                let (stop, stopped) = mpsc::channel::<()>();
                let mut task = Task::spawn(name, kind, move |task| {
                    let timeout = Err(RecvTimeoutError::Timeout);
                    while stopped.recv_timeout(interval) == timeout && tick(task) {
                        task.beat();
                    }
                    last();
                })
                .unwrap_or_else(|e| panic!("spawn task {name}: {e}"));
                task.stop = Some(stop);
                task
            }
            Cadence::Ticks(timeline, first, every) => {
                let task = register_task(name, kind);
                let job: Job = Arc::new(Mutex::new(Some(Periodic {
                    task,
                    tick: Box::new(tick),
                    last: Box::new(last),
                })));
                {
                    let mut q = timeline.lock();
                    let order = q.registered;
                    q.registered += 1;
                    q.due.insert((first, order), (every.max(1), job.clone()));
                }
                Task {
                    stop: None,
                    join: None,
                    timed: Some((timeline, job)),
                }
            }
        }
    }

    /// Stop the task and wait for it to end (what dropping does).
    pub fn stop(self) {}
}

impl Drop for Task {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        if let Some((timeline, job)) = self.timed.take() {
            // Waits out a running tick; the stepper then finds the slot
            // empty and does not queue the task again.
            let ended = job.lock().unwrap_or_else(|p| p.into_inner()).take();
            timeline
                .lock()
                .due
                .retain(|_, (_, j)| !Arc::ptr_eq(j, &job));
            if let Some(p) = ended {
                (p.last)();
            }
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
        let h = register_task("test-task-alpha", "Test driver");
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

    #[test]
    fn tasks_due_at_one_tick_fire_in_registration_order() {
        let timeline = Timeline::new();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let task = |name: &'static str, every: u64| {
            let fired = fired.clone();
            Task::every(
                name,
                "Test driver",
                Cadence::Ticks(timeline.clone(), every, every),
                move |_| {
                    fired.lock().unwrap().push(name);
                    true
                },
                || {},
            )
        };
        // Registered in the order c, a, b; a and c fall due at 6 and 12.
        let _c = task("test-timeline-c", 6);
        let _a = task("test-timeline-a", 3);
        let _b = task("test-timeline-b", 4);
        timeline.run_until(12);
        assert_eq!(
            *fired.lock().unwrap(),
            [
                "test-timeline-a", // 3
                "test-timeline-b", // 4
                "test-timeline-c", // 6
                "test-timeline-a", // 6
                "test-timeline-b", // 8
                "test-timeline-a", // 9
                "test-timeline-c", // 12
                "test-timeline-a", // 12
                "test-timeline-b", // 12
            ]
        );
        assert_eq!(timeline.next_due(), Some(15));
    }

    #[test]
    fn a_tick_may_stop_another_task_and_a_stop_delists_at_once() {
        let timeline = Timeline::new();
        let lasts = Arc::new(AtomicU64::new(0));
        // Both fall due at 5; the killer was registered first, so its
        // tick stops the victim before the victim's first tick.
        let victim = Arc::new(Mutex::new(None::<Task>));
        let v = victim.clone();
        let _killer = Task::every(
            "test-timeline-killer",
            "Test driver",
            Cadence::Ticks(timeline.clone(), 5, 5),
            move |_| {
                drop(v.lock().unwrap().take());
                true
            },
            || {},
        );
        let l = lasts.clone();
        *victim.lock().unwrap() = Some(Task::every(
            "test-timeline-victim",
            "Test driver",
            Cadence::Ticks(timeline.clone(), 5, 5),
            |_| panic!("stopped before its first tick"),
            move || {
                l.fetch_add(1, Ordering::Relaxed);
            },
        ));
        assert!(listed("test-timeline-victim"));
        timeline.run_until(5);
        assert!(!listed("test-timeline-victim"));
        assert_eq!(lasts.load(Ordering::Relaxed), 1);

        // A stop from outside de-lists at once and runs the last action.
        let l = lasts.clone();
        let other = Task::every(
            "test-timeline-other",
            "Test driver",
            Cadence::Ticks(timeline.clone(), 100, 100),
            |_| true,
            move || {
                l.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(listed("test-timeline-other"));
        other.stop();
        assert!(!listed("test-timeline-other"));
        assert_eq!(lasts.load(Ordering::Relaxed), 2);
        assert_eq!(timeline.next_due(), Some(10), "only the killer is left");
    }

    #[test]
    fn a_timeline_tick_that_returns_false_ends_the_task_and_its_last_action_runs_once() {
        let timeline = Timeline::new();
        let lasts = Arc::new(AtomicU64::new(0));
        let l = lasts.clone();
        let mut left = 3;
        let task = Task::every(
            "test-timeline-gamma",
            "Test driver",
            Cadence::Ticks(timeline.clone(), 2, 2),
            move |_| {
                left -= 1;
                left > 0
            },
            move || {
                l.fetch_add(1, Ordering::Relaxed);
            },
        );
        timeline.run_until(5);
        assert_eq!(
            tasks()
                .iter()
                .find(|t| t.name == "test-timeline-gamma")
                .unwrap()
                .beats,
            2
        );
        timeline.run_until(100);
        assert!(!listed("test-timeline-gamma"));
        assert_eq!(timeline.next_due(), None);
        drop(task);
        assert_eq!(lasts.load(Ordering::Relaxed), 1);
    }
}
