//! The structured event bus: bounded, lock-free, never blocking.
//!
//! Metrics (the registry) answer "how much"; events answer "what
//! happened". An [`Event`] is one notable occurrence — a replication pass
//! finishing, a checkpoint completing, a 403 denial, a lock-timeout
//! victim — carrying a [`EventKind`], a [`Severity`], a stable code
//! string, and typed key/value fields.
//!
//! Producers call [`emit`] from any thread. The bus is a bounded
//! [Vyukov-style](https://www.1024cores.net/home/lock-free-algorithms/queues/bounded-mpmc-queue)
//! MPMC ring of [`EVENT_RING_CAPACITY`] slots: emission is two atomic
//! CAS/store pairs plus one move — tens of nanoseconds — and **never
//! blocks**. When the ring is full the event is dropped on the floor and
//! `Obs.Event.Dropped` is incremented; a hot path never waits for the
//! consumer (the exact trade a flight recorder makes: losing an event
//! beats stalling a commit).
//!
//! The single intended consumer is the logger task (`domino-server`),
//! which [`drain`]s the ring and materializes events as notes in
//! `log.nsf`. Because those writes go through the very subsystems that
//! emit events, the drainer wraps itself in [`suppress`] — a thread-local
//! re-entrancy guard under which [`emit`] becomes a counted no-op
//! (`Obs.Event.Suppressed`), so the log never logs itself.

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Slots in the global event ring. Power of two; at a typical 200-byte
/// event this bounds the bus near 2 MiB.
pub const EVENT_RING_CAPACITY: usize = 8192;

/// How bad the news is, ordered worst-first (Domino's event severities:
/// Fatal, Failure, Warning, Normal, plus an informational floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The server cannot continue correctly.
    Fatal,
    /// An operation failed and will not be retried.
    Failure,
    /// Degraded but operating (retries, sheds, timeouts).
    Warning,
    /// A normal state transition worth recording (probe cleared, task up).
    Normal,
    /// Routine operational detail (a pass finished, a request served).
    Info,
}

impl Severity {
    /// Console/label spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Fatal => "Fatal",
            Severity::Failure => "Failure",
            Severity::Warning => "Warning",
            Severity::Normal => "Normal",
            Severity::Info => "Info",
        }
    }

    /// Parse a console spelling, case-insensitively.
    pub fn parse(s: &str) -> Option<Severity> {
        match s.to_ascii_lowercase().as_str() {
            "fatal" => Some(Severity::Fatal),
            "failure" => Some(Severity::Failure),
            "warning" => Some(Severity::Warning),
            "normal" => Some(Severity::Normal),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }

    /// One step worse (DDM escalation): Warning → Failure → Fatal.
    /// Already-Fatal stays Fatal.
    pub fn escalated(self) -> Severity {
        match self {
            Severity::Fatal | Severity::Failure => Severity::Fatal,
            Severity::Warning => Severity::Failure,
            Severity::Normal => Severity::Warning,
            Severity::Info => Severity::Normal,
        }
    }

    /// Is this at least as severe as `floor`? (`Fatal` is the most
    /// severe; the derived order puts it first.)
    pub fn at_least(self, floor: Severity) -> bool {
        self <= floor
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which subsystem an event describes — the coarse routing key `log.nsf`
/// views and `show events` filter on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Server lifecycle, recovery, probes.
    Server,
    /// Replication and cluster traffic.
    Replica,
    /// HTTP task requests (domlog.nsf material).
    Http,
    /// Agent-manager runs.
    Agent,
    /// Checkpointer and buffer-pool pressure.
    Checkpoint,
    /// Authentication/ACL denials.
    Security,
    /// Everything else (mail, locks, …).
    Misc,
}

impl EventKind {
    /// Console/label spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Server => "Server",
            EventKind::Replica => "Replica",
            EventKind::Http => "Http",
            EventKind::Agent => "Agent",
            EventKind::Checkpoint => "Checkpoint",
            EventKind::Security => "Security",
            EventKind::Misc => "Misc",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed field value on an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned quantity (counts, bytes, micros).
    U64(u64),
    /// Signed quantity (gauge levels, deltas).
    I64(i64),
    /// Ratio or rate.
    F64(f64),
    /// Static label.
    Str(&'static str),
    /// Owned text (user names, database titles).
    Text(String),
}

impl FieldValue {
    /// The value as display text (what `log.nsf` items store).
    pub fn to_text(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => format!("{v:.3}"),
            FieldValue::Str(s) => (*s).to_string(),
            FieldValue::Text(s) => s.clone(),
        }
    }

    /// Numeric reading when the value is numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Text(v)
    }
}

/// One structured event. Build with [`Event::new`] + [`Event::with`] and
/// hand to [`emit`]; `seq` and `nanos` are stamped at emission.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global emission sequence number (1-based; 0 until emitted).
    pub seq: u64,
    /// Monotonic nanoseconds since the first event-bus touch of this
    /// process (stamped by [`emit`]).
    pub nanos: u64,
    /// Logical sim-time of the emitting subsystem (its database clock
    /// tick), when the producer has one; 0 otherwise. Set via
    /// [`Event::at`].
    pub stamp: u64,
    /// Coarse subsystem routing key.
    pub kind: EventKind,
    /// How bad the news is.
    pub severity: Severity,
    /// Stable dotted code (`"Replica.Pass"`, `"Http.Denied"`, …) — the
    /// fine-grained identity views and probes match on.
    pub code: &'static str,
    /// Typed key/value details, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A new event with no fields and stamp 0.
    pub fn new(kind: EventKind, severity: Severity, code: &'static str) -> Event {
        Event {
            seq: 0,
            nanos: 0,
            stamp: 0,
            kind,
            severity,
            code,
            fields: Vec::new(),
        }
    }

    /// Attach one field (builder-style).
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Stamp the producer's logical sim-time.
    pub fn at(mut self, stamp: u64) -> Event {
        self.stamp = stamp;
        self
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// `key=value` pairs space-joined — the console/`Subject` rendering.
    pub fn render_fields(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.fields {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_text());
        }
        out
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] {:<7} {:<10} {}",
            self.seq,
            self.severity.as_str(),
            self.kind.as_str(),
            self.code
        )?;
        let fields = self.render_fields();
        if !fields.is_empty() {
            write!(f, " {fields}")?;
        }
        Ok(())
    }
}

/// One ring slot: a sequence number that encodes whether the slot is
/// empty (seq == pos) or full (seq == pos + 1), plus the payload.
struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<Option<Event>>,
}

/// Bounded MPMC ring (Vyukov). Producers and consumers claim a position
/// with one CAS, then hand the slot over with a release store of its
/// sequence number — no locks anywhere, and a full ring fails the push
/// instead of waiting.
struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// The UnsafeCell is only touched by the thread that won the slot's CAS
// for the current lap, and the seq store/load pair orders the access.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        assert!(capacity.is_power_of_two());
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(None),
            })
            .collect();
        Ring {
            slots,
            mask: capacity - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Try to enqueue; returns the event back when the ring is full.
    fn push(&self, event: Event) -> Result<(), Event> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { *slot.value.get() = Some(event) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // The slot still holds last lap's value: ring is full.
                return Err(event);
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Try to dequeue; `None` when empty.
    fn pop(&self) -> Option<Event> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = unsafe { (*slot.value.get()).take() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return value;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate number of queued events (fuzzy under concurrency).
    fn len(&self) -> usize {
        let tail = self.dequeue_pos.load(Ordering::Relaxed);
        let head = self.enqueue_pos.load(Ordering::Relaxed);
        head.wrapping_sub(tail)
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(EVENT_RING_CAPACITY))
}

static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the event bus first woke up in this
/// process — the clock every event's `nanos` field reads.
pub fn process_nanos() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

thread_local! {
    static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII re-entrancy guard from [`suppress`]: while any guard lives on a
/// thread, that thread's [`emit`] calls are counted no-ops.
pub struct SuppressGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Suppress event emission on the current thread until the returned
/// guard drops. Nests. The logger task holds one of these across every
/// `log.nsf` write so instrumented subsystems it calls into (storage,
/// locks, views) cannot emit events *about the act of logging* —
/// the recursion-free invariant the tests pin.
pub fn suppress() -> SuppressGuard {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    SuppressGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Is emission currently suppressed on this thread?
pub fn is_suppressed() -> bool {
    SUPPRESS_DEPTH.with(|d| d.get() > 0)
}

/// Emit one event onto the bus. Returns `true` if it was enqueued.
///
/// Never blocks: a full ring drops the event (counted in
/// `Obs.Event.Dropped`), and a suppressed thread drops it too (counted
/// in `Obs.Event.Suppressed`). Cost on the happy path is one CAS, one
/// release store, and a move of the event.
pub fn emit(mut event: Event) -> bool {
    if is_suppressed() {
        crate::counter!("Obs.Event.Suppressed").inc();
        return false;
    }
    event.seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    event.nanos = process_nanos();
    match ring().push(event) {
        Ok(()) => {
            crate::counter!("Obs.Event.Emitted").inc();
            true
        }
        Err(_) => {
            crate::counter!("Obs.Event.Dropped").inc();
            false
        }
    }
}

/// Dequeue up to `max` events, oldest first. The logger task's read side.
pub fn drain(max: usize) -> Vec<Event> {
    let r = ring();
    let mut out = Vec::new();
    while out.len() < max {
        match r.pop() {
            Some(e) => out.push(e),
            None => break,
        }
    }
    out
}

/// Approximate number of events waiting in the ring.
pub fn pending() -> usize {
    ring().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The ring is process-global; tests that fill or drain it serialize
    /// here so they don't steal each other's events.
    static BUS_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn severity_order_parse_and_escalation() {
        assert!(Severity::Fatal.at_least(Severity::Warning));
        assert!(Severity::Warning.at_least(Severity::Warning));
        assert!(!Severity::Info.at_least(Severity::Warning));
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("FATAL"), Some(Severity::Fatal));
        assert_eq!(Severity::parse("loud"), None);
        assert_eq!(Severity::Warning.escalated(), Severity::Failure);
        assert_eq!(Severity::Failure.escalated(), Severity::Fatal);
        assert_eq!(Severity::Fatal.escalated(), Severity::Fatal);
    }

    #[test]
    fn event_builder_fields_and_display() {
        let e = Event::new(EventKind::Replica, Severity::Info, "Replica.Pass")
            .with("added", 3u64)
            .with("src", "projects")
            .at(42);
        assert_eq!(e.stamp, 42);
        assert_eq!(e.field("added").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            e.field("src").map(|v| v.to_text()).as_deref(),
            Some("projects")
        );
        assert_eq!(e.render_fields(), "added=3 src=projects");
        assert!(e.to_string().contains("Replica.Pass"));
    }

    #[test]
    fn emit_drain_round_trip_in_order() {
        let _serial = BUS_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        drain(usize::MAX); // start clean
        for i in 0..10u64 {
            assert!(emit(
                Event::new(EventKind::Misc, Severity::Info, "Test.Tick").with("i", i)
            ));
        }
        let got = drain(usize::MAX);
        assert_eq!(got.len(), 10);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.field("i").and_then(|v| v.as_u64()), Some(i as u64));
            assert!(e.seq > 0, "seq must be stamped");
        }
        // Seq strictly increases and nanos never go backwards.
        for w in got.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].nanos >= w[0].nanos);
        }
    }

    #[test]
    fn overflow_drops_without_blocking_and_counts() {
        let _serial = BUS_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        drain(usize::MAX);
        let dropped_before = crate::counter!("Obs.Event.Dropped").get();
        for _ in 0..EVENT_RING_CAPACITY {
            assert!(emit(Event::new(
                EventKind::Misc,
                Severity::Info,
                "Test.Fill"
            )));
        }
        // The ring is now full: further emissions return immediately
        // (no blocking — this would deadlock otherwise, as nothing
        // drains) and are counted.
        for _ in 0..100 {
            assert!(!emit(Event::new(
                EventKind::Misc,
                Severity::Info,
                "Test.Spill"
            )));
        }
        assert_eq!(
            crate::counter!("Obs.Event.Dropped").get() - dropped_before,
            100
        );
        // Draining frees space again.
        assert_eq!(drain(usize::MAX).len(), EVENT_RING_CAPACITY);
        assert!(emit(Event::new(
            EventKind::Misc,
            Severity::Info,
            "Test.After"
        )));
        drain(usize::MAX);
    }

    #[test]
    fn suppression_is_thread_local_counted_and_nests() {
        let _serial = BUS_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        drain(usize::MAX);
        let suppressed_before = crate::counter!("Obs.Event.Suppressed").get();
        {
            let _g = suppress();
            assert!(is_suppressed());
            {
                let _g2 = suppress();
                assert!(!emit(Event::new(
                    EventKind::Misc,
                    Severity::Info,
                    "Test.Muted"
                )));
            }
            assert!(is_suppressed(), "outer guard still active");
            assert!(!emit(Event::new(
                EventKind::Misc,
                Severity::Info,
                "Test.Muted"
            )));
            // Another thread is NOT suppressed.
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!is_suppressed());
                    assert!(emit(Event::new(
                        EventKind::Misc,
                        Severity::Info,
                        "Test.Loud"
                    )));
                });
            });
        }
        assert!(!is_suppressed());
        assert_eq!(
            crate::counter!("Obs.Event.Suppressed").get() - suppressed_before,
            2
        );
        let got = drain(usize::MAX);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].code, "Test.Loud");
    }

    #[test]
    fn concurrent_producers_lose_nothing_under_capacity() {
        let _serial = BUS_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        drain(usize::MAX);
        let threads = 8usize;
        let per = 500usize; // 4000 << capacity
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per {
                        assert!(emit(
                            Event::new(EventKind::Misc, Severity::Info, "Test.Mpmc")
                                .with("t", t)
                                .with("i", i)
                        ));
                    }
                });
            }
        });
        let got = drain(usize::MAX);
        assert_eq!(got.len(), threads * per);
        // Every (t, i) pair arrived exactly once.
        let mut seen = std::collections::HashSet::new();
        for e in &got {
            let t = e.field("t").and_then(|v| v.as_u64()).unwrap();
            let i = e.field("i").and_then(|v| v.as_u64()).unwrap();
            assert!(seen.insert((t, i)));
        }
    }
}
