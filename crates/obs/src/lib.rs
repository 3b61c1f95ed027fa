//! # domino-obs — the unified telemetry layer
//!
//! One measurement substrate for the whole workspace, reproducing the
//! operational surface Mohan's tutorial leans on: Domino's
//! `show statistics` console, per-database activity counters, and the
//! slow-transaction log.
//!
//! Five pieces:
//!
//! * **Metrics registry** ([`counter!`], [`gauge!`], [`histogram!`]) —
//!   process-wide metrics under hierarchical Domino-style dotted names
//!   (`Database.Pool.Hits`, `Log.Flush.Nanos`, `View.Rebuild.Millis`,
//!   `Replica.Pass.NotesPushed`), named where they are recorded. Each
//!   call site takes the registry lock *once*; after that an increment
//!   or histogram sample on a hot path is one acquire load plus a
//!   relaxed atomic, and acquires no lock and allocates nothing.
//! * **Tracing spans** ([`span!`], [`SpanGuard`]) — named timing scopes
//!   with a per-thread span stack and a fixed-size slow-op ring buffer:
//!   any operation over the configurable threshold
//!   ([`set_slow_threshold`]) is captured with its full span path.
//! * **Exposition** ([`show_statistics`], [`snapshot`],
//!   [`Snapshot::diff`]) — the Domino console text dump plus a
//!   machine-readable snapshot/diff API so the bench harness records
//!   metric deltas per experiment.
//! * **Event bus** ([`emit`], [`drain`], [`Event`]) — a bounded
//!   lock-free ring of structured events (kind, severity, code, typed
//!   fields) that the `log.nsf` logger task drains; emission never
//!   blocks a hot path (overflow counts into `Obs.Event.Dropped`), and
//!   the drainer's [`suppress`] guard keeps the log from logging itself.
//! * **Server tasks** ([`Task`], [`show_tasks`]) — the one runtime for
//!   periodic and long-lived background work (checkpointer, amgr, logger,
//!   socket listeners, the simulator's replication passes and agent runs):
//!   each is listed and heart-beats here while it runs, reproducing the
//!   Domino `show tasks` console, and stops at once. A periodic task
//!   ticks on the wall clock or on a logical [`Timeline`].
//!
//! ## Naming convention
//!
//! `Subsystem.Object.Event` in UpperCamelCase segments, as on a Domino
//! console: counters name events in the plural (`…​.Hits`, `…​.Flushes`),
//! gauges name levels (`…​.Entries`), histograms name a quantity with its
//! unit as the last segment (`…​.Millis`, `…​.Micros`, `…​.Nanos`) and
//! expand to `.Samples`/`.Avg`/`.Max`/`.P50`/`.P95`/`.P99` lines in the
//! console dump.
//!
//! ## Recording a metric
//!
//! Name the metric where it is recorded. The macro caches the handle in
//! a `static` at its call site, so there is no per-crate struct of
//! handles to keep in step with the code:
//!
//! ```
//! use domino_obs as obs;
//!
//! fn save() {
//!     let _span = obs::span!("Example.Save");
//!     let _time = obs::histogram!("Example.Save.Nanos").time();
//!     obs::counter!("Example.Notes.Saved").inc();
//! }
//!
//! save();
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("Example.Notes.Saved"), 1);
//! assert_eq!(snap.histogram("Example.Save.Nanos").count, 1);
//! ```
//!
//! A metric is registered the first time it is recorded, so a name that
//! has seen no event is absent from [`snapshot`] and `show statistics`;
//! [`Snapshot::counter`] and its siblings read an absent name as zero.
//! The [`counter()`], [`gauge()`] and [`histogram()`] functions intern a
//! name under the registry lock on every call: tests and examples read
//! values through them.

#![deny(missing_docs)]

pub mod event;
mod expo;
mod hist;
mod registry;
mod span;
pub mod task;

pub use event::{
    drain, emit, is_suppressed, pending, process_nanos, suppress, Event, EventKind, FieldValue,
    Severity, SuppressGuard, EVENT_RING_CAPACITY,
};
pub use expo::{render_statistics, show_statistics, touch_server_gauges};
pub use hist::{HistTimer, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Metric, MetricValue, Snapshot,
};
pub use span::{
    enter, set_slow_threshold, slow_ops, slow_threshold, take_slow_ops, SlowOp, SpanGuard,
    SLOW_LOG_CAPACITY,
};
pub use task::{show_tasks, tasks, Cadence, Task, TaskHandle, TaskInfo, Timeline};
