//! The exposition surface: Domino-console `show statistics` text.
//!
//! Domino administrators read the server through `show statistics` — an
//! alphabetized list of `Name = value` lines with hierarchical dotted
//! names (`Database.Database.BufferPool.PerCentReadsInBuffer`,
//! `Mail.Delivered`, …). [`show_statistics`] reproduces that surface over
//! the process-wide registry; histograms expand into `.Avg`, `.Max`,
//! `.P50`, `.P95`, `.P99`, `.Samples` sub-lines (themselves in sorted
//! order) so latency distributions read directly off the console, and
//! subsystem blocks are separated by a blank line. The whole dump is in
//! stable sorted order, so console diffs and CI greps are deterministic.

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::registry::{snapshot, MetricValue, Snapshot};
use crate::span::{slow_ops, slow_threshold, SLOW_LOG_CAPACITY};

/// The metric name's subsystem: everything before the first dot.
fn subsystem(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Render one snapshot in Domino console format (no header line): every
/// metric in sorted name order, one blank line between subsystem blocks,
/// histogram sub-lines sorted within the metric.
pub fn render_statistics(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_subsystem: Option<String> = None;
    for (name, v) in snap.iter() {
        let sub = subsystem(name);
        if let Some(prev) = &last_subsystem {
            if prev != sub {
                out.push('\n');
            }
        }
        last_subsystem = Some(sub.to_string());
        match v {
            MetricValue::Counter(c) => out.push_str(&format!("  {name} = {c}\n")),
            MetricValue::Gauge(g) => out.push_str(&format!("  {name} = {g}\n")),
            MetricValue::Histogram(h) => {
                // Sub-lines in sorted (alphabetical) order, matching the
                // surrounding dump: Avg < Max < P50 < P95 < P99 < Samples.
                out.push_str(&format!("  {name}.Avg = {}\n", h.mean()));
                out.push_str(&format!("  {name}.Max = {}\n", h.max));
                out.push_str(&format!("  {name}.P50 = {}\n", h.p50()));
                out.push_str(&format!("  {name}.P95 = {}\n", h.p95()));
                out.push_str(&format!("  {name}.P99 = {}\n", h.p99()));
                out.push_str(&format!("  {name}.Samples = {}\n", h.count));
            }
        }
    }
    out
}

/// Process start anchor: the monotonic instant and wall-clock Unix
/// seconds captured the first time anything asks.
fn start_anchor() -> &'static (Instant, u64) {
    static START: OnceLock<(Instant, u64)> = OnceLock::new();
    START.get_or_init(|| {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        (Instant::now(), unix)
    })
}

/// Refresh the `Server.Uptime` / `Server.StartTime` gauges from the
/// process-start anchor and return `(uptime_secs, start_unix_secs)`.
/// Called by [`show_statistics`]; call it early in `main` to pin the
/// anchor at actual process start.
pub fn touch_server_gauges() -> (u64, u64) {
    let (started, unix) = *start_anchor();
    let uptime = started.elapsed().as_secs();
    crate::gauge!("Server.Uptime").set(uptime as i64);
    crate::gauge!("Server.StartTime").set(unix as i64);
    (uptime, unix)
}

/// The `show statistics` console dump: a header carrying server uptime
/// and the tracing state (slow-op ring depth + threshold), every
/// registered metric in stable sorted order, and a trailing
/// slow-operation section when the slow-op log is non-empty.
pub fn show_statistics() -> String {
    let (uptime, start_unix) = touch_server_gauges();
    let slow = slow_ops();
    let mut out = String::from("> show statistics\n");
    out.push_str(&format!(
        "  [uptime {uptime}s · started {start_unix} (unix) · slow-op ring {}/{} · threshold {:?}]\n\n",
        slow.len(),
        SLOW_LOG_CAPACITY,
        slow_threshold(),
    ));
    out.push_str(&render_statistics(&snapshot()));
    if !slow.is_empty() {
        out.push_str("> show slowops\n");
        for op in slow {
            out.push_str(&format!("  [{:>12} ns]  {}\n", op.nanos, op.path));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{counter, histogram};

    #[test]
    fn console_format_lists_sorted_names() {
        counter("Test.Expo.Beta").add(2);
        counter("Test.Expo.Alpha").inc();
        histogram("Test.Expo.Lat").record(100);
        let text = show_statistics();
        assert!(text.starts_with("> show statistics\n"));
        let alpha = text.find("Test.Expo.Alpha = ").expect("alpha line");
        let beta = text.find("Test.Expo.Beta = ").expect("beta line");
        assert!(alpha < beta, "names must be alphabetized");
        assert!(text.contains("Test.Expo.Lat.P99 = "));
        assert!(text.contains("Test.Expo.Lat.Samples = "));
    }

    #[test]
    fn histogram_sublines_are_sorted_and_blocks_separated() {
        counter("Test.ExpoOrder.A").inc();
        histogram("Test.ExpoOrder.Lat").record(7);
        let text = render_statistics(&snapshot());
        // Sub-line order is itself alphabetical: Avg < Max < P50 < P95
        // < P99 < Samples — so the whole dump is one sorted sequence.
        let idx = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("{needle}"));
        let avg = idx("Test.ExpoOrder.Lat.Avg = ");
        let max = idx("Test.ExpoOrder.Lat.Max = ");
        let p50 = idx("Test.ExpoOrder.Lat.P50 = ");
        let p95 = idx("Test.ExpoOrder.Lat.P95 = ");
        let p99 = idx("Test.ExpoOrder.Lat.P99 = ");
        let samples = idx("Test.ExpoOrder.Lat.Samples = ");
        assert!(avg < max && max < p50 && p50 < p95 && p95 < p99 && p99 < samples);
        // Different subsystems are separated by exactly one blank line.
        assert!(text.contains("\n\n"), "expected a subsystem separator");
        // Every non-blank line keeps the `  Name = value` shape CI greps.
        for line in text.lines().filter(|l| !l.is_empty()) {
            assert!(
                line.starts_with("  ") && line.contains(" = "),
                "malformed line: {line:?}"
            );
        }
    }

    #[test]
    fn header_reports_uptime_and_slow_ring_depth() {
        let text = show_statistics();
        let header = text.lines().nth(1).expect("header line");
        assert!(header.contains("uptime "), "header: {header}");
        assert!(header.contains("slow-op ring "), "header: {header}");
        assert!(
            header.contains(&format!("/{SLOW_LOG_CAPACITY}")),
            "header: {header}"
        );
        // The gauges are registered and refreshed.
        let snap = snapshot();
        assert!(snap.get("Server.Uptime").is_some());
        assert!(snap.gauge("Server.StartTime") > 0);
        assert!(text.contains("  Server.Uptime = "));
    }
}
