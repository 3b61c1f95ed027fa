//! The benchmark's own span recorder and the outside-in layer budget.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! each layer's public functions; nothing inside the program changes.
//! Nesting therefore cannot be observed directly: it is reconstructed by
//! running equal-mix parts of the op list at successive depths (over the
//! socket, through `DominoServer::serve`, through `DominoServer::handle`)
//! and by timing leaf functions on the same inputs. A depth's self time
//! is its median minus the medians it encloses, and what no probe
//! explains is the budget's `unaccounted_us` row.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats;

/// One recorded interval. `parent` is the index of the enclosing span in
/// the written file (-1 for a root); spans of one operation share `op_id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub op_id: u64,
}

/// In-memory span store, written out once when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adopt spans a worker thread collected.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Time `f` as a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: -1,
            op_id,
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sorted durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .collect(),
        )
    }

    /// Median duration of spans named `name` in µs (0 when none ran).
    pub fn p50_us(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            stats::p50_us(&d)
        }
    }

    /// Write `out/<workload>.trace.json` under the benchmark directory.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.trace.json"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()?;
        Ok(path)
    }
}

/// A layer budget: the end-to-end median split into the rows that outside
/// measurement can explain, ending in `unaccounted_us`.
pub struct Budget {
    title: String,
    total_us: f64,
    rows: Vec<(String, f64)>,
}

impl Budget {
    pub fn new(title: &str, total_us: f64) -> Budget {
        Budget {
            title: title.to_string(),
            total_us,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, label: &str, us: f64) -> &mut Budget {
        self.rows.push((label.to_string(), us));
        self
    }

    /// What the rows leave unexplained (negative when probes overlap).
    pub fn unaccounted_us(&self) -> f64 {
        self.total_us - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// One printable line per row, total first and `unaccounted_us` last.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!("{} total_us {:.2}", self.title, self.total_us)];
        for (label, us) in &self.rows {
            out.push(format!("{} {label} {us:.2}", self.title));
        }
        out.push(format!(
            "{} unaccounted_us {:.2}",
            self.title,
            self.unaccounted_us()
        ));
        out
    }
}

/// Median µs per call of `f` over `iters` calls, each timed on its own
/// and recorded as a span (so the trace file holds the probe's samples).
pub fn probe(
    rec: &mut Recorder,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    for i in 0..iters {
        rec.time(name, i as u64, || f(i));
    }
    rec.p50_us(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_ends_in_unaccounted() {
        let mut b = Budget::new("t", 100.0);
        b.row("a", 30.0).row("b", 45.5);
        assert!((b.unaccounted_us() - 24.5).abs() < 1e-9);
        let lines = b.lines();
        assert!(lines.first().unwrap().contains("total_us"));
        assert!(lines.last().unwrap().contains("unaccounted_us 24.50"));
    }

    #[test]
    fn recorder_medians_by_name() {
        let mut r = Recorder::new(Instant::now());
        for i in 0..5 {
            r.time("x", i, || std::hint::black_box(i));
        }
        assert_eq!(r.durations("x").len(), 5);
        assert_eq!(r.durations("y").len(), 0);
        assert_eq!(r.p50_us("y"), 0.0);
    }
}
