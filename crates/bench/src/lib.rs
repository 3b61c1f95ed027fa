//! The experiment harness: workload generators, measurement helpers, and
//! one module per experiment (E1–E13) regenerating the tables and figures
//! catalogued in DESIGN.md §4 and recorded in EXPERIMENTS.md.
//!
//! The `report` binary drives everything:
//!
//! ```text
//! cargo run -p domino-bench --release --bin report -- all
//! cargo run -p domino-bench --release --bin report -- e3 e5 --quick
//! ```

pub mod experiments;
pub mod table;
pub mod workload;

pub use table::Table;

/// One registered experiment: id + entry point.
pub type Experiment = (&'static str, fn(Scale) -> Table);

/// Experiment scale: `--quick` shrinks datasets so the whole suite runs in
/// seconds; full scale is what EXPERIMENTS.md records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Pick a size by scale.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Every experiment, in id order.
pub fn all_experiments(scale: Scale) -> Vec<Experiment> {
    let _ = scale;
    vec![
        (
            "e2",
            experiments::e2_wal_recovery::run as fn(Scale) -> Table,
        ),
        ("e3", experiments::e3_view_maintenance::run),
        ("e4", experiments::e4_view_read::run),
        ("e5", experiments::e5_repl_bandwidth::run),
        ("e6", experiments::e6_convergence::run),
        ("e7", experiments::e7_conflicts::run),
        ("e8", experiments::e8_stub_purge::run),
        ("e9", experiments::e9_fulltext::run),
        ("e10", experiments::e10_formula::run),
        ("e11", experiments::e11_security::run),
        ("e12", experiments::e12_cluster::run),
        ("e13", experiments::e13_mail::run),
        ("e14", experiments::e14_loss_convergence::run),
        ("e15", experiments::e15_http::run),
        ("e16", experiments::e16_concurrency::run),
        ("e17", experiments::e17_negotiation::run),
        ("e18", experiments::e18_sockets::run),
        ("a1", experiments::a1_buffer_pool::run),
        ("a2", experiments::a2_lineage::run),
        ("a3", experiments::a3_checkpoint::run),
    ]
}
