//! One module per experiment. Each exposes `run(scale) -> Table`.

pub mod a1_buffer_pool;
pub mod a2_lineage;
pub mod a3_checkpoint;
pub mod e10_formula;
pub mod e11_security;
pub mod e12_cluster;
pub mod e13_mail;
pub mod e14_loss_convergence;
pub mod e15_http;
pub mod e16_concurrency;
pub mod e17_negotiation;
pub mod e18_sockets;
pub mod e2_wal_recovery;
pub mod e3_view_maintenance;
pub mod e4_view_read;
pub mod e5_repl_bandwidth;
pub mod e6_convergence;
pub mod e7_conflicts;
pub mod e8_stub_purge;
pub mod e9_fulltext;
