//! A deterministic multi-server Domino deployment, in one process.
//!
//! Real Domino evaluations need racks of servers; this crate substitutes a
//! discrete-time simulation (DESIGN.md §2): a [`Network`] of servers
//! connected by a [`Topology`] with per-link latency/bandwidth, hosting
//! database replica sets, scheduled replication, agent managers, cluster
//! replication, and the mail router ([`MailRouter`]). Time is a shared
//! logical clock, and timed work — replication passes and agent-manager
//! ticks — is `domino_obs::Task`s on one timeline that [`Network::step`]
//! fires in due-tick, then registration, order, so every run is
//! reproducible tick-for-tick from its fault seed.
//!
//! Links can be made unreliable — and replication still converges, which
//! is the paper's central operational claim:
//!
//! ```
//! use domino_net::{LinkSpec, Network, Topology};
//! use domino_replica::RetryPolicy;
//! use domino_types::LogicalClock;
//!
//! // Two servers joined by a link that loses 20% of messages.
//! let lossy = LinkSpec::default().with_drop_rate(0.20);
//! let mut net = Network::new(2, Topology::Mesh, lossy, LogicalClock::new());
//! net.set_fault_seed(7);                       // reproducible faults
//! net.set_retry_policy(RetryPolicy::standard()); // ride out the drops
//! net.create_replica_set("disc").unwrap();
//!
//! // 40 documents authored on server 0 ...
//! for i in 0..40 {
//!     let mut n = domino_core::Note::document("Memo");
//!     n.set("Subject", domino_types::Value::text(format!("memo {i}")));
//!     net.db(0, "disc").unwrap().save(&mut n).unwrap();
//! }
//!
//! // ... still reach server 1, despite the drops (retry + resume cursors).
//! let rounds = net.run_until_converged("disc", 50).unwrap();
//! assert!(rounds >= 1);
//! assert!(net.converged("disc").unwrap());
//! ```

#![deny(missing_docs)]

pub mod mail;
pub mod sim;
pub mod topology;

pub use mail::{MailRouter, MailUser, MAILBOX};
pub use sim::{LinkFaults, LinkSpec, LinkTraffic, Network, Server};
pub use topology::{all_pairs_next_hop, Topology};

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::Note;
    use domino_replica::{Cluster, ReplicationOptions};
    use domino_types::{Clock, LogicalClock, Value};

    /// End-to-end: a discussion database converges across a hub-spoke
    /// network while mail flows over the same links.
    #[test]
    fn groupware_deployment_smoke() {
        let clock = LogicalClock::new();
        let mut net = Network::new(4, Topology::HubSpoke, LinkSpec::default(), clock);
        net.create_replica_set("disc").unwrap();
        net.schedule_replication("disc", 50, ReplicationOptions::default());
        let mut router = MailRouter::setup(
            &mut net,
            &[
                MailUser {
                    name: "ann".into(),
                    home_server: 1,
                },
                MailUser {
                    name: "bea".into(),
                    home_server: 3,
                },
            ],
        )
        .unwrap();

        // Post a topic on spoke 1; mail bea about it.
        let db1 = net.db(1, "disc").unwrap();
        let mut topic = Note::document("Topic");
        topic.set("Subject", Value::text("launch plan"));
        db1.save(&mut topic).unwrap();
        router
            .send(&net, 1, "ann", "bea", "see the launch plan", "in disc")
            .unwrap();

        // Let scheduled replication fire a few times and route mail.
        for _ in 0..5 {
            net.step(50).unwrap();
            router.step(&mut net).unwrap();
        }
        router.run_until_delivered(&mut net, 100).unwrap();

        assert!(net.converged("disc").unwrap());
        assert_eq!(
            router.inbox(&net, "bea").unwrap(),
            vec!["see the launch plan"]
        );
        assert!(net.total_traffic().bytes > 0);
    }

    /// Cluster failover: event-driven push keeps a mate current; scheduled
    /// replication lags by up to its interval.
    #[test]
    fn cluster_vs_scheduled_staleness() {
        let clock = LogicalClock::new();
        let mut net = Network::new(3, Topology::Mesh, LinkSpec::default(), clock.clone());
        net.create_replica_set("app").unwrap();
        // Servers 0+1 form a cluster; server 2 relies on scheduled
        // replication every 500 ticks.
        let members = [net.db(0, "app").unwrap(), net.db(1, "app").unwrap()];
        let _cluster = Cluster::join(&members).unwrap();
        net.schedule_replication("app", 500, ReplicationOptions::default());

        let mut doc = Note::document("Order");
        doc.set("Total", Value::Number(42.0));
        net.db(0, "app").unwrap().save(&mut doc).unwrap();

        // Immediately after the save: cluster mate has it, spoke does not.
        assert!(net.db(1, "app").unwrap().open_by_unid(doc.unid()).is_ok());
        assert!(net.db(2, "app").unwrap().open_by_unid(doc.unid()).is_err());
        let before = clock.peek().0;
        net.step(600).unwrap();
        assert!(net.db(2, "app").unwrap().open_by_unid(doc.unid()).is_ok());
        assert!(clock.peek().0 - before >= 500, "scheduled lag is real time");
    }
}
