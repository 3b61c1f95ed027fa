//! Mail routing: the groupware workload.
//!
//! Notes mail is "just documents plus routing": a memo is an ordinary
//! document deposited in the sender's server's `mail.box`; the router
//! forwards it hop-by-hop along the topology to the recipient's home
//! server, where it lands in the recipient's mail database. Each hop costs
//! link latency + transfer time, which is what E13 measures across
//! topologies.

use std::sync::OnceLock;

use domino_core::Note;
use domino_obs as obs;
use domino_types::{Clock, DominoError, ReplicaId, Result, Unid, Value};

use crate::sim::Network;

/// Registry handles for router telemetry. `Mail.Delivery.Ticks` records
/// per-message end-to-end latency in simulated clock ticks.
struct Metrics {
    sent: &'static obs::Counter,
    forwarded: &'static obs::Counter,
    delivered: &'static obs::Counter,
    dead_lettered: &'static obs::Counter,
    delivery_ticks: &'static obs::Histogram,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        sent: obs::counter("Mail.Sent"),
        forwarded: obs::counter("Mail.Forwarded"),
        delivered: obs::counter("Mail.Delivered"),
        dead_lettered: obs::counter("Mail.DeadLettered"),
        delivery_ticks: obs::histogram("Mail.Delivery.Ticks"),
    })
}

/// Database name of a server's router queue.
pub const MAILBOX: &str = "mail.box";

fn mail_file(user: &str) -> String {
    format!("mail.{user}")
}

/// A registered mail user.
#[derive(Debug, Clone)]
pub struct MailUser {
    /// Short name the router addresses messages by.
    pub name: String,
    /// Index of the server holding this user's mail file.
    pub home_server: usize,
}

/// Router statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailStats {
    /// Messages accepted into an originating mail.box.
    pub sent: u64,
    /// Hop-by-hop forwards between mail.boxes.
    pub forwarded: u64,
    /// Messages placed in a recipient's mail file.
    pub delivered: u64,
    /// Messages discarded as unroutable.
    pub dead_lettered: u64,
    /// Sum of delivery latencies in ticks (divide by delivered for mean).
    pub total_latency: u64,
    /// Slowest single delivery in ticks.
    pub max_latency: u64,
}

/// The mail router spanning all servers of a network.
pub struct MailRouter {
    users: Vec<MailUser>,
    stats: MailStats,
    next_lineage: u64,
}

impl MailRouter {
    /// Create `mail.box` queues on every server and a mail file on each
    /// user's home server.
    pub fn setup(net: &mut Network, users: &[MailUser]) -> Result<MailRouter> {
        for i in 0..net.len() {
            // Each mail.box is standalone (its own lineage); router
            // movement, not replication, carries the messages.
            let lineage = ReplicaId(0xABCD_0000 + i as u64);
            net.create_replica_on(i, MAILBOX, lineage)?;
        }
        for (k, u) in users.iter().enumerate() {
            if u.home_server >= net.len() {
                return Err(DominoError::InvalidArgument(format!(
                    "user {} on nonexistent server {}",
                    u.name, u.home_server
                )));
            }
            let lineage = ReplicaId(0xFEED_0000 + k as u64);
            net.create_replica_on(u.home_server, &mail_file(&u.name), lineage)?;
        }
        Ok(MailRouter {
            users: users.to_vec(),
            stats: MailStats::default(),
            next_lineage: 0,
        })
    }

    /// Cumulative router statistics.
    pub fn stats(&self) -> MailStats {
        self.stats
    }

    fn user(&self, name: &str) -> Option<&MailUser> {
        self.users
            .iter()
            .find(|u| u.name.eq_ignore_ascii_case(name))
    }

    /// Deposit a memo into `from_server`'s mail.box.
    pub fn send(
        &mut self,
        net: &Network,
        from_server: usize,
        from: &str,
        to: &str,
        subject: &str,
        body: &str,
    ) -> Result<Unid> {
        let recipient = self
            .user(to)
            .ok_or_else(|| DominoError::NotFound(format!("no mail user {to:?}")))?;
        let now = net.clock().peek().0;
        let mut memo = Note::document("Memo");
        memo.set("From", Value::text(from));
        memo.set("SendTo", Value::text(&recipient.name));
        memo.set("DestServer", Value::Number(recipient.home_server as f64));
        memo.set("Subject", Value::text(subject));
        memo.set_body("Body", Value::text(body));
        memo.set("SentAt", Value::Number(now as f64));
        memo.set("ReadyAt", Value::Number(now as f64));
        memo.set("Hops", Value::Number(0.0));
        net.db(from_server, MAILBOX)?.save(&mut memo)?;
        self.stats.sent += 1;
        m().sent.inc();
        Ok(memo.unid())
    }

    /// Run one routing pass over every server: deliver local mail, forward
    /// remote mail one hop. Returns how many messages were delivered.
    pub fn step(&mut self, net: &mut Network) -> Result<u64> {
        let routes = net.routes();
        let now = net.clock().peek().0;
        let mut delivered = 0u64;
        #[allow(clippy::needless_range_loop)]
        for server in 0..net.len() {
            let mailbox = net.db(server, MAILBOX)?;
            // One state of the mailbox per pass.
            for memo in mailbox.snapshot().documents() {
                let id = memo.id;
                let ready = memo
                    .get("ReadyAt")
                    .and_then(|v| v.as_number().ok())
                    .unwrap_or(0.0) as u64;
                if ready > now {
                    continue; // still in transit
                }
                let dest = memo
                    .get("DestServer")
                    .and_then(|v| v.as_number().ok())
                    .unwrap_or(-1.0) as i64;
                if dest == server as i64 {
                    self.deliver(net, server, &memo, now)?;
                    mailbox.delete(id)?;
                    delivered += 1;
                } else {
                    let next = if dest >= 0 && (dest as usize) < net.len() {
                        routes[server][dest as usize]
                    } else {
                        None
                    };
                    let Some(next) = next else {
                        // Unroutable: the destination does not exist.
                        self.stats.dead_lettered += 1;
                        m().dead_lettered.inc();
                        obs::emit(
                            obs::Event::new(
                                obs::EventKind::Misc,
                                obs::Severity::Warning,
                                "Mail.DeadLettered",
                            )
                            .at(now)
                            .with("to", memo.get_text("SendTo").unwrap_or_default())
                            .with("dest_server", dest)
                            .with("at_server", server),
                        );
                        mailbox.delete(id)?;
                        continue;
                    };
                    if !net.is_link_up(server, next) {
                        // The next hop is partitioned off: the message
                        // waits in mail.box and retries next pass (Domino
                        // holds undeliverable mail the same way).
                        continue;
                    }
                    if !net.mail_hop_ready(server, next) {
                        // Outage at either end or the message was dropped
                        // in flight: same hold-and-retry treatment.
                        continue;
                    }
                    self.forward(net, server, next, &memo, now)?;
                    mailbox.delete(id)?;
                }
            }
        }
        Ok(delivered)
    }

    fn forward(
        &mut self,
        net: &mut Network,
        from: usize,
        to: usize,
        memo: &Note,
        now: u64,
    ) -> Result<()> {
        let bytes = memo.byte_size() as u64;
        let transfer = net.account_bytes(from, to, bytes);
        let hops = memo
            .get("Hops")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0);
        let mut copy = Note::document("Memo");
        for it in memo.items() {
            if !it.is_system() {
                copy.set_item(it.clone());
            }
        }
        copy.set("Hops", Value::Number(hops + 1.0));
        copy.set("ReadyAt", Value::Number((now + transfer) as f64));
        net.db(to, MAILBOX)?.save(&mut copy)?;
        self.stats.forwarded += 1;
        m().forwarded.inc();
        Ok(())
    }

    fn deliver(&mut self, net: &Network, server: usize, memo: &Note, now: u64) -> Result<()> {
        let recipient = memo.get_text("SendTo").unwrap_or_default();
        let file = mail_file(&recipient);
        let inbox = net.db(server, &file)?;
        let mut letter = Note::document("Memo");
        for it in memo.items() {
            if !it.is_system() && !["ReadyAt", "Hops", "DestServer"].contains(&it.name.as_str()) {
                letter.set_item(it.clone());
            }
        }
        letter.set("DeliveredAt", Value::Number(now as f64));
        inbox.save(&mut letter)?;
        let sent = memo
            .get("SentAt")
            .and_then(|v| v.as_number().ok())
            .unwrap_or(0.0) as u64;
        let latency = now.saturating_sub(sent);
        self.stats.delivered += 1;
        self.stats.total_latency += latency;
        self.stats.max_latency = self.stats.max_latency.max(latency);
        let reg = m();
        reg.delivered.inc();
        reg.delivery_ticks.record(latency);
        obs::emit(
            obs::Event::new(obs::EventKind::Misc, obs::Severity::Info, "Mail.Delivered")
                .at(now)
                .with("to", recipient)
                .with(
                    "hops",
                    memo.get("Hops")
                        .and_then(|v| v.as_number().ok())
                        .unwrap_or(0.0) as u64,
                )
                .with("latency_ticks", latency),
        );
        Ok(())
    }

    /// Step (advancing one tick each pass) until all sent mail is
    /// delivered or `max_steps` elapse. Returns ticks taken.
    pub fn run_until_delivered(&mut self, net: &mut Network, max_steps: u64) -> Result<u64> {
        let start = net.clock().peek().0;
        for _ in 0..max_steps {
            self.step(net)?;
            if self.stats.delivered + self.stats.dead_lettered >= self.stats.sent {
                return Ok(net.clock().peek().0 - start);
            }
            net.clock().advance(1);
        }
        Err(DominoError::Replication(format!(
            "{} of {} messages still undelivered after {max_steps} steps",
            self.stats.sent - self.stats.delivered - self.stats.dead_lettered,
            self.stats.sent
        )))
    }

    /// Inbox contents for a user (subjects, in arrival order).
    pub fn inbox(&mut self, net: &Network, user: &str) -> Result<Vec<String>> {
        let u = self
            .user(user)
            .ok_or_else(|| DominoError::NotFound(format!("no mail user {user:?}")))?
            .clone();
        let db = net.db(u.home_server, &mail_file(&u.name))?;
        Ok(db
            .snapshot()
            .document_summaries()
            .iter()
            .map(|memo| memo.get_text("Subject").unwrap_or_default())
            .collect())
    }

    /// Reserve a fresh lineage id (unused helper kept for extensions).
    #[allow(dead_code)]
    fn fresh_lineage(&mut self) -> ReplicaId {
        self.next_lineage += 1;
        ReplicaId(0xBEEF_0000 + self.next_lineage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::LinkSpec;
    use crate::topology::Topology;
    use domino_types::LogicalClock;

    fn users() -> Vec<MailUser> {
        vec![
            MailUser {
                name: "alice".into(),
                home_server: 0,
            },
            MailUser {
                name: "bob".into(),
                home_server: 2,
            },
        ]
    }

    fn net(topology: Topology) -> Network {
        Network::new(
            3,
            topology,
            LinkSpec {
                latency: 2,
                bytes_per_tick: 0,
                ..LinkSpec::default()
            },
            LogicalClock::new(),
        )
    }

    #[test]
    fn local_delivery_same_server() {
        let mut n = net(Topology::Mesh);
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        router
            .send(&n, 0, "bob", "alice", "hi alice", "body")
            .unwrap();
        router.run_until_delivered(&mut n, 100).unwrap();
        assert_eq!(router.inbox(&n, "alice").unwrap(), vec!["hi alice"]);
        assert_eq!(router.stats().forwarded, 0);
    }

    #[test]
    fn cross_server_mail_routes_over_chain() {
        let mut n = net(Topology::Chain); // 0-1-2
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        router
            .send(&n, 0, "alice", "bob", "hello bob", "body")
            .unwrap();
        router.run_until_delivered(&mut n, 200).unwrap();
        assert_eq!(router.inbox(&n, "bob").unwrap(), vec!["hello bob"]);
        let s = router.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.forwarded, 2, "two hops: 0→1, 1→2");
        assert!(s.total_latency >= 4, "two hops x latency 2");
    }

    #[test]
    fn mesh_delivers_faster_than_chain() {
        let run = |topology| {
            let mut n = net(topology);
            let mut router = MailRouter::setup(&mut n, &users()).unwrap();
            router.send(&n, 0, "alice", "bob", "s", "b").unwrap();
            router.run_until_delivered(&mut n, 500).unwrap();
            router.stats().total_latency
        };
        assert!(run(Topology::Mesh) < run(Topology::Chain));
    }

    #[test]
    fn unknown_recipient_rejected() {
        let mut n = net(Topology::Mesh);
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        assert!(router.send(&n, 0, "alice", "nobody", "s", "b").is_err());
    }

    #[test]
    fn mail_waits_out_a_partition() {
        let mut n = net(Topology::Chain); // 0-1-2
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        n.partition(1, 2);
        router.send(&n, 0, "alice", "bob", "delayed", "b").unwrap();
        // Several passes: the message reaches server 1 and waits there.
        for _ in 0..10 {
            router.step(&mut n).unwrap();
            n.clock().advance(1);
        }
        assert_eq!(router.stats().delivered, 0);
        assert_eq!(router.stats().dead_lettered, 0, "held, not dropped");
        n.heal(1, 2);
        router.run_until_delivered(&mut n, 100).unwrap();
        assert_eq!(router.inbox(&n, "bob").unwrap(), vec!["delayed"]);
    }

    #[test]
    fn many_messages_all_arrive() {
        let mut n = net(Topology::HubSpoke);
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        for i in 0..20 {
            let (from_server, from, to) = if i % 2 == 0 {
                (0, "alice", "bob")
            } else {
                (2, "bob", "alice")
            };
            router
                .send(&n, from_server, from, to, &format!("m{i}"), "b")
                .unwrap();
        }
        router.run_until_delivered(&mut n, 1000).unwrap();
        assert_eq!(router.stats().delivered, 20);
        assert_eq!(router.inbox(&n, "alice").unwrap().len(), 10);
        assert_eq!(router.inbox(&n, "bob").unwrap().len(), 10);
    }
}
