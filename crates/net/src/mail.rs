//! Mail routing: the groupware workload.
//!
//! Notes mail is "just documents plus routing": a memo is an ordinary
//! document deposited in the sender's server's `mail.box`; the router
//! forwards it hop-by-hop along the topology to the recipient's home
//! server, where it lands in the recipient's mail database. Each hop costs
//! link latency + transfer time, which is what E13 measures across
//! topologies.

use domino_core::Note;
use domino_obs as obs;
use domino_types::{Clock, DominoError, ReplicaId, Result, Unid, Value};

use crate::sim::Network;

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

/// The mail router spanning all servers of a network.
pub struct MailRouter {
    users: Vec<MailUser>,
    /// Messages sent and neither delivered nor dead-lettered yet.
    in_flight: u64,
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
            in_flight: 0,
        })
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
        self.in_flight += 1;
        obs::counter!("Mail.Sent").inc();
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
                        self.in_flight = self.in_flight.saturating_sub(1);
                        obs::counter!("Mail.DeadLettered").inc();
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
        obs::counter!("Mail.Forwarded").inc();
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
        self.in_flight = self.in_flight.saturating_sub(1);
        obs::counter!("Mail.Delivered").inc();
        // End-to-end latency in simulated clock ticks.
        obs::histogram!("Mail.Delivery.Ticks").record(latency);
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

    /// Route, then [`Network::step`] one tick (so scheduled passes that
    /// fall due while mail routes fire), until all sent mail is delivered
    /// or `max_steps` elapse. Returns ticks taken.
    pub fn run_until_delivered(&mut self, net: &mut Network, max_steps: u64) -> Result<u64> {
        let start = net.clock().peek().0;
        for _ in 0..max_steps {
            self.step(net)?;
            if self.in_flight == 0 {
                return Ok(net.clock().peek().0 - start);
            }
            net.step(1)?;
        }
        Err(DominoError::Replication(format!(
            "{} messages still undelivered after {max_steps} steps",
            self.in_flight
        )))
    }

    /// The delivery latency of every memo in every user's mail file, in
    /// ticks: its `DeliveredAt` less its `SentAt`.
    pub fn latencies(&self, net: &Network) -> Result<Vec<u64>> {
        let tick = |memo: &Note, item| memo.get(item).and_then(|v| v.as_number().ok());
        let mut out = Vec::new();
        for u in &self.users {
            let db = net.db(u.home_server, &mail_file(&u.name))?;
            for memo in db.snapshot().document_summaries() {
                let (sent, delivered) = (tick(&memo, "SentAt"), tick(&memo, "DeliveredAt"));
                out.extend(sent.zip(delivered).map(|(s, d)| (d - s) as u64));
            }
        }
        Ok(out)
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
        assert_eq!(n.total_traffic().transfers, 0, "no hop");
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
        assert_eq!(n.total_traffic().transfers, 2, "two hops: 0→1, 1→2");
        let latencies = router.latencies(&n).unwrap();
        assert_eq!(latencies.len(), 1);
        assert!(latencies[0] >= 4, "two hops x latency 2");
    }

    #[test]
    fn mesh_delivers_faster_than_chain() {
        let run = |topology| {
            let mut n = net(topology);
            let mut router = MailRouter::setup(&mut n, &users()).unwrap();
            router.send(&n, 0, "alice", "bob", "s", "b").unwrap();
            router.run_until_delivered(&mut n, 500).unwrap();
            router.latencies(&n).unwrap()
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
        assert!(router.latencies(&n).unwrap().is_empty());
        let held = n.db(1, MAILBOX).unwrap().document_count().unwrap();
        assert_eq!(held, 1, "held, not dropped");
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
        assert_eq!(router.latencies(&n).unwrap().len(), 20);
        assert_eq!(router.inbox(&n, "alice").unwrap().len(), 10);
        assert_eq!(router.inbox(&n, "bob").unwrap().len(), 10);
    }

    #[test]
    fn scheduled_passes_fire_while_mail_routes() {
        let mut n = Network::new(
            3,
            Topology::Chain,
            LinkSpec {
                latency: 5,
                ..LinkSpec::default()
            },
            LogicalClock::new(),
        );
        n.create_replica_set("d").unwrap();
        n.schedule_replication("d", 10, domino_replica::ReplicationOptions::default());
        let mut router = MailRouter::setup(&mut n, &users()).unwrap();
        router.send(&n, 0, "alice", "bob", "memo", "b").unwrap();
        let mut doc = Note::document("Memo");
        n.db(0, "d").unwrap().save(&mut doc).unwrap();
        let took = router.run_until_delivered(&mut n, 100).unwrap();
        assert!(took >= 10, "two hops of latency 5 took {took} ticks");
        assert!(n.converged("d").unwrap(), "the passes due at tick 10 fired");
    }
}
