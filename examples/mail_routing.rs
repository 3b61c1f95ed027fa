//! Mail routing across server topologies.
//!
//! Notes mail is "just documents + routing": the router moves memo
//! documents hop-by-hop between servers' `mail.box` databases. This
//! example routes the same message load over three topologies and prints
//! delivered latency and link traffic.
//!
//! Run with: `cargo run --example mail_routing`

use domino::net::{LinkSpec, MailRouter, MailUser, Network, Topology};
use domino::types::LogicalClock;

fn main() -> domino::types::Result<()> {
    println!(
        "{:<12} {:>9} {:>8} {:>10} {:>12} {:>12}",
        "topology", "delivered", "hops", "mean lat", "max lat", "link bytes"
    );
    for topology in [Topology::Mesh, Topology::HubSpoke, Topology::Chain] {
        let mut net = Network::new(
            6,
            topology,
            LinkSpec {
                latency: 3,
                bytes_per_tick: 256,
                ..LinkSpec::default()
            },
            LogicalClock::new(),
        );
        let users: Vec<MailUser> = (0..6)
            .map(|i| MailUser {
                name: format!("user{i}"),
                home_server: i,
            })
            .collect();
        let mut router = MailRouter::setup(&mut net, &users)?;

        // Every user mails every other user once.
        let mut sent = 0;
        for from in 0..6usize {
            for to in 0..6usize {
                if from != to {
                    router.send(
                        &net,
                        from,
                        &format!("user{from}"),
                        &format!("user{to}"),
                        &format!("memo {from}->{to}"),
                        "Lorem ipsum dolor sit amet, consectetur adipiscing elit.",
                    )?;
                    sent += 1;
                }
            }
        }
        router.run_until_delivered(&mut net, 10_000)?;
        // Mail is the only traffic here: one transfer per hop.
        let (latencies, traffic) = (router.latencies(&net)?, net.total_traffic());
        assert_eq!(latencies.len(), 30);
        println!(
            "{:<12} {:>9} {:>8} {:>10.1} {:>12} {:>12}",
            topology.name(),
            format!("{}/{sent}", latencies.len()),
            traffic.transfers,
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64,
            latencies.iter().max().unwrap_or(&0),
            traffic.bytes,
        );
    }
    println!("\n(mesh: direct links, lowest latency; chain: most forwarding hops)");
    Ok(())
}
