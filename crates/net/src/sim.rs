//! The multi-server simulation.
//!
//! A [`Network`] hosts N servers, each holding replicas of named
//! databases, connected by a [`Topology`] with per-link latency and
//! bandwidth. Time is the shared [`LogicalClock`]. Scheduled replication
//! passes and agent-manager ticks are `domino_obs::Task`s on one
//! [`Timeline`](obs::Timeline): `step()` advances the clock to each due
//! tick and fires it, ordered by due tick and then by registration. Link
//! traffic (bytes, messages, transfer ticks) is accounted per link so the
//! experiments can report bandwidth and latency figures.
//!
//! This is the substitution for a real multi-server Domino deployment
//! (DESIGN.md §2): topology, scheduling, message counts, and byte volumes
//! are faithfully modelled; wire protocol framing is not.
//!
//! Links need not be reliable: a [`LinkSpec`] can declare a per-message
//! drop rate and a flap rate, servers can have scheduled
//! outage windows, and a [`RetryPolicy`] tells the
//! scheduler how hard to lean on a flaky link. All fault decisions come
//! from one seeded [`FaultPlan`], so a faulty run is
//! exactly as reproducible as a clean one.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use domino_core::revision::{merkle_head, stub_head};
use domino_core::{AgentScheduler, Database, DbConfig};
use domino_obs as obs;
use domino_replica::{
    CleanTransport, ReplicationOptions, ReplicationReport, Replicator, RetryPolicy,
};
use domino_types::{
    Clock, DominoError, FaultPlan, Faulty, LogicalClock, ReplicaId, Result, Timestamp,
};
use parking_lot::Mutex;

use crate::topology::{all_pairs_next_hop, Topology};

/// A link's physical characteristics — including how unreliable it is.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Fixed per-transfer latency in ticks.
    pub latency: u64,
    /// Bytes transferred per tick (0 = infinite).
    pub bytes_per_tick: u64,
    /// Probability each replication message (candidate batch) or mail hop
    /// is lost in flight (0.0 = perfectly reliable).
    pub drop_rate: f64,
    /// Probability a scheduled replication pass finds the link flapped
    /// down for its whole slot (transient carrier loss; the pass retries
    /// at its next slot).
    pub flap_rate: f64,
}

impl Default for LinkSpec {
    fn default() -> LinkSpec {
        LinkSpec {
            latency: 1,
            bytes_per_tick: 0,
            drop_rate: 0.0,
            flap_rate: 0.0,
        }
    }
}

impl LinkSpec {
    /// Ticks a transfer of `bytes` occupies this link.
    pub fn transfer_ticks(&self, bytes: u64) -> u64 {
        let bw = if self.bytes_per_tick == 0 {
            0
        } else {
            bytes.div_ceil(self.bytes_per_tick)
        };
        self.latency + bw
    }

    /// This spec with a per-message drop rate (builder-style, for tests
    /// and experiments).
    pub fn with_drop_rate(mut self, p: f64) -> LinkSpec {
        self.drop_rate = p;
        self
    }

    /// This spec with a per-pass flap rate.
    pub fn with_flap_rate(mut self, p: f64) -> LinkSpec {
        self.flap_rate = p;
        self
    }
}

/// Per-link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Completed transfers (replication passes that shipped bytes, plus
    /// mail hops).
    pub transfers: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Ticks the link was busy (latency + bandwidth-limited transfer time).
    pub busy_ticks: u64,
}

/// Per-link fault accounting (companion to
/// [`LinkTraffic`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Messages lost in flight (per-message drop sampling).
    pub dropped: u64,
    /// Replication passes skipped because the link flapped down.
    pub flaps: u64,
    /// Passes (or mail hops) blocked by a server outage window.
    pub outages: u64,
    /// Passes abandoned with the retry policy exhausted.
    pub aborted_passes: u64,
}

impl LinkFaults {
    /// Fold another link's counters into this one.
    pub fn merge_from(&mut self, other: &LinkFaults) {
        self.dropped += other.dropped;
        self.flaps += other.flaps;
        self.outages += other.outages;
        self.aborted_passes += other.aborted_passes;
    }
}

/// One simulated server.
pub struct Server {
    /// Display name (`server0`, `server1`, ...).
    pub name: String,
    /// Seed for this server's per-database instance ids.
    pub instance_seed: ReplicaId,
    databases: HashMap<String, Arc<Database>>,
}

impl Server {
    /// The replica of `name` hosted here, if any.
    pub fn database(&self, name: &str) -> Option<&Arc<Database>> {
        self.databases.get(name)
    }
}

/// What replication passes read and write, shared by the network and its
/// scheduled tasks: link specs, partitions, outages, the fault plan and
/// retry policy, traffic and fault counters, one replicator per (link,
/// database) that serves scheduled and ad-hoc passes alike, and each
/// replica with its agent manager (the [`AgentScheduler`] a
/// `DominoServer` runs).
#[derive(Default)]
struct Links {
    specs: HashMap<(usize, usize), LinkSpec>,
    /// Links currently considered down (partition testing).
    down: Vec<(usize, usize)>,
    /// The one fault plan: message drops, link flaps and mail-hop drops
    /// all draw from it.
    plan: FaultPlan,
    /// Scheduled outage windows: `(server, ticks)`.
    outages: Vec<(usize, Range<u64>)>,
    /// How hard replication passes lean on flaky links.
    retry: RetryPolicy,
    traffic: HashMap<(usize, usize), LinkTraffic>,
    faults: HashMap<(usize, usize), LinkFaults>,
    /// Keyed by link + db, so resume cursors survive interrupted passes.
    replicators: HashMap<(usize, usize, String), Replicator>,
    /// Keyed by server + db; a pass looks its replicas up when it fires.
    replicas: HashMap<(usize, String), (Arc<Database>, AgentScheduler)>,
    /// The first error a scheduled task met; the `step` firing it returns it.
    error: Option<DominoError>,
}

fn key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl Links {
    fn spec(&self, a: usize, b: usize) -> LinkSpec {
        self.specs.get(&key(a, b)).copied().unwrap_or_default()
    }

    fn faults(&mut self, a: usize, b: usize) -> &mut LinkFaults {
        self.faults.entry(key(a, b)).or_default()
    }

    fn stash(&mut self, result: Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }

    /// The agent manager of `db` on `server`.
    fn amgr(&mut self, server: usize, db: &str) -> Result<&mut AgentScheduler> {
        let replica = self.replicas.get_mut(&(server, db.to_string()));
        let (_, amgr) = replica.ok_or_else(|| {
            DominoError::NotFound(format!("no replica of {db} on server {server}"))
        })?;
        Ok(amgr)
    }

    /// True, and counted, when either end of `(a, b)` is in an outage
    /// window at `now`.
    fn out(&mut self, a: usize, b: usize, now: u64) -> bool {
        let out = self
            .outages
            .iter()
            .any(|(s, ticks)| (*s == a || *s == b) && ticks.contains(&now));
        if out {
            self.faults(a, b).outages += 1;
            obs::counter!("Net.Faults.Outages").inc();
        }
        out
    }

    /// Is a replication pass over `(a, b)` able to start at `now`?
    /// Skipped passes (partition, outage, flap) are not errors: the
    /// schedule simply fires again at its next slot. Outages and flaps are
    /// accounted in the link's fault counters.
    fn pass_can_start(&mut self, a: usize, b: usize, now: u64) -> bool {
        if self.down.contains(&key(a, b)) || self.out(a, b, now) {
            return false;
        }
        let flapped = self.plan.chance(self.spec(a, b).flap_rate);
        if flapped {
            self.faults(a, b).flaps += 1;
            obs::counter!("Net.Faults.Flaps").inc();
        }
        !flapped
    }

    /// One replication pass over `(a, b)` for `db` at `now`, run by the
    /// link's replicator through a [`Faulty`] clean transport that drops
    /// messages at the link's `drop_rate`. A replica the pass changed
    /// then runs its `OnUpdate` agents. `None` when the pass could not
    /// start, an end holds no replica of `db`, or the pass failed
    /// transiently (the cursor is parked and the pass resumes at its next
    /// slot); real errors surface.
    fn pass(
        &mut self,
        a: usize,
        b: usize,
        db: &str,
        now: u64,
    ) -> Result<Option<(ReplicationReport, ReplicationReport)>> {
        if !self.pass_can_start(a, b, now) {
            return Ok(None);
        }
        let replica = |s: usize| self.replicas.get(&(s, db.to_string())).map(|r| r.0.clone());
        let (Some(da), Some(db_)) = (replica(a), replica(b)) else {
            return Ok(None);
        };
        let mut transport = Faulty::new(
            CleanTransport,
            self.plan.dropping(self.spec(a, b).drop_rate),
        );
        let faults_before = self.plan.faults();
        let replicator = self
            .replicators
            .entry((a, b, db.to_string()))
            .or_insert_with(|| Replicator::new(ReplicationOptions::default()));
        let result = replicator.sync_with_retry(&da, &db_, &mut transport, &self.retry);
        let dropped = self.plan.faults() - faults_before;
        if dropped > 0 {
            self.faults(a, b).dropped += dropped;
            obs::counter!("Net.Faults.Dropped").add(dropped);
        }
        let (into_a, into_b) = match result {
            Ok(reports) => reports,
            Err(e) if e.is_transient() => {
                self.faults(a, b).aborted_passes += 1;
                obs::counter!("Net.Faults.AbortedPasses").inc();
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        for (report, server) in [(&into_a, a), (&into_b, b)] {
            if report.bytes_shipped > 0 {
                self.account(a, b, report.bytes_shipped);
            }
            if report.changed_anything() {
                self.amgr(server, db)?.tick_on_update(now)?;
            }
        }
        Ok(Some((into_a, into_b)))
    }

    fn account(&mut self, a: usize, b: usize, bytes: u64) -> u64 {
        let ticks = self.spec(a, b).transfer_ticks(bytes);
        let t = self.traffic.entry(key(a, b)).or_default();
        t.transfers += 1;
        t.bytes += bytes;
        t.busy_ticks += ticks;
        ticks
    }
}

/// The simulated network of Domino servers.
pub struct Network {
    clock: LogicalClock,
    servers: Vec<Server>,
    topology: Topology,
    links: Vec<(usize, usize)>,
    next_replica_lineage: u64,
    shared: Arc<Mutex<Links>>,
    /// Scheduled replication passes and agent runs, due on `clock`.
    timeline: obs::Timeline,
    tasks: Vec<obs::Task>,
}

impl Network {
    /// Build `n` servers connected by `topology`, all links `spec`.
    pub fn new(n: usize, topology: Topology, spec: LinkSpec, clock: LogicalClock) -> Network {
        let servers = (0..n)
            .map(|i| Server {
                name: format!("server{i}"),
                instance_seed: ReplicaId(0x1000 + i as u64),
                databases: HashMap::new(),
            })
            .collect();
        let links = topology.links(n);
        let shared = Links {
            specs: links.iter().map(|l| (*l, spec)).collect(),
            retry: RetryPolicy::none(),
            ..Links::default()
        };
        Network {
            clock,
            servers,
            topology,
            links,
            next_replica_lineage: 0xD0_0000,
            shared: Arc::new(Mutex::new(shared)),
            timeline: obs::Timeline::new(),
            tasks: Vec::new(),
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the network has no servers.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.clock.peek().0
    }

    /// The wiring diagram.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Server `i` (panics out of range).
    pub fn server(&self, i: usize) -> &Server {
        &self.servers[i]
    }

    /// Next-hop routing table for the current topology.
    pub fn routes(&self) -> Vec<Vec<Option<usize>>> {
        all_pairs_next_hop(self.servers.len(), &self.links)
    }

    // ------------------------------------------------------------------
    // databases & schedules
    // ------------------------------------------------------------------

    /// Create a replica of a new database on every server; returns the
    /// shared lineage id.
    pub fn create_replica_set(&mut self, name: &str) -> Result<ReplicaId> {
        let lineage = ReplicaId(self.next_replica_lineage);
        self.next_replica_lineage += 1;
        for i in 0..self.servers.len() {
            self.create_replica_on(i, name, lineage)?;
        }
        Ok(lineage)
    }

    /// Create one replica on one server (spokes added later, etc.).
    pub fn create_replica_on(
        &mut self,
        server: usize,
        name: &str,
        lineage: ReplicaId,
    ) -> Result<Arc<Database>> {
        let seed = self.servers[server].instance_seed;
        let instance = ReplicaId(seed.0 << 16 | (self.servers[server].databases.len() as u64));
        let db = Arc::new(Database::open_in_memory(
            DbConfig::new(name, lineage, instance),
            self.clock.clone(),
        )?);
        self.servers[server]
            .databases
            .insert(name.to_string(), db.clone());
        let amgr = AgentScheduler::new(db.clone(), &self.servers[server].name);
        (self.shared.lock().replicas).insert((server, name.to_string()), (db.clone(), amgr));
        Ok(db)
    }

    /// The replica of `name` on `server` (NotFound if absent).
    pub fn db(&self, server: usize, name: &str) -> Result<Arc<Database>> {
        self.servers[server]
            .databases
            .get(name)
            .cloned()
            .ok_or_else(|| {
                DominoError::NotFound(format!("no replica of {name} on server {server}"))
            })
    }

    /// All replicas of a database, in server order.
    pub fn replicas(&self, name: &str) -> Vec<Arc<Database>> {
        self.servers
            .iter()
            .filter_map(|s| s.databases.get(name).cloned())
            .collect()
    }

    /// Schedule replication of `db` every `interval` ticks over every
    /// topology link: one task per link on the network's timeline. A pass
    /// looks its two replicas up when it fires, so a replica created later
    /// joins the schedule, and a link without both ends skips its pass.
    pub fn schedule_replication(&mut self, db: &str, interval: u64, options: ReplicationOptions) {
        let first = self.now() + interval;
        for (a, b) in self.links.clone() {
            let (shared, clock, db) = (self.shared.clone(), self.clock.clone(), db.to_string());
            let replicator = Replicator::new(options.clone());
            (shared.lock().replicators).insert((a, b, db.clone()), replicator);
            self.tasks.push(obs::Task::every(
                &format!("replicator:server{a}-server{b}:{db}"),
                "Replicator",
                obs::Cadence::Ticks(self.timeline.clone(), first, interval),
                move |_| {
                    let mut links = shared.lock();
                    let pass = links.pass(a, b, &db, clock.peek().0);
                    links.stash(pass.map(drop));
                    true
                },
                || {},
            ));
        }
    }

    /// Tick the agent manager of `db` on `server` every `interval` ticks:
    /// each stored agent runs as its own trigger says (the Domino agent
    /// manager's job).
    pub fn schedule_agents(&mut self, server: usize, db: &str, interval: u64) {
        let first = self.now() + interval;
        let (shared, clock, db) = (self.shared.clone(), self.clock.clone(), db.to_string());
        self.tasks.push(obs::Task::every(
            &format!("amgr:server{server}:{db}"),
            "Agent manager",
            obs::Cadence::Ticks(self.timeline.clone(), first, interval),
            move |_| {
                let mut links = shared.lock();
                let ran = links.amgr(server, &db).and_then(|a| a.tick(clock.peek().0));
                links.stash(ran.map(drop));
                true
            },
            || {},
        ));
    }

    // ------------------------------------------------------------------
    // partitions
    // ------------------------------------------------------------------

    /// Take a link down (both directions).
    pub fn partition(&mut self, a: usize, b: usize) {
        let mut links = self.shared.lock();
        if !links.down.contains(&key(a, b)) {
            links.down.push(key(a, b));
        }
    }

    /// Restore a link.
    pub fn heal(&mut self, a: usize, b: usize) {
        self.shared.lock().down.retain(|l| *l != key(a, b));
    }

    /// Is the link between two servers currently up?
    pub fn is_link_up(&self, a: usize, b: usize) -> bool {
        !self.shared.lock().down.contains(&key(a, b))
    }

    // ------------------------------------------------------------------
    // faults
    // ------------------------------------------------------------------

    /// Reseed the deterministic fault stream (call before injecting any
    /// fault to make a run reproducible from the seed alone).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.shared.lock().plan = FaultPlan::seeded(seed);
    }

    /// The retry policy scheduled replication passes use on flaky links.
    /// Defaults to [`RetryPolicy::none`] — the pre-fault behaviour.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.shared.lock().retry = policy;
    }

    /// Replace every link's spec (e.g. a uniform drop rate for E14).
    pub fn set_all_link_specs(&mut self, spec: LinkSpec) {
        let mut links = self.shared.lock();
        for l in &self.links {
            links.specs.insert(*l, spec);
        }
    }

    /// Schedule a server outage window: the server neither replicates nor
    /// routes mail while `from <= now < until`.
    pub fn schedule_outage(&mut self, server: usize, from: u64, until: u64) {
        self.shared.lock().outages.push((server, from..until));
    }

    /// Fault counters for one link.
    pub fn link_faults(&self, a: usize, b: usize) -> LinkFaults {
        self.shared
            .lock()
            .faults
            .get(&key(a, b))
            .copied()
            .unwrap_or_default()
    }

    /// Fault counters summed over all links.
    pub fn total_faults(&self) -> LinkFaults {
        let mut sum = LinkFaults::default();
        for f in self.shared.lock().faults.values() {
            sum.merge_from(f);
        }
        sum
    }

    /// Sample whether a mail hop from `a` to `b` goes through right now:
    /// false when either end is in an outage window or the message is
    /// dropped by the link's `drop_rate` (the router keeps the message
    /// queued and retries next pass either way).
    pub fn mail_hop_ready(&mut self, a: usize, b: usize) -> bool {
        let now = self.now();
        let mut links = self.shared.lock();
        if links.out(a, b, now) {
            return false;
        }
        let dropped = links.plan.chance(links.spec(a, b).drop_rate);
        if dropped {
            links.faults(a, b).dropped += 1;
            obs::counter!("Net.Faults.MailDrops").inc();
        }
        !dropped
    }

    // ------------------------------------------------------------------
    // time
    // ------------------------------------------------------------------

    /// Advance simulated time by `ticks`, firing the network's scheduled
    /// tasks (replication passes and agent manager ticks) in the
    /// timeline's order: by due tick, then by registration. The clock is
    /// moved to each due tick before its tasks fire. Returns the first
    /// error a task met; the clock then stays at that tick.
    pub fn step(&mut self, ticks: u64) -> Result<()> {
        let target = self.now() + ticks;
        while let Some(due) = self.timeline.next_due().filter(|&due| due <= target) {
            self.clock.observe(Timestamp(due));
            self.timeline.run_until(due);
            if let Some(e) = self.shared.lock().error.take() {
                return Err(e);
            }
        }
        self.clock.observe(Timestamp(target));
        Ok(())
    }

    /// Run one immediate replication pass over every link for `db`
    /// (ignores schedules). Returns per-pass reports.
    ///
    /// On a faulty link a pass may be skipped (flap, outage) or abandoned
    /// with the retry policy exhausted — the link's replicator keeps its
    /// resume cursor, so the next round continues where this one stopped
    /// instead of restarting.
    pub fn replicate_all_links(&mut self, db: &str) -> Result<Vec<ReplicationReport>> {
        let mut out = Vec::new();
        for &(a, b) in &self.links {
            self.db(a, db)?;
            self.db(b, db)?;
            let pass = self.shared.lock().pass(a, b, db, self.now())?;
            out.extend(pass.into_iter().flat_map(|(x, y)| [x, y]));
        }
        Ok(out)
    }

    /// Record an arbitrary transfer (used by the mail router); returns
    /// the ticks it occupies the link.
    pub fn account_bytes(&mut self, a: usize, b: usize, bytes: u64) -> u64 {
        self.shared.lock().account(a, b, bytes)
    }

    /// Total traffic over all links.
    pub fn total_traffic(&self) -> LinkTraffic {
        let mut sum = LinkTraffic::default();
        for t in self.shared.lock().traffic.values() {
            sum.transfers += t.transfers;
            sum.bytes += t.bytes;
            sum.busy_ticks += t.busy_ticks;
        }
        sum
    }

    /// Traffic counters for one link.
    pub fn link_traffic(&self, a: usize, b: usize) -> LinkTraffic {
        self.shared
            .lock()
            .traffic
            .get(&key(a, b))
            .copied()
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // convergence
    // ------------------------------------------------------------------

    /// Are all replicas of `db` identical (same docs, same revisions,
    /// same stubs)?
    pub fn converged(&self, db: &str) -> Result<bool> {
        let replicas = self.replicas(db);
        let Some(first) = replicas.first() else {
            return Ok(true);
        };
        let want = signature(first)?;
        for r in &replicas[1..] {
            if signature(r)? != want {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Replicate all links round-by-round until converged; returns the
    /// number of rounds (Err if `max_rounds` is exceeded).
    pub fn run_until_converged(&mut self, db: &str, max_rounds: usize) -> Result<usize> {
        for round in 0..max_rounds {
            if self.converged(db)? {
                return Ok(round);
            }
            self.replicate_all_links(db)?;
        }
        if self.converged(db)? {
            return Ok(max_rounds);
        }
        Err(DominoError::Replication(format!(
            "{db} did not converge within {max_rounds} rounds"
        )))
    }
}

/// Canonical content signature of a replica: every live note's UNID and
/// Merkle head, plus every stub's UNID and stub head.
fn signature(db: &Database) -> Result<Vec<(u128, u128)>> {
    let mut sig = Vec::new();
    let snap = db.snapshot();
    for id in snap.note_ids(None) {
        let n = snap.open_arc(id)?;
        sig.push((n.unid().0, merkle_head(&n).0));
    }
    for stub in db.stubs()? {
        sig.push((stub.oid.unid.0, stub_head(&stub.oid).0));
    }
    sig.sort_unstable();
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::Note;
    use domino_types::Value;

    fn doc(db: &Database, text: &str) {
        let mut n = Note::document("Memo");
        n.set("Subject", Value::text(text));
        db.save(&mut n).unwrap();
    }

    #[test]
    fn link_spec_transfer_math() {
        let inf = LinkSpec {
            latency: 3,
            bytes_per_tick: 0,
            ..LinkSpec::default()
        };
        assert_eq!(inf.transfer_ticks(1_000_000), 3, "0 = infinite bandwidth");
        let slow = LinkSpec {
            latency: 2,
            bytes_per_tick: 100,
            ..LinkSpec::default()
        };
        assert_eq!(slow.transfer_ticks(0), 2);
        assert_eq!(slow.transfer_ticks(1), 3);
        assert_eq!(slow.transfer_ticks(100), 3);
        assert_eq!(slow.transfer_ticks(101), 4);
    }

    #[test]
    fn server_accessors() {
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("beta").unwrap();
        net.create_replica_set("alpha").unwrap();
        let s = net.server(0);
        assert_eq!(s.name, "server0");
        let mut names: Vec<&str> = s.databases.keys().map(String::as_str).collect();
        names.sort();
        assert_eq!(names, ["alpha", "beta"]);
        assert!(s.database("alpha").is_some());
        assert!(s.database("gamma").is_none());
        assert!(net.db(0, "gamma").is_err());
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.topology(), Topology::Mesh);
    }

    #[test]
    fn replica_sets_share_lineage_distinct_instances() {
        let mut net = Network::new(3, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("disc").unwrap();
        let dbs = net.replicas("disc");
        assert_eq!(dbs.len(), 3);
        assert_eq!(dbs[0].replica_id(), dbs[1].replica_id());
        assert_ne!(dbs[0].instance_id(), dbs[1].instance_id());
    }

    #[test]
    fn mesh_converges_in_one_round() {
        let mut net = Network::new(4, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        doc(&net.db(1, "d").unwrap(), "hello");
        assert!(!net.converged("d").unwrap());
        let rounds = net.run_until_converged("d", 10).unwrap();
        assert_eq!(rounds, 1);
    }

    #[test]
    fn chain_needs_more_rounds_than_mesh() {
        // Seed at the chain's tail: links replicate in ascending order
        // within a round, so propagation toward server 0 pays one hop per
        // round (the worst case an administrator schedules around).
        let mut chain = Network::new(6, Topology::Chain, LinkSpec::default(), LogicalClock::new());
        chain.create_replica_set("d").unwrap();
        doc(&chain.db(5, "d").unwrap(), "x");
        let chain_rounds = chain.run_until_converged("d", 20).unwrap();

        let mut mesh = Network::new(6, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        mesh.create_replica_set("d").unwrap();
        doc(&mesh.db(5, "d").unwrap(), "x");
        let mesh_rounds = mesh.run_until_converged("d", 20).unwrap();

        assert!(
            chain_rounds > mesh_rounds,
            "{chain_rounds} vs {mesh_rounds}"
        );
        assert_eq!(mesh_rounds, 1);
    }

    #[test]
    fn scheduled_replication_fires_on_interval() {
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        net.schedule_replication("d", 100, ReplicationOptions::default());
        doc(&net.db(0, "d").unwrap(), "scheduled");
        // Before the interval: nothing.
        net.step(50).unwrap();
        assert!(!net.converged("d").unwrap());
        // Crossing the interval: replicated.
        net.step(60).unwrap();
        assert!(net.converged("d").unwrap());
    }

    #[test]
    fn partition_blocks_until_healed() {
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        doc(&net.db(0, "d").unwrap(), "stuck");
        net.partition(0, 1);
        net.replicate_all_links("d").unwrap();
        assert!(!net.converged("d").unwrap());
        net.heal(0, 1);
        net.replicate_all_links("d").unwrap();
        assert!(net.converged("d").unwrap());
    }

    #[test]
    fn traffic_accounted_per_link() {
        let mut net = Network::new(
            2,
            Topology::Mesh,
            LinkSpec {
                latency: 5,
                bytes_per_tick: 10,
                ..LinkSpec::default()
            },
            LogicalClock::new(),
        );
        net.create_replica_set("d").unwrap();
        doc(&net.db(0, "d").unwrap(), "bytes!");
        net.replicate_all_links("d").unwrap();
        let t = net.link_traffic(0, 1);
        assert!(t.bytes > 0);
        assert!(t.busy_ticks >= 5 + t.bytes / 10);
        assert_eq!(net.total_traffic(), t);
    }

    #[test]
    fn scheduled_agents_run_and_results_replicate() {
        use domino_core::{save_agent, AgentDesign};
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        net.schedule_replication("d", 100, domino_replica::ReplicationOptions::default());
        net.schedule_agents(0, "d", 100);

        let db0 = net.db(0, "d").unwrap();
        save_agent(
            &db0,
            &AgentDesign::new(
                "stamp",
                r#"SELECT Form = "Memo" & Stamped != "yes"; FIELD Stamped := "yes""#,
            )
            .unwrap()
            .scheduled(100),
        )
        .unwrap();
        // A document created on server 1: it must replicate to 0, get
        // stamped by the agent there, and the stamp must replicate back.
        let mut n = domino_core::Note::document("Memo");
        net.db(1, "d").unwrap().save(&mut n).unwrap();
        net.step(500).unwrap();
        let stamped = net
            .db(1, "d")
            .unwrap()
            .open_by_unid(n.unid())
            .unwrap()
            .get_text("Stamped");
        assert_eq!(stamped.as_deref(), Some("yes"));
    }

    #[test]
    fn on_update_agents_fire_after_replication_delivers() {
        use domino_core::{save_agent, AgentDesign};
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        net.schedule_replication("d", 100, domino_replica::ReplicationOptions::default());
        // Server 1 reacts to arriving documents.
        save_agent(
            &net.db(1, "d").unwrap(),
            &AgentDesign::new(
                "greeter",
                r#"SELECT Form = "Memo" & Greeted != "yes"; FIELD Greeted := "yes""#,
            )
            .unwrap()
            .on_update(),
        )
        .unwrap();
        let mut n = domino_core::Note::document("Memo");
        net.db(0, "d").unwrap().save(&mut n).unwrap();
        net.step(150).unwrap();
        assert_eq!(
            net.db(1, "d")
                .unwrap()
                .open_by_unid(n.unid())
                .unwrap()
                .get_text("Greeted")
                .as_deref(),
            Some("yes"),
            "agent fired on arrival, no schedule needed"
        );
    }

    #[test]
    fn lossy_link_converges_with_retry_but_not_without() {
        use domino_replica::RetryPolicy;
        let seed = 0xE14;
        let drop = 0.30;
        let budget = 2; // replication rounds each side gets

        let run = |policy: RetryPolicy| {
            let mut net = Network::new(
                2,
                Topology::Mesh,
                LinkSpec::default().with_drop_rate(drop),
                LogicalClock::new(),
            );
            net.set_fault_seed(seed);
            net.set_retry_policy(policy);
            net.create_replica_set("d").unwrap();
            for i in 0..320 {
                doc(&net.db(0, "d").unwrap(), &format!("memo {i}"));
            }
            for _ in 0..budget {
                net.replicate_all_links("d").unwrap();
            }
            (net.converged("d").unwrap(), net.total_faults())
        };

        let (with_retry, faults) = run(RetryPolicy::standard());
        assert!(with_retry, "retry rides out a 20% drop rate");
        assert!(faults.dropped > 0, "faults really were injected");

        let (without, faults) = run(RetryPolicy::none());
        assert!(!without, "zero retry cannot finish within the same budget");
        assert!(faults.aborted_passes > 0, "passes were abandoned");
    }

    #[test]
    fn aborted_pass_resumes_instead_of_restarting() {
        // Even with zero retry, the ad-hoc replicator's cursor survives
        // the aborted pass: enough rounds always converge.
        let mut net = Network::new(
            2,
            Topology::Mesh,
            LinkSpec::default().with_drop_rate(0.5),
            LogicalClock::new(),
        );
        net.set_fault_seed(99);
        net.create_replica_set("d").unwrap();
        for i in 0..80 {
            doc(&net.db(0, "d").unwrap(), &format!("memo {i}"));
        }
        let rounds = net.run_until_converged("d", 200).unwrap();
        assert!(rounds > 1, "a 50% drop rate forced resumption");
        assert!(net.total_faults().dropped > 0);
    }

    #[test]
    fn outage_window_blocks_scheduled_passes() {
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        net.schedule_replication("d", 100, ReplicationOptions::default());
        net.schedule_outage(1, 0, 250);
        doc(&net.db(0, "d").unwrap(), "patience");
        // Passes at t=100 and t=200 hit the outage window.
        net.step(220).unwrap();
        assert!(!net.converged("d").unwrap());
        assert_eq!(net.link_faults(0, 1).outages, 2);
        // The pass at t=300 is past the window.
        net.step(100).unwrap();
        assert!(net.converged("d").unwrap());
    }

    #[test]
    fn flapping_link_skips_passes_and_accounts_them() {
        let mut net = Network::new(
            2,
            Topology::Mesh,
            LinkSpec::default().with_flap_rate(1.0),
            LogicalClock::new(),
        );
        net.create_replica_set("d").unwrap();
        doc(&net.db(0, "d").unwrap(), "flappy");
        net.replicate_all_links("d").unwrap();
        net.replicate_all_links("d").unwrap();
        assert!(!net.converged("d").unwrap(), "every pass flapped away");
        assert_eq!(net.link_faults(0, 1).flaps, 2);
        // Calm the link and the backlog drains.
        net.set_all_link_specs(LinkSpec::default());
        net.replicate_all_links("d").unwrap();
        assert!(net.converged("d").unwrap());
    }

    #[test]
    fn convergence_includes_deletions() {
        let mut net = Network::new(3, Topology::Ring, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        let db0 = net.db(0, "d").unwrap();
        doc(&db0, "temp");
        net.run_until_converged("d", 10).unwrap();
        let id = net.db(2, "d").unwrap().note_ids(None).unwrap()[0];
        net.db(2, "d").unwrap().delete(id).unwrap();
        assert!(!net.converged("d").unwrap());
        net.run_until_converged("d", 10).unwrap();
        for r in net.replicas("d") {
            assert_eq!(r.document_count().unwrap(), 0);
        }
    }

    #[test]
    fn schedule_agents_honours_each_agents_trigger() {
        use domino_core::{save_agent, AgentDesign};
        let mut net = Network::new(1, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        let db = net.db(0, "d").unwrap();
        let manual = r#"SELECT Form = "Memo"; FIELD Touched := "yes""#;
        save_agent(&db, &AgentDesign::new("touch", manual).unwrap()).unwrap();
        let count = r#"SELECT Form = "Memo"; FIELD Runs := Runs + 1"#;
        let count = AgentDesign::new("count", count).unwrap().scheduled(300);
        save_agent(&db, &count).unwrap();
        let mut memo = Note::document("Memo");
        memo.set("Runs", Value::Number(0.0));
        db.save(&mut memo).unwrap();
        net.schedule_agents(0, "d", 100);

        let runs = |net: &mut Network, ticks: u64| {
            net.step(ticks).unwrap();
            let memo = net.db(0, "d").unwrap().open_by_unid(memo.unid()).unwrap();
            assert_eq!(memo.get_text("Touched"), None, "a Manual agent never runs");
            memo.get("Runs").unwrap().as_number().unwrap()
        };
        // Ticks at 100, 200, …: the Scheduled(300) agent first runs at
        // 100, then at 400, 700 and 1000.
        assert_eq!(runs(&mut net, 150), 1.0);
        assert_eq!(runs(&mut net, 200), 1.0);
        assert_eq!(runs(&mut net, 100), 2.0);
        assert_eq!(runs(&mut net, 600), 4.0);
    }

    #[test]
    fn a_scheduled_agent_runs_only_where_its_agent_manager_does() {
        use domino_core::{save_agent, AgentDesign, ITEM_CONFLICT};
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        net.create_replica_set("d").unwrap();
        net.schedule_replication("d", 100, ReplicationOptions::default());
        net.schedule_agents(0, "d", 100);
        let stamp = r#"SELECT Form = "Memo" & Stamped = ""; FIELD Stamped := @UserName"#;
        let stamp = AgentDesign::new("stamp", stamp).unwrap().scheduled(100);
        save_agent(&net.db(0, "d").unwrap(), &stamp).unwrap();
        for i in 0..4 {
            doc(&net.db(i % 2, "d").unwrap(), &format!("memo {i}"));
        }
        net.step(1_000).unwrap();
        assert!(net.converged("d").unwrap());
        for r in net.replicas("d") {
            let docs = r.snapshot().documents();
            assert_eq!(docs.len(), 4, "no $Conflict document was filed");
            for n in docs {
                assert_eq!(n.get_text("Stamped").as_deref(), Some("server0"));
                assert!(n.get(ITEM_CONFLICT).is_none());
            }
        }
    }

    #[test]
    fn a_replica_created_later_joins_the_schedule() {
        let mut net = Network::new(2, Topology::Mesh, LinkSpec::default(), LogicalClock::new());
        let lineage = ReplicaId(0xD1);
        net.create_replica_on(0, "d", lineage).unwrap();
        net.schedule_replication("d", 100, ReplicationOptions::default());
        doc(&net.db(0, "d").unwrap(), "early");
        net.step(150).unwrap();
        net.create_replica_on(1, "d", lineage).unwrap();
        assert!(!net.converged("d").unwrap());
        net.step(100).unwrap();
        assert!(
            net.converged("d").unwrap(),
            "the pass at t=200 found both ends"
        );
    }

    #[test]
    fn one_seed_replays_one_run() {
        use crate::mail::{MailRouter, MailUser};
        use domino_core::{save_agent, AgentDesign};
        let run = || {
            let spec = LinkSpec::default().with_drop_rate(0.2);
            let mut net = Network::new(4, Topology::Ring, spec, LogicalClock::new());
            net.set_fault_seed(0x5EED);
            net.set_retry_policy(RetryPolicy::standard());
            net.create_replica_set("d").unwrap();
            net.schedule_replication("d", 40, ReplicationOptions::default());
            let db0 = net.db(0, "d").unwrap();
            let stamp = r#"SELECT Form = "Memo" & Stamped != "yes"; FIELD Stamped := "yes""#;
            let stamp = AgentDesign::new("stamp", stamp).unwrap().scheduled(100);
            save_agent(&db0, &stamp).unwrap();
            let greet = r#"SELECT Form = "Memo" & Greeted != "yes"; FIELD Greeted := "yes""#;
            let greet = AgentDesign::new("greet", greet).unwrap().on_update();
            save_agent(&net.db(2, "d").unwrap(), &greet).unwrap();
            net.schedule_agents(0, "d", 50);
            let users: Vec<MailUser> = (0..4)
                .map(|i| MailUser {
                    name: format!("u{i}"),
                    home_server: i,
                })
                .collect();
            let mut router = MailRouter::setup(&mut net, &users).unwrap();
            for i in 0..12 {
                doc(&net.db(i % 4, "d").unwrap(), &format!("memo {i}"));
                let (from, to) = (i % 4, (i + 2) % 4);
                router
                    .send(
                        &net,
                        from,
                        &format!("u{from}"),
                        &format!("u{to}"),
                        "hi",
                        "b",
                    )
                    .unwrap();
                net.step(30).unwrap();
                router.step(&mut net).unwrap();
            }
            router.run_until_delivered(&mut net, 1_000).unwrap();
            net.step(400).unwrap();
            assert!(net.converged("d").unwrap());
            let ran = |server, item| {
                let snap = net.db(server, "d").unwrap().snapshot();
                let docs = snap.documents();
                docs.iter().filter(|n| n.get_text(item).is_some()).count()
            };
            assert!(ran(0, "Stamped") >= 12 && ran(2, "Greeted") >= 12);
            let signatures: Vec<_> = net
                .replicas("d")
                .iter()
                .map(|r| signature(r).unwrap())
                .collect();
            let traffic = net.total_traffic();
            let faults = net.total_faults();
            let latencies = router.latencies(&net).unwrap();
            (signatures, traffic, faults, latencies, net.now())
        };
        let first = run();
        assert!(first.2.dropped > 0, "faults were injected");
        assert_eq!(first.3.len(), 12, "every memo delivered");
        assert_eq!(first, run());
    }
}
