//! The multi-server simulation.
//!
//! A [`Network`] hosts N servers, each holding replicas of named
//! databases, connected by a [`Topology`] with per-link latency and
//! bandwidth. Time is the shared [`LogicalClock`]: `step()` advances it
//! and fires whatever replication passes are due. Link traffic (bytes,
//! messages, transfer ticks) is accounted per link so the experiments can
//! report bandwidth and latency figures.
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
use std::sync::{Arc, OnceLock};

use domino_core::revision::{merkle_head, stub_head};
use domino_core::{Database, DbConfig};
use domino_obs as obs;
use domino_replica::{
    CleanTransport, ReplicationOptions, ReplicationReport, Replicator, RetryPolicy,
};
use domino_types::{Clock, DominoError, FaultPlan, Faulty, LogicalClock, ReplicaId, Result};

use crate::topology::{all_pairs_next_hop, Topology};

/// Registry handles for network fault telemetry.
struct Metrics {
    dropped: &'static obs::Counter,
    flaps: &'static obs::Counter,
    outages: &'static obs::Counter,
    aborted: &'static obs::Counter,
    mail_drops: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        dropped: obs::counter("Net.Faults.Dropped"),
        flaps: obs::counter("Net.Faults.Flaps"),
        outages: obs::counter("Net.Faults.Outages"),
        aborted: obs::counter("Net.Faults.AbortedPasses"),
        mail_drops: obs::counter("Net.Faults.MailDrops"),
    })
}

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

    /// Names of all databases hosted here, sorted.
    pub fn database_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.databases.keys().cloned().collect();
        v.sort();
        v
    }
}

/// A scheduled agent pass for one database replica.
struct AgentSchedule {
    server: usize,
    db: String,
    interval: u64,
    next_at: u64,
}

/// A scheduled replication pass over one link for one database.
struct Schedule {
    a: usize,
    b: usize,
    db: String,
    interval: u64,
    next_at: u64,
    replicator: Replicator,
}

/// The simulated network of Domino servers.
pub struct Network {
    clock: LogicalClock,
    servers: Vec<Server>,
    topology: Topology,
    links: Vec<(usize, usize)>,
    link_specs: HashMap<(usize, usize), LinkSpec>,
    schedules: Vec<Schedule>,
    agent_schedules: Vec<AgentSchedule>,
    traffic: HashMap<(usize, usize), LinkTraffic>,
    /// Links currently considered down (partition testing).
    down: Vec<(usize, usize)>,
    next_replica_lineage: u64,
    /// The one fault plan: message drops, link flaps and mail-hop drops
    /// all draw from it.
    plan: FaultPlan,
    /// Scheduled outage windows: `(server, ticks)`.
    outages: Vec<(usize, Range<u64>)>,
    /// How hard replication passes lean on flaky links.
    retry: RetryPolicy,
    /// Per-link fault accounting.
    faults: HashMap<(usize, usize), LinkFaults>,
    /// Persistent replicators for ad-hoc (unscheduled) passes, so their
    /// resume cursors survive interrupted rounds. Keyed by link + db.
    adhoc: HashMap<(usize, usize, String), Replicator>,
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
        let link_specs = links.iter().map(|l| (*l, spec)).collect();
        Network {
            clock,
            servers,
            topology,
            links,
            link_specs,
            schedules: Vec::new(),
            agent_schedules: Vec::new(),
            traffic: HashMap::new(),
            down: Vec::new(),
            next_replica_lineage: 0xD0_0000,
            plan: FaultPlan::default(),
            outages: Vec::new(),
            retry: RetryPolicy::none(),
            faults: HashMap::new(),
            adhoc: HashMap::new(),
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

    /// Schedule replication of `db` over every topology link, every
    /// `interval` ticks.
    pub fn schedule_replication(&mut self, db: &str, interval: u64, options: ReplicationOptions) {
        let start = self.now();
        for (a, b) in self.links.clone() {
            self.schedules.push(Schedule {
                a,
                b,
                db: db.to_string(),
                interval,
                next_at: start + interval,
                replicator: Replicator::new(options.clone()),
            });
        }
    }

    /// Run every stored scheduled agent of `db` on `server` every
    /// `interval` ticks (the Domino agent manager's job).
    pub fn schedule_agents(&mut self, server: usize, db: &str, interval: u64) {
        let start = self.now();
        self.agent_schedules.push(AgentSchedule {
            server,
            db: db.to_string(),
            interval,
            next_at: start + interval,
        });
    }

    /// Run all stored agents of `db` on `server` immediately.
    pub fn run_agents(
        &mut self,
        server: usize,
        db: &str,
    ) -> Result<Vec<domino_core::AgentRunReport>> {
        let database = self.db(server, db)?;
        let mut out = Vec::new();
        for agent in domino_core::stored_agents(&database)? {
            out.push(agent.run(&database, &format!("server{server}"))?);
        }
        Ok(out)
    }

    /// Run the `OnUpdate`-triggered agents of one replica (fired after a
    /// replication pass delivers changes, like Domino's
    /// "after new mail arrives"/"after documents change" agents).
    fn run_on_update_agents(&mut self, server: usize, db: &str) -> Result<()> {
        let database = self.db(server, db)?;
        for agent in domino_core::stored_agents(&database)? {
            if agent.trigger == domino_core::AgentTrigger::OnUpdate {
                agent.run(&database, &format!("server{server}"))?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // partitions
    // ------------------------------------------------------------------

    /// Take a link down (both directions).
    pub fn partition(&mut self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        if !self.down.contains(&key) {
            self.down.push(key);
        }
    }

    /// Restore a link.
    pub fn heal(&mut self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        self.down.retain(|l| *l != key);
    }

    /// Is the link between two servers currently up?
    pub fn is_link_up(&self, a: usize, b: usize) -> bool {
        !self.down.contains(&(a.min(b), a.max(b)))
    }

    // ------------------------------------------------------------------
    // faults
    // ------------------------------------------------------------------

    /// Reseed the deterministic fault stream (call before injecting any
    /// fault to make a run reproducible from the seed alone).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.plan = FaultPlan::seeded(seed);
    }

    /// The retry policy scheduled replication passes use on flaky links.
    /// Defaults to [`RetryPolicy::none`] — the pre-fault behaviour.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replace the spec of one link (e.g. to make just the WAN hop lossy).
    pub fn set_link_spec(&mut self, a: usize, b: usize, spec: LinkSpec) {
        self.link_specs.insert((a.min(b), a.max(b)), spec);
    }

    /// Replace every link's spec (e.g. a uniform drop rate for E14).
    pub fn set_all_link_specs(&mut self, spec: LinkSpec) {
        for l in &self.links {
            self.link_specs.insert(*l, spec);
        }
    }

    /// The spec of a link (default when the pair is not a topology link).
    pub fn link_spec(&self, a: usize, b: usize) -> LinkSpec {
        self.link_specs
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or_default()
    }

    /// Schedule a server outage window: the server neither replicates nor
    /// routes mail while `from <= now < until`.
    pub fn schedule_outage(&mut self, server: usize, from: u64, until: u64) {
        self.outages.push((server, from..until));
    }

    /// Is `server` outside every scheduled outage window at `now`?
    pub fn server_available(&self, server: usize, now: u64) -> bool {
        !self
            .outages
            .iter()
            .any(|(s, ticks)| *s == server && ticks.contains(&now))
    }

    /// Fault counters for one link.
    pub fn link_faults(&self, a: usize, b: usize) -> LinkFaults {
        self.faults
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or_default()
    }

    /// Fault counters summed over all links.
    pub fn total_faults(&self) -> LinkFaults {
        let mut sum = LinkFaults::default();
        for f in self.faults.values() {
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
        if !self.server_available(a, now) || !self.server_available(b, now) {
            self.faults.entry((a.min(b), a.max(b))).or_default().outages += 1;
            m().outages.inc();
            return false;
        }
        let spec = self.link_spec(a, b);
        if self.plan.chance(spec.drop_rate) {
            self.faults.entry((a.min(b), a.max(b))).or_default().dropped += 1;
            m().mail_drops.inc();
            return false;
        }
        true
    }

    /// Is a replication pass over `(a, b)` able to start right now?
    /// Skipped passes (partition, outage, flap) are not errors: the
    /// schedule simply fires again at its next slot. Outages and flaps are
    /// accounted in [`link_faults`](Network::link_faults).
    fn pass_can_start(&mut self, a: usize, b: usize) -> bool {
        if !self.is_link_up(a, b) {
            return false;
        }
        let key = (a.min(b), a.max(b));
        let now = self.now();
        if !self.server_available(a, now) || !self.server_available(b, now) {
            self.faults.entry(key).or_default().outages += 1;
            m().outages.inc();
            return false;
        }
        let spec = self.link_spec(a, b);
        if self.plan.chance(spec.flap_rate) {
            self.faults.entry(key).or_default().flaps += 1;
            m().flaps.inc();
            return false;
        }
        true
    }

    // ------------------------------------------------------------------
    // time
    // ------------------------------------------------------------------

    /// Advance simulated time by `ticks`, firing due replication passes
    /// and scheduled agents, interleaved in due-time order (agents run
    /// before replication at the same instant, so their output ships in
    /// that pass — matching Domino's agent-manager-then-replicator order).
    pub fn step(&mut self, ticks: u64) -> Result<Vec<ReplicationReport>> {
        let target = self.now() + ticks;
        let mut reports = Vec::new();
        loop {
            let next_repl = self
                .schedules
                .iter()
                .enumerate()
                .filter(|(_, s)| s.next_at <= target)
                .min_by_key(|(_, s)| s.next_at)
                .map(|(i, s)| (s.next_at, i));
            let next_agent = self
                .agent_schedules
                .iter()
                .enumerate()
                .filter(|(_, s)| s.next_at <= target)
                .min_by_key(|(_, s)| s.next_at)
                .map(|(i, s)| (s.next_at, i));

            let run_agent = match (next_agent, next_repl) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((ta, _)), Some((tr, _))) => ta <= tr,
            };
            if run_agent {
                let (next_at, i) = next_agent.expect("checked");
                let (server, db_name) = {
                    let s = &self.agent_schedules[i];
                    (s.server, s.db.clone())
                };
                let now = self.now();
                if next_at > now {
                    self.clock.advance(next_at - now);
                }
                self.agent_schedules[i].next_at += self.agent_schedules[i].interval;
                self.run_agents(server, &db_name)?;
            } else {
                let (next_at, i) = next_repl.expect("checked");
                let (a, b, db_name) = {
                    let s = &self.schedules[i];
                    (s.a, s.b, s.db.clone())
                };
                let now = self.now();
                if next_at > now {
                    self.clock.advance(next_at - now);
                }
                self.schedules[i].next_at += self.schedules[i].interval;
                if !self.pass_can_start(a, b) {
                    continue;
                }
                let (Ok(da), Ok(db_)) = (self.db(a, &db_name), self.db(b, &db_name)) else {
                    continue;
                };
                let Some((into_a, into_b)) = self.run_pass(a, b, &da, &db_, Some(i), &db_name)?
                else {
                    continue;
                };
                // Incoming changes fire OnUpdate agents on the receiver.
                if into_a.changed_anything() {
                    self.run_on_update_agents(a, &db_name)?;
                }
                if into_b.changed_anything() {
                    self.run_on_update_agents(b, &db_name)?;
                }
                reports.push(into_a);
                reports.push(into_b);
            }
        }
        let now = self.now();
        if target > now {
            self.clock.advance(target - now);
        }
        Ok(reports)
    }

    /// Run one immediate replication pass over every link for `db`
    /// (ignores schedules). Returns per-pass reports.
    ///
    /// On a faulty link a pass may be skipped (flap, outage) or abandoned
    /// with the retry policy exhausted — the ad-hoc replicator's resume
    /// cursor survives, so the next round continues where this one
    /// stopped instead of restarting.
    pub fn replicate_all_links(&mut self, db: &str) -> Result<Vec<ReplicationReport>> {
        let links = self.links.clone();
        let mut out = Vec::new();
        for (a, b) in links {
            if !self.pass_can_start(a, b) {
                continue;
            }
            // Use the scheduled replicator for this link when present so
            // history accrues; otherwise a persistent ad-hoc replicator
            // (its cursor survives faults).
            let schedule = self
                .schedules
                .iter()
                .position(|s| s.a == a && s.b == b && s.db == db);
            let (da, db_) = (self.db(a, db)?, self.db(b, db)?);
            let Some((ra, rb)) = self.run_pass(a, b, &da, &db_, schedule, db)? else {
                continue;
            };
            out.push(ra);
            out.push(rb);
        }
        Ok(out)
    }

    /// One replication pass over `(a, b)` through the link's transport: a
    /// [`Faulty`] clean transport that drops messages at the link's
    /// `drop_rate`, run by schedule `schedule`'s replicator or else by the
    /// link's ad-hoc replicator for `db`. A transient failure is swallowed (`None`: the cursor is parked and the
    /// pass resumes at its next slot); real errors surface.
    fn run_pass(
        &mut self,
        a: usize,
        b: usize,
        da: &Database,
        db_: &Database,
        schedule: Option<usize>,
        db: &str,
    ) -> Result<Option<(ReplicationReport, ReplicationReport)>> {
        let key = (a.min(b), a.max(b));
        let mut transport = Faulty::new(
            CleanTransport,
            self.plan.dropping(self.link_spec(a, b).drop_rate),
        );
        let faults_before = self.plan.faults();
        let replicator = match schedule {
            Some(i) => &mut self.schedules[i].replicator,
            None => self
                .adhoc
                .entry((a, b, db.to_string()))
                .or_insert_with(|| Replicator::new(ReplicationOptions::default())),
        };
        let result = replicator.sync_with_retry(da, db_, &mut transport, &self.retry);
        let dropped = self.plan.faults() - faults_before;
        if dropped > 0 {
            self.faults.entry(key).or_default().dropped += dropped;
            m().dropped.add(dropped);
        }
        match result {
            Ok((ra, rb, _stats)) => {
                self.account(a, b, &ra);
                self.account(a, b, &rb);
                Ok(Some((ra, rb)))
            }
            Err(e) if e.is_transient() => {
                self.faults.entry(key).or_default().aborted_passes += 1;
                m().aborted.inc();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn account(&mut self, a: usize, b: usize, report: &ReplicationReport) {
        let key = (a.min(b), a.max(b));
        let spec = self.link_specs.get(&key).copied().unwrap_or_default();
        let t = self.traffic.entry(key).or_default();
        if report.bytes_shipped > 0 {
            t.transfers += 1;
            t.bytes += report.bytes_shipped;
            t.busy_ticks += spec.transfer_ticks(report.bytes_shipped);
        }
    }

    /// Record an arbitrary transfer (used by the mail router).
    pub fn account_bytes(&mut self, a: usize, b: usize, bytes: u64) -> u64 {
        let key = (a.min(b), a.max(b));
        let spec = self.link_specs.get(&key).copied().unwrap_or_default();
        let ticks = spec.transfer_ticks(bytes);
        let t = self.traffic.entry(key).or_default();
        t.transfers += 1;
        t.bytes += bytes;
        t.busy_ticks += ticks;
        ticks
    }

    /// Total traffic over all links.
    pub fn total_traffic(&self) -> LinkTraffic {
        let mut sum = LinkTraffic::default();
        for t in self.traffic.values() {
            sum.transfers += t.transfers;
            sum.bytes += t.bytes;
            sum.busy_ticks += t.busy_ticks;
        }
        sum
    }

    /// Traffic counters for one link.
    pub fn link_traffic(&self, a: usize, b: usize) -> LinkTraffic {
        self.traffic
            .get(&(a.min(b), a.max(b)))
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
        assert_eq!(
            s.database_names(),
            vec!["alpha".to_string(), "beta".to_string()]
        );
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
}
