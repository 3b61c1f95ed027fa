//! Topologies: which servers talk to which.
//!
//! Domino deployments schedule replication along an administrator-chosen
//! topology — classically hub-and-spoke; rings and meshes trade bandwidth
//! for convergence latency (experiment E6). Links are bidirectional.

use std::collections::VecDeque;

/// A named topology over `n` servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Server 0 is the hub; all others replicate only with it.
    HubSpoke,
    /// Each server replicates with its two ring neighbours.
    Ring,
    /// Every pair replicates directly.
    Mesh,
    /// A line: 0-1-2-...-n.
    Chain,
}

impl Topology {
    /// Every topology, for experiments that sweep them.
    pub const ALL: [Topology; 4] = [
        Topology::HubSpoke,
        Topology::Ring,
        Topology::Mesh,
        Topology::Chain,
    ];

    /// Stable lower-case label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Topology::HubSpoke => "hub-spoke",
            Topology::Ring => "ring",
            Topology::Mesh => "mesh",
            Topology::Chain => "chain",
        }
    }

    /// Bidirectional links `(a, b)` with `a < b`.
    pub fn links(self, n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        match self {
            Topology::HubSpoke => {
                for i in 1..n {
                    out.push((0, i));
                }
            }
            Topology::Ring => {
                if n == 2 {
                    out.push((0, 1));
                } else {
                    for i in 0..n {
                        let j = (i + 1) % n;
                        out.push((i.min(j), i.max(j)));
                    }
                    out.sort_unstable();
                    out.dedup();
                }
            }
            Topology::Mesh => {
                for i in 0..n {
                    for j in i + 1..n {
                        out.push((i, j));
                    }
                }
            }
            Topology::Chain => {
                for i in 1..n {
                    out.push((i - 1, i));
                }
            }
        }
        out
    }

    /// Network diameter in hops (longest shortest path) — the lower bound
    /// on full-propagation rounds.
    pub fn diameter(self, n: usize) -> usize {
        let routes = all_pairs_next_hop(n, &self.links(n));
        let mut max = 0;
        #[allow(clippy::needless_range_loop)]
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let mut hops = 0;
                let mut cur = a;
                while cur != b {
                    cur = routes[cur][b].expect("connected topology");
                    hops += 1;
                }
                max = max.max(hops);
            }
        }
        max
    }
}

/// BFS all-pairs next-hop table: `routes[a][b]` = the neighbour of `a` on a
/// shortest path to `b` (None when a == b or unreachable).
pub fn all_pairs_next_hop(n: usize, links: &[(usize, usize)]) -> Vec<Vec<Option<usize>>> {
    let mut adj = vec![Vec::new(); n];
    for (a, b) in links {
        adj[*a].push(*b);
        adj[*b].push(*a);
    }
    for l in &mut adj {
        l.sort_unstable();
    }
    let mut routes = vec![vec![None; n]; n];
    for dst in 0..n {
        // BFS backwards from dst: predecessor step gives next hops.
        let mut dist = vec![usize::MAX; n];
        let mut q = VecDeque::new();
        dist[dst] = 0;
        q.push_back(dst);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    routes[v][dst] = Some(u);
                    q.push_back(v);
                }
            }
        }
    }
    routes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_counts() {
        assert_eq!(Topology::HubSpoke.links(5).len(), 4);
        assert_eq!(Topology::Ring.links(5).len(), 5);
        assert_eq!(Topology::Ring.links(2).len(), 1);
        assert_eq!(Topology::Mesh.links(5).len(), 10);
        assert_eq!(Topology::Chain.links(5).len(), 4);
    }

    #[test]
    fn diameters() {
        assert_eq!(Topology::Mesh.diameter(6), 1);
        assert_eq!(Topology::HubSpoke.diameter(6), 2);
        assert_eq!(Topology::Chain.diameter(6), 5);
        assert_eq!(Topology::Ring.diameter(6), 3);
    }

    #[test]
    fn next_hop_routes_follow_shortest_paths() {
        let links = Topology::Chain.links(4); // 0-1-2-3
        let routes = all_pairs_next_hop(4, &links);
        assert_eq!(routes[0][3], Some(1));
        assert_eq!(routes[1][3], Some(2));
        assert_eq!(routes[3][0], Some(2));
        assert_eq!(routes[2][2], None);
    }

    #[test]
    fn every_route_arrives_in_its_distance() {
        // `MailRouter::step` forwards along these routes with no hop
        // limit, so a memo must arrive in exactly its distance: a route
        // table over fixed links cannot loop. The walk is bounded, so a
        // loop fails here instead of spinning.
        for topology in Topology::ALL {
            for n in 1..=16 {
                let links = topology.links(n);
                let routes = all_pairs_next_hop(n, &links);
                let mut longest = 0;
                for a in 0..n {
                    // Hop counts from `a` by a breadth-first search of
                    // the links themselves, not of the route table.
                    let mut dist = vec![usize::MAX; n];
                    dist[a] = 0;
                    let mut frontier = VecDeque::from([a]);
                    while let Some(u) = frontier.pop_front() {
                        for &(x, y) in &links {
                            let v = if x == u {
                                y
                            } else if y == u {
                                x
                            } else {
                                continue;
                            };
                            if dist[v] == usize::MAX {
                                dist[v] = dist[u] + 1;
                                frontier.push_back(v);
                            }
                        }
                    }
                    for b in 0..n {
                        let (mut at, mut hops) = (a, 0);
                        while at != b && hops <= n {
                            at = routes[at][b].expect("every server is reachable");
                            hops += 1;
                        }
                        let name = topology.name();
                        assert_eq!(at, b, "{name} n={n}: {a}->{b} loops");
                        assert_eq!(hops, dist[b], "{name} n={n}: {a}->{b} detours");
                        longest = longest.max(hops);
                    }
                }
                // Walked last: `diameter` follows the routes unbounded.
                assert_eq!(topology.diameter(n), longest, "{} n={n}", topology.name());
            }
        }
    }

    #[test]
    fn hub_routes_via_hub() {
        let links = Topology::HubSpoke.links(4);
        let routes = all_pairs_next_hop(4, &links);
        assert_eq!(routes[1][2], Some(0), "spoke to spoke goes through hub");
        assert_eq!(routes[1][0], Some(0));
    }
}
