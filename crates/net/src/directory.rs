//! The replicated shard → node directory.
//!
//! The directory is the cluster's placement authority: for every shard
//! it records which node hosts the primary copy and which nodes host
//! follower copies, with followers pinned to failure domains distinct
//! from the primary's (and from each other where the fleet allows), so
//! losing one rack/zone never loses every copy of a shard.
//!
//! When a node dies, each shard it led promotes the surviving follower
//! [`janus_cluster::host::promote`] picks, as `ClusterEngine::fail_shard`
//! does. Every acknowledged write lives in the coordinator's durable
//! topic, so the promoted copy catches up from its own offset.
//!
//! [`Directory::snapshot`] copies the state by value, and it encodes to
//! a CRC-sealed blob, but nothing persists it yet: a restarted
//! coordinator does not recover the placement map.

use janus_cluster::host::promote;
use janus_common::codec::{self, Dec, Decode, Enc, Encode};
use janus_common::{JanusError, Result};
use std::net::SocketAddr;

/// Blob tag of a stored [`DirectorySnapshot`].
const TAG: &[u8; 4] = b"JDIR";

/// Identity facts for one node, learned from its `HelloAck`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDesc {
    /// The node's stable id.
    pub node_id: u64,
    /// Failure-domain label the node daemon was started with.
    pub domain: String,
    /// Address the node serves on.
    pub addr: SocketAddr,
}

/// Hosting assignment for one shard, as node indices into
/// [`Directory::nodes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHosts {
    /// Node serving as the shard's primary.
    pub primary: usize,
    /// Nodes hosting follower copies.
    pub followers: Vec<usize>,
}

impl ShardHosts {
    /// Primary first, then followers — every node holding a copy.
    pub fn all(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.primary).chain(self.followers.iter().copied())
    }

    /// Whether node `idx` holds a copy.
    pub fn includes(&self, idx: usize) -> bool {
        self.all().any(|n| n == idx)
    }
}

/// The shard → node placement map plus node liveness.
#[derive(Clone, Debug, PartialEq)]
pub struct Directory {
    nodes: Vec<NodeDesc>,
    alive: Vec<bool>,
    hosts: Vec<ShardHosts>,
    /// Shards whose every copy died; queries against them must fail
    /// loudly instead of silently under-counting.
    lost: Vec<u32>,
}

impl Directory {
    /// Places `shards` shards across `nodes`: shard `s`'s primary is
    /// node `s % n` (round-robin, the same striping the in-process
    /// cluster's worker pool uses), and each of its `replicas`
    /// followers goes to the next node whose failure domain differs
    /// from every domain already hosting that shard — falling back to
    /// merely-distinct nodes once domains are exhausted, so a
    /// single-domain fleet still gets distinct-node replication.
    pub fn place(nodes: Vec<NodeDesc>, shards: usize, replicas: usize) -> Result<Directory> {
        if nodes.is_empty() {
            return Err(JanusError::InvalidConfig("no nodes to place on".into()));
        }
        if replicas >= nodes.len() {
            return Err(JanusError::InvalidConfig(format!(
                "{replicas} follower(s) per shard need at least {} nodes, have {}",
                replicas + 1,
                nodes.len()
            )));
        }
        let n = nodes.len();
        let hosts = (0..shards)
            .map(|s| {
                let primary = s % n;
                let mut chosen = vec![primary];
                let mut domains = vec![nodes[primary].domain.as_str()];
                // First pass: distinct failure domains only.
                for step in 1..n {
                    if chosen.len() > replicas {
                        break;
                    }
                    let cand = (primary + step) % n;
                    if !domains.contains(&nodes[cand].domain.as_str()) {
                        chosen.push(cand);
                        domains.push(nodes[cand].domain.as_str());
                    }
                }
                // Fallback pass: distinct nodes, domains exhausted.
                for step in 1..n {
                    if chosen.len() > replicas {
                        break;
                    }
                    let cand = (primary + step) % n;
                    if !chosen.contains(&cand) {
                        chosen.push(cand);
                    }
                }
                ShardHosts {
                    primary: chosen[0],
                    followers: chosen[1..].to_vec(),
                }
            })
            .collect();
        Ok(Directory {
            alive: vec![true; n],
            nodes,
            hosts,
            lost: Vec::new(),
        })
    }

    /// All nodes, indexable by the indices [`ShardHosts`] carries.
    pub fn nodes(&self) -> &[NodeDesc] {
        &self.nodes
    }

    /// Number of shards placed.
    pub fn shards(&self) -> usize {
        self.hosts.len()
    }

    /// Hosting assignment for `shard`.
    pub fn hosts_of(&self, shard: u32) -> &ShardHosts {
        &self.hosts[shard as usize]
    }

    /// Whether node `idx` is still considered alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive[idx]
    }

    /// Shards node `idx` currently hosts (as primary or follower), in
    /// shard order — the shipping schedule for that node's tail stream.
    pub fn hosted_shards(&self, idx: usize) -> Vec<u32> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.includes(idx))
            .map(|(s, _)| s as u32)
            .collect()
    }

    /// Shards that lost their last copy.
    pub fn lost_shards(&self) -> &[u32] {
        &self.lost
    }

    /// Repoints `shard`'s primary to `to`, a freshly installed copy, and
    /// drops `from` from its host set — the directory half of a
    /// snapshot-shipped migration.
    pub fn repoint(&mut self, shard: u32, from: usize, to: usize) {
        let h = &mut self.hosts[shard as usize];
        h.followers.retain(|&f| f != to && f != from);
        if h.primary == from {
            h.primary = to;
        } else if !h.followers.contains(&to) && h.primary != to {
            h.followers.push(to);
        }
    }

    /// Marks node `idx` dead and promotes a follower for every shard it
    /// led, the one [`promote`] picks among the alive followers by node
    /// index (`freshness` reports a node's applied offset for a shard).
    ///
    /// Returns `(shard, promoted_node)` for each promotion. Shards left
    /// with no copy move to [`Directory::lost_shards`].
    pub fn fail_node(
        &mut self,
        idx: usize,
        freshness: impl Fn(usize, u32) -> u64,
    ) -> Vec<(u32, usize)> {
        if !self.alive[idx] {
            return Vec::new();
        }
        self.alive[idx] = false;
        let mut promotions = Vec::new();
        for shard in 0..self.hosts.len() as u32 {
            let h = &mut self.hosts[shard as usize];
            h.followers.retain(|&f| f != idx);
            if h.primary != idx {
                continue;
            }
            let alive = &self.alive;
            let candidates = h.followers.iter().copied().filter(|&f| alive[f]);
            match promote(candidates.map(|f| (f, freshness(f, shard)))) {
                Some(promoted) => {
                    h.followers.retain(|&f| f != promoted);
                    h.primary = promoted;
                    promotions.push((shard, promoted));
                }
                None => self.lost.push(shard),
            }
        }
        promotions
    }

    /// Persistable copy of the full directory state.
    pub fn snapshot(&self) -> DirectorySnapshot {
        DirectorySnapshot {
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeSnapshot {
                    node_id: n.node_id,
                    domain: n.domain.clone(),
                    addr: n.addr.to_string(),
                })
                .collect(),
            alive: self.alive.clone(),
            primaries: self.hosts.iter().map(|h| h.primary).collect(),
            followers: self.hosts.iter().map(|h| h.followers.clone()).collect(),
            lost: self.lost.clone(),
        }
    }

    /// Rebuilds a directory from a persisted snapshot.
    pub fn from_snapshot(snap: &DirectorySnapshot) -> Result<Directory> {
        let nodes = snap
            .nodes
            .iter()
            .map(|n| {
                Ok(NodeDesc {
                    node_id: n.node_id,
                    domain: n.domain.clone(),
                    addr: n.addr.parse().map_err(|_| {
                        JanusError::InvalidConfig(format!("bad node address {:?}", n.addr))
                    })?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        if snap.primaries.len() != snap.followers.len() || snap.alive.len() != nodes.len() {
            return Err(JanusError::InvalidConfig(
                "inconsistent directory snapshot".into(),
            ));
        }
        let hosts = snap
            .primaries
            .iter()
            .zip(&snap.followers)
            .map(|(&primary, followers)| ShardHosts {
                primary,
                followers: followers.clone(),
            })
            .collect();
        Ok(Directory {
            nodes,
            alive: snap.alive.clone(),
            hosts,
            lost: snap.lost.clone(),
        })
    }
}

/// Wire/storage form of one node's identity.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// Stable node id.
    pub node_id: u64,
    /// Failure-domain label.
    pub domain: String,
    /// Serve address, as a parseable string.
    pub addr: String,
}

/// Directory state by value, with its sealed-blob encoding.
#[derive(Clone, Debug, PartialEq)]
pub struct DirectorySnapshot {
    /// Node identities, in index order.
    pub nodes: Vec<NodeSnapshot>,
    /// Per-node liveness.
    pub alive: Vec<bool>,
    /// Per-shard primary node index.
    pub primaries: Vec<usize>,
    /// Per-shard follower node indices.
    pub followers: Vec<Vec<usize>>,
    /// Shards that lost every copy.
    pub lost: Vec<u32>,
}

impl DirectorySnapshot {
    /// Encodes to the sealed blob the checkpoint store carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(TAG, self)
    }

    /// Decodes a stored blob; any corruption is [`JanusError::Storage`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_blob(TAG, bytes, "directory snapshot")
    }
}

impl Encode for NodeSnapshot {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.node_id);
        e.str(&self.domain);
        e.str(&self.addr);
    }
}

impl Decode for NodeSnapshot {
    const MIN_LEN: usize = 16;
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(NodeSnapshot {
            node_id: d.u64()?,
            domain: d.str()?,
            addr: d.str()?,
        })
    }
}

impl Encode for DirectorySnapshot {
    fn encode(&self, e: &mut Enc) {
        self.nodes.encode(e);
        self.alive.encode(e);
        self.primaries.encode(e);
        self.followers.encode(e);
        self.lost.encode(e);
    }
}

impl Decode for DirectorySnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(DirectorySnapshot {
            nodes: d.get()?,
            alive: d.get()?,
            primaries: d.get()?,
            followers: d.get()?,
            lost: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(domains: &[&str]) -> Vec<NodeDesc> {
        domains
            .iter()
            .enumerate()
            .map(|(i, d)| NodeDesc {
                node_id: i as u64,
                domain: (*d).into(),
                addr: format!("127.0.0.1:{}", 9000 + i).parse().unwrap(),
            })
            .collect()
    }

    #[test]
    fn followers_land_in_distinct_domains() {
        let dir = Directory::place(fleet(&["a", "a", "b", "b"]), 8, 1).unwrap();
        for s in 0..8 {
            let h = dir.hosts_of(s);
            assert_eq!(h.followers.len(), 1);
            assert_ne!(
                dir.nodes()[h.primary].domain,
                dir.nodes()[h.followers[0]].domain,
                "shard {s} replicated within one failure domain"
            );
        }
    }

    #[test]
    fn single_domain_fleet_falls_back_to_distinct_nodes() {
        let dir = Directory::place(fleet(&["a", "a", "a"]), 4, 2).unwrap();
        for s in 0..4 {
            let h = dir.hosts_of(s);
            let mut all: Vec<usize> = h.all().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 3, "shard {s} copies must sit on distinct nodes");
        }
    }

    #[test]
    fn fail_node_promotes_freshest_follower() {
        let mut dir = Directory::place(fleet(&["a", "b", "c"]), 3, 2).unwrap();
        // Shard 0: primary node 0, followers 1 and 2. Node 2 is fresher.
        let promotions = dir.fail_node(0, |node, _shard| if node == 2 { 10 } else { 5 });
        let promoted = promotions
            .iter()
            .find(|(s, _)| *s == 0)
            .map(|(_, n)| *n)
            .unwrap();
        assert_eq!(promoted, 2);
        assert!(!dir.is_alive(0));
        assert!(dir.lost_shards().is_empty());
        // Equal freshness ties toward the lowest index.
        let mut dir = Directory::place(fleet(&["a", "b", "c"]), 3, 2).unwrap();
        let promotions = dir.fail_node(0, |_, _| 7);
        assert_eq!(promotions.iter().find(|(s, _)| *s == 0).unwrap().1, 1);
    }

    #[test]
    fn every_primary_is_alive_unless_its_shard_is_lost() {
        let mut dir = Directory::place(fleet(&["a", "b", "c"]), 6, 1).unwrap();
        for dead in [1, 0, 2] {
            dir.fail_node(dead, |node, shard| (node as u64 + 1) * u64::from(shard));
            for shard in 0..6 {
                let primary = dir.hosts_of(shard).primary;
                assert!(
                    dir.is_alive(primary) || dir.lost_shards().contains(&shard),
                    "after failing node {dead}, shard {shard} leads from dead node {primary}"
                );
            }
        }
        assert_eq!(dir.lost_shards().len(), 6);
    }

    #[test]
    fn losing_every_copy_is_loud() {
        let mut dir = Directory::place(fleet(&["a", "b"]), 2, 0).unwrap();
        dir.fail_node(0, |_, _| 0);
        assert_eq!(dir.lost_shards(), &[0]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut dir = Directory::place(fleet(&["a", "b", "c"]), 5, 1).unwrap();
        dir.fail_node(1, |_, _| 3);
        let back = DirectorySnapshot::from_bytes(&dir.snapshot().to_bytes()).unwrap();
        assert_eq!(Directory::from_snapshot(&back).unwrap(), dir);
    }
}
