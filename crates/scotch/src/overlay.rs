//! The Scotch overlay fabric (§4.1, Fig. 5).
//!
//! Three tunnel classes:
//!
//! 1. **Load-distribution tunnels** — physical switch → each mesh vSwitch;
//!    the select-group buckets point into these.
//! 2. **Mesh tunnels** — full mesh between mesh vSwitches.
//! 3. **Delivery tunnels** — mesh vSwitch → host vSwitch, "hosts are
//!    partitioned based on their locations so that all hosts are covered by
//!    one or more nearby Scotch vSwitches".
//!
//! Tunnels are configured offline (§5.6) and never consume OFA capacity.

use scotch_net::{NodeId, Topology, TunnelId, TunnelTable};
use std::collections::HashMap;

/// The overlay's static wiring plus per-vSwitch liveness bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct OverlayManager {
    /// All tunnels (owned here; the composition root consults it for label
    /// forwarding).
    pub tunnels: TunnelTable,
    /// Mesh vSwitches, in bucket order.
    pub mesh: Vec<NodeId>,
    /// Load-distribution tunnels per physical switch, parallel to `mesh`.
    pub lb_tunnels: HashMap<NodeId, Vec<TunnelId>>,
    /// tunnel → originating physical switch (recovers the switch id from
    /// Packet-In metadata, §5.2).
    pub tunnel_origin: HashMap<TunnelId, NodeId>,
    /// Full-mesh tunnels between mesh vSwitches.
    pub mesh_tunnels: HashMap<(NodeId, NodeId), TunnelId>,
    /// Delivery tunnels mesh vSwitch → host vSwitch.
    pub delivery_tunnels: HashMap<(NodeId, NodeId), TunnelId>,
    /// Which host vSwitch delivers to each host.
    pub host_vswitch: HashMap<NodeId, NodeId>,
    /// Which mesh vSwitch is "local" to each host (the paper's
    /// location-based partition; with one rack it is a deterministic
    /// assignment).
    pub local_mesh: HashMap<NodeId, NodeId>,
    /// Aggregation tunnels for policy routing (§5.4): (mesh vSwitch → the
    /// middlebox's upstream physical switch).
    pub policy_in_tunnels: HashMap<(NodeId, NodeId), TunnelId>,
    /// (physical switch → mesh vSwitch) return tunnels from the middlebox's
    /// downstream switch.
    pub policy_out_tunnels: HashMap<(NodeId, NodeId), TunnelId>,
    /// Liveness per mesh vSwitch (index-aligned with `mesh`).
    pub alive: Vec<bool>,
    /// Standby vSwitches available to replace failures (§5.6).
    pub backups: Vec<NodeId>,
}

impl OverlayManager {
    /// Build the overlay over `topo`.
    ///
    /// * `physical` — switches that will distribute load into the overlay;
    /// * `mesh` — the mesh vSwitch pool;
    /// * `hosts_with_vswitch` — `(host, host_vswitch)` delivery pairs;
    ///   hosts without an entry cannot receive overlay-routed flows.
    pub fn build(
        topo: &Topology,
        physical: &[NodeId],
        mesh: &[NodeId],
        hosts_with_vswitch: &[(NodeId, NodeId)],
    ) -> Self {
        let mut mgr = OverlayManager {
            mesh: mesh.to_vec(),
            alive: vec![true; mesh.len()],
            ..Default::default()
        };

        // 1. Load-distribution tunnels.
        for &ps in physical {
            let mut per_switch = Vec::new();
            for &v in mesh {
                let id = mgr
                    .tunnels
                    .add_shortest(topo, ps, v)
                    .unwrap_or_else(|| panic!("no path {ps:?} -> mesh {v:?}"));
                mgr.tunnel_origin.insert(id, ps);
                per_switch.push(id);
            }
            mgr.lb_tunnels.insert(ps, per_switch);
        }

        // 2. Full mesh between mesh vSwitches.
        for &a in mesh {
            for &b in mesh {
                if a != b {
                    let id = mgr
                        .tunnels
                        .add_shortest(topo, a, b)
                        .unwrap_or_else(|| panic!("no mesh path {a:?} -> {b:?}"));
                    mgr.mesh_tunnels.insert((a, b), id);
                }
            }
        }

        // 3. Delivery tunnels: every mesh vSwitch reaches every host
        //    vSwitch (the local-mesh hop uses its own delivery tunnel; any
        //    mesh vSwitch *can* deliver directly when it happens to be the
        //    local one).
        let mut host_vswitches: Vec<NodeId> = hosts_with_vswitch.iter().map(|p| p.1).collect();
        host_vswitches.sort_unstable();
        host_vswitches.dedup();
        for &m in mesh {
            for &w in &host_vswitches {
                if m == w {
                    continue;
                }
                let id = mgr
                    .tunnels
                    .add_shortest(topo, m, w)
                    .unwrap_or_else(|| panic!("no delivery path {m:?} -> {w:?}"));
                mgr.delivery_tunnels.insert((m, w), id);
            }
        }

        // Host partition: deterministic local mesh assignment (round robin
        // over host order — one "rack" in the testbed-scale topology).
        for (i, &(host, w)) in hosts_with_vswitch.iter().enumerate() {
            mgr.host_vswitch.insert(host, w);
            if !mesh.is_empty() {
                mgr.local_mesh.insert(host, mesh[i % mesh.len()]);
            }
        }

        mgr
    }

    /// Add policy aggregation tunnels for a middlebox sandwiched by
    /// `upstream` and `downstream` physical switches (§5.4 / Fig. 8; for a
    /// middlebox attached to a single switch pass the same node twice).
    /// `agg_in` / `agg_out` are the dedicated aggregation vSwitches.
    pub fn add_policy_tunnels(
        &mut self,
        topo: &Topology,
        agg_in: NodeId,
        upstream: NodeId,
        downstream: NodeId,
        agg_out: NodeId,
    ) {
        let tin = self
            .tunnels
            .add_shortest(topo, agg_in, upstream)
            .expect("no path aggregation -> upstream switch");
        self.policy_in_tunnels.insert((agg_in, upstream), tin);
        let tout = self
            .tunnels
            .add_shortest(topo, downstream, agg_out)
            .expect("no path downstream switch -> aggregation");
        self.policy_out_tunnels.insert((downstream, agg_out), tout);
    }

    /// Lay the mesh tunnels between `v` and every current member, and the
    /// delivery tunnels from `v` to every host vSwitch. Idempotent; used
    /// both by elastic scale-out and by backup promotion (a standby that
    /// takes over a bucket needs its fabric wired too).
    pub fn wire_mesh_tunnels(&mut self, topo: &Topology, v: NodeId) {
        for &m in &self.mesh.clone() {
            if m == v {
                continue;
            }
            if !self.mesh_tunnels.contains_key(&(v, m)) {
                if let Some(t) = self.tunnels.add_shortest(topo, v, m) {
                    self.mesh_tunnels.insert((v, m), t);
                }
            }
            if !self.mesh_tunnels.contains_key(&(m, v)) {
                if let Some(t) = self.tunnels.add_shortest(topo, m, v) {
                    self.mesh_tunnels.insert((m, v), t);
                }
            }
        }
        let mut host_vswitches: Vec<NodeId> = self.host_vswitch.values().copied().collect();
        host_vswitches.sort_unstable();
        host_vswitches.dedup();
        for w in host_vswitches {
            if w != v && !self.delivery_tunnels.contains_key(&(v, w)) {
                if let Some(t) = self.tunnels.add_shortest(topo, v, w) {
                    self.delivery_tunnels.insert((v, w), t);
                }
            }
        }
    }

    /// Grow the overlay: wire a new vSwitch into the mesh (§5.6: "We may
    /// also need to add new vSwitches to increase the Scotch overlay
    /// capacity"). Lays the mesh tunnels to every existing member and the
    /// delivery tunnels to every host vSwitch; the caller re-installs the
    /// load-balancing groups (which lays the per-switch tunnels).
    pub fn add_mesh_vswitch(&mut self, topo: &Topology, v: NodeId) {
        if self.mesh.contains(&v) {
            return;
        }
        self.wire_mesh_tunnels(topo, v);
        self.mesh.push(v);
        self.alive.push(true);
    }

    /// Live mesh vSwitches in bucket order.
    pub fn live_mesh(&self) -> Vec<NodeId> {
        self.mesh
            .iter()
            .zip(&self.alive)
            .filter(|(_, a)| **a)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Mark a mesh vSwitch dead; if a backup is available it takes over the
    /// bucket position. Returns the replacement if one was promoted.
    pub fn fail_vswitch(&mut self, v: NodeId) -> Option<NodeId> {
        let idx = self.mesh.iter().position(|n| *n == v)?;
        self.alive[idx] = false;
        // §5.6: "the controller can replace the failed vSwitch with the
        // backup in the action buckets".
        if let Some(backup) = self.backups.pop() {
            self.mesh[idx] = backup;
            self.alive[idx] = true;
            Some(backup)
        } else {
            None
        }
    }

    /// Bucket index of a mesh vSwitch, if present.
    pub fn bucket_of(&self, v: NodeId) -> Option<usize> {
        self.mesh.iter().position(|n| *n == v)
    }

    /// The mesh vSwitch that delivers toward `host` (its local mesh).
    pub fn local_mesh_of(&self, host: NodeId) -> Option<NodeId> {
        self.local_mesh.get(&host).copied()
    }

    /// The host vSwitch of `host`.
    pub fn host_vswitch_of(&self, host: NodeId) -> Option<NodeId> {
        self.host_vswitch.get(&host).copied()
    }

    /// Total tunnels configured.
    pub fn tunnel_count(&self) -> usize {
        self.tunnels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{LinkSpec, NodeKind};

    /// One physical switch, three mesh vSwitches, two hosts behind one
    /// host vSwitch.
    fn build() -> (Topology, OverlayManager, Vec<NodeId>) {
        let mut topo = Topology::new();
        let ps = topo.add_node(NodeKind::PhysicalSwitch, "ps");
        let mesh: Vec<NodeId> = (0..3)
            .map(|i| {
                let v = topo.add_node(NodeKind::VSwitch, format!("mesh{i}"));
                topo.add_duplex_link(ps, v, LinkSpec::gig());
                v
            })
            .collect();
        let w = topo.add_node(NodeKind::VSwitch, "hostvsw");
        topo.add_duplex_link(ps, w, LinkSpec::gig());
        let h1 = topo.add_node(NodeKind::Host, "h1");
        let h2 = topo.add_node(NodeKind::Host, "h2");
        topo.add_duplex_link(w, h1, LinkSpec::gig());
        topo.add_duplex_link(w, h2, LinkSpec::gig());
        let mgr = OverlayManager::build(&topo, &[ps], &mesh, &[(h1, w), (h2, w)]);
        (topo, mgr, vec![ps, w, h1, h2])
    }

    #[test]
    fn tunnel_classes_are_complete() {
        let (_t, mgr, ids) = build();
        let ps = ids[0];
        // 3 LB tunnels, 3*2 mesh tunnels, 3 delivery tunnels (mesh -> w).
        assert_eq!(mgr.lb_tunnels[&ps].len(), 3);
        assert_eq!(mgr.mesh_tunnels.len(), 6);
        assert_eq!(mgr.delivery_tunnels.len(), 3);
        assert_eq!(mgr.tunnel_count(), 12);
    }

    #[test]
    fn tunnel_origin_maps_back_to_switch() {
        let (_t, mgr, ids) = build();
        let ps = ids[0];
        for t in &mgr.lb_tunnels[&ps] {
            assert_eq!(mgr.tunnel_origin[t], ps);
        }
    }

    #[test]
    fn hosts_get_local_mesh_and_host_vswitch() {
        let (_t, mgr, ids) = build();
        let (w, h1, h2) = (ids[1], ids[2], ids[3]);
        assert_eq!(mgr.host_vswitch_of(h1), Some(w));
        assert_eq!(mgr.host_vswitch_of(h2), Some(w));
        assert!(mgr.local_mesh_of(h1).is_some());
        // Unknown host: none.
        assert_eq!(mgr.host_vswitch_of(NodeId(999)), None);
    }

    #[test]
    fn failover_promotes_backup() {
        let (_t, mut mgr, _) = build();
        let victim = mgr.mesh[1];
        // No backup: bucket goes dead.
        assert_eq!(mgr.fail_vswitch(victim), None);
        assert_eq!(mgr.live_mesh().len(), 2);
        // With a backup: replaced in place.
        let backup = NodeId(77);
        mgr.backups.push(backup);
        let victim2 = mgr.mesh[0];
        assert_eq!(mgr.fail_vswitch(victim2), Some(backup));
        assert_eq!(mgr.mesh[0], backup);
        // Bucket 1 is still dead (no second backup); bucket 0 recovered.
        assert_eq!(mgr.live_mesh().len(), 2);
        assert!(mgr.live_mesh().contains(&backup));
    }

    #[test]
    fn bucket_of_finds_position() {
        let (_t, mgr, _) = build();
        assert_eq!(mgr.bucket_of(mgr.mesh[2]), Some(2));
        assert_eq!(mgr.bucket_of(NodeId(500)), None);
    }

    #[test]
    fn policy_tunnels_register() {
        let (topo, mut mgr, ids) = build();
        let ps = ids[0];
        let (a_in, a_out) = (mgr.mesh[0], mgr.mesh[1]);
        mgr.add_policy_tunnels(&topo, a_in, ps, ps, a_out);
        assert!(mgr.policy_in_tunnels.contains_key(&(a_in, ps)));
        assert!(mgr.policy_out_tunnels.contains_key(&(ps, a_out)));
    }
}
