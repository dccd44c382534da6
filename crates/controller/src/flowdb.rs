//! §5.2's Flow Info Database.
//!
//! "The controller maintains the flow's first-hop physical switch id and
//! the ingress port id at the Flow Info Database. Such information will be
//! used for large flow migration."

use scotch_net::{FlowKey, NodeId, PortId};
use scotch_sim::FxHashMap;
use scotch_sim::SimTime;

/// Where a flow currently runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPath {
    /// Over the physical SDN network (per-flow rules at hardware switches).
    Physical,
    /// Over the Scotch overlay (rules at vSwitches only).
    Overlay,
}

/// Per-flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowInfo {
    /// First-hop physical switch (where the flow enters the SDN network).
    pub first_hop: NodeId,
    /// Ingress port at that switch (recovered from the inner label when the
    /// Packet-In came through the overlay).
    pub ingress_port: PortId,
    /// When the controller first saw the flow.
    pub first_seen: SimTime,
    /// Where the flow is routed right now.
    pub path: FlowPath,
    /// Set once the flow has been migrated overlay → physical (§5.3); a
    /// migrated flow "remains at the physical SDN network for the rest of
    /// time".
    pub migrated: bool,
    /// Last time the controller saw evidence the flow is alive (flow-stats
    /// deltas, duplicate Packet-Ins). Used by withdrawal to pin only flows
    /// that are still running (§5.5).
    pub last_active: SimTime,
}

/// The database.
#[derive(Debug, Clone, Default)]
pub struct FlowInfoDatabase {
    flows: FxHashMap<FlowKey, FlowInfo>,
}

impl FlowInfoDatabase {
    /// An empty database.
    pub fn new() -> Self {
        FlowInfoDatabase::default()
    }

    /// Record a newly seen flow. Returns `true` if it was genuinely new.
    /// An existing record is left untouched (retransmitted first packets
    /// must not reset provenance).
    pub fn record(
        &mut self,
        key: FlowKey,
        first_hop: NodeId,
        ingress_port: PortId,
        now: SimTime,
        path: FlowPath,
    ) -> bool {
        match self.flows.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(FlowInfo {
                    first_hop,
                    ingress_port,
                    first_seen: now,
                    path,
                    migrated: false,
                    last_active: now,
                });
                true
            }
        }
    }

    /// Look up a flow.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowInfo> {
        self.flows.get(key)
    }

    /// Record evidence that a flow is still alive.
    pub fn touch(&mut self, key: &FlowKey, now: SimTime) {
        if let Some(f) = self.flows.get_mut(key) {
            if now > f.last_active {
                f.last_active = now;
            }
        }
    }

    /// Mark a flow as migrated to the physical network.
    pub fn mark_migrated(&mut self, key: &FlowKey) -> bool {
        if let Some(f) = self.flows.get_mut(key) {
            f.path = FlowPath::Physical;
            f.migrated = true;
            true
        } else {
            false
        }
    }

    /// Forget a flow (it ended / its rules timed out).
    pub fn remove(&mut self, key: &FlowKey) -> Option<FlowInfo> {
        self.flows.remove(key)
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flows currently on the overlay (candidates for migration and for
    /// §5.5's withdrawal pinning).
    pub fn overlay_flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowInfo)> {
        self.flows
            .iter()
            .filter(|(_, f)| f.path == FlowPath::Overlay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{IpAddr, Protocol};

    fn key(n: u16) -> FlowKey {
        FlowKey {
            src: IpAddr::new(1, 0, 0, 1),
            dst: IpAddr::new(2, 0, 0, 2),
            proto: Protocol::Tcp,
            sport: n,
            dport: 80,
        }
    }

    #[test]
    fn record_is_idempotent() {
        let mut db = FlowInfoDatabase::new();
        assert!(db.record(
            key(1),
            NodeId(5),
            PortId(2),
            SimTime::from_secs(1),
            FlowPath::Overlay
        ));
        // A retransmit must not clobber provenance.
        assert!(!db.record(
            key(1),
            NodeId(9),
            PortId(9),
            SimTime::from_secs(2),
            FlowPath::Physical
        ));
        let f = db.get(&key(1)).unwrap();
        assert_eq!(f.first_hop, NodeId(5));
        assert_eq!(f.ingress_port, PortId(2));
        assert_eq!(f.path, FlowPath::Overlay);
    }

    #[test]
    fn migration_flips_path() {
        let mut db = FlowInfoDatabase::new();
        db.record(
            key(1),
            NodeId(1),
            PortId(0),
            SimTime::ZERO,
            FlowPath::Overlay,
        );
        assert!(db.mark_migrated(&key(1)));
        let f = db.get(&key(1)).unwrap();
        assert_eq!(f.path, FlowPath::Physical);
        assert!(f.migrated);
        assert!(!db.mark_migrated(&key(2)));
    }

    #[test]
    fn overlay_flows_filter() {
        let mut db = FlowInfoDatabase::new();
        db.record(
            key(1),
            NodeId(1),
            PortId(0),
            SimTime::ZERO,
            FlowPath::Overlay,
        );
        db.record(
            key(2),
            NodeId(1),
            PortId(0),
            SimTime::ZERO,
            FlowPath::Physical,
        );
        db.record(
            key(3),
            NodeId(2),
            PortId(1),
            SimTime::ZERO,
            FlowPath::Overlay,
        );
        let overlay: Vec<_> = db.overlay_flows().map(|(k, _)| *k).collect();
        assert_eq!(overlay.len(), 2);
        assert!(!overlay.contains(&key(2)));
    }

    #[test]
    fn remove_forgets() {
        let mut db = FlowInfoDatabase::new();
        db.record(
            key(1),
            NodeId(1),
            PortId(0),
            SimTime::ZERO,
            FlowPath::Overlay,
        );
        assert!(db.remove(&key(1)).is_some());
        assert!(db.get(&key(1)).is_none());
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
    }
}
