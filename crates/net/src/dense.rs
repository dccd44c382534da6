//! Dense per-node storage.
//!
//! [`NodeId`]s are small integers handed out contiguously by the topology
//! builder, so a `Vec<Option<T>>` indexed by `NodeId.0` beats a `HashMap`
//! for the per-event device lookups on the simulator's hot path: one bounds
//! check instead of hash + probe, and iteration order is ascending `NodeId`
//! — deterministic by construction, where `HashMap` order depends on the
//! process's random hash seed.

use crate::topology::NodeId;

/// A map from [`NodeId`] to `T`, stored densely by the id's integer value.
///
/// Semantics match the `HashMap<NodeId, T>` subset the simulator uses:
/// `insert` replaces, `get`/`get_mut` return `Option`, iteration yields
/// occupied entries only — but always in ascending `NodeId` order.
#[derive(Debug, Clone, Default)]
pub struct NodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> NodeMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        NodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert or replace the entry for `node`, returning any previous value.
    pub fn insert(&mut self, node: NodeId, value: T) -> Option<T> {
        let idx = node.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry for `node`, if present.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&T> {
        self.slots.get(node.0 as usize)?.as_ref()
    }

    /// Mutable access to the entry for `node`, if present.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        self.slots.get_mut(node.0 as usize)?.as_mut()
    }

    /// True if `node` has an entry.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// The entry for `node`, inserting `T::default()` first if absent.
    pub fn entry_or_default(&mut self, node: NodeId) -> &mut T
    where
        T: Default,
    {
        if !self.contains(node) {
            self.insert(node, T::default());
        }
        self.get_mut(node).unwrap()
    }

    /// Occupied `(node, value)` pairs in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (NodeId(i as u32), v)))
    }

    /// Occupied nodes in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Occupied values in ascending node order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// One past the highest id ever inserted — the bound for index walks
    /// that need `get_mut` inside the loop body (no iterator borrow).
    pub fn id_bound(&self) -> u32 {
        self.slots.len() as u32
    }
}

impl<T> IntoIterator for NodeMap<T> {
    type Item = (NodeId, T);
    type IntoIter = std::iter::FilterMap<
        std::iter::Enumerate<std::vec::IntoIter<Option<T>>>,
        fn((usize, Option<T>)) -> Option<(NodeId, T)>,
    >;

    /// Consume the map, yielding `(node, value)` pairs in ascending order.
    fn into_iter(self) -> Self::IntoIter {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|v| (NodeId(i as u32), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut m = NodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(5), "a"), None);
        assert_eq!(m.insert(NodeId(2), "b"), None);
        assert_eq!(m.insert(NodeId(5), "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(NodeId(5)), Some(&"c"));
        assert_eq!(m.get(NodeId(3)), None);
        assert_eq!(m.get(NodeId(100)), None);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut m = NodeMap::new();
        for id in [7u32, 1, 4] {
            m.insert(NodeId(id), id * 10);
        }
        let pairs: Vec<_> = m.iter().map(|(n, v)| (n.0, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (4, 40), (7, 70)]);
        assert_eq!(m.keys().map(|n| n.0).collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(
            m.into_iter().map(|(n, _)| n.0).collect::<Vec<_>>(),
            vec![1, 4, 7]
        );
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut m: NodeMap<Vec<u32>> = NodeMap::new();
        m.entry_or_default(NodeId(3)).push(1);
        m.entry_or_default(NodeId(3)).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(NodeId(3)), Some(&vec![1, 2]));
    }
}
