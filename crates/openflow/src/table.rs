//! Flow tables and the multi-table pipeline.
//!
//! A [`FlowTable`] holds priority-ordered [`FlowEntry`]s with idle and hard
//! timeouts and a bounded capacity (a full table rejects insertions — the
//! TCAM-exhaustion failure mode of §3.3: "a new flow rule won't be
//! installed at the flow table if it becomes full").
//!
//! A [`Pipeline`] chains tables OpenFlow-1.3 style: matching starts in
//! table 0 and an entry's `goto` continues it. Scotch's physical
//! switch uses two tables (§5.2): table 0 pushes the inner ingress-port
//! label, table 1 holds the per-flow rules and the overlay default rule.

use crate::ofmatch::{Action, Actions, Match};
use scotch_net::{IpAddr, Packet, PortId};
use scotch_sim::{SimDuration, SimTime};

/// Index of a flow table within a switch's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u8);

/// Stored timeout meaning "none". A timeout of `u64::MAX` ns (584 years)
/// never fires, so it reads as no timeout at all.
const NO_TIMEOUT: SimDuration = SimDuration(u64::MAX);

/// One installed rule. It owns no heap block: its actions are inline.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Match condition.
    pub matcher: Match,
    /// Higher wins; ties break toward the earlier-installed entry.
    pub priority: u16,
    /// Actions applied on match, in order.
    pub actions: Actions,
    /// Continue matching in this table after applying `actions`
    /// (OpenFlow's `GotoTable`; only a later table is followed).
    pub goto: Option<TableId>,
    /// Controller-chosen opaque id (used for deletion and stats
    /// correlation).
    pub cookie: u64,
    /// Remove if unmatched for this long ([`NO_TIMEOUT`] = none; read it
    /// with [`FlowEntry::idle_timeout`]). Stored without an `Option` tag
    /// so that the entry stays within 160 B.
    idle: SimDuration,
    /// Remove unconditionally this long after installation (as `idle`).
    hard: SimDuration,
    /// Installation time (set by the table).
    pub installed_at: SimTime,
    /// Last time a packet hit this entry.
    pub last_hit: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Packets matched *and* picked by the telemetry sampler (zero unless
    /// the owning switch samples; see the switch crate's `PacketSampler`).
    /// Living on the entry means sampled state is evicted, replaced and
    /// reset exactly when the entry itself is — no side-table bookkeeping.
    pub sampled_packets: u64,
    /// Bytes of sampled packets.
    pub sampled_bytes: u64,
}

// Every FlowMod carries one entry and every table slot holds one.
const _: () = assert!(core::mem::size_of::<FlowEntry>() == 152);
const _: () = assert!(core::mem::size_of::<Option<FlowEntry>>() == 152);

impl FlowEntry {
    /// A rule with the given match and priority that applies `actions`;
    /// no timeouts, no goto.
    pub fn apply(matcher: Match, priority: u16, actions: impl Into<Actions>) -> Self {
        FlowEntry {
            matcher,
            priority,
            actions: actions.into(),
            goto: None,
            cookie: 0,
            idle: NO_TIMEOUT,
            hard: NO_TIMEOUT,
            installed_at: SimTime::ZERO,
            last_hit: SimTime::ZERO,
            packet_count: 0,
            byte_count: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
        }
    }

    /// Builder: continue matching in `table` after applying the actions.
    pub fn with_goto(mut self, table: TableId) -> Self {
        self.goto = Some(table);
        self
    }

    /// Builder: set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Builder: set the idle timeout (`SimDuration(u64::MAX)`, 584 years,
    /// reads as none).
    pub fn with_idle_timeout(mut self, t: SimDuration) -> Self {
        self.idle = t;
        self
    }

    /// Builder: set the hard timeout (`SimDuration(u64::MAX)` reads as
    /// none).
    pub fn with_hard_timeout(mut self, t: SimDuration) -> Self {
        self.hard = t;
        self
    }

    /// Remove if unmatched for this long (`None` = no idle timeout).
    pub fn idle_timeout(&self) -> Option<SimDuration> {
        (self.idle != NO_TIMEOUT).then_some(self.idle)
    }

    /// Remove unconditionally this long after installation (`None` = no
    /// hard timeout).
    pub fn hard_timeout(&self) -> Option<SimDuration> {
        (self.hard != NO_TIMEOUT).then_some(self.hard)
    }

    /// The first `Output` action, if any (handy for inspecting where a
    /// rule forwards).
    pub fn first_output(&self) -> Option<Action> {
        self.actions
            .iter()
            .find(|a| matches!(a, Action::Output(_)))
            .copied()
    }

    /// The entry's deadline as the table-level gate counts it (`None` = no
    /// timeouts): the first timeout to run out, from `installed_at` and
    /// `last_hit`. A zero timeout makes it later than the first instant
    /// [`FlowEntry::expired`] holds, which is every instant. Hits do not
    /// only push it later: a hit before `installed_at` moves `last_hit`,
    /// and with it this deadline, earlier.
    fn deadline(&self) -> Option<SimTime> {
        let hard = self.hard_timeout().map(|h| self.installed_at + h);
        let idle = self.idle_timeout().map(|i| self.last_hit + i);
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (Some(h), None) => Some(h),
            (None, Some(i)) => Some(i),
            (None, None) => None,
        }
    }

    /// The first instant, in ns, at which [`FlowEntry::expired`] holds
    /// given the entry's current state (`u64::MAX` = never). Exact for
    /// that state; a later hit can only move it (see `hit`).
    fn expiry_bound(&self) -> u64 {
        // A zero timeout holds at every instant: `expired` measures with a
        // saturating `duration_since`.
        fn part(base: SimTime, t: SimDuration) -> u64 {
            if t.0 == 0 {
                0
            } else {
                base.0.saturating_add(t.0)
            }
        }
        part(self.installed_at, self.hard).min(part(self.last_hit, self.idle))
    }

    fn expired(&self, now: SimTime) -> bool {
        if let Some(h) = self.hard_timeout() {
            if now.duration_since(self.installed_at) >= h {
                return true;
            }
        }
        if let Some(i) = self.idle_timeout() {
            if now.duration_since(self.last_hit) >= i {
                return true;
            }
        }
        false
    }
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The table is at capacity (TCAM full).
    TableFull,
}

/// End of a `(src, dst)` chain.
const NIL: u32 = u32::MAX;

/// A bounded, priority-ordered flow table.
///
/// Internally a slab plus a `(src, dst)` hash index: per-flow rules (the
/// overwhelming majority — both the paper's src/dst rules and microflow
/// rules specify both addresses) are found in O(1); only the handful of
/// "generic" rules (port-labelling defaults, label rules, wildcards) are
/// scanned. Semantics are identical to a full priority scan.
///
/// Nothing here allocates per rule: the index maps a key to the head slot
/// of a chain threaded through the parallel `next` array, and expiry reads
/// the parallel `bound` array, touching an entry only once its bound has
/// passed.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Slab of entries; `None` marks a free slot.
    slots: Vec<Option<FlowEntry>>,
    /// Install order per slot, parallel to `slots`.
    seqs: Vec<u64>,
    /// Per slot, a true lower bound in ns on the first instant the entry
    /// can have expired (`u64::MAX` for free slots and entries without
    /// timeouts). Exact when set; hits may leave it low, never high.
    bound: Vec<u64>,
    /// Per indexed slot, the next slot of its `(src, dst)` chain (`NIL`
    /// ends it).
    next: Vec<u32>,
    /// Per generic slot, its position in `generic`, so `unlink` can use
    /// `swap_remove` instead of an O(n) `retain`.
    pos: Vec<u32>,
    /// Free slot indices for reuse.
    free: Vec<usize>,
    /// Head slot of the chain of entries whose matcher specifies both
    /// `src` and `dst`.
    by_src_dst: scotch_sim::FxHashMap<(IpAddr, IpAddr), u32>,
    /// Slots of all other (wildcard-ish) entries.
    generic: Vec<usize>,
    len: usize,
    capacity: usize,
    /// Monotone counter for deterministic tie-breaks.
    install_seq: u64,
    /// Table-level gate: `expire` before it is a constant-time no-op
    /// (`None` = nothing has a timeout). It is the minimum of the entries'
    /// [`FlowEntry::deadline`]s when they were installed or last swept,
    /// and hits do not lower it. It is not a true lower bound: a hit
    /// before `installed_at` moves that entry's idle deadline earlier,
    /// and a zero timeout holds before the deadline it is counted at.
    next_deadline: Option<SimTime>,
}

fn index_key(m: &Match) -> Option<(IpAddr, IpAddr)> {
    match (m.src, m.dst) {
        (Some(s), Some(d)) => Some((s, d)),
        _ => None,
    }
}

/// The slots of one `(src, dst)` chain, head first.
struct Chain<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == NIL {
            return None;
        }
        let slot = self.at as usize;
        self.at = self.next[slot];
        Some(slot)
    }
}

impl FlowTable {
    /// A table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flow table must hold at least one entry");
        assert!(
            capacity < NIL as usize,
            "slot indices must fit the u32 chain links"
        );
        FlowTable {
            slots: Vec::new(),
            seqs: Vec::new(),
            bound: Vec::new(),
            next: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
            by_src_dst: scotch_sim::FxHashMap::default(),
            generic: Vec::new(),
            len: 0,
            capacity,
            install_seq: 0,
            next_deadline: None,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The chain of `key` (empty for `None` or an unknown key).
    fn chain(&self, key: Option<(IpAddr, IpAddr)>) -> Chain<'_> {
        Chain {
            next: &self.next,
            at: key
                .and_then(|k| self.by_src_dst.get(&k).copied())
                .unwrap_or(NIL),
        }
    }

    /// The slots an entry with matcher `m` can live in: its `(src, dst)`
    /// chain, or the generic list.
    fn bucket(&self, m: &Match) -> impl Iterator<Item = usize> + '_ {
        let key = index_key(m);
        let generic = if key.is_none() {
            &self.generic[..]
        } else {
            &[]
        };
        self.chain(key).chain(generic.iter().copied())
    }

    /// Add `slot` to its index bucket: the head of its chain, or the end
    /// of the generic list.
    fn link(&mut self, slot: usize, matcher: &Match) {
        match index_key(matcher) {
            Some(k) => {
                let head = self.by_src_dst.entry(k).or_insert(NIL);
                self.next[slot] = *head;
                *head = slot as u32;
            }
            None => {
                self.pos[slot] = self.generic.len() as u32;
                self.generic.push(slot);
            }
        }
    }

    /// Remove `slot` from its index bucket: splice it out of its chain, or
    /// `swap_remove` it from the generic list at its tracked position.
    fn unlink(&mut self, slot: usize, matcher: &Match) {
        match index_key(matcher) {
            Some(k) => {
                let after = self.next[slot];
                let head = self.by_src_dst.get_mut(&k).expect("indexed key");
                if *head == slot as u32 {
                    if after == NIL {
                        self.by_src_dst.remove(&k);
                    } else {
                        *head = after;
                    }
                    return;
                }
                let mut at = *head as usize;
                while self.next[at] != slot as u32 {
                    at = self.next[at] as usize;
                }
                self.next[at] = after;
            }
            None => {
                let p = self.pos[slot] as usize;
                debug_assert_eq!(self.generic.get(p), Some(&slot));
                self.generic.swap_remove(p);
                if let Some(&moved) = self.generic.get(p) {
                    self.pos[moved] = p as u32;
                }
            }
        }
    }

    fn take_slot(&mut self, slot: usize) -> FlowEntry {
        let e = self.slots[slot].take().expect("occupied slot");
        self.unlink(slot, &e.matcher);
        self.bound[slot] = u64::MAX;
        self.free.push(slot);
        self.len -= 1;
        e
    }

    /// Install an entry at `now`. Identical (match, priority) replaces the
    /// existing entry, OpenFlow-style; otherwise a full table rejects.
    pub fn insert(&mut self, now: SimTime, mut entry: FlowEntry) -> Result<(), InsertError> {
        entry.installed_at = now;
        entry.last_hit = now;
        let bound = entry.expiry_bound();
        // Replacement: same (match, priority).
        let existing = self.bucket(&entry.matcher).find(|&s| {
            let e = self.slots[s].as_ref().expect("indexed slot occupied");
            e.matcher == entry.matcher && e.priority == entry.priority
        });
        if let Some(slot) = existing {
            self.note_deadline(entry.deadline());
            self.bound[slot] = bound;
            self.slots[slot] = Some(entry);
            return Ok(());
        }
        if self.len >= self.capacity {
            return Err(InsertError::TableFull);
        }
        self.note_deadline(entry.deadline());
        let matcher = entry.matcher;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(entry);
                self.seqs[s] = self.install_seq;
                self.bound[s] = bound;
                s
            }
            None => {
                self.slots.push(Some(entry));
                self.seqs.push(self.install_seq);
                self.bound.push(bound);
                self.next.push(NIL);
                self.pos.push(0);
                self.slots.len() - 1
            }
        };
        self.install_seq += 1;
        self.len += 1;
        self.link(slot, &matcher);
        Ok(())
    }

    /// Lower `next_deadline` to cover a (possibly `None`) entry deadline.
    fn note_deadline(&mut self, d: Option<SimTime>) {
        if let Some(d) = d {
            self.next_deadline = Some(match self.next_deadline {
                Some(cur) => cur.min(d),
                None => d,
            });
        }
    }

    /// Remove all entries with the given cookie; returns how many were
    /// removed.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let mut removed = 0;
        for slot in 0..self.slots.len() {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.cookie == cookie)
            {
                self.take_slot(slot);
                removed += 1;
            }
        }
        removed
    }

    /// Remove entries whose match equals `matcher` exactly; returns count.
    pub fn remove_exact(&mut self, matcher: &Match) -> usize {
        let mut removed = 0;
        loop {
            let hit = self.bucket(matcher).find(|&s| {
                self.slots[s]
                    .as_ref()
                    .is_some_and(|e| &e.matcher == matcher)
            });
            let Some(slot) = hit else {
                return removed;
            };
            self.take_slot(slot);
            removed += 1;
        }
    }

    /// Remove every entry (non-strict delete with an empty match);
    /// returns how many were removed.
    pub fn clear(&mut self) -> usize {
        let n = self.len;
        self.slots.clear();
        self.seqs.clear();
        self.bound.clear();
        self.next.clear();
        self.pos.clear();
        self.free.clear();
        self.by_src_dst.clear();
        self.generic.clear();
        self.len = 0;
        self.next_deadline = None;
        n
    }

    /// Drop expired entries, handing each to `removed` in slot order (so
    /// the switch can emit FlowRemoved messages). Before the table-level
    /// gate this is a constant-time no-op.
    pub fn expire(&mut self, now: SimTime, removed: impl FnMut(FlowEntry)) {
        if self.next_deadline.is_some_and(|d| now >= d) {
            self.sweep(now, removed);
        }
    }

    /// Remove every entry that has expired at `now`, in slot order, and
    /// reset the gate. Reads only `bound` and dereferences only the slots
    /// whose bound has passed: those expire, or are re-bounded because a
    /// hit moved their deadline later.
    fn sweep(&mut self, now: SimTime, mut removed: impl FnMut(FlowEntry)) {
        let mut next = u64::MAX;
        for slot in 0..self.bound.len() {
            let mut b = self.bound[slot];
            if b <= now.0 {
                let Some(e) = self.slots[slot].as_ref() else {
                    continue;
                };
                if e.expired(now) {
                    removed(self.take_slot(slot));
                    continue;
                }
                // A survivor has no zero timeout, so this equals its
                // `deadline()`.
                b = e.expiry_bound();
                self.bound[slot] = b;
            }
            next = next.min(b);
        }
        self.next_deadline = (next != u64::MAX).then_some(SimTime(next));
    }

    /// Best-match lookup without mutating counters.
    pub fn lookup(&self, packet: &Packet, in_port: PortId) -> Option<&FlowEntry> {
        self.best_slot(packet, in_port)
            .map(|i| self.slots[i].as_ref().unwrap())
    }

    fn best_slot(&self, packet: &Packet, in_port: PortId) -> Option<usize> {
        let mut best: Option<(usize, &FlowEntry)> = None;
        let indexed = self.chain(Some((packet.key.src, packet.key.dst)));
        for i in indexed.chain(self.generic.iter().copied()) {
            let Some(e) = self.slots[i].as_ref() else {
                continue;
            };
            if !e.matcher.matches(packet, in_port) {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, eb)) => {
                    e.priority > eb.priority
                        || (e.priority == eb.priority && self.seqs[i] < self.seqs[b])
                }
            };
            if better {
                best = Some((i, e));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Count a hit on slot `idx` at `now`.
    fn hit(&mut self, idx: usize, now: SimTime, size: u32) -> &mut FlowEntry {
        let e = self.slots[idx].as_mut().expect("matched slot occupied");
        e.packet_count += 1;
        e.byte_count += size as u64;
        let earlier = now < e.last_hit;
        e.last_hit = now;
        if earlier {
            // A hit before `installed_at` (the OFA install delay lets a
            // packet match a rule whose install time is still ahead)
            // moves the idle deadline earlier: lower the bound with it.
            // Any later hit only moves it later, which leaves the bound
            // low, never high.
            self.bound[idx] = self.bound[idx].min(e.expiry_bound());
        }
        e
    }

    /// Best-match lookup, bumping hit counters and the idle-timeout clock.
    pub fn match_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
    ) -> Option<&FlowEntry> {
        let idx = self.best_slot(packet, in_port)?;
        Some(self.hit(idx, now, packet.size))
    }

    /// [`FlowTable::match_packet`] returning a mutable entry, for callers
    /// that update per-entry state beyond the hit counters (the vSwitch
    /// telemetry sampler bumps `sampled_packets`/`sampled_bytes` here).
    pub fn match_packet_mut(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
    ) -> Option<&mut FlowEntry> {
        let idx = self.best_slot(packet, in_port)?;
        Some(self.hit(idx, now, packet.size))
    }

    /// Iterate over installed entries (stats collection).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.slots.iter().filter_map(|e| e.as_ref())
    }
}

/// An ordered chain of flow tables, processed OpenFlow-1.3 style.
#[derive(Debug, Clone)]
pub struct Pipeline {
    tables: Vec<FlowTable>,
}

impl Pipeline {
    /// A pipeline of `n` tables, each with the given capacity.
    pub fn new(n_tables: usize, capacity_per_table: usize) -> Self {
        assert!(n_tables > 0);
        Pipeline {
            tables: (0..n_tables)
                .map(|_| FlowTable::new(capacity_per_table))
                .collect(),
        }
    }

    /// Access one table.
    pub fn table(&self, id: TableId) -> &FlowTable {
        &self.tables[id.0 as usize]
    }

    /// Mutable access to one table.
    pub fn table_mut(&mut self, id: TableId) -> &mut FlowTable {
        &mut self.tables[id.0 as usize]
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Expire entries in every table, handing each removed entry with its
    /// table to `removed` (table order, then slot order).
    pub fn expire(&mut self, now: SimTime, mut removed: impl FnMut(TableId, FlowEntry)) {
        for (i, t) in self.tables.iter_mut().enumerate() {
            t.expire(now, |e| removed(TableId(i as u8), e));
        }
    }

    /// Run `packet` through the pipeline starting at table 0, following
    /// gotos and accumulating the applied actions into a caller-owned
    /// (typically reused) buffer, which is cleared first. Returns whether
    /// any table matched.
    ///
    /// A goto may only move forward (OpenFlow forbids loops); a backwards
    /// goto terminates processing with whatever actions have been
    /// gathered.
    pub fn process_into(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
        actions: &mut Vec<Action>,
    ) -> bool {
        actions.clear();
        let n_tables = self.tables.len();
        let mut table = 0usize;
        let mut matched_any = false;
        while let Some(entry) = self.tables[table].match_packet(now, packet, in_port) {
            matched_any = true;
            actions.extend_from_slice(&entry.actions);
            match entry.goto {
                Some(t) if (t.0 as usize) > table && (t.0 as usize) < n_tables => {
                    table = t.0 as usize
                }
                _ => break,
            }
        }
        matched_any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::{FlowId, FlowKey, IpAddr};

    /// A packet of flow `src_host` → 2.0.0.2 from port `sport`.
    fn pkt_from(src_host: u8, sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(
                IpAddr::new(1, 0, 0, src_host),
                sport,
                IpAddr::new(2, 0, 0, 2),
                80,
            ),
            FlowId(sport as u64),
            SimTime::ZERO,
        )
    }

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(sport as u64),
            SimTime::ZERO,
        )
    }

    /// The entries `expire` removes at `now`, in the order it hands them
    /// out.
    fn expired(t: &mut FlowTable, now: SimTime) -> Vec<FlowEntry> {
        let mut removed = Vec::new();
        t.expire(now, |e| removed.push(e));
        removed
    }

    /// Run `packet` through `p`: the applied actions, or `None` on a miss.
    fn process(p: &mut Pipeline, packet: &Packet, in_port: PortId) -> Option<Vec<Action>> {
        let mut actions = Vec::new();
        p.process_into(SimTime::ZERO, packet, in_port, &mut actions)
            .then_some(actions)
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new(10);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 1, [Action::Drop]),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(5).key), 10, [Action::Output(PortId(1))]),
        )
        .unwrap();
        let hit = t.lookup(&pkt(5), PortId(0)).unwrap();
        assert_eq!(hit.priority, 10);
        // Non-matching flow falls to the wildcard.
        let miss = t.lookup(&pkt(6), PortId(0)).unwrap();
        assert_eq!(miss.priority, 1);
    }

    #[test]
    fn equal_priority_prefers_earlier_install() {
        let mut t = FlowTable::new(10);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 5, [Action::Output(PortId(1))]).with_cookie(1),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::on_port(PortId(0)), 5, [Action::Drop]).with_cookie(2),
        )
        .unwrap();
        assert_eq!(t.lookup(&pkt(1), PortId(0)).unwrap().cookie, 1);
    }

    #[test]
    fn capacity_rejects_and_replacement_does_not() {
        let mut t = FlowTable::new(2);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(1).key), 1, []),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(2).key), 1, []),
        )
        .unwrap();
        assert_eq!(
            t.insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::exact(pkt(3).key), 1, [])
            ),
            Err(InsertError::TableFull)
        );
        // Same (match, priority) replaces in place even when full.
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(1).key), 1, [Action::Drop]),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(4);
        t.insert(SimTime::ZERO, FlowEntry::apply(Match::ANY, 1, []))
            .unwrap();
        t.match_packet(SimTime::from_secs(1), &pkt(1).with_size(100), PortId(0));
        t.match_packet(SimTime::from_secs(2), &pkt(1).with_size(200), PortId(0));
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 300);
        assert_eq!(e.last_hit, SimTime::from_secs(2));
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new(4);
        t.insert(
            SimTime::from_secs(10),
            FlowEntry::apply(Match::ANY, 1, []).with_hard_timeout(SimDuration::from_secs(10)),
        )
        .unwrap();
        assert!(expired(&mut t, SimTime::from_secs(15)).is_empty());
        let removed = expired(&mut t, SimTime::from_secs(20));
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_hit() {
        let mut t = FlowTable::new(4);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 1, []).with_idle_timeout(SimDuration::from_secs(5)),
        )
        .unwrap();
        // A hit at t=4 pushes expiry to t=9.
        t.match_packet(SimTime::from_secs(4), &pkt(1), PortId(0));
        assert!(expired(&mut t, SimTime::from_secs(8)).is_empty());
        assert_eq!(expired(&mut t, SimTime::from_secs(9)).len(), 1);
    }

    #[test]
    fn remove_by_cookie_and_exact() {
        let mut t = FlowTable::new(8);
        for i in 0..4 {
            t.insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::exact(pkt(i).key), 1, []).with_cookie(i as u64 % 2),
            )
            .unwrap();
        }
        assert_eq!(t.remove_by_cookie(0), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_exact(&Match::exact(pkt(1).key)), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pipeline_two_table_scotch_shape() {
        // Table 0: label the ingress port, goto table 1.
        // Table 1: default rule sends to the group.
        let mut p = Pipeline::new(2, 100);
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(
                    Match::on_port(PortId(3)),
                    1,
                    [Action::push_ingress(PortId(3))],
                )
                .with_goto(TableId(1)),
            )
            .unwrap();
        p.table_mut(TableId(1))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 0, [Action::Group(crate::group::GroupId(1))]),
            )
            .unwrap();
        assert_eq!(
            process(&mut p, &pkt(1), PortId(3)),
            Some(vec![
                Action::push_ingress(PortId(3)),
                Action::Group(crate::group::GroupId(1))
            ])
        );
    }

    #[test]
    fn pipeline_miss_when_nothing_matches() {
        let mut p = Pipeline::new(1, 10);
        assert_eq!(process(&mut p, &pkt(1), PortId(0)), None);
    }

    #[test]
    fn pipeline_ignores_backward_goto() {
        let mut p = Pipeline::new(2, 10);
        p.table_mut(TableId(1))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 1, []).with_goto(TableId(0)),
            )
            .unwrap();
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 1, [Action::Output(PortId(1))]).with_goto(TableId(1)),
            )
            .unwrap();
        // Must terminate (no loop) and keep the applied action.
        assert_eq!(
            process(&mut p, &pkt(1), PortId(0)),
            Some(vec![Action::Output(PortId(1))])
        );
    }

    proptest! {
        /// The matched entry always has the maximal priority among matching
        /// entries.
        #[test]
        fn prop_lookup_maximal_priority(
            prios in proptest::collection::vec(0u16..100, 1..50),
            probe in 0u16..50,
        ) {
            let mut t = FlowTable::new(prios.len());
            for (i, p) in prios.iter().enumerate() {
                // Half the entries match only one sport, half match all.
                let m = if i % 2 == 0 {
                    Match::ANY
                } else {
                    Match { sport: Some(i as u16), ..Match::ANY }
                };
                t.insert(SimTime::ZERO, FlowEntry::apply(m, *p, [])).unwrap();
            }
            let packet = pkt(probe);
            if let Some(hit) = t.lookup(&packet, PortId(0)) {
                let max = t
                    .iter()
                    .filter(|e| e.matcher.matches(&packet, PortId(0)))
                    .map(|e| e.priority)
                    .max()
                    .unwrap();
                prop_assert_eq!(hit.priority, max);
            }
        }

        /// The indexed lookup agrees with a naive full scan on arbitrary
        /// rule sets (the index is an optimization, never a semantic
        /// change).
        #[test]
        fn prop_index_equals_full_scan(
            specs in proptest::collection::vec((0u16..10, 0u16..8, 0u16..4, 0u16..50), 1..60),
            probe_host in 1u8..3,
            probe_sport in 0u16..8,
            probe_port in 0u16..4,
        ) {
            let mut t = FlowTable::new(specs.len());
            let mut naive: Vec<(Match, u16, u64)> = Vec::new();
            for (i, (kind, sport, port, prio)) in specs.iter().enumerate() {
                // Mix of indexed (src+dst) and generic (wildcard) rules,
                // over two (src, dst) chains.
                let p = pkt_from(1 + (*port % 2) as u8, *sport);
                let m = match kind % 5 {
                    0 => Match::exact(p.key),
                    1 => Match::src_dst(p.key.src, p.key.dst),
                    2 => Match::on_port(PortId(*port)),
                    3 => Match { sport: Some(*sport), ..Match::ANY },
                    // Drop an entry; mid-chain splices included.
                    _ => {
                        let m = if prio % 2 == 0 { Match::exact(p.key) } else { Match::on_port(PortId(*port)) };
                        let before = naive.len();
                        naive.retain(|(om, _, _)| *om != m);
                        prop_assert_eq!(t.remove_exact(&m), before - naive.len());
                        continue;
                    }
                };
                let _ = t.insert(
                    SimTime::ZERO,
                    FlowEntry::apply(m, *prio, []).with_cookie(i as u64),
                );
                // Mirror replacement semantics in the oracle.
                if let Some(e) = naive.iter_mut().find(|(om, op, _)| *om == m && *op == *prio) {
                    e.2 = i as u64;
                } else if naive.len() < specs.len() {
                    naive.push((m, *prio, i as u64));
                }
            }
            prop_assert_eq!(t.len(), naive.len());
            let packet = pkt_from(probe_host, probe_sport);
            let got = t.lookup(&packet, PortId(probe_port)).map(|e| e.cookie);
            // Oracle: max priority; ties break toward the earliest install
            // (replacement keeps the original position, hence `naive`'s
            // vector order IS install order).
            let want = naive
                .iter()
                .enumerate()
                .filter(|(_, (m, _, _))| m.matches(&packet, PortId(probe_port)))
                .max_by(|(ia, (_, pa, _)), (ib, (_, pb, _))| pa.cmp(pb).then(ib.cmp(ia)))
                .map(|(_, (_, _, c))| *c);
            prop_assert_eq!(got, want);
        }

        /// The bound-filtered sweep removes exactly what a full `expired()`
        /// scan removes, in the same slot order, under future install
        /// times, hits before install, zero and absent timeouts,
        /// replacement, `remove_exact` and `clear`.
        #[test]
        fn prop_sweep_equals_full_scan(
            ops in proptest::collection::vec((0u8..10, 0u16..6, 0u8..4, 0u8..4, 0u64..4), 1..120),
        ) {
            // 0, 1, 2 s, or none.
            fn timeout(code: u8) -> Option<SimDuration> {
                (code < 3).then(|| SimDuration::from_secs(code as u64))
            }
            let mut t = FlowTable::new(16);
            let mut clock = SimTime::ZERO;
            for (op, sport, a, b, dt) in ops {
                let p = pkt_from(1 + (sport % 2) as u8, sport);
                let m = if a % 2 == 0 { Match::exact(p.key) } else { Match::on_port(PortId(sport)) };
                match op {
                    // Install up to 1.5 s ahead of the clock, as an OFA
                    // install delay does.
                    0..=2 => {
                        let mut e = FlowEntry::apply(m, (b % 2) as u16, []);
                        if let Some(i) = timeout(a) {
                            e = e.with_idle_timeout(i);
                        }
                        if let Some(h) = timeout(b) {
                            e = e.with_hard_timeout(h);
                        }
                        let _ = t.insert(clock + SimDuration::from_millis(500 * dt), e);
                    }
                    // A hit at the clock, possibly before an install time.
                    3 | 4 => {
                        t.match_packet(clock, &p, PortId(sport));
                    }
                    5 => clock += SimDuration::from_millis(300 * dt),
                    6 | 7 => {
                        let want: Vec<FlowEntry> =
                            t.slots.iter().flatten().filter(|e| e.expired(clock)).cloned().collect();
                        let mut got = Vec::new();
                        t.sweep(clock, |e| got.push(e));
                        prop_assert_eq!(got, want);
                        prop_assert!(t.iter().all(|e| !e.expired(clock)));
                    }
                    8 => {
                        t.remove_exact(&m);
                    }
                    _ => {
                        if dt == 0 {
                            t.clear();
                        }
                    }
                }
                // Every slot's bound stays a true lower bound.
                for (slot, e) in t.slots.iter().enumerate() {
                    match e {
                        Some(e) => prop_assert!(t.bound[slot] <= e.expiry_bound()),
                        None => prop_assert_eq!(t.bound[slot], u64::MAX),
                    }
                }
            }
        }

        /// Inserting then removing by cookie leaves no trace of that cookie.
        #[test]
        fn prop_remove_by_cookie_complete(cookies in proptest::collection::vec(0u64..5, 1..40)) {
            let mut t = FlowTable::new(cookies.len());
            for (i, c) in cookies.iter().enumerate() {
                let m = Match { sport: Some(i as u16), ..Match::ANY };
                t.insert(SimTime::ZERO, FlowEntry::apply(m, 1, []).with_cookie(*c)).unwrap();
            }
            let removed = t.remove_by_cookie(3);
            prop_assert_eq!(removed, cookies.iter().filter(|&&c| c == 3).count());
            prop_assert!(t.iter().all(|e| e.cookie != 3));
        }
    }
}
