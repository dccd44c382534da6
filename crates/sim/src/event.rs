//! The event queue at the heart of the discrete-event engine.
//!
//! Events are `(SimTime, payload)` pairs ordered by time. Ties are broken by
//! insertion order (a monotonically increasing sequence number), which makes
//! the engine deterministic: two runs that push the same events in the same
//! order pop them in the same order, regardless of payload contents.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — a hierarchical timing wheel, the production queue.
//!   Pushes and pops are O(1) amortized instead of the O(log n) of a binary
//!   heap, and the slot buckets recycle their allocations, so the steady
//!   state allocates nothing.
//! * [`HeapEventQueue`] — the original `BinaryHeap` queue, kept as the
//!   executable specification. Property tests drive both with the same
//!   operation sequences and assert identical `(time, seq, payload)` pop
//!   streams.
//!
//! ## Wheel geometry
//!
//! Four levels of 256 slots. A level-`k` slot spans `2^(8k)` ns: level 0
//! resolves single nanoseconds, level 3 slots span ~16.8 ms, and the whole
//! wheel covers deltas up to `2^32` ns (~4.3 s). Events further out than
//! that land in a sorted *spill* heap and migrate into the wheel as the
//! cursor approaches them. An event is addressed by the 8-bit digit of its
//! timestamp at its level (`(at >> 8k) & 0xff`); when the cursor enters a
//! level-`k > 0` slot's window the slot *cascades* — its events re-place
//! into finer levels — until the due events sit in a level-0 slot, which
//! holds a single timestamp and drains in seq order. A slot holding a
//! single event skips the cascade: it is due at once.
//!
//! ## Keys and payloads
//!
//! The wheel buckets, the spill heap and the due run hold only 24-byte
//! `(at, seq, slot)` keys. Payloads live in a free-listed slab: written
//! once on push, read once on pop, never moved by a cascade. Pop order is
//! decided by the keys alone, so it is the same `(time, seq)` order as
//! [`HeapEventQueue`]'s.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Internal heap entry. `Reverse`-style ordering: the *earliest* event is the
/// greatest element so it surfaces at the top of the max-heap.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smaller (time, seq) is "greater" for the max-heap.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The reference event queue over a binary heap.
///
/// Functionally identical to [`EventQueue`]; see the module docs. Kept
/// because it is small enough to be obviously correct, which makes it the
/// oracle the timing wheel is property-tested against.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Timestamp of the last popped event; pops are monotone.
    now: SimTime,
    pushed_total: u64,
    popped_total: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            pushed_total: 0,
            popped_total: 0,
        }
    }

    /// Schedule `payload` for time `at` (clamped to the current time).
    pub fn push(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.pushed_total += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Remove and return the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        self.popped_total += 1;
        Some((e.at, e.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever pushed (diagnostic).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Total events ever popped (diagnostic).
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }
}

/// Slots per wheel level (one byte of the timestamp each).
const SLOTS: usize = 256;
/// Wheel levels; level `k` slots span `2^(8k)` ns.
const LEVELS: usize = 4;
/// Deltas at or beyond this go to the spill heap (`2^(8 * LEVELS)` ns).
const HORIZON: u64 = 1 << (8 * LEVELS as u32);

/// What the wheel moves: a pending event's `(at, seq)` order plus the
/// index of its payload in the [`Slab`]. 24 bytes whatever the payload's
/// size. The derived order is `(at, seq)`; `slot` never decides it
/// because `seq` is unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

/// Payload storage: each payload is written once on push and read once
/// on pop, at a stable index. Freed indices are reused last-in first-out,
/// so the slab grows only to the peak number of pending events.
struct Slab<E> {
    items: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn insert(&mut self, payload: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.items[slot as usize] = Some(payload);
            return slot;
        }
        let slot = u32::try_from(self.items.len()).expect("fewer than 2^32 pending events");
        self.items.push(Some(payload));
        slot
    }

    fn remove(&mut self, slot: u32) -> E {
        let payload = self.items[slot as usize]
            .take()
            .expect("a key's slab slot holds its payload");
        self.free.push(slot);
        payload
    }

    fn len(&self) -> usize {
        self.items.len() - self.free.len()
    }
}

/// One wheel level: 256 key buckets plus an occupancy bitmap for O(1) scans.
struct Level {
    occ: [u64; 4],
    slots: Vec<Vec<Key>>,
}

impl Level {
    fn new() -> Self {
        Level {
            occ: [0; 4],
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    fn push(&mut self, slot: usize, key: Key) {
        self.occ[slot / 64] |= 1u64 << (slot % 64);
        self.slots[slot].push(key);
    }

    /// The first occupied slot. Slots behind the cursor's digit at this
    /// level are always empty (see [`EventQueue::place`]), so slot order
    /// is time order and no wrap-around search is needed.
    fn first_occupied(&self) -> Option<usize> {
        let w = self.occ.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.occ[w].trailing_zeros() as usize)
    }

    /// Take a slot's bucket, clearing its occupancy bit. The caller returns
    /// an emptied `Vec` via [`Level::restore`] so its capacity is reused.
    fn take(&mut self, slot: usize) -> Vec<Key> {
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
        std::mem::take(&mut self.slots[slot])
    }

    fn restore(&mut self, slot: usize, mut bucket: Vec<Key>) {
        debug_assert!(self.slots[slot].is_empty());
        bucket.clear();
        self.slots[slot] = bucket;
    }
}

/// A deterministic future-event list (hierarchical timing wheel).
///
/// ```
/// use scotch_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// q.push(SimTime::from_secs(1), "sooner-but-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    levels: [Level; LEVELS],
    /// Keys beyond the wheel horizon, earliest `(at, seq)` on top.
    spill: BinaryHeap<Reverse<Key>>,
    /// The due run: one drained bucket whose keys are all at the cursor's
    /// time, in *descending* seq order so the next event pops off the end.
    current: Vec<Key>,
    slab: Slab<E>,
    /// The wheel's position, in ns. Between calls it is the timestamp of
    /// the last popped event (`t = 0` before the first), and every pending
    /// event has `at >= cursor`.
    cursor: u64,
    /// Sequence number of the next push, i.e. the number of pushes so far.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            levels: std::array::from_fn(|_| Level::new()),
            spill: BinaryHeap::new(),
            current: Vec::new(),
            slab: Slab {
                items: Vec::new(),
                free: Vec::new(),
            },
            cursor: 0,
            seq: 0,
        }
    }

    /// Schedule `payload` for time `at`.
    ///
    /// Scheduling in the past is a logic error in a DES; the event is clamped
    /// to the current time instead of time-travelling, which keeps the pop
    /// stream monotone.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let key = Key {
            at: at.0.max(self.cursor),
            seq: self.seq,
            slot: self.slab.insert(payload),
        };
        self.seq += 1;
        self.place(key);
    }

    /// Route a key to its wheel level, or to the spill heap.
    ///
    /// The level is the position of the highest digit (base 256) in which
    /// `at` differs from the cursor. That guarantees the target slot is
    /// strictly ahead of the cursor's slot at that level (equal higher
    /// digits, larger level digit), so cascades always re-place into finer
    /// levels and terminate. It also orders the levels: every key at a
    /// finer level shares the cursor's digit where a coarser key's digit
    /// is larger, so it is earlier. Keys whose top four digits differ from
    /// the cursor's don't fit the wheel and go to the spill heap — since
    /// they exceed the cursor in a higher digit, they sort after every
    /// wheel key.
    fn place(&mut self, key: Key) {
        debug_assert!(key.at >= self.cursor);
        let diff = key.at ^ self.cursor;
        if diff >= HORIZON {
            self.spill.push(Reverse(key));
            return;
        }
        let level = (63 - (diff | 1).leading_zeros() as usize) / 8;
        let slot = ((key.at >> (8 * level)) & 0xff) as usize;
        self.levels[level].push(slot, key);
    }

    /// The finest non-empty level and its first occupied slot. By the
    /// level ordering in [`EventQueue::place`], it holds the earliest
    /// wheel events.
    fn lowest_occupied(&self) -> Option<(usize, usize)> {
        self.levels
            .iter()
            .enumerate()
            .find_map(|(k, level)| level.first_occupied().map(|s| (k, s)))
    }

    /// Advance the wheel until the next due bucket is drained into
    /// `current`. Returns `None` when no events are pending anywhere.
    ///
    /// Only the lowest non-empty level is consulted: moving the cursor to
    /// the start of a slot's window at level `k` leaves its digits above
    /// `k` unchanged, so coarser keys stay placed correctly.
    ///
    /// Spill migration is *lazy*: every spill key lies in a later
    /// `2^32` ns block than the cursor (that is what put it in the spill),
    /// and every wheel key shares the cursor's block, so the spill head
    /// is always later than every wheel event — and the cursor cannot enter
    /// the spill's block while the wheel still holds events. The spill is
    /// therefore consulted only when the wheel drains completely, and then
    /// its whole due block migrates in one batch through the ordinary
    /// per-level cascade, instead of paying a heap peek on every refill.
    fn refill(&mut self) -> Option<()> {
        debug_assert!(self.current.is_empty());
        loop {
            let Some((k, s)) = self.lowest_occupied() else {
                // Wheel empty: jump to the spill's earliest event (if any)
                // and batch-migrate everything in its block.
                let Reverse(head) = *self.spill.peek()?;
                self.cursor = head.at;
                while let Some(&Reverse(key)) = self.spill.peek() {
                    if (key.at ^ self.cursor) >= HORIZON {
                        break;
                    }
                    self.spill.pop();
                    self.place(key);
                }
                continue;
            };
            let mut bucket = self.levels[k].take(s);
            if k == 0 || bucket.len() == 1 {
                // The due run. A level-0 slot holds a single timestamp,
                // and a lone key in the lowest occupied slot is the
                // earliest pending event, so it needs no cascade. Seq
                // order restores global FIFO across direct pushes,
                // cascades and spill migrations.
                self.cursor = bucket[0].at;
                bucket.sort_unstable_by_key(|key| Reverse(key.seq));
                debug_assert!(bucket.iter().all(|key| key.at == self.cursor));
                let drained = std::mem::replace(&mut self.current, bucket);
                self.levels[k].restore(s, drained);
                return Some(());
            }
            // Move the cursor to the start of the slot's window: its
            // digits above `k` stay, digit `k` becomes `s`, finer digits
            // are zero.
            let shift = 8 * k as u32;
            let start = (((self.cursor >> shift) & !0xff) | s as u64) << shift;
            debug_assert!(start > self.cursor);
            self.cursor = start;
            // Cascade: re-place the window's keys against the advanced
            // cursor; they land in strictly finer levels.
            for key in bucket.drain(..) {
                self.place(key);
            }
            self.levels[k].restore(s, bucket);
        }
    }

    /// Remove and return the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            self.refill()?;
        }
        let key = self.current.pop().expect("refill leaves a due event");
        debug_assert!(key.at == self.cursor);
        Some((SimTime(key.at), self.slab.remove(key.slot)))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.current.is_empty() {
            return Some(SimTime(self.cursor));
        }
        let at = match self.lowest_occupied() {
            Some((k, s)) => self.levels[k].slots[s].iter().map(|key| key.at).min(),
            None => self.spill.peek().map(|Reverse(key)| key.at),
        };
        at.map(SimTime)
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        SimTime(self.cursor)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed (diagnostic).
    pub fn pushed_total(&self) -> u64 {
        self.seq
    }

    /// Total events ever popped (diagnostic).
    pub fn popped_total(&self) -> u64 {
        self.seq - self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "a");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
        // Scheduling "in the past" relative to the popped event.
        q.push(SimTime::from_secs(1), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(e, "late");
    }

    #[test]
    fn counters_track_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_events_spill_and_return() {
        // Beyond the 2^32 ns wheel horizon.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(8), "far");
        q.push(SimTime::from_secs(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(8), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spill_only_queue_jumps_cursor() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), 1);
        q.push(SimTime::from_secs(100), 2);
        q.push(SimTime::from_secs(200), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(100)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(200), 3)));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(q.now() + SimDuration::from_secs(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    /// A long hold-model run against the heap oracle: the queue hovers
    /// around `target` pending events (a pop is more likely above it, a
    /// push below it). Delays are log-uniform from 1 ns to ~8.6 s, so
    /// level-0 collisions, every wheel level and the spill all fire; some
    /// pushes land exactly at `now`, in the past (clamped), or in bursts
    /// at one timestamp. Every step compares pops, `peek_time`, `len` and
    /// `now`; the final drain and the push/pop totals must match too.
    fn hold_model_matches_heap(target: usize, ops: usize, seed: u64) {
        let mut rng = crate::rng::SimRng::new(seed);
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut id = 0u64;
        let mut push = |wheel: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, at| {
            wheel.push(at, id);
            heap.push(at, id);
            id += 1;
        };
        for _ in 0..ops {
            if rng.index(2 * target) < heap.len() {
                assert_eq!(wheel.pop(), heap.pop());
            } else {
                let now = heap.now().as_nanos();
                match rng.index(20) {
                    0 => push(&mut wheel, &mut heap, SimTime::from_nanos(now)),
                    1 => {
                        let past = now.saturating_sub(rng.range_u64(1, 1_000_000));
                        push(&mut wheel, &mut heap, SimTime::from_nanos(past));
                    }
                    2 => {
                        let at = SimTime::from_nanos(now + rng.range_u64(0, 100_000));
                        for _ in 0..rng.range_u64(2, 9) {
                            push(&mut wheel, &mut heap, at);
                        }
                    }
                    _ => {
                        let bits = rng.range_u64(1, 34);
                        let delay = rng.range_u64(1, 1 << bits);
                        push(&mut wheel, &mut heap, SimTime::from_nanos(now + delay));
                    }
                }
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.now(), heap.now());
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.pushed_total(), heap.pushed_total());
        assert_eq!(wheel.popped_total(), heap.popped_total());
    }

    #[test]
    fn hold_model_matches_heap_short_queue() {
        hold_model_matches_heap(200, 200_000, 1);
    }

    #[test]
    fn hold_model_matches_heap_long_queue() {
        hold_model_matches_heap(5_000, 200_000, 2);
    }

    /// Counts its own drops in a shared cell.
    struct DropCounter(std::rc::Rc<std::cell::Cell<u64>>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn every_payload_drops_exactly_once() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        // Spread over wheel levels and the spill.
        for i in 0..1_000u64 {
            let at = SimTime::from_nanos(i * 7_919 % 3_000 * 3_000_000);
            q.push(at, DropCounter(drops.clone()));
        }
        for _ in 0..400 {
            drop(q.pop());
        }
        assert_eq!(drops.get(), 400);
        // Refill freed slab slots while older payloads are still pending.
        for i in 0..100 {
            q.push(
                q.now() + SimDuration::from_nanos(i),
                DropCounter(drops.clone()),
            );
        }
        for _ in 0..50 {
            drop(q.pop());
        }
        assert_eq!(drops.get(), 450);
        assert_eq!(q.len(), 650);
        drop(q);
        assert_eq!(drops.get(), 1_100);
        assert_eq!(std::rc::Rc::strong_count(&drops), 1);
    }

    proptest! {
        /// Pop order is always non-decreasing in time, regardless of push order.
        #[test]
        fn prop_pop_times_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Same-timestamp events pop in push order (stability).
        #[test]
        fn prop_stable_at_equal_times(n in 1usize..300) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            for i in 0..n {
                q.push(t, i);
            }
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// Determinism: two queues fed the same sequence produce identical streams.
        #[test]
        fn prop_determinism(times in proptest::collection::vec(0u64..10_000, 1..100)) {
            let build = || {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(*t), i);
                }
                std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
            };
            prop_assert_eq!(build(), build());
        }

        /// The wheel's pop stream is identical to the heap oracle's under
        /// random push/pop interleavings: same `(time, payload)` pairs, same
        /// clamping of past events, same `peek_time`. Timestamps span far
        /// past the wheel horizon so the spill heap is exercised, and are
        /// coarsened so same-timestamp collisions are common.
        #[test]
        fn prop_wheel_matches_heap(
            ops in proptest::collection::vec((0u8..4, 0u64..6_000_000_000), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                if *op == 3 {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                } else {
                    // Coarsen to 1 ms grid for timestamp collisions.
                    let at = SimTime::from_nanos(t / 1_000_000 * 1_000_000);
                    wheel.push(at, i);
                    heap.push(at, i);
                }
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.now(), heap.now());
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.pushed_total(), heap.pushed_total());
            prop_assert_eq!(wheel.popped_total(), heap.popped_total());
        }

        /// Spill-heavy traffic: timestamps span dozens of 2^32 ns wheel
        /// blocks, so most pushes land in the spill heap and the lazy
        /// block-batch migration path runs many times, interleaved with
        /// pops and with near-term pushes that re-populate the wheel after
        /// each block jump. The wheel must still match the heap oracle
        /// exactly — including `peek_time` while events sit unmigrated in
        /// the spill.
        #[test]
        fn prop_wheel_matches_heap_spill_heavy(
            ops in proptest::collection::vec((0u8..5, 0u64..64), 1..300),
        ) {
            const BLOCK: u64 = 1 << 32;
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                match op {
                    // Pops are less frequent than pushes so the spill
                    // accumulates entries across many far blocks.
                    4 => { prop_assert_eq!(wheel.pop(), heap.pop()); }
                    // Far pushes: a whole block per unit of `t`, plus a
                    // small in-block offset, so successive block jumps
                    // find several co-resident spill entries to batch.
                    0 | 1 => {
                        let at = SimTime::from_nanos(t * BLOCK + (i as u64 % 3) * (BLOCK / 2));
                        wheel.push(at, i);
                        heap.push(at, i);
                    }
                    // Near pushes: clamp-to-now keeps the wheel non-empty
                    // between block jumps.
                    _ => {
                        let at = wheel.now() + SimDuration::from_nanos(*t);
                        wheel.push(at, i);
                        heap.push(at, i);
                    }
                }
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.popped_total(), heap.popped_total());
        }

        /// Dense nanosecond-scale traffic (every level-0 path): the wheel
        /// matches the oracle with many same-bucket and adjacent-bucket
        /// events, including pushes that clamp to `now` mid-drain.
        #[test]
        fn prop_wheel_matches_heap_dense(
            ops in proptest::collection::vec((0u8..3, 0u64..4_096), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            for (i, (op, t)) in ops.iter().enumerate() {
                if *op == 2 {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                } else {
                    let at = SimTime::from_nanos(*t);
                    wheel.push(at, i);
                    heap.push(at, i);
                }
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
