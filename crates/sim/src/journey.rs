//! Causal flow-journey tracing (DESIGN.md §14).
//!
//! The flight recorder (`trace`) answers "what did the control plane do";
//! this module answers "where did *this flow's* setup time go". A traced
//! flow's first packet (the `FlowStart` that triggers the reactive
//! Packet-In path) is followed through its whole lifecycle — host uplink,
//! default-rule tunnel hops, OFA punt, controller ingress queue, decision,
//! rule install / overlay path setup, delivery — and every milestone is
//! recorded as a [`JourneyMark`] point event. Stage *spans* are
//! reconstructed offline as the gaps between consecutive marks, so the
//! per-stage durations of a delivered journey telescope exactly to its
//! end-to-end setup latency: no double counting, no gaps, to the tick.
//!
//! ## Determinism
//!
//! A journey id is the flow id, already carried by every packet, so it
//! needs no extra state. Whether a flow is traced is a pure hash of
//! `(flow id, seed)` against the sampling rate (the same stateless-fork
//! discipline as the packet sampler), so the selection is independent of
//! event interleaving. [`JourneyRecorder::canonicalize`] sorts by
//! `(journey, time, point, node, info)`, the order every export consumes.

use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};

/// Stream constant folded into the seed for journey selection, so journey
/// draws are independent of the workload and packet-sampler streams.
pub const JOURNEY_STREAM: u64 = 0x4A6F_7572_6E65;

/// Default sampling rate when journey tracing is enabled without an
/// explicit rate (1/64, matching the telemetry sampling default ladder).
pub const DEFAULT_JOURNEY_RATE: f64 = 1.0 / 64.0;

/// Default bound on retained marks (~24 B each; 1M marks ≈ 24 MiB).
pub const DEFAULT_JOURNEY_CAPACITY: usize = 1 << 20;

/// Lifecycle milestone of a traced flow's first packet.
///
/// Discriminant order is lifecycle order: marks that land on the same tick
/// sort into causal order by this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum JourneyPoint {
    /// First packet leaves its source host.
    Emit = 0,
    /// First packet arrives at a switch, vSwitch, or middlebox
    /// (`info` bit 0: arrived through an overlay tunnel; bit 1: the node
    /// is a middlebox).
    Arrive = 1,
    /// A switch OFA emits the Packet-In carrying the first packet
    /// (`info` bit 0: punted by a mesh vSwitch on behalf of a physical
    /// switch, i.e. the overlay path).
    OfaOut = 2,
    /// The Packet-In reaches the controller.
    CtrlRx = 3,
    /// The controller-capacity gate releases the message for processing
    /// (only present when `controller_capacity` is configured).
    CtrlDeq = 4,
    /// The controller decides the flow's fate (`info`: a `VERDICT_*`
    /// constant).
    Decision = 5,
    /// A chaos perturbation touched a control message carrying this
    /// journey's first packet (`info`: the `PERTURB_*` kind). Annotation
    /// only — never segments the timeline.
    Fault = 6,
    /// The flow was migrated from the overlay to a physical path
    /// (`info` = 1 when the migration was deferred on a hot switch).
    /// Annotation only.
    Migration = 7,
    /// The first packet was dropped (`info`: a `DROP_*` constant).
    /// Terminal.
    Drop = 8,
    /// The first packet reached its destination host. Terminal.
    Deliver = 9,
    /// Synthesized at report time for a journey with no terminal mark:
    /// the first packet was still in flight (or silently absorbed by a
    /// fault) when the horizon hit. Terminal.
    Cancel = 10,
    /// A mastership handoff released this journey's pending Packet-In to a
    /// new master replica (`info` = `old_replica << 32 | new_replica`,
    /// with `u32::MAX` in the high half when the old master is unknown).
    /// Annotation only — never segments the timeline.
    Handoff = 11,
}

/// All points, in lifecycle (discriminant) order.
pub const JOURNEY_POINTS: [JourneyPoint; 12] = [
    JourneyPoint::Emit,
    JourneyPoint::Arrive,
    JourneyPoint::OfaOut,
    JourneyPoint::CtrlRx,
    JourneyPoint::CtrlDeq,
    JourneyPoint::Decision,
    JourneyPoint::Fault,
    JourneyPoint::Migration,
    JourneyPoint::Drop,
    JourneyPoint::Deliver,
    JourneyPoint::Cancel,
    JourneyPoint::Handoff,
];

impl JourneyPoint {
    /// Stable snake_case name (JSONL export key).
    pub fn name(self) -> &'static str {
        match self {
            JourneyPoint::Emit => "emit",
            JourneyPoint::Arrive => "arrive",
            JourneyPoint::OfaOut => "ofa_out",
            JourneyPoint::CtrlRx => "ctrl_rx",
            JourneyPoint::CtrlDeq => "ctrl_deq",
            JourneyPoint::Decision => "decision",
            JourneyPoint::Fault => "fault",
            JourneyPoint::Migration => "migration",
            JourneyPoint::Drop => "drop",
            JourneyPoint::Deliver => "deliver",
            JourneyPoint::Cancel => "cancel",
            JourneyPoint::Handoff => "handoff",
        }
    }

    /// True for marks that end a journey.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JourneyPoint::Drop | JourneyPoint::Deliver | JourneyPoint::Cancel
        )
    }

    /// True for zero-width annotations that never segment the timeline.
    pub fn is_annotation(self) -> bool {
        matches!(
            self,
            JourneyPoint::Fault | JourneyPoint::Migration | JourneyPoint::Handoff
        )
    }
}

/// `Decision` verdicts (the mark's `info` field).
pub const VERDICT_DIRECT: u64 = 0;
/// Routed over the vSwitch overlay.
pub const VERDICT_OVERLAY: u64 = 1;
/// Dropped by the ingress-queue drop threshold. Terminal.
pub const VERDICT_DROP: u64 = 2;
/// No route / no overlay delivery point for the destination. Terminal.
pub const VERDICT_UNROUTABLE: u64 = 3;
/// Setup-race duplicate: relayed directly out of the destination edge.
pub const VERDICT_DUPLICATE: u64 = 4;

/// Names for the `Decision` verdicts, indexed by the constants above.
pub const VERDICT_NAMES: [&str; 5] = ["direct", "overlay", "drop", "unroutable", "duplicate"];

/// `Drop` reason (`info`): dropped by a device (values 0..16 mirror the
/// switch `DropReason` discriminants).
pub const DROP_LINK: u64 = 16;
/// `Drop` reason: rejected by the controller-capacity gate.
pub const DROP_CTRL_REJECT: u64 = 17;

/// One milestone of one traced flow. 32 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JourneyMark {
    /// Journey id (= the flow id's raw value).
    pub journey: u64,
    /// Simulation time of the milestone.
    pub at: SimTime,
    /// Which milestone.
    pub point: JourneyPoint,
    /// Node the milestone happened at (`u32::MAX` = the controller).
    pub node: u32,
    /// Point-specific payload (see the [`JourneyPoint`] docs).
    pub info: u64,
}

impl JourneyMark {
    /// Canonical sort key.
    fn key(&self) -> (u64, SimTime, u8, u32, u64) {
        (
            self.journey,
            self.at,
            self.point as u8,
            self.node,
            self.info,
        )
    }
}

/// Journey-tracing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyConfig {
    /// Fraction of flows traced end-to-end (hash-selected per flow id).
    pub rate: f64,
    /// Flow ids always traced regardless of the rate (CLI `--journey`).
    pub always: Vec<u64>,
    /// Bound on retained marks; excess marks are counted, not stored.
    pub capacity: usize,
}

impl Default for JourneyConfig {
    fn default() -> Self {
        JourneyConfig {
            rate: DEFAULT_JOURNEY_RATE,
            always: Vec::new(),
            capacity: DEFAULT_JOURNEY_CAPACITY,
        }
    }
}

/// SplitMix64 finalizer: the avalanche mix used to turn a flow id into a
/// uniform 64-bit draw. Stateless, so the decision for a flow is a pure
/// function of `(flow id, seed)`, independent of event interleaving by
/// construction.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Recorder of journey marks.
///
/// Disabled (the default) it costs one predicted branch per site. Enabled,
/// a mark site costs a hash + compare for the selection check and a `Vec`
/// push when selected.
#[derive(Debug, Clone)]
pub struct JourneyRecorder {
    on: bool,
    /// A flow is traced iff `mix64(id ^ stream) < threshold`.
    threshold: u64,
    stream: u64,
    /// Sorted explicit always-trace set.
    always: Vec<u64>,
    capacity: usize,
    marks: Vec<JourneyMark>,
    total: u64,
    dropped: u64,
    rate: f64,
}

impl Default for JourneyRecorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl JourneyRecorder {
    /// The no-op recorder (default on every simulation).
    pub fn disabled() -> Self {
        JourneyRecorder {
            on: false,
            threshold: 0,
            stream: 0,
            always: Vec::new(),
            capacity: 0,
            marks: Vec::new(),
            total: 0,
            dropped: 0,
            rate: 0.0,
        }
    }

    /// Build an enabled recorder. `seed` is the scenario seed; the journey
    /// stream constant is folded in so selection draws are independent of
    /// every other consumer of the seed.
    pub fn new(config: &JourneyConfig, seed: u64) -> Self {
        assert!(
            config.rate > 0.0 && config.rate <= 1.0,
            "journey rate must be in (0, 1], got {}",
            config.rate
        );
        let threshold = if config.rate >= 1.0 {
            u64::MAX
        } else {
            (config.rate * (u64::MAX as f64)) as u64
        };
        let mut always = config.always.clone();
        always.sort_unstable();
        always.dedup();
        JourneyRecorder {
            on: true,
            threshold,
            stream: seed ^ JOURNEY_STREAM,
            always,
            capacity: config.capacity,
            marks: Vec::new(),
            total: 0,
            dropped: 0,
            rate: config.rate,
        }
    }

    /// True when recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Configured sampling rate (0 when disabled).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Should this flow's journey be traced? Pure in `(journey, seed)`.
    #[inline]
    pub fn wants(&self, journey: u64) -> bool {
        if !self.on {
            return false;
        }
        if mix64(journey ^ self.stream) < self.threshold {
            return true;
        }
        !self.always.is_empty() && self.always.binary_search(&journey).is_ok()
    }

    /// Record one milestone. Callers gate on [`JourneyRecorder::wants`].
    #[inline]
    pub fn record(&mut self, journey: u64, at: SimTime, point: JourneyPoint, node: u32, info: u64) {
        self.total += 1;
        if self.marks.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.marks.push(JourneyMark {
            journey,
            at,
            point,
            node,
            info,
        });
    }

    /// Total marks offered (including any dropped over capacity).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Marks dropped over the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sort into the canonical `(journey, at, point, node, info)` order —
    /// the order every export and reconstruction consumes.
    pub fn canonicalize(&mut self) {
        self.marks.sort_by_key(|m| m.key());
    }

    /// Append `Cancel` marks (at `until`) for every journey that has marks
    /// but no terminal, then re-canonicalize. Called once at report time so
    /// every opened journey is provably closed.
    pub fn close_open(&mut self, until: SimTime) {
        let mut open: Vec<u64> = Vec::new();
        let mut closed: Vec<u64> = Vec::new();
        self.canonicalize();
        for group in self.marks.chunk_by(|a, b| a.journey == b.journey) {
            if group.iter().any(|m| m.point.is_terminal()) {
                closed.push(group[0].journey);
            } else {
                open.push(group[0].journey);
            }
        }
        let _ = closed;
        for j in open {
            self.record(j, until, JourneyPoint::Cancel, u32::MAX, 0);
        }
        self.canonicalize();
    }

    /// The canonical mark stream (call [`JourneyRecorder::canonicalize`] or
    /// [`JourneyRecorder::close_open`] first).
    pub fn marks(&self) -> &[JourneyMark] {
        &self.marks
    }

    /// Take the marks out (report construction).
    pub fn take_marks(&mut self) -> Vec<JourneyMark> {
        std::mem::take(&mut self.marks)
    }
}

// ---------------------------------------------------------------------------
// Reconstruction: marks -> per-journey timelines -> stage spans
// ---------------------------------------------------------------------------

/// Lifecycle stage of a reconstructed span — the answer to "where did the
/// setup time go".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Source host uplink: emission → first switch arrival.
    HostLink = 0,
    /// Switch-to-switch transit on the physical fabric (pre-decision).
    FabricTransit = 1,
    /// Label-switched transit inside an overlay tunnel (pre-decision).
    TunnelTransit = 2,
    /// OFA residency: arrival at the punting switch → Packet-In emission.
    OfaQueue = 3,
    /// Control-channel transit: Packet-In emission → controller arrival.
    CtrlLink = 4,
    /// Controller-capacity gate residency (only when a gate is configured).
    CtrlGate = 5,
    /// Ingress-port queue residency: controller arrival → decision.
    IngressQueue = 6,
    /// Rule install + PacketOut: decision → the packet re-appears in the
    /// data plane.
    Install = 7,
    /// Post-decision data-plane transit down to the destination host.
    Delivery = 8,
    /// The span that ends in a drop or a horizon cancel.
    Loss = 9,
    /// Any mark pair outside the expected lifecycle grammar (e.g. the
    /// relay path of a duplicate Packet-In).
    Other = 10,
}

/// All stages, in lifecycle order.
pub const STAGES: [Stage; 11] = [
    Stage::HostLink,
    Stage::FabricTransit,
    Stage::TunnelTransit,
    Stage::OfaQueue,
    Stage::CtrlLink,
    Stage::CtrlGate,
    Stage::IngressQueue,
    Stage::Install,
    Stage::Delivery,
    Stage::Loss,
    Stage::Other,
];

impl Stage {
    /// Stable snake_case name (metrics keys, JSONL export).
    pub fn name(self) -> &'static str {
        match self {
            Stage::HostLink => "host_link",
            Stage::FabricTransit => "fabric_transit",
            Stage::TunnelTransit => "tunnel_transit",
            Stage::OfaQueue => "ofa_queue",
            Stage::CtrlLink => "ctrl_link",
            Stage::CtrlGate => "ctrl_gate",
            Stage::IngressQueue => "ingress_queue",
            Stage::Install => "install",
            Stage::Delivery => "delivery",
            Stage::Loss => "loss",
            Stage::Other => "other",
        }
    }
}

/// Classify the span between two consecutive (non-annotation) marks.
/// `decided` is true once a `Decision` mark has been passed.
pub fn stage_of(prev: &JourneyMark, next: &JourneyMark, decided: bool) -> Stage {
    use JourneyPoint as P;
    match (prev.point, next.point) {
        (P::Emit, P::Arrive) => Stage::HostLink,
        (P::Emit, P::Deliver) => Stage::HostLink,
        (_, P::Drop) | (_, P::Cancel) => Stage::Loss,
        (P::Arrive, P::Arrive) if !decided => {
            if next.info & 1 != 0 {
                Stage::TunnelTransit
            } else {
                Stage::FabricTransit
            }
        }
        (P::Arrive, P::OfaOut) => Stage::OfaQueue,
        (P::OfaOut, P::CtrlRx) => Stage::CtrlLink,
        (P::CtrlRx, P::CtrlDeq) => Stage::CtrlGate,
        (P::CtrlRx, P::Decision) | (P::CtrlDeq, P::Decision) => Stage::IngressQueue,
        (P::Decision, P::Arrive) => Stage::Install,
        (P::Decision, P::Deliver) => Stage::Install,
        (P::Arrive, P::Arrive) => Stage::Delivery,
        (P::Arrive, P::Deliver) => Stage::Delivery,
        _ => Stage::Other,
    }
}

/// One reconstructed span of a journey timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Owning journey.
    pub journey: u64,
    /// Stage classification.
    pub stage: Stage,
    /// Open time (the earlier mark).
    pub open: SimTime,
    /// Close time (the later mark).
    pub close: SimTime,
    /// Node at the open mark.
    pub from_node: u32,
    /// Node at the close mark.
    pub to_node: u32,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> SimDuration {
        self.close.duration_since(self.open)
    }
}

/// One journey's canonical marks, grouped for reconstruction.
#[derive(Debug, Clone)]
pub struct JourneyView {
    /// Journey id.
    pub id: u64,
    /// Canonically ordered marks (annotations included).
    pub marks: Vec<JourneyMark>,
}

impl JourneyView {
    /// Group a canonical mark stream into per-journey views (the stream
    /// is already journey-major after canonicalization).
    pub fn split(marks: &[JourneyMark]) -> Vec<JourneyView> {
        marks
            .chunk_by(|a, b| a.journey == b.journey)
            .map(|g| JourneyView {
                id: g[0].journey,
                marks: g.to_vec(),
            })
            .collect()
    }

    /// First mark time.
    pub fn start(&self) -> SimTime {
        self.marks.first().map(|m| m.at).unwrap_or(SimTime::ZERO)
    }

    /// Last mark time.
    pub fn end(&self) -> SimTime {
        self.marks.last().map(|m| m.at).unwrap_or(SimTime::ZERO)
    }

    /// The first terminal mark, if any.
    pub fn terminal(&self) -> Option<&JourneyMark> {
        self.marks.iter().find(|m| m.point.is_terminal())
    }

    /// True when the journey's first packet reached its destination.
    pub fn is_delivered(&self) -> bool {
        self.terminal()
            .is_some_and(|m| m.point == JourneyPoint::Deliver)
    }

    /// Start → first terminal (falls back to the last mark).
    pub fn total(&self) -> SimDuration {
        let end = self.terminal().map(|m| m.at).unwrap_or_else(|| self.end());
        end.duration_since(self.start())
    }

    /// Annotation marks (faults, migrations) — shown inline, never
    /// segmented.
    pub fn annotations(&self) -> impl Iterator<Item = &JourneyMark> {
        self.marks.iter().filter(|m| m.point.is_annotation())
    }

    /// Reconstruct the stage spans up to (and including) the first
    /// terminal mark. Annotations are skipped; the spans partition
    /// `[start, terminal]` exactly, so their durations telescope to
    /// [`JourneyView::total`].
    pub fn segments(&self) -> Vec<Span> {
        let mut out = Vec::new();
        let mut decided = false;
        let mut prev: Option<&JourneyMark> = None;
        for m in &self.marks {
            if m.point.is_annotation() {
                continue;
            }
            if let Some(p) = prev {
                out.push(Span {
                    journey: self.id,
                    stage: stage_of(p, m, decided),
                    open: p.at,
                    close: m.at,
                    from_node: p.node,
                    to_node: m.node,
                });
            }
            if m.point == JourneyPoint::Decision {
                decided = true;
            }
            prev = Some(m);
            if m.point.is_terminal() {
                break;
            }
        }
        out
    }
}

/// Per-stage latency aggregation over a canonical mark stream.
#[derive(Debug, Clone)]
pub struct LatencyDecomposition {
    /// One histogram of span durations (ns) per stage, indexed by
    /// `Stage as u8`; only stages with at least one span are meaningful.
    pub stages: Vec<(Stage, Histogram)>,
    /// End-to-end (start → terminal) duration histogram over delivered
    /// journeys (ns).
    pub setup: Histogram,
    /// Journeys seen.
    pub journeys: u64,
    /// Journeys whose first packet was delivered.
    pub delivered: u64,
    /// Journeys ending in an explicit drop.
    pub dropped: u64,
    /// Journeys cancelled at the horizon.
    pub cancelled: u64,
}

impl LatencyDecomposition {
    /// Aggregate a canonical mark stream.
    pub fn from_marks(marks: &[JourneyMark]) -> Self {
        let mut stages: Vec<(Stage, Histogram)> =
            STAGES.iter().map(|s| (*s, Histogram::new())).collect();
        let mut setup = Histogram::new();
        let (mut journeys, mut delivered, mut dropped, mut cancelled) = (0u64, 0u64, 0u64, 0u64);
        for view in JourneyView::split(marks) {
            journeys += 1;
            match view.terminal().map(|m| m.point) {
                Some(JourneyPoint::Deliver) => {
                    delivered += 1;
                    setup.record_duration(view.total());
                }
                Some(JourneyPoint::Cancel) => cancelled += 1,
                _ => dropped += 1,
            }
            for span in view.segments() {
                stages[span.stage as usize]
                    .1
                    .record_duration(span.duration());
            }
        }
        LatencyDecomposition {
            stages,
            setup,
            journeys,
            delivered,
            dropped,
            cancelled,
        }
    }

    /// `(p50, p95, p99)` of a stage's span durations, in nanoseconds.
    pub fn stage_quantiles(&self, stage: Stage) -> (f64, f64, f64) {
        let h = &self.stages[stage as usize].1;
        (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn mark(j: u64, at: SimTime, point: JourneyPoint, node: u32, info: u64) -> JourneyMark {
        JourneyMark {
            journey: j,
            at,
            point,
            node,
            info,
        }
    }

    #[test]
    fn selection_is_pure_and_rate_scales() {
        let cfg = JourneyConfig {
            rate: 1.0 / 64.0,
            ..Default::default()
        };
        let a = JourneyRecorder::new(&cfg, 42);
        let b = JourneyRecorder::new(&cfg, 42);
        let picked: Vec<u64> = (0..100_000).filter(|j| a.wants(*j)).collect();
        let again: Vec<u64> = (0..100_000).filter(|j| b.wants(*j)).collect();
        assert_eq!(picked, again, "selection must be pure in (id, seed)");
        // Expect ~1562 of 100k at 1/64; allow a generous band.
        assert!(
            (500..4000).contains(&picked.len()),
            "rate wildly off: {}",
            picked.len()
        );
        // Different seed, different set.
        let c = JourneyRecorder::new(&cfg, 43);
        let other: Vec<u64> = (0..100_000).filter(|j| c.wants(*j)).collect();
        assert_ne!(picked, other);
    }

    #[test]
    fn always_set_overrides_rate() {
        let cfg = JourneyConfig {
            rate: 1.0 / 64.0,
            always: vec![7, 7, 3],
            ..Default::default()
        };
        let r = JourneyRecorder::new(&cfg, 1);
        assert!(r.wants(7));
        assert!(r.wants(3));
    }

    #[test]
    fn rate_one_traces_everything() {
        let cfg = JourneyConfig {
            rate: 1.0,
            ..Default::default()
        };
        let r = JourneyRecorder::new(&cfg, 9);
        assert!((0..1000).all(|j| r.wants(j)));
    }

    #[test]
    fn disabled_recorder_wants_nothing() {
        let r = JourneyRecorder::disabled();
        assert!(!r.wants(0));
        assert!(!r.is_enabled());
    }

    #[test]
    fn capacity_bound_counts_overflow() {
        let cfg = JourneyConfig {
            rate: 1.0,
            capacity: 2,
            ..Default::default()
        };
        let mut r = JourneyRecorder::new(&cfg, 0);
        for i in 0..5 {
            r.record(i, t(i), JourneyPoint::Emit, 0, 0);
        }
        assert_eq!(r.marks().len(), 2);
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn canonicalize_orders_by_journey_then_time() {
        let mut a = JourneyRecorder::new(
            &JourneyConfig {
                rate: 1.0,
                ..Default::default()
            },
            0,
        );
        a.record(5, t(2), JourneyPoint::Arrive, 9, 0);
        a.record(5, t(1), JourneyPoint::Emit, 1, 0);
        a.record(2, t(3), JourneyPoint::Emit, 4, 0);
        a.canonicalize();
        let pts: Vec<(u64, JourneyPoint)> =
            a.marks().iter().map(|m| (m.journey, m.point)).collect();
        assert_eq!(
            pts,
            vec![
                (2, JourneyPoint::Emit),
                (5, JourneyPoint::Emit),
                (5, JourneyPoint::Arrive)
            ]
        );
    }

    #[test]
    fn close_open_cancels_exactly_the_open_journeys() {
        let cfg = JourneyConfig {
            rate: 1.0,
            ..Default::default()
        };
        let mut r = JourneyRecorder::new(&cfg, 0);
        r.record(1, t(1), JourneyPoint::Emit, 0, 0);
        r.record(1, t(2), JourneyPoint::Deliver, 5, 0);
        r.record(2, t(1), JourneyPoint::Emit, 0, 0);
        r.close_open(t(10));
        let views = JourneyView::split(r.marks());
        assert!(views.iter().all(|v| v.terminal().is_some()));
        let cancelled: Vec<u64> = views
            .iter()
            .filter(|v| v.terminal().unwrap().point == JourneyPoint::Cancel)
            .map(|v| v.id)
            .collect();
        assert_eq!(cancelled, vec![2]);
        assert_eq!(views[0].terminal().unwrap().at, t(2));
    }

    #[test]
    fn segmentation_telescopes_to_setup_latency() {
        // Emit → Arrive(sw) → OfaOut → CtrlRx → Decision(direct) →
        // Arrive(sw, post-install) → Deliver, with a fault annotation
        // in the middle that must not break the partition.
        let marks = vec![
            mark(9, t(0), JourneyPoint::Emit, 1, 0),
            mark(9, t(1), JourneyPoint::Arrive, 2, 0),
            mark(9, t(3), JourneyPoint::OfaOut, 2, 0),
            mark(9, t(4), JourneyPoint::CtrlRx, 2, 0),
            mark(9, t(5), JourneyPoint::Fault, 2, 1),
            mark(9, t(7), JourneyPoint::Decision, 2, VERDICT_DIRECT),
            mark(9, t(9), JourneyPoint::Arrive, 3, 0),
            mark(9, t(10), JourneyPoint::Deliver, 4, 0),
        ];
        let view = &JourneyView::split(&marks)[0];
        let segs = view.segments();
        let stages: Vec<Stage> = segs.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::HostLink,
                Stage::OfaQueue,
                Stage::CtrlLink,
                Stage::IngressQueue,
                Stage::Install,
                Stage::Delivery,
            ]
        );
        let sum: u64 = segs.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, view.total().as_nanos(), "spans must telescope");
        // Contiguity: every span opens where the previous one closed.
        for w in segs.windows(2) {
            assert_eq!(w[0].close, w[1].open);
        }
    }

    #[test]
    fn tunnel_and_gate_stages_classify() {
        let marks = vec![
            mark(1, t(0), JourneyPoint::Emit, 1, 0),
            mark(1, t(1), JourneyPoint::Arrive, 2, 0),
            mark(1, t(2), JourneyPoint::Arrive, 3, 1), // tunneled hop
            mark(1, t(3), JourneyPoint::Arrive, 4, 1),
            mark(1, t(4), JourneyPoint::OfaOut, 4, 1),
            mark(1, t(5), JourneyPoint::CtrlRx, 4, 0),
            mark(1, t(6), JourneyPoint::CtrlDeq, 4, 0),
            mark(1, t(8), JourneyPoint::Decision, 4, VERDICT_OVERLAY),
            mark(1, t(9), JourneyPoint::Arrive, 5, 1),
            mark(1, t(10), JourneyPoint::Arrive, 6, 0),
            mark(1, t(11), JourneyPoint::Deliver, 7, 0),
        ];
        let view = &JourneyView::split(&marks)[0];
        let stages: Vec<Stage> = view.segments().iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::HostLink,
                Stage::TunnelTransit,
                Stage::TunnelTransit,
                Stage::OfaQueue,
                Stage::CtrlLink,
                Stage::CtrlGate,
                Stage::IngressQueue,
                Stage::Install,
                Stage::Delivery,
                Stage::Delivery,
            ]
        );
    }

    #[test]
    fn loss_and_decomposition_counters() {
        let marks = vec![
            mark(1, t(0), JourneyPoint::Emit, 1, 0),
            mark(1, t(2), JourneyPoint::Drop, 2, DROP_LINK),
            mark(2, t(0), JourneyPoint::Emit, 1, 0),
            mark(2, t(1), JourneyPoint::Arrive, 2, 0),
            mark(2, t(5), JourneyPoint::Cancel, u32::MAX, 0),
            mark(3, t(0), JourneyPoint::Emit, 1, 0),
            mark(3, t(4), JourneyPoint::Deliver, 9, 0),
        ];
        let d = LatencyDecomposition::from_marks(&marks);
        assert_eq!(d.journeys, 3);
        assert_eq!(d.delivered, 1);
        assert_eq!(d.dropped, 1);
        assert_eq!(d.cancelled, 1);
        assert_eq!(d.setup.count(), 1);
        assert_eq!(d.stages[Stage::Loss as usize].1.count(), 2);
    }

    #[test]
    fn segments_stop_at_first_terminal() {
        // A duplicate-relay tail after Deliver must not create spans.
        let marks = vec![
            mark(4, t(0), JourneyPoint::Emit, 1, 0),
            mark(4, t(2), JourneyPoint::Deliver, 5, 0),
            mark(4, t(3), JourneyPoint::Arrive, 6, 0),
        ];
        let view = &JourneyView::split(&marks)[0];
        assert_eq!(view.segments().len(), 1);
        assert_eq!(view.total(), SimDuration::from_millis(2));
    }
}
