//! Simulation results.

use crate::app::AppStats;
use scotch_net::NodeId;
use scotch_sim::journey::{JourneyMark, JourneyView, LatencyDecomposition};
use scotch_sim::metrics::Histogram;
use scotch_sim::trace::TraceRecorder;
use scotch_sim::{MetricsSnapshot, ProfileEntry, SimDuration, SimTime};
use scotch_switch::ofa::OfaStats;
use scotch_switch::physical::SwitchStats;
use scotch_switch::vswitch::VSwitchStats;

/// Outcome of one flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The flow's accounting id.
    pub id: scotch_net::FlowId,
    /// The 5-tuple.
    pub key: scotch_net::FlowKey,
    /// Attack traffic?
    pub is_attack: bool,
    /// Packets the source emitted.
    pub emitted: u32,
    /// Packets the flow was supposed to carry.
    pub intended: u32,
    /// Packets that reached the destination host.
    pub delivered: u32,
    /// Bytes that reached the destination host.
    pub delivered_bytes: u64,
    /// First packet emission time.
    pub started_at: SimTime,
    /// First delivery, if any.
    pub first_delivered: Option<SimTime>,
    /// Last delivery, if any.
    pub last_delivered: Option<SimTime>,
    /// Which network served the flow at first delivery (None when the
    /// flow was relayed by the controller before any rule existed).
    pub served_by: Option<scotch_controller::flowdb::FlowPath>,
}

impl FlowOutcome {
    /// The paper's Fig. 3 success criterion: the flow "passed through the
    /// switch and reached the server".
    pub fn succeeded(&self) -> bool {
        self.delivered > 0
    }

    /// All packets arrived.
    pub fn completed(&self) -> bool {
        self.delivered >= self.intended
    }

    /// Time from first emission to last delivery (flow completion time),
    /// if the flow completed.
    pub fn completion_time(&self) -> Option<SimDuration> {
        if self.completed() {
            self.last_delivered
                .map(|t| t.duration_since(self.started_at))
        } else {
            None
        }
    }

    /// Setup latency: first emission to first delivery.
    pub fn setup_latency(&self) -> Option<SimDuration> {
        self.first_delivered
            .map(|t| t.duration_since(self.started_at))
    }
}

/// Per-physical-switch counters.
#[derive(Debug, Clone)]
pub struct SwitchReport {
    /// The switch's node.
    pub node: NodeId,
    /// Its name in the topology.
    pub name: String,
    /// OFA counters.
    pub ofa: OfaStats,
    /// Data-plane counters.
    pub dataplane: SwitchStats,
}

/// Per-vSwitch counters.
#[derive(Debug, Clone)]
pub struct VSwitchReport {
    /// The vSwitch's node.
    pub node: NodeId,
    /// Its name in the topology.
    pub name: String,
    /// Agent counters.
    pub ofa: OfaStats,
    /// Data-plane counters.
    pub dataplane: VSwitchStats,
}

/// Aggregate drop counters across the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Table-miss packets lost to OFA overload.
    pub ofa_overload: u64,
    /// Packets lost to the Fig. 10 interaction collapse or vSwitch pps
    /// bounds.
    pub dataplane: u64,
    /// Policy drops.
    pub policy: u64,
    /// No-route drops (dead group buckets etc.).
    pub no_route: u64,
    /// Link queue drops.
    pub link_queue: u64,
    /// Packets lost to injected link faults.
    pub link_faults: u64,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-flow outcomes, in generation order.
    pub flows: Vec<FlowOutcome>,
    /// Controller-application counters.
    pub app: AppStats,
    /// Per-physical-switch counters.
    pub switches: Vec<SwitchReport>,
    /// Per-vSwitch counters.
    pub vswitches: Vec<VSwitchReport>,
    /// Drop counters.
    pub drops: DropCounts,
    /// End-to-end delivery latency of legitimate packets (ns).
    pub latency: Histogram,
    /// Packets rejected by stateful middleboxes for missing state.
    pub middlebox_rejections: u64,
    /// Packets that arrived at a host that is not their destination.
    pub misrouted: u64,
    /// Messages dropped at the controller's processing capacity gate
    /// (always 0 with the default unbounded controller).
    pub controller_dropped: u64,
    /// Events processed (engine diagnostic).
    pub events_processed: u64,
    /// Delivery `(time, end-to-end latency)` samples of explicitly
    /// tracked flows (see [`crate::Simulation::track_flow`]).
    pub tracked: scotch_sim::FxHashMap<scotch_net::FlowId, Vec<(SimTime, SimDuration)>>,
    /// libpcap captures of tapped nodes (see
    /// [`crate::Simulation::capture_at`]).
    pub captures: scotch_sim::FxHashMap<NodeId, crate::pcap::PcapCapture>,
    /// Name-sorted snapshot of the unified metrics registry. NOT part of
    /// [`Report::canonical_json`] — golden fixtures pin the canonical
    /// report, the registry is the wider observability surface around it.
    pub metrics: MetricsSnapshot,
    /// The flight-recorder trace ring (empty when tracing was disabled).
    /// Timestamps are sim-time, so the trace is bit-reproducible per
    /// `(scenario, seed)`. Also excluded from the canonical report.
    pub trace: TraceRecorder,
    /// Canonical causal journey-mark stream (DESIGN.md §14), empty unless
    /// journey tracing was enabled. Sorted `(journey, time, point, node,
    /// info)`; bit-reproducible per `(scenario, seed, rate)`. Excluded from
    /// the canonical report like `trace`/`metrics`.
    pub journeys: Vec<JourneyMark>,
    /// Per-event-type wall-clock dispatch profile, non-empty only when
    /// [`crate::Simulation::enable_profiling`] was called. Wall-clock ⇒
    /// machine-dependent ⇒ never in the canonical report.
    pub profile: Vec<ProfileEntry>,
}

impl Report {
    fn flows_where(&self, attack: bool) -> impl Iterator<Item = &FlowOutcome> {
        self.flows.iter().filter(move |f| f.is_attack == attack)
    }

    /// Legitimate flows generated.
    pub fn client_flows(&self) -> usize {
        self.flows_where(false).count()
    }

    /// Attack flows generated.
    pub fn attack_flows(&self) -> usize {
        self.flows_where(true).count()
    }

    /// Fig. 3's metric: fraction of legitimate flows that failed to reach
    /// their destination.
    pub fn client_failure_fraction(&self) -> f64 {
        let total = self.client_flows();
        if total == 0 {
            return 0.0;
        }
        let failed = self.flows_where(false).filter(|f| !f.succeeded()).count();
        failed as f64 / total as f64
    }

    /// [`Report::client_failure_fraction`] restricted to flows that
    /// started in `[from, to)` — used to separate steady-state behaviour
    /// from the activation transient and the end-of-run cutoff.
    pub fn client_failure_fraction_between(&self, from: SimTime, to: SimTime) -> f64 {
        let window: Vec<_> = self
            .flows_where(false)
            .filter(|f| f.started_at >= from && f.started_at < to)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        let failed = window.iter().filter(|f| !f.succeeded()).count();
        failed as f64 / window.len() as f64
    }

    /// Fraction of attack flows that reached the victim.
    pub fn attack_success_fraction(&self) -> f64 {
        let total = self.attack_flows();
        if total == 0 {
            return 0.0;
        }
        let ok = self.flows_where(true).filter(|f| f.succeeded()).count();
        ok as f64 / total as f64
    }

    /// Mean flow completion time of completed legitimate flows, seconds.
    pub fn mean_client_fct(&self) -> Option<f64> {
        let fcts: Vec<f64> = self
            .flows_where(false)
            .filter_map(|f| f.completion_time())
            .map(|d| d.as_secs_f64())
            .collect();
        if fcts.is_empty() {
            None
        } else {
            Some(fcts.iter().sum::<f64>() / fcts.len() as f64)
        }
    }

    /// Mean setup latency of successful legitimate flows, seconds.
    pub fn mean_client_setup_latency(&self) -> Option<f64> {
        let ls: Vec<f64> = self
            .flows_where(false)
            .filter_map(|f| f.setup_latency())
            .map(|d| d.as_secs_f64())
            .collect();
        if ls.is_empty() {
            None
        } else {
            Some(ls.iter().sum::<f64>() / ls.len() as f64)
        }
    }

    /// Aggregate Packet-In messages emitted by all mesh/host vSwitch
    /// agents (the E13 capacity metric).
    pub fn vswitch_packet_ins(&self) -> u64 {
        self.vswitches.iter().map(|v| v.ofa.packet_in_sent).sum()
    }

    /// Aggregate Packet-In messages emitted by physical-switch OFAs.
    pub fn physical_packet_ins(&self) -> u64 {
        self.switches.iter().map(|s| s.ofa.packet_in_sent).sum()
    }

    /// Render the full report as canonical JSON: a fixed field order, map
    /// entries sorted by key, and shortest-roundtrip float formatting, so
    /// two byte-identical strings mean two identical reports. This is the
    /// format the golden-report regression tests diff; any engine change
    /// that alters event ordering shows up here as a byte difference.
    pub fn canonical_json(&self) -> String {
        use scotch_runner::Json;

        fn time(t: SimTime) -> Json {
            Json::Num(t.as_nanos() as f64)
        }
        fn opt_time(t: Option<SimTime>) -> Json {
            t.map(time).unwrap_or(Json::Null)
        }
        fn key_json(k: &scotch_net::FlowKey) -> Json {
            Json::obj()
                .set("src", k.src.to_string())
                .set("dst", k.dst.to_string())
                .set("proto", format!("{:?}", k.proto))
                .set("sport", k.sport as u64)
                .set("dport", k.dport as u64)
        }
        fn ofa_json(o: &OfaStats) -> Json {
            Json::obj()
                .set("packet_in_sent", o.packet_in_sent)
                .set("packet_in_dropped", o.packet_in_dropped)
                .set("rules_attempted", o.rules_attempted)
                .set("rules_inserted", o.rules_inserted)
                .set("rules_failed", o.rules_failed)
        }

        let flows: Vec<Json> = self
            .flows
            .iter()
            .map(|f| {
                Json::obj()
                    .set("id", f.id.0)
                    .set("key", key_json(&f.key))
                    .set("is_attack", f.is_attack)
                    .set("emitted", f.emitted as u64)
                    .set("intended", f.intended as u64)
                    .set("delivered", f.delivered as u64)
                    .set("delivered_bytes", f.delivered_bytes)
                    .set("started_at", time(f.started_at))
                    .set("first_delivered", opt_time(f.first_delivered))
                    .set("last_delivered", opt_time(f.last_delivered))
                    .set(
                        "served_by",
                        match f.served_by {
                            Some(p) => Json::Str(format!("{p:?}")),
                            None => Json::Null,
                        },
                    )
            })
            .collect();

        let switches: Vec<Json> = self
            .switches
            .iter()
            .map(|s| {
                Json::obj()
                    .set("node", s.node.0 as u64)
                    .set("name", s.name.clone())
                    .set("ofa", ofa_json(&s.ofa))
                    .set(
                        "dataplane",
                        Json::obj()
                            .set("forwarded", s.dataplane.forwarded)
                            .set("dropped_interaction", s.dataplane.dropped_interaction)
                            .set("dropped_ofa", s.dataplane.dropped_ofa)
                            .set("dropped_other", s.dataplane.dropped_other),
                    )
            })
            .collect();

        let vswitches: Vec<Json> = self
            .vswitches
            .iter()
            .map(|v| {
                Json::obj()
                    .set("node", v.node.0 as u64)
                    .set("name", v.name.clone())
                    .set("ofa", ofa_json(&v.ofa))
                    .set(
                        "dataplane",
                        Json::obj()
                            .set("forwarded", v.dataplane.forwarded)
                            .set("dropped_dataplane", v.dataplane.dropped_dataplane)
                            .set("dropped_agent", v.dataplane.dropped_agent)
                            .set("decapsulated", v.dataplane.decapsulated),
                    )
            })
            .collect();

        let latency = Json::obj()
            .set("count", self.latency.count())
            .set("zero_count", self.latency.zero_count())
            .set("sum", self.latency.sum())
            .set("min", self.latency.min())
            .set("max", self.latency.max())
            .set(
                "buckets",
                Json::Arr(
                    self.latency
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(d, s, n)| {
                            Json::Arr(vec![
                                Json::Num(d as f64),
                                Json::Num(s as f64),
                                Json::Num(n as f64),
                            ])
                        })
                        .collect(),
                ),
            );

        let mut tracked_ids: Vec<_> = self.tracked.keys().copied().collect();
        tracked_ids.sort();
        let tracked: Vec<Json> = tracked_ids
            .iter()
            .map(|id| {
                let samples = &self.tracked[id];
                Json::obj().set("flow", id.0).set(
                    "samples",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|&(t, d)| Json::Arr(vec![time(t), Json::Num(d.as_nanos() as f64)]))
                            .collect(),
                    ),
                )
            })
            .collect();

        let mut capture_nodes: Vec<_> = self.captures.keys().copied().collect();
        capture_nodes.sort();
        let captures: Vec<Json> = capture_nodes
            .iter()
            .map(|n| {
                let cap = &self.captures[n];
                // FNV-1a over the raw pcap bytes pins the capture content
                // without inflating the report with a hex dump.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in cap.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                Json::obj()
                    .set("node", n.0 as u64)
                    .set("records", cap.records())
                    .set("bytes", cap.bytes().len())
                    .set("fnv1a", format!("{h:016x}"))
            })
            .collect();

        Json::obj()
            .set("duration_ns", self.duration.as_nanos())
            .set("events_processed", self.events_processed)
            .set(
                "app",
                Json::obj()
                    .set("packet_ins", self.app.packet_ins)
                    .set("duplicate_packet_ins", self.app.duplicate_packet_ins)
                    .set("physical_admitted", self.app.physical_admitted)
                    .set("overlay_admitted", self.app.overlay_admitted)
                    .set("dropped", self.app.dropped)
                    .set("unroutable", self.app.unroutable)
                    .set("activations", self.app.activations)
                    .set("withdrawals", self.app.withdrawals)
                    .set("migrations", self.app.migrations)
                    .set("migrations_deferred", self.app.migrations_deferred)
                    .set("failovers", self.app.failovers)
                    .set("rule_failures", self.app.rule_failures)
                    .set("overlay_undeliverable", self.app.overlay_undeliverable),
            )
            .set(
                "drops",
                Json::obj()
                    .set("ofa_overload", self.drops.ofa_overload)
                    .set("dataplane", self.drops.dataplane)
                    .set("policy", self.drops.policy)
                    .set("no_route", self.drops.no_route)
                    .set("link_queue", self.drops.link_queue)
                    .set("link_faults", self.drops.link_faults),
            )
            .set("middlebox_rejections", self.middlebox_rejections)
            .set("misrouted", self.misrouted)
            .set("controller_dropped", self.controller_dropped)
            .set("latency", latency)
            .set("switches", Json::Arr(switches))
            .set("vswitches", Json::Arr(vswitches))
            .set("flows", Json::Arr(flows))
            .set("tracked", Json::Arr(tracked))
            .set("captures", Json::Arr(captures))
            .pretty()
    }

    /// Render the recorded trace as JSONL: one compact object per record
    /// with `seq`, `t_ns`, `cat`, `kind`, then the event's own fields.
    /// Deterministic per `(scenario, seed)`: sim-time timestamps only.
    pub fn trace_jsonl(&self) -> String {
        use scotch_runner::Json;
        let mut out = String::new();
        for rec in self.trace.records() {
            let mut line = Json::obj()
                .set("seq", rec.seq)
                .set("t_ns", rec.at.as_nanos())
                .set("cat", rec.event.category().name())
                .set("kind", rec.event.kind_name());
            for (name, value) in rec.event.fields() {
                line = line.set(name, value);
            }
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }

    /// Per-journey timeline views reconstructed from the canonical mark
    /// stream (empty unless journey tracing was enabled).
    pub fn journey_views(&self) -> Vec<JourneyView> {
        JourneyView::split(&self.journeys)
    }

    /// Per-stage latency decomposition over the recorded journeys.
    pub fn journey_decomposition(&self) -> LatencyDecomposition {
        LatencyDecomposition::from_marks(&self.journeys)
    }

    /// Render the journey-mark stream as JSONL: one compact object per
    /// mark with `journey`, `t_ns`, `point`, `node`, `info`.
    pub fn journeys_jsonl(&self) -> String {
        use scotch_runner::Json;
        let mut out = String::new();
        for m in &self.journeys {
            let line = Json::obj()
                .set("journey", m.journey)
                .set("t_ns", m.at.as_nanos())
                .set("point", m.point.name())
                .set("node", u64::from(m.node))
                .set("info", m.info);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }

    /// The metrics snapshot as a flat JSON object, sorted by name (the
    /// form embedded in sweep manifests and `results/` artifacts).
    pub fn metrics_json(&self) -> String {
        use scotch_runner::Json;
        let mut doc = Json::obj();
        for (name, value) in &self.metrics.entries {
            doc = doc.set(name, *value);
        }
        doc.pretty()
    }

    /// A one-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} flows ({} legit / {} attack) over {}: client failure {:.1}%, \
             physical admissions {}, overlay admissions {}, migrations {}, \
             activations {}, withdrawals {}, drops(ofa/data/link) {}/{}/{}",
            self.flows.len(),
            self.client_flows(),
            self.attack_flows(),
            self.duration,
            self.client_failure_fraction() * 100.0,
            self.app.physical_admitted,
            self.app.overlay_admitted,
            self.app.migrations,
            self.app.activations,
            self.app.withdrawals,
            self.drops.ofa_overload,
            self.drops.dataplane,
            self.drops.link_queue,
        )
    }
}
