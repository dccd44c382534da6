//! The benchmark workloads and the map from the simulator's dispatch
//! profile rows onto the repository's modules.

use scotch::{Scenario, ScotchConfig};
use scotch_sim::{SimDuration, SimTime};
use scotch_switch::SwitchProfile;

/// One named workload: a scenario shape run to a fixed simulated horizon.
pub struct Workload {
    pub name: &'static str,
    pub horizon: SimTime,
    pub controllers: u32,
    pub config: ScotchConfig,
    shape: fn() -> Scenario,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let default = ScotchConfig::default;
        let w = match name {
            // PAPER.md Fig. 3: a Pica8 OFA flooded by spoofed sources. The
            // engine, the flow sources and the physical data plane do the
            // work; controller, monitor and overlay are nearly idle.
            "flood_single" => Workload {
                name: "flood_single",
                horizon: SimTime::from_secs(30),
                controllers: 1,
                config: default(),
                shape: || {
                    Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
                        .with_clients(100.0)
                        .with_attack(20_000.0)
                },
            },
            // Bound by the control plane: a 25 ms exhaustive stats poll
            // over overlay tables that grow under flood, so the monitor's
            // per-poll work grows with table size. Not in BENCHMARK.json:
            // its memory-bound host time swings by a third between minutes
            // on a shared host, more than any bound a gate could use. Run
            // it by name when a change targets the monitor.
            "overlay_monitor" => Workload {
                name: "overlay_monitor",
                horizon: SimTime::from_secs(8),
                controllers: 1,
                config: ScotchConfig {
                    stats_poll_interval: SimDuration::from_millis(25),
                    ..default()
                },
                shape: || {
                    Scenario::overlay_datacenter(4)
                        .with_clients(100.0)
                        .with_attack(6_000.0)
                        .with_elephants(4, 800.0, 50_000, SimTime::from_secs(1))
                },
            },
            // Many devices and hops with time spread across layers; the
            // shape the sharded engine was built for, with per-switch
            // mastership over three controller replicas (no failover).
            "fabric_cluster" => Workload {
                name: "fabric_cluster",
                horizon: SimTime::from_secs(40),
                controllers: 3,
                config: default(),
                shape: || {
                    Scenario::multirack(8, 1)
                        .with_interrack_propagation(SimDuration::from_micros(200))
                        .with_rack_clients(400.0)
                        .with_clients(100.0)
                        .with_attack(2_000.0)
                },
            },
            _ => return None,
        };
        Some(w)
    }

    /// A fresh scenario (a [`Scenario`] is consumed by building it).
    pub fn scenario(&self) -> Scenario {
        (self.shape)()
            .with_config(self.config.clone())
            .with_controllers(self.controllers)
    }

    /// Telemetry mode, as a mode tag.
    pub fn telemetry(&self) -> String {
        match self.config.telemetry.sampling_rate() {
            None => "exhaustive".to_string(),
            Some(rate) => format!("sampled:{rate}"),
        }
    }
}

/// A module layer and the dispatch profile rows
/// (`Simulation::enable_profiling`) it owns.
pub struct Layer {
    pub name: &'static str,
    pub rows: &'static [&'static str],
    /// Whether every workload exercises the layer. The busy time of one
    /// that some workload leaves idle is exactly zero there on every run,
    /// so only its count is published; the table and the `row` line still
    /// carry its time.
    pub busy_everywhere: bool,
}

const fn layer(name: &'static str, rows: &'static [&'static str], busy_everywhere: bool) -> Layer {
    Layer {
        name,
        rows,
        busy_everywhere,
    }
}

/// The repository's modules in report order. Every profile row belongs to
/// exactly one layer; the traced wall time the rows leave uncovered (event
/// queue, dispatch, report assembly and the profiler itself) is reported
/// as `sim.residual`.
pub const LAYERS: [Layer; 10] = [
    layer("workload", &["source_next", "emit_packet"], true),
    layer("switch.dataplane", &["arrive"], true),
    layer("net.tunnel", &["arrive_tunnel_transit"], false),
    layer("switch.ofa", &["ctrl_to_switch"], true),
    layer("openflow.install", &["ctrl_flowmod"], true),
    layer("openflow.expiry", &["expiry_sweep"], true),
    layer(
        "controller.packet_in",
        &["ctrl_packet_in", "ctrl_processed"],
        true,
    ),
    layer("controller.ingest", &["ctrl_from_switch"], true),
    // The controller's periodic timers: app tick, echo heartbeat and the
    // monitor's stats poll.
    layer(
        "controller.tick",
        &["controller_tick", "heartbeat", "stats_poll"],
        true,
    ),
    layer(
        "sim.faults",
        &[
            "fail_vswitch",
            "join_vswitch",
            "recover_vswitch",
            "inject_fault",
            "set_link_up",
            "clear_link_degrade",
            "clear_ofa_slowdown",
            "clear_controller_stall",
            "cluster_handoff_done",
            "recover_replica",
            "clear_ctrl_partition",
        ],
        false,
    ),
];

/// The layer that owns dispatch profile row `row`.
pub fn layer_of(row: &str) -> Option<usize> {
    LAYERS.iter().position(|l| l.rows.contains(&row))
}
