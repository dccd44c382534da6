//! The repository benchmark: runs one named workload of the scotch
//! simulator through the public `Scenario::build_until` ->
//! `Simulation::run` -> `Report` API, checks every run's output, and
//! prints its metrics by name and unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! scotch-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with profiling off.
//! `--trace 1` is a separate pass with the simulator's dispatch profiler on,
//! which attributes traced wall time to the repository's modules, and adds
//! exact work counts, the sharded engine, the report serialiser and the
//! event queue, each timed from outside through public calls.
//! `perfbench/run.py` builds this binary from source and runs it.
//!
//! The default seed is 20141202. Confirm a claim made on it with the
//! held-out seed 5130527, which no workload was sized or tuned on.

mod alloc;
mod check;
mod workload;

use check::Setup;
use scotch::Report;
use scotch_sim::{EventQueue, ProfileEntry, SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{layer_of, Workload, LAYERS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Distinct inputs per run: the end-to-end pass pools the modelled
/// statistics of this many seeds derived from `--seed`, so that they
/// describe the workload rather than one draw of it.
const SUB_SEEDS: u64 = 20;
/// Builds timed per simulated run; all but the last are discarded.
const BUILDS_PER_RUN: usize = 8;
/// Shard count and worker threads of the sharded-engine probe.
const SHARDS: usize = 2;
/// Sharded runs timed in the traced pass.
const SHARD_RUNS: usize = 2;
/// Traced/untraced pairs the traced pass makes at least.
const MIN_TRACE_PAIRS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

const USAGE: &str =
    "usage: scotch-perfbench --workload flood_single|overlay_monitor|fabric_cluster \
     --seed N --seconds S --trace 0|1 [--commit ID]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 20141202;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        commit,
    })
}

/// Seed `i` of a run: `i = 0` is `--seed` itself, so a run reproduces what
/// `scotch-cli` reports for that seed.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Linearly interpolated quantile `q` in [0, 1].
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One simulated run of a workload.
struct Run {
    /// Host seconds of each timed `Scenario::build_until`.
    setup_s: Vec<f64>,
    /// Host seconds of `Simulation::run`.
    run_s: f64,
    heap: alloc::HeapUse,
    digest: u64,
    report: Report,
}

fn run_once(w: &Workload, seed: u64, profiled: bool) -> Option<Run> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut setup_s = Vec::with_capacity(BUILDS_PER_RUN);
        for _ in 1..BUILDS_PER_RUN {
            let t = Instant::now();
            let sim = w.scenario().build_until(seed, w.horizon);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        let base = alloc::reset();
        let t = Instant::now();
        let mut sim = w.scenario().build_until(seed, w.horizon);
        setup_s.push(t.elapsed().as_secs_f64());
        if profiled {
            sim.enable_profiling();
        }
        let t = Instant::now();
        let report = sim.run(w.horizon);
        let run_s = t.elapsed().as_secs_f64();
        let heap = alloc::snapshot(base);
        Run {
            setup_s,
            run_s,
            heap,
            digest: check::digest(&report),
            report,
        }
    }));
    result.ok()
}

/// Run accounting: a run fails if it panics or if its digest differs from
/// the first run of its set (same workload and seed).
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    first: Vec<(u64, u64)>,
}

impl Checks {
    fn record(&mut self, seed: u64, run: Option<&Run>) {
        self.attempted += 1;
        let Some(run) = run else {
            self.failed += 1;
            eprintln!("run with seed {seed} panicked");
            return;
        };
        match self.first.iter().find(|(s, _)| *s == seed) {
            Some(&(_, d)) if d != run.digest => {
                self.failed += 1;
                eprintln!(
                    "seed {seed}: digest {:016x} differs from {d:016x}",
                    run.digest
                );
            }
            Some(_) => {}
            None => self.first.push((seed, run.digest)),
        }
    }
}

/// Time a sharded run; `None` if it panicked.
fn run_sharded(w: &Workload, seed: u64) -> Option<(f64, Report)> {
    catch_unwind(AssertUnwindSafe(|| {
        let sim = w.scenario().build_until(seed, w.horizon);
        let t = Instant::now();
        let report = sim.run_sharded(w.horizon, SHARDS, SHARDS);
        (t.elapsed().as_secs_f64(), report)
    }))
    .ok()
}

/// A named metric with its unit. Unpublished metrics appear in the table
/// and the `row` line but not in the result object.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    published: bool,
}

/// Metrics in report order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put_if(true, name, value, unit);
    }

    fn put_if(&mut self, published: bool, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            published,
        });
    }

    fn json(&self, all: bool) -> String {
        let shown = self.0.iter().filter(|m| all || m.published);
        let fields: Vec<String> = shown
            .map(|m| {
                // Non-finite values only arise when every run failed, which
                // `correct: false` already reports.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The mode a row was measured in. Rows whose tags differ in anything but
/// `commit` are not comparable (`perfbench/compare.py` refuses them).
fn tags(args: &Args, shards: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"profile\": \"{profile}\", \"shards\": {shards}, \"threads\": {shards}, \
         \"telemetry\": \"{}\", \"controllers\": {}, \"seed\": {}, \"nproc\": {nproc}, \
         \"commit\": \"{}\"}}",
        args.workload.telemetry(),
        args.workload.controllers,
        args.seed,
        args.commit
    )
}

fn print_row(args: &Args, pass: &str, shards: usize, metrics: &Metrics) {
    println!(
        "row {{\"workload\": \"{}\", \"pass\": \"{pass}\", \"tags\": {}, \"metrics\": {}}}",
        args.workload.name,
        tags(args, shards),
        metrics.json(true)
    );
}

fn print_table(metrics: &Metrics, notes: &[(&str, String)]) {
    for m in &metrics.0 {
        let note = notes.iter().find(|(n, _)| *n == m.name);
        let note = note.map_or("", |(_, s)| s.as_str());
        println!("  {:<30} {:>16.6} {:<8} {note}", m.name, m.value, m.unit);
    }
}

/// End-to-end pass: profiling off, every run timed, modelled statistics
/// pooled over the first `SUB_SEEDS` runs (one per derived seed).
fn end_to_end(args: &Args, checks: &mut Checks) -> Metrics {
    let w = &args.workload;
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut heap_mb = Vec::new();
    let mut model = Setup::default();
    let mut i = 0;
    // Every derived seed once, then `--seed` again so that the digest check
    // bites, then round-robin until the time is spent.
    while i <= SUB_SEEDS || start.elapsed().as_secs_f64() < args.seconds {
        let seed = sub_seed(args.seed, i % SUB_SEEDS);
        let run = run_once(w, seed, false);
        checks.record(seed, run.as_ref());
        if let Some(run) = run {
            setup_s.extend(&run.setup_s);
            events_per_s.push(run.report.events_processed as f64 / run.run_s);
            if i < SUB_SEEDS {
                model.add(&run.report);
                heap_mb.push(run.heap.peak_bytes as f64 / MIB);
            }
        }
        i += 1;
    }
    let (tail_q, tail_ms) = model.tail_ms();
    let mut m = Metrics::default();
    // On a shared host the run time switches between a steady loaded state
    // and bursts of faster runs whose share varies from minute to minute:
    // the median moves with that share, the rate that nine runs in ten
    // reach does not.
    m.put("events_per_s", quantile(&events_per_s, 0.1), "1/s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_heap_mb", median(&heap_mb), "MiB");
    m.put("setup_tail_ms", tail_ms, "ms");
    print_row(args, "e2e", 1, &m);

    println!(
        "workload {} seed {} ({} derived seeds), {} runs in {:.1} s",
        w.name,
        args.seed,
        SUB_SEEDS,
        i,
        start.elapsed().as_secs_f64()
    );
    let runs = events_per_s.len();
    let notes = [
        (
            "events_per_s",
            format!(
                "host, Simulation::run, 10th percentile of {runs} runs \
                 (quartiles {:.0} {:.0} {:.0})",
                quantile(&events_per_s, 0.25),
                median(&events_per_s),
                quantile(&events_per_s, 0.75)
            ),
        ),
        (
            "setup_s",
            format!(
                "host, Scenario::build_until, median of {} builds",
                setup_s.len()
            ),
        ),
        (
            "peak_heap_mb",
            "host, peak live heap over build+run, median over seeds".into(),
        ),
        (
            "setup_tail_ms",
            format!(
                "modelled, p{tail_q} of n={} legitimate setups",
                model.latencies_ns.len()
            ),
        ),
    ];
    print_table(&m, &notes);
    let samples: Vec<String> = events_per_s.iter().map(|v| format!("{v:.0}")).collect();
    println!("  events_per_s by run: {}", samples.join(" "));
    let mut extra = Metrics::default();
    extra.put("client_fail_pct", model.fail_pct(), "%");
    extra.put("setup_p50_ms", model.p50_ms(), "ms");
    extra.put(
        "run_fail_pct",
        100.0 * checks.failed as f64 / checks.attempted as f64,
        "%",
    );
    print_table(
        &extra,
        &[
            (
                "client_fail_pct",
                format!("modelled, pooled over {} flows", model.flows),
            ),
            ("setup_p50_ms", "modelled, pooled".into()),
            (
                "run_fail_pct",
                format!("{} of {} runs", checks.failed, checks.attempted),
            ),
        ],
    );
    m
}

/// Push+pop cost of a standalone event queue held at `len` pending events,
/// ns per operation: a synthetic probe of the engine layer.
fn queue_ns_per_op(len: usize, ops: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        SimDuration::from_micros(1 + x % 10_000)
    };
    for i in 0..len.max(1) {
        q.push(SimTime::ZERO + delay(), i as u32);
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (at, e) = q.pop().expect("queue holds len events");
        q.push(at + delay(), std::hint::black_box(e));
    }
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn metric(r: &Report, name: &str) -> f64 {
    r.metrics.get(name).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Traced pass: dispatch profiling on, interleaved with untraced runs of
/// the same seed for the overhead; plus the layers timed from outside.
fn layers(args: &Args, checks: &mut Checks) -> Metrics {
    let w = &args.workload;
    let seed = args.seed;
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced: Vec<(f64, Vec<ProfileEntry>)> = Vec::new();
    let mut last = None;
    let mut pairs = 0;
    while pairs < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        pairs += 1;
        let run = run_once(w, seed, false);
        checks.record(seed, run.as_ref());
        if let Some(run) = run {
            untraced_s.push(run.run_s);
            last = Some(run);
        }
        let run = run_once(w, seed, true);
        checks.record(seed, run.as_ref());
        if let Some(run) = run {
            traced.push((run.run_s, run.report.profile));
        }
    }
    let (Some(run), false) = (last, traced.is_empty()) else {
        return Metrics::default();
    };
    let r = &run.report;
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, profile) = traced.swap_remove(traced.len() / 2);

    let mut busy_ns = [0.0; LAYERS.len()];
    let mut count = [0u64; LAYERS.len()];
    for row in &profile {
        let l = layer_of(row.name).unwrap_or_else(|| panic!("unmapped profile row {}", row.name));
        busy_ns[l] += row.total_ns;
        count[l] += row.count;
    }
    let mut m = Metrics::default();
    for (l, layer) in LAYERS.iter().enumerate() {
        let (name, timed) = (layer.name, layer.busy_everywhere);
        m.put_if(timed, format!("{name}.busy_s"), busy_ns[l] / 1e9, "s");
        m.put(format!("{name}.count"), count[l] as f64, "count");
        let mean_ns = ratio(busy_ns[l], count[l] as f64);
        m.put_if(timed, format!("{name}.mean_ns"), mean_ns, "ns");
        m.put_if(
            timed,
            format!("{name}.share"),
            busy_ns[l] / 1e9 / wall,
            "fraction",
        );
    }
    let residual = wall - busy_ns.iter().sum::<f64>() / 1e9;
    m.put("sim.residual.busy_s", residual, "s");
    m.put("sim.residual.share", residual / wall, "fraction");
    m.put("trace.wall_s", wall, "s");
    m.put(
        "trace.overhead_pct",
        100.0 * (wall / median(&untraced_s) - 1.0),
        "%",
    );

    let events = r.events_processed;
    m.put("sim.events", events as f64, "count");
    let queue_len = metric(r, "sim.event_queue.len.mean");
    m.put("sim.event_queue.len.mean", queue_len, "count");
    let probes: Vec<f64> = (0..3)
        .map(|_| queue_ns_per_op(queue_len.round() as usize, events))
        .collect();
    m.put("sim.queue_ns_per_op", median(&probes), "ns");

    m.put("alloc.count", run.heap.count as f64, "count");
    m.put(
        "alloc.per_event",
        ratio(run.heap.count as f64, events as f64),
        "count",
    );
    m.put(
        "heap.bytes_per_flow",
        ratio(run.heap.peak_bytes as f64, r.flows.len() as f64),
        "B",
    );

    let records = metric(r, "monitor.sampled_records");
    let replies = metric(r, "controller.rx.flow_stats_reply");
    m.put("monitor.records", records, "count");
    m.put("monitor.stats_replies", replies, "count");
    m.put(
        "monitor.records_per_reply",
        ratio(records, replies),
        "count",
    );
    let packet_ins = metric(r, "app.packet_ins");
    m.put("controller.packet_ins", packet_ins, "count");
    m.put(
        "controller.flow_mods",
        metric(r, "controller.tx.flow_mod"),
        "count",
    );
    m.put("switch.ofa_drops", r.drops.ofa_overload as f64, "count");
    let ofa = r
        .switches
        .iter()
        .map(|s| &s.ofa)
        .chain(r.vswitches.iter().map(|v| &v.ofa));
    let (inserted, attempted) = ofa.fold((0u64, 0u64), |(i, a), o| {
        (i + o.rules_inserted, a + o.rules_attempted)
    });
    m.put(
        "switch.rules_inserted_ratio",
        ratio(inserted as f64, attempted as f64),
        "fraction",
    );
    m.put(
        "app.overlay_share",
        ratio(metric(r, "app.overlay_admitted"), packet_ins),
        "fraction",
    );
    let mut model = Setup::default();
    model.add(r);
    m.put("model.client_fail_pct", model.fail_pct(), "%");
    m.put("model.setup_p50_ms", model.p50_ms(), "ms");
    m.put("model.setup_n", model.latencies_ns.len() as f64, "count");
    m.put(
        "check.unaccounted_pkts",
        check::unaccounted_packets(r) as f64,
        "count",
    );

    let t = Instant::now();
    let metrics_json = r.metrics_json();
    m.put("report.metrics_s", t.elapsed().as_secs_f64(), "s");
    drop(metrics_json);
    let t = Instant::now();
    let canonical = r.canonical_json();
    m.put("report.canonical_s", t.elapsed().as_secs_f64(), "s");
    m.put("report.canonical_mb", canonical.len() as f64 / MIB, "MiB");
    drop(canonical);
    print_row(args, "layers", 1, &m);

    // The sharded engine at SHARDS shards and threads, against the
    // sequential runs above (workloads without racks run sequentially).
    // It should reproduce the sequential flow outcomes exactly; the
    // mismatch is reported, not gated.
    let mut sharded_s = Vec::new();
    let mut differing = 0;
    for _ in 0..SHARD_RUNS {
        checks.attempted += 1;
        match run_sharded(w, seed) {
            Some((s, sharded)) => {
                sharded_s.push(s);
                differing = check::differing_flows(r, &sharded);
            }
            None => checks.failed += 1,
        }
    }
    drop(run);
    let mut shard = Metrics::default();
    shard.put("shard.run_s", median(&sharded_s), "s");
    shard.put(
        "shard.speedup",
        median(&untraced_s) / median(&sharded_s),
        "x",
    );
    shard.put("check.shard_diff_flows", differing as f64, "count");
    print_row(args, "shard", SHARDS, &shard);

    println!(
        "workload {} seed {}: {pairs} traced/untraced pairs, median traced wall {wall:.4} s",
        w.name, seed
    );
    print_table(&m, &[]);
    print_table(&shard, &[]);
    m.0.extend(shard.0);
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        layers(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        metrics.json(false)
    );
    if !correct {
        std::process::exit(1);
    }
}
