//! Run-manifest construction and emission.
//!
//! A manifest is the machine-readable record of one sweep: which jobs ran,
//! with which seeds, what they reported, and how long they took. Everything
//! except the explicitly timing-dependent fields is deterministic in the
//! job list and seeds, so CI can diff normalized manifests across runs.

use crate::json::Json;
use crate::pool::Sweep;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "scotch-sweep-manifest/v1";

/// Build the manifest document. `with_timing` adds the wall-clock fields;
/// normalized manifests (`with_timing = false`) are byte-identical across
/// reruns of the same jobs and seeds.
pub fn build<T>(sweep: &Sweep<T>, with_timing: bool) -> Json {
    let jobs: Vec<Json> = sweep
        .results
        .iter()
        .map(|r| {
            let mut kpis = Json::obj();
            for (name, value) in &r.kpis {
                kpis = kpis.set(name, *value);
            }
            let mut job = Json::obj()
                .set("id", r.id.as_str())
                .set("seed", r.seed)
                .set("status", if r.outcome.is_ok() { "ok" } else { "panicked" })
                .set("units", r.units)
                .set("kpis", kpis);
            if !r.metrics.is_empty() {
                let mut metrics = Json::obj();
                for (name, value) in &r.metrics {
                    metrics = metrics.set(name, *value);
                }
                job = job.set("metrics", metrics);
            }
            if !r.checks.is_empty() {
                let mut checks = Json::obj();
                for (name, verdict) in &r.checks {
                    checks = checks.set(name, verdict.as_str());
                }
                job = job.set("checks", checks);
            }
            if let Err(message) = &r.outcome {
                job = job.set("panic", message.as_str());
            }
            if with_timing {
                job = job
                    .set("wall_ms", r.wall.as_secs_f64() * 1e3)
                    .set("units_per_sec", r.units_per_sec());
            }
            job
        })
        .collect();

    let mut doc = Json::obj()
        .set("schema", SCHEMA)
        .set("name", sweep.name.as_str())
        .set("jobs", Json::Arr(jobs))
        .set("ok", sweep.completed.get())
        .set("failed", sweep.failed.get());
    if with_timing {
        doc = doc.set(
            "timing",
            Json::obj()
                .set("threads", sweep.threads)
                .set("total_wall_ms", sweep.wall.as_secs_f64() * 1e3)
                .set("jobs_per_sec", sweep.jobs_per_sec())
                .set("job_wall_us_p50", sweep.timing_us.quantile(0.5))
                .set("job_wall_us_p99", sweep.timing_us.quantile(0.99))
                .set("steals", sweep.steals.get())
                .set("queue_depth_p50", sweep.queue_depth.quantile(0.5))
                .set("queue_depth_max", sweep.queue_depth.max()),
        );
    }
    doc
}

/// Write `manifest` as `<dir>/<name>.manifest.json`, creating `dir` as
/// needed, and return the path.
pub fn write(dir: &Path, name: &str, manifest: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.manifest.json"));
    std::fs::write(&path, manifest.pretty())?;
    Ok(path)
}
