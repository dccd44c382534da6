#![warn(missing_docs)]

//! # scotch-runner
//!
//! The shared parallel sweep runner behind every experiment fan-out and the
//! `scotch-cli sweep` subcommand. The paper's evaluation (§6) is a grid of
//! `(scenario, seed, parameter)` sweeps; this crate owns the one
//! work-stealing pool that drives them all:
//!
//! * [`SweepRunner`] — the pool. Takes an ordered list of [`Job`]s and
//!   returns a [`Sweep`] whose results sit in input order regardless of
//!   scheduling, so sweep output is deterministic.
//! * Panic containment — a panicking job fails *that job*
//!   ([`JobResult::outcome`] is `Err`), never the rest of the sweep.
//! * Metrics — per-job wall-time goes into a
//!   [`scotch_sim::metrics::Histogram`], completion counts into
//!   [`scotch_sim::metrics::Counter`]s, and jobs report work units and
//!   KPIs through [`JobCtx`].
//! * Manifests — [`Sweep::manifest`] renders a machine-readable JSON run
//!   record; [`Sweep::manifest_normalized`] strips the timing fields so CI
//!   can diff two runs of the same sweep byte-for-byte.

pub mod json;
pub mod manifest;
pub mod pool;

pub use json::Json;
pub use pool::{Job, JobCtx, JobResult, Sweep, SweepRunner};
