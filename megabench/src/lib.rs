//! `megabench`: one command that runs the Flowstream pipeline — ingest,
//! epoch rotation and export, FlowDB indexing, FlowQL queries and
//! cold-tier recovery — on three seeded workloads, checks its outputs,
//! and reports end-to-end metrics (untraced) or per-layer metrics (traced).
//! See `README.md` in this directory for the metric glossary.

pub mod layers;
pub mod pipeline;
pub mod report;
pub mod spans;
pub mod stats;
pub mod steal;
pub mod workload;
