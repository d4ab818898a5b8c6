//! # serve — batched-inference serving on simulated GPUs
//!
//! The paper's fused Winograd kernel exists to serve inference traffic;
//! this crate is the serving layer that turns the workspace's offline
//! capabilities — multi-wave device timing (`gpusim::device_sim`),
//! algorithm selection and bottleneck analysis (`perfmodel`), and the SASS
//! schedule autotuner (`sass::tune`) — into an online "conv as a service"
//! loop:
//!
//! ```text
//!  traffic ──▶ admission/batching queue ──▶ plan lookup ──▶ device pool
//!  (MMPP-2      (per-class FIFO, SLO-        (PlanCache:      (discrete-event
//!   arrivals)    bounded launch groups)       probe+tune       simulation,
//!                                             once, persist)   ns timeline)
//! ```
//!
//! - [`traffic`] generates the open-loop request stream: ResNet layer
//!   shapes, Poisson arrivals with Markov-modulated bursts.
//! - [`queue`] holds per-class FIFOs and decides *when* a launch group goes
//!   out (full batch, or the SLO margin says now).
//! - [`plan`] decides *how*: per-shape algorithm choice, batch-size
//!   variants, tuned schedules — built once, persisted in an LRU
//!   [`PlanCache`], replayed on warm starts.
//! - [`engine`] plays the stream against a device pool and reports
//!   p50/p99/p99.9 latency, an exact latency histogram, throughput, SLO
//!   misses, and time-to-first-dispatch.
//! - [`telemetry`] is the optional flight recorder
//!   ([`engine::run_recorded`]): per-request lifecycle spans, periodic
//!   gauges, miss attribution and mix-drift events — off by default and
//!   bit-identical when off.
//!
//! Everything is deterministic: simulated time is integer nanoseconds, the
//! only randomness is the seeded `tensor::XorShiftRng`, and no host clock
//! or thread schedule leaks into results. The `bench` crate's `serve`
//! binary drives this crate end-to-end and writes `BENCH_serve.json`; see
//! `docs/SERVING.md` for the operational story.

pub mod engine;
pub mod plan;
pub mod queue;
pub mod schedstore;
pub mod telemetry;
pub mod traffic;

pub use engine::{run, run_recorded, EngineConfig, RunStats};
pub use plan::{MemStorage, Plan, PlanCache, PlanStorage, Planner, PLAN_FORMAT_VERSION};
pub use schedstore::{ScheduleStore, StoredSchedule};
pub use telemetry::{LatencyHistogram, MissCause, Telemetry, TelemetryEvent, TelemetryOptions};
pub use traffic::{generate, Request, ShapeClass, TrafficConfig};
