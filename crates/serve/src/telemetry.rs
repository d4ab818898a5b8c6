//! `telemetry` — the serving-layer flight recorder.
//!
//! [`engine::run_recorded`](crate::engine::run_recorded) threads a
//! [`Telemetry`] recorder through the discrete-event loop and emits one
//! [`TelemetryEvent`] per lifecycle edge of every request — arrival,
//! enqueue, batch formation, dispatch, completion — on the engine's
//! integer-nanosecond timeline, plus two derived series:
//!
//! * **gauges** sampled at a configurable tick
//!   ([`TelemetryOptions::tick_ns`]): per-class queue depth, busy devices,
//!   in-flight batches, and plan states (ready / build-in-progress);
//! * **drift events** from an observed-vs-probed mix tracker: a per-class
//!   arrival-rate EWMA compared against the rate assumption baked into each
//!   [`Plan`](crate::plan::Plan) (`Plan::assumed_rps`, recorded at
//!   plan-build time from the MMPP-2 traffic config) — the hook a future
//!   online re-planner consumes.
//!
//! Every completion carries its miss cause (queueing, service or
//! plan-build); `bench --bin servemon` buckets the exported completions
//! into its SLO burn-rate table.
//!
//! The same module owns [`LatencyHistogram`] — the log-bucketed exact-count
//! histogram `RunStats` reports next to its nearest-rank percentiles.
//!
//! # Determinism contract (the simprof pattern, one layer up)
//!
//! * [`TelemetryOptions::off`] is the default; every recorder hook
//!   early-returns, so the off path is bit-identical to a run without the
//!   recorder ([`crate::engine::run`] is literally `run_recorded` with an
//!   off recorder) and `BENCH_serve.json` does not change.
//! * Recording never enters a cache digest: plan keys, sweep keys and the
//!   device model are all computed before the recorder sees anything.
//! * The engine is single-threaded per run and `--jobs` only shards whole
//!   per-device pipelines, so the event stream is a pure function of
//!   `(seed, config)`. Export orders events by `(timestamp, sequence)` —
//!   completions are recorded at dispatch time with their future completion
//!   timestamp, and the sort merges them back into timeline order — which
//!   makes the JSON-lines log and the Chrome pool trace byte-identical
//!   under any `--jobs` value (pinned by `bench/tests/serve_telemetry.rs`).
//!
//! # Export
//!
//! [`Telemetry::timeline`] yields the stream in export order, each event
//! with its sequence number. [`Telemetry::to_jsonl`] renders it as one
//! JSON object per line, parseable by `gpusim::json` and replayed by
//! `bench --bin servemon`; the `bench` serve binary builds its Chrome
//! trace-event export of the device-pool timeline from the same iterator.

use gpusim::json::Json;

/// Recorder configuration. [`TelemetryOptions::off`] (the default) disables
/// every hook; [`TelemetryOptions::on`] enables recording with the
/// documented default knobs.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOptions {
    /// Master switch; `false` makes every hook a no-op.
    pub enabled: bool,
    /// Gauge sampling period, nanoseconds of simulated time.
    pub tick_ns: u64,
    /// EWMA smoothing factor applied to the per-tick arrival rate of each
    /// class, in `(0, 1]`; larger reacts faster.
    pub drift_alpha: f64,
    /// Drift trips when `ewma / assumed` leaves `[1/band, band]`
    /// (and re-arms when it returns). Must be `> 1`.
    pub drift_band: f64,
    /// Gauge ticks to wait before the drift detector may fire (EWMA
    /// warm-up).
    pub drift_warmup_ticks: u64,
}

impl TelemetryOptions {
    /// Recording disabled; all hooks are no-ops. The default.
    pub fn off() -> Self {
        TelemetryOptions {
            enabled: false,
            ..Self::on()
        }
    }

    /// Recording enabled with default knobs: 1 ms gauge tick, EWMA
    /// α = 0.25, drift band 2×, 8-tick warm-up.
    pub fn on() -> Self {
        TelemetryOptions {
            enabled: true,
            tick_ns: 1_000_000,
            drift_alpha: 0.25,
            drift_band: 2.0,
            drift_warmup_ticks: 8,
        }
    }
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        Self::off()
    }
}

/// Why a completed request missed its SLO. Attribution is decided against
/// `latest_safe_start = arrival + slo − worst_service` (the queue's
/// dispatch deadline):
///
/// * [`MissCause::PlanBuild`] — the class's plan became ready only after
///   the request's latest safe start; no dispatch order could have saved it.
/// * [`MissCause::Queueing`] — the plan was ready in time but the dispatch
///   happened after the latest safe start (device contention).
/// * [`MissCause::Service`] — dispatched by the deadline and still late:
///   the service time alone exceeds the SLO margin (only possible when
///   `slo < worst_service`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissCause {
    /// The request met its SLO.
    None,
    Queueing,
    Service,
    PlanBuild,
}

impl MissCause {
    pub fn name(self) -> &'static str {
        match self {
            MissCause::None => "none",
            MissCause::Queueing => "queueing",
            MissCause::Service => "service",
            MissCause::PlanBuild => "plan_build",
        }
    }
}

/// One flight-recorder event. `t` is simulated nanoseconds; `class` indexes
/// the class list the run was started with (names travel in the JSON
/// export). Every event also carries an implicit record sequence number
/// (its position in [`Telemetry::events`]) used as the sort tie-break.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryEvent {
    /// A request entered the system.
    Arrival { t: u64, id: u64, class: usize },
    /// The request was appended to its class FIFO; `depth` is the queue
    /// length after the push.
    Enqueue {
        t: u64,
        id: u64,
        class: usize,
        depth: u32,
    },
    /// First arrival of a class started plan acquisition (build cost cold,
    /// cache lookup warm); the class cannot dispatch before `ready_ns`.
    PlanFetch {
        t: u64,
        class: usize,
        ready_ns: u64,
        charge_ns: u64,
        warm: bool,
    },
    /// Plan acquisition finished; the class became dispatchable.
    PlanReady { t: u64, class: usize },
    /// A launch group was formed from the class FIFO (`count` requests,
    /// padded up to `batch_n`).
    BatchFormed {
        t: u64,
        batch: u64,
        class: usize,
        count: u32,
        batch_n: u32,
    },
    /// The group started on a device (same instant as its formation — the
    /// engine only forms groups it can place).
    Dispatch {
        t: u64,
        batch: u64,
        class: usize,
        device: usize,
        count: u32,
        batch_n: u32,
        service_ns: u64,
    },
    /// A request finished (`t` is the completion instant; recorded at
    /// dispatch time and merged back by the timestamp sort).
    Complete {
        t: u64,
        id: u64,
        class: usize,
        batch: u64,
        latency_ns: u64,
        /// Arrival-to-dispatch wait.
        wait_ns: u64,
        miss: bool,
        cause: MissCause,
    },
    /// Periodic gauge sample (state as of just *before* any events at `t`).
    Gauge {
        t: u64,
        /// Per-class queue depths.
        depths: Vec<u32>,
        /// Per-class wait of the oldest pending request at `t` (`0` when
        /// the queue is empty) — the starvation signal.
        oldest_wait_ns: Vec<u64>,
        /// Sum of `depths`.
        queued: u32,
        /// Devices with a launch group in flight.
        busy_devices: u32,
        /// Launch groups in flight (one per busy device in this engine).
        inflight_batches: u32,
        plans_ready: u32,
        plans_building: u32,
    },
    /// The observed arrival-rate EWMA of a class left (or re-entered) the
    /// drift band around its plan's probe-time assumption.
    Drift {
        t: u64,
        class: usize,
        observed_rps: f64,
        assumed_rps: f64,
        /// `observed / assumed`.
        ratio: f64,
        /// `true` when leaving the band, `false` on return.
        drifted: bool,
    },
}

impl TelemetryEvent {
    /// Event timestamp (simulated ns) — the export sort key.
    pub fn t(&self) -> u64 {
        match *self {
            TelemetryEvent::Arrival { t, .. }
            | TelemetryEvent::Enqueue { t, .. }
            | TelemetryEvent::PlanFetch { t, .. }
            | TelemetryEvent::PlanReady { t, .. }
            | TelemetryEvent::BatchFormed { t, .. }
            | TelemetryEvent::Dispatch { t, .. }
            | TelemetryEvent::Complete { t, .. }
            | TelemetryEvent::Gauge { t, .. }
            | TelemetryEvent::Drift { t, .. } => t,
        }
    }

    /// Stable kind tag used in the JSON-lines export.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::Arrival { .. } => "arrival",
            TelemetryEvent::Enqueue { .. } => "enqueue",
            TelemetryEvent::PlanFetch { .. } => "plan_fetch",
            TelemetryEvent::PlanReady { .. } => "plan_ready",
            TelemetryEvent::BatchFormed { .. } => "batch_formed",
            TelemetryEvent::Dispatch { .. } => "dispatch",
            TelemetryEvent::Complete { .. } => "complete",
            TelemetryEvent::Gauge { .. } => "gauge",
            TelemetryEvent::Drift { .. } => "drift",
        }
    }
}

/// The reconciled lifecycle of one request: every span edge the recorder
/// saw, in order `arrival = enqueue ≤ dispatch ≤ complete`.
/// `telemetry_invariants.rs` checks these reconcile exactly with
/// [`RunStats`](crate::engine::RunStats).
#[derive(Clone, Copy, Debug)]
pub struct RequestSpan {
    pub id: u64,
    pub class: usize,
    pub arrival_ns: u64,
    pub enqueue_ns: u64,
    pub dispatch_ns: u64,
    pub complete_ns: u64,
    pub batch: u64,
    pub miss: bool,
    pub cause: MissCause,
}

// ---- histogram --------------------------------------------------------------

/// Sub-buckets per power-of-two octave (3 mantissa bits → ≤ 12.5% relative
/// bucket width); values below `2^5` get exact unit buckets.
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: u32 = 1 << HIST_SUB_BITS;
const HIST_LINEAR: u64 = 32; // values 0..31 are exact
const HIST_BUCKETS: usize = HIST_LINEAR as usize + ((63 - 5 + 1) * HIST_SUB as usize);

/// Log-bucketed latency histogram with **exact counts**: every recorded
/// value lands in exactly one bucket, totals are never sampled or scaled.
/// Values `< 32` get unit-width buckets; above that, buckets subdivide each
/// power-of-two octave into 8, so a bucket's upper bound is at most 12.5%
/// above its lower bound. [`LatencyHistogram::percentile`] therefore
/// over-reports a nearest-rank percentile by at most one bucket width —
/// `RunStats` keeps the exact nearest-rank values and reports the histogram
/// alongside for distribution shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < HIST_LINEAR {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // ≥ 5
        let m = ((v >> (e - HIST_SUB_BITS)) & u64::from(HIST_SUB - 1)) as u32;
        (HIST_LINEAR as u32 + (e - 5) * HIST_SUB + m) as usize
    }

    /// Inclusive upper bound of bucket `idx`.
    pub fn bucket_le(idx: usize) -> u64 {
        if (idx as u64) < HIST_LINEAR {
            return idx as u64;
        }
        let rel = idx as u32 - HIST_LINEAR as u32;
        let e = 5 + rel / HIST_SUB;
        let m = u128::from(rel % HIST_SUB);
        // u128: the top bucket's bound is 2^64 − 1 and would overflow u64
        // arithmetic mid-expression.
        let le = (1u128 << e) + ((m + 1) << (e - HIST_SUB_BITS)) - 1;
        le.min(u128::from(u64::MAX)) as u64
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_le(i), c))
    }

    /// Upper bound of the bucket containing the nearest-rank percentile
    /// (`0` on an empty histogram). Over-reports the exact nearest-rank
    /// value by at most one bucket width (≤ 12.5%).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_le(i);
            }
        }
        Self::bucket_le(HIST_BUCKETS - 1)
    }
}

// ---- recorder ---------------------------------------------------------------

/// Per-class drift-tracker state.
#[derive(Clone, Debug, Default)]
struct DriftState {
    /// Arrivals in the current gauge-tick window.
    window: u64,
    /// EWMA of the per-tick arrival rate, requests/second.
    ewma: f64,
    /// Currently outside the drift band?
    out: bool,
}

/// The flight recorder. Construct with [`Telemetry::new`] (or
/// [`Telemetry::off`]), pass to
/// [`engine::run_recorded`](crate::engine::run_recorded), then read
/// [`Telemetry::events`] or [`Telemetry::spans`], or export through
/// [`Telemetry::timeline`]. A recorder is single-use:
/// the engine asserts it is fresh.
pub struct Telemetry {
    pub opts: TelemetryOptions,
    events: Vec<TelemetryEvent>,
    spans: Vec<RequestSpan>,
    class_names: Vec<String>,
    assumed_rps: Vec<f64>,
    drift: Vec<DriftState>,
    next_tick: u64,
    ticks: u64,
    batches: u64,
    began: bool,
    finished: bool,
}

impl Telemetry {
    pub fn new(opts: TelemetryOptions) -> Self {
        if opts.enabled {
            assert!(opts.tick_ns > 0, "tick_ns must be positive");
            assert!(
                opts.drift_alpha > 0.0 && opts.drift_alpha <= 1.0,
                "drift_alpha must be in (0, 1]"
            );
            assert!(opts.drift_band > 1.0, "drift_band must be > 1");
        }
        Telemetry {
            opts,
            events: Vec::new(),
            spans: Vec::new(),
            class_names: Vec::new(),
            assumed_rps: Vec::new(),
            drift: Vec::new(),
            next_tick: 0,
            ticks: 0,
            batches: 0,
            began: false,
            finished: false,
        }
    }

    /// A disabled recorder (every hook is a no-op).
    pub fn off() -> Self {
        Self::new(TelemetryOptions::off())
    }

    pub fn enabled(&self) -> bool {
        self.opts.enabled
    }

    /// Recorded events in *record* order (completions sit at their dispatch
    /// position); use [`Telemetry::timeline`] for timeline order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Per-request lifecycle spans, indexed by request id.
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// Launch groups recorded.
    pub fn batch_count(&self) -> u64 {
        self.batches
    }

    /// Class names captured when the engine started the recorder (for
    /// export).
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The stream sorted by `(timestamp, sequence)`, each event with its
    /// sequence number. The sequence is the record index, so the order is a
    /// pure function of the run — byte-identical exports under any
    /// `--jobs`.
    pub fn timeline(&self) -> impl Iterator<Item = (u64, &TelemetryEvent)> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].t(), i));
        order.into_iter().map(|i| (i as u64, &self.events[i]))
    }

    /// Render the [`timeline`](Self::timeline) as JSON lines through the
    /// `gpusim::json` codec, one object per event, with `ctx` pairs (e.g.
    /// `device`/`phase`) prepended to every line so logs from several runs
    /// can share one file, and class indices resolved to names. The output
    /// is deterministic and parseable by the same codec.
    pub fn to_jsonl(&self, ctx: &[(&str, &str)]) -> String {
        let class_name = |c: usize| Json::from(self.class_names.get(c).map_or("?", |s| s.as_str()));
        let mut out = String::new();
        for (seq, ev) in self.timeline() {
            let fields: Vec<(&str, Json)> = match *ev {
                TelemetryEvent::Arrival { id, class, .. } => {
                    vec![("id", id.into()), ("class", class_name(class))]
                }
                TelemetryEvent::Enqueue {
                    id, class, depth, ..
                } => vec![
                    ("id", id.into()),
                    ("class", class_name(class)),
                    ("depth", depth.into()),
                ],
                TelemetryEvent::PlanFetch {
                    class,
                    ready_ns,
                    charge_ns,
                    warm,
                    ..
                } => vec![
                    ("class", class_name(class)),
                    ("ready_ns", ready_ns.into()),
                    ("charge_ns", charge_ns.into()),
                    ("warm", warm.into()),
                ],
                TelemetryEvent::PlanReady { class, .. } => vec![("class", class_name(class))],
                TelemetryEvent::BatchFormed {
                    batch,
                    class,
                    count,
                    batch_n,
                    ..
                } => vec![
                    ("batch", batch.into()),
                    ("class", class_name(class)),
                    ("count", count.into()),
                    ("batch_n", batch_n.into()),
                ],
                TelemetryEvent::Dispatch {
                    batch,
                    class,
                    device,
                    count,
                    batch_n,
                    service_ns,
                    ..
                } => vec![
                    ("batch", batch.into()),
                    ("class", class_name(class)),
                    ("device", device.into()),
                    ("count", count.into()),
                    ("batch_n", batch_n.into()),
                    ("service_ns", service_ns.into()),
                ],
                TelemetryEvent::Complete {
                    id,
                    class,
                    batch,
                    latency_ns,
                    wait_ns,
                    miss,
                    cause,
                    ..
                } => vec![
                    ("id", id.into()),
                    ("class", class_name(class)),
                    ("batch", batch.into()),
                    ("latency_ns", latency_ns.into()),
                    ("wait_ns", wait_ns.into()),
                    ("miss", miss.into()),
                    ("cause", cause.name().into()),
                ],
                TelemetryEvent::Gauge {
                    ref depths,
                    ref oldest_wait_ns,
                    queued,
                    busy_devices,
                    inflight_batches,
                    plans_ready,
                    plans_building,
                    ..
                } => vec![
                    ("depths", depths.clone().into()),
                    ("oldest_wait_ns", oldest_wait_ns.clone().into()),
                    ("queued", queued.into()),
                    ("busy_devices", busy_devices.into()),
                    ("inflight_batches", inflight_batches.into()),
                    ("plans_ready", plans_ready.into()),
                    ("plans_building", plans_building.into()),
                ],
                TelemetryEvent::Drift {
                    class,
                    observed_rps,
                    assumed_rps,
                    ratio,
                    drifted,
                    ..
                } => vec![
                    ("class", class_name(class)),
                    ("observed_rps", observed_rps.into()),
                    ("assumed_rps", assumed_rps.into()),
                    ("ratio", ratio.into()),
                    ("drifted", drifted.into()),
                ],
            };
            let head = [
                ("seq", seq.into()),
                ("t", ev.t().into()),
                ("kind", ev.kind().into()),
            ];
            let line = ctx
                .iter()
                .map(|&(k, v)| (k, v.into()))
                .chain(head.into_iter().chain(fields))
                .map(|(k, v)| (k.to_string(), v));
            Json::Obj(line.collect()).render_into(&mut out);
            out.push('\n');
        }
        out
    }

    // -- engine hooks (all no-ops when disabled) --

    /// Called once at the top of `run_recorded`.
    pub(crate) fn begin(&mut self, class_names: Vec<String>, assumed_rps: Vec<f64>) {
        if !self.opts.enabled {
            return;
        }
        assert!(!self.began, "a Telemetry recorder is single-use");
        self.began = true;
        assert_eq!(class_names.len(), assumed_rps.len());
        self.drift = vec![DriftState::default(); class_names.len()];
        self.class_names = class_names;
        self.assumed_rps = assumed_rps;
        self.next_tick = self.opts.tick_ns;
    }

    pub(crate) fn on_arrival(&mut self, t: u64, id: u64, class: usize, depth_after: u32) {
        if !self.opts.enabled {
            return;
        }
        self.events.push(TelemetryEvent::Arrival { t, id, class });
        self.events.push(TelemetryEvent::Enqueue {
            t,
            id,
            class,
            depth: depth_after,
        });
        let idx = id as usize;
        if self.spans.len() <= idx {
            self.spans.resize(
                idx + 1,
                RequestSpan {
                    id: 0,
                    class: 0,
                    arrival_ns: 0,
                    enqueue_ns: 0,
                    dispatch_ns: 0,
                    complete_ns: 0,
                    batch: 0,
                    miss: false,
                    cause: MissCause::None,
                },
            );
        }
        self.spans[idx] = RequestSpan {
            id,
            class,
            arrival_ns: t,
            enqueue_ns: t,
            dispatch_ns: 0,
            complete_ns: 0,
            batch: 0,
            miss: false,
            cause: MissCause::None,
        };
        self.drift[class].window += 1;
    }

    pub(crate) fn on_plan_fetch(
        &mut self,
        t: u64,
        class: usize,
        ready_ns: u64,
        charge_ns: u64,
        warm: bool,
    ) {
        if !self.opts.enabled {
            return;
        }
        self.events.push(TelemetryEvent::PlanFetch {
            t,
            class,
            ready_ns,
            charge_ns,
            warm,
        });
    }

    pub(crate) fn on_plan_ready(&mut self, t: u64, class: usize) {
        if !self.opts.enabled {
            return;
        }
        self.events.push(TelemetryEvent::PlanReady { t, class });
    }

    /// Returns the batch id for the request-level completions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_dispatch(
        &mut self,
        t: u64,
        class: usize,
        device: usize,
        count: u32,
        batch_n: u32,
        service_ns: u64,
    ) -> u64 {
        if !self.opts.enabled {
            return 0;
        }
        let batch = self.batches;
        self.batches += 1;
        self.events.push(TelemetryEvent::BatchFormed {
            t,
            batch,
            class,
            count,
            batch_n,
        });
        self.events.push(TelemetryEvent::Dispatch {
            t,
            batch,
            class,
            device,
            count,
            batch_n,
            service_ns,
        });
        batch
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_complete(
        &mut self,
        id: u64,
        class: usize,
        batch: u64,
        arrival_ns: u64,
        dispatch_ns: u64,
        complete_ns: u64,
        miss: bool,
        cause: MissCause,
    ) {
        if !self.opts.enabled {
            return;
        }
        self.events.push(TelemetryEvent::Complete {
            t: complete_ns,
            id,
            class,
            batch,
            latency_ns: complete_ns - arrival_ns,
            wait_ns: dispatch_ns - arrival_ns,
            miss,
            cause,
        });
        let sp = &mut self.spans[id as usize];
        sp.dispatch_ns = dispatch_ns;
        sp.complete_ns = complete_ns;
        sp.batch = batch;
        sp.miss = miss;
        sp.cause = cause;
    }

    /// Emit gauge samples (and advance the drift tracker) for every tick
    /// instant `≤ now` not yet sampled. Called at the top of each event
    /// instant, before its events are applied, so a sample reflects the
    /// state that held since the previous instant — between instants the
    /// engine state is constant, so one snapshot serves all due ticks.
    pub(crate) fn sample_until<F: Fn() -> GaugeSnapshot>(&mut self, now: u64, snapshot: F) {
        if !self.opts.enabled || self.next_tick > now {
            return;
        }
        let snap = snapshot();
        while self.next_tick <= now {
            let t = self.next_tick;
            self.events.push(TelemetryEvent::Gauge {
                t,
                depths: snap.depths.clone(),
                // The snapshot measured waits at `now`; rebase each to this
                // tick (the queue content is constant over `(prev, now]`,
                // only the clock moved).
                oldest_wait_ns: snap
                    .oldest_wait_ns
                    .iter()
                    .map(|w| w.saturating_sub(now - t))
                    .collect(),
                queued: snap.depths.iter().sum(),
                busy_devices: snap.busy_devices,
                inflight_batches: snap.inflight_batches,
                plans_ready: snap.plans_ready,
                plans_building: snap.plans_building,
            });
            self.tick_drift(t);
            self.next_tick += self.opts.tick_ns;
        }
    }

    /// One drift-tracker step at tick instant `t`: fold the window's
    /// arrival count into the rate EWMA and compare against the plan's
    /// assumption.
    fn tick_drift(&mut self, t: u64) {
        self.ticks += 1;
        let tick_s = self.opts.tick_ns as f64 / 1e9;
        let alpha = self.opts.drift_alpha;
        for c in 0..self.drift.len() {
            let st = &mut self.drift[c];
            let rate = st.window as f64 / tick_s;
            st.window = 0;
            st.ewma = if self.ticks == 1 {
                rate
            } else {
                alpha * rate + (1.0 - alpha) * st.ewma
            };
            let assumed = self.assumed_rps[c];
            if assumed <= 0.0 || self.ticks < self.opts.drift_warmup_ticks {
                continue;
            }
            let ratio = st.ewma / assumed;
            let out = ratio > self.opts.drift_band || ratio < 1.0 / self.opts.drift_band;
            if out != st.out {
                st.out = out;
                self.events.push(TelemetryEvent::Drift {
                    t,
                    class: c,
                    observed_rps: st.ewma,
                    assumed_rps: assumed,
                    ratio,
                    drifted: out,
                });
            }
        }
    }

    /// Called once after the event loop: emits a final gauge sample at the
    /// makespan, if the tick grid did not already land there.
    pub(crate) fn finish(&mut self, makespan: u64, snapshot: GaugeSnapshot) {
        if !self.opts.enabled {
            return;
        }
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        self.sample_until(makespan, || snapshot.clone());
        if self.next_tick - self.opts.tick_ns < makespan {
            // The last tick fell short of the makespan: close the series
            // with an end-of-run sample so consumers see the drained state.
            self.events.push(TelemetryEvent::Gauge {
                t: makespan,
                depths: snapshot.depths.clone(),
                oldest_wait_ns: snapshot.oldest_wait_ns.clone(),
                queued: snapshot.depths.iter().sum(),
                busy_devices: snapshot.busy_devices,
                inflight_batches: snapshot.inflight_batches,
                plans_ready: snapshot.plans_ready,
                plans_building: snapshot.plans_building,
            });
        }
    }
}

/// Engine state captured by a gauge sample. Waits are measured at the
/// snapshot instant; the recorder rebases them to each due tick (waiting
/// time grows with the clock even while queue contents are frozen).
#[derive(Clone, Debug)]
pub struct GaugeSnapshot {
    pub depths: Vec<u32>,
    pub oldest_wait_ns: Vec<u64>,
    pub busy_devices: u32,
    pub inflight_batches: u32,
    pub plans_ready: u32,
    pub plans_building: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_exact_and_ordered() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.total(), 9);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 9);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        // Exact unit buckets below 32.
        assert_eq!(LatencyHistogram::index(31), 31);
        assert_eq!(LatencyHistogram::bucket_le(31), 31);
        // Every value is ≤ its bucket's upper bound and > the previous one.
        for v in [32u64, 33, 100, 1_000, 123_456, u64::MAX] {
            let idx = LatencyHistogram::index(v);
            assert!(v <= LatencyHistogram::bucket_le(idx));
            if idx > 0 {
                assert!(v > LatencyHistogram::bucket_le(idx - 1));
            }
        }
    }

    #[test]
    fn histogram_percentile_brackets_nearest_rank() {
        let mut h = LatencyHistogram::new();
        let vals: Vec<u64> = (1..=1000u64).map(|i| i * 37).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for p in [50.0, 99.0, 99.9] {
            let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let hist = h.percentile(p);
            assert!(hist >= exact, "p{p}: hist {hist} < exact {exact}");
            assert!(
                hist <= exact + exact / 8 + 1,
                "p{p}: hist {hist} too far above exact {exact}"
            );
        }
        assert_eq!(LatencyHistogram::new().percentile(50.0), 0);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut tel = Telemetry::off();
        tel.begin(vec!["A".into()], vec![0.0]);
        tel.on_arrival(5, 0, 0, 1);
        tel.sample_until(100, || GaugeSnapshot {
            depths: vec![1],
            oldest_wait_ns: vec![95],
            busy_devices: 0,
            inflight_batches: 0,
            plans_ready: 0,
            plans_building: 0,
        });
        tel.finish(
            100,
            GaugeSnapshot {
                depths: vec![0],
                oldest_wait_ns: vec![0],
                busy_devices: 0,
                inflight_batches: 0,
                plans_ready: 1,
                plans_building: 0,
            },
        );
        assert!(tel.events().is_empty());
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_are_objects_and_sorted() {
        let mut tel = Telemetry::new(TelemetryOptions::on());
        tel.begin(vec!["A".into()], vec![0.0]);
        tel.on_arrival(10, 0, 0, 1);
        let b = tel.on_dispatch(20, 0, 0, 1, 32, 100);
        tel.on_complete(0, 0, b, 10, 20, 120, false, MissCause::None);
        tel.on_arrival(50, 1, 0, 1);
        tel.finish(
            120,
            GaugeSnapshot {
                depths: vec![0],
                oldest_wait_ns: vec![0],
                busy_devices: 0,
                inflight_batches: 0,
                plans_ready: 1,
                plans_building: 0,
            },
        );
        let text = tel.to_jsonl(&[("device", "V100"), ("phase", "cold")]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        let mut last_t = 0u64;
        for l in &lines {
            assert!(l.starts_with("{\"device\":\"V100\",\"phase\":\"cold\","));
            assert!(l.ends_with('}'));
            let t: u64 = l
                .split("\"t\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(t >= last_t, "events must be time-sorted");
            last_t = t;
        }
        // The completion (t=120) sorts after the second arrival (t=50) even
        // though it was recorded first.
        let kinds: Vec<&str> = lines
            .iter()
            .map(|l| {
                l.split("\"kind\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        let pos = |k: &str| kinds.iter().position(|&x| x == k).unwrap();
        assert!(pos("complete") > kinds.iter().rposition(|&x| x == "arrival").unwrap());
        assert_eq!(tel.batch_count(), 1);
    }

    #[test]
    fn drift_detector_fires_and_rearms() {
        let mut opts = TelemetryOptions::on();
        opts.tick_ns = 1_000_000; // 1 ms
        opts.drift_alpha = 1.0; // no smoothing: window rate is the signal
        opts.drift_warmup_ticks = 2;
        let mut tel = Telemetry::new(opts);
        // Assumed 1000 rps; send 10 arrivals/ms (10_000 rps) for six
        // windows, then drop to one arrival/ms (the assumed rate). Sampling
        // is interleaved as the engine would: each tick sees the arrivals
        // recorded since the previous tick.
        tel.begin(vec!["A".into()], vec![1000.0]);
        let mut id = 0u64;
        for ms in 0..12u64 {
            let n = if ms < 6 { 10 } else { 1 };
            for i in 0..n {
                tel.on_arrival(ms * 1_000_000 + i, id, 0, 1);
                id += 1;
            }
            tel.sample_until((ms + 1) * 1_000_000, || GaugeSnapshot {
                depths: vec![0],
                oldest_wait_ns: vec![0],
                busy_devices: 0,
                inflight_batches: 0,
                plans_ready: 1,
                plans_building: 0,
            });
        }
        let drifts: Vec<&TelemetryEvent> = tel
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Drift { .. }))
            .collect();
        assert_eq!(drifts.len(), 2, "one trip out, one return");
        match drifts[0] {
            TelemetryEvent::Drift { drifted, ratio, .. } => {
                assert!(*drifted);
                assert!(*ratio > 2.0);
            }
            _ => unreachable!(),
        }
        match drifts[1] {
            TelemetryEvent::Drift { drifted, .. } => assert!(!drifted),
            _ => unreachable!(),
        }
    }
}
