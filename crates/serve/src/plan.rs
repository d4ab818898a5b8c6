//! `plan` — per-shape execution plans and the persistent plan cache.
//!
//! A **plan** is everything the server needs to execute one
//! [`ShapeClass`] on one device without thinking again:
//! the chosen algorithm and simulated service time for every supported
//! batch size, the bottleneck classification of the winning kernel, and —
//! when the schedule autotuner improved on the hand schedule — the tuned
//! fused-kernel **cubin** plus its schedule digest so a later process can
//! replay the `sass::tune` result instead of re-searching ("tune once,
//! serve forever").
//!
//! Plans are built by [`Planner::build`] (expensive: one multi-wave
//! simulation per candidate algorithm per batch size that its lower bound
//! does not prune, plus optional annealing)
//! and cached through [`PlanCache`], which layers LRU bookkeeping and
//! eviction on any [`PlanStorage`] backend. The `bench` serve binary backs
//! it with `simcache`'s content-addressed store; tests use [`MemStorage`].
//!
//! **Keying.** [`Planner::plan_key_with`] content-addresses a plan by what
//! its build measures: the `Conv::key` of every probe the build times (one
//! per batch size × candidate algorithm, each folding in the
//! `gpusim::key` of every launch: device, program bytes, geometry,
//! parameters, timing-model version), the stored tuned-schedule records the
//! build would replay (themselves keyed by the emitted hand program, see
//! `schedstore`), the tune budget and seed, the assumed arrival rate, the
//! class name, and [`PLAN_FORMAT_VERSION`] for the planner logic no content
//! key can see. An emitter or model change moves a probe's program bytes
//! or model version, hence the plan address, so stale plans are never
//! replayed — they simply stop being found and age out of the LRU index.
//!
//! **Invariants.**
//! - A plan persists as one `gpusim::json` record ([`Plan::to_json`]).
//!   Decoding ([`Plan::from_json`]) is strict: a record that does not
//!   decode exactly is a miss, never a partly-filled plan.
//! - A loaded plan with a tuned schedule is verified: the cubin must decode
//!   and its module digest must equal the recorded schedule digest, else the
//!   entry is dropped and rebuilt ([`PlanCache::get`] returns `None`).
//! - All service times are integer nanoseconds of simulated time; nothing in
//!   a plan depends on the host, `--jobs`, or wall-clock.

use std::cell::RefCell;
use std::collections::HashMap;

use gpusim::digest::module_hex;
use gpusim::json::{from_hex, obj, parse, to_hex, Json};
use gpusim::{DeviceSpec, Digest};
use kernels::search::{hand_pair, Search};
use kernels::{EmitterParams, FusedConfig, FusedKernel};
use perfmodel::{break_even_k, BottleneckReport};
use sass::island::Priors;
use sass::Module;
use wino_core::netgraph::{candidates, select};
use wino_core::{Algo, Conv, DirectTimer, Target};

use crate::schedstore::ScheduleStore;
use crate::traffic::ShapeClass;

/// Version of what a plan means — the one version in a plan key. The probe
/// keys cover every program a build times and the schedule records cover
/// what it replays; this covers what no content key can see: what the
/// planner computes from those measurements (candidate choice, costs,
/// replay and adopt gates, the record's fields) and what the in-process
/// anneal computes. Bump it when either changes; the plan-key golden
/// (`bench/tests/plan_keys.rs`) fails when a plan record changes under an
/// unchanged key.
///
/// v2 added [`Plan::assumed_rps`] — the per-class arrival rate the traffic
/// model assumed at plan-build time, which the telemetry drift tracker
/// compares against the observed rate.
///
/// v3 added [`TunedSchedule::params`] and [`TunedSchedule::source`]: the
/// winning Tier-2 emitter point and whether the schedule was replayed from
/// the v2 autotuner's store (`store`) or found by in-process annealing
/// (`anneal`).
///
/// v4 builds through `wino_core::netgraph::select`, which skips a candidate
/// whose `Conv::time_lower_bound` exceeds the best time already measured,
/// so [`Plan::build_cost_ns`] charges only the probes that ran.
pub const PLAN_FORMAT_VERSION: u32 = 4;

/// On-device runs charged per probe that runs when modeling cold plan
/// construction (cuDNN-style "find" runs each candidate a few times).
pub const PROBE_RUNS: u64 = 3;

/// Modeled cost of loading a plan from a warm cache (host lookup + cubin
/// upload), nanoseconds of simulated time.
pub const PLAN_LOOKUP_NS: u64 = 200_000;

/// The execution choice for one batch size.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanVariant {
    /// Batch size `N` this variant serves.
    pub n: u32,
    /// Winning algorithm (cuDNN-style name, `Algo::name`).
    pub algo: String,
    /// Simulated end-to-end service time of one launch group, nanoseconds.
    pub service_ns: u64,
    /// Effective TFLOP/s of the winner at this batch.
    pub tflops: f64,
}

/// A schedule-autotuner result worth persisting: the tuned fused-kernel
/// module as an assembled cubin, plus enough metadata to verify and report
/// the replay.
#[derive(Clone, Debug, PartialEq)]
pub struct TunedSchedule {
    /// Batch size the schedule was tuned at (the control codes are specific
    /// to that emitted module).
    pub n: u32,
    /// `module_hex` of the tuned module; checked on every cache load.
    pub schedule_digest: String,
    /// The assembled tuned module (`Module::to_cubin`).
    pub cubin: Vec<u8>,
    /// One-wave cycles of the hand schedule (annealing start point).
    pub hand_cycles: u64,
    /// One-wave cycles of the best schedule found.
    pub tuned_cycles: u64,
    /// Objective evaluations spent (drives the modeled tuning cost).
    pub evals: u64,
    /// Winning Tier-2 emitter point (`EmitterParams::label` form).
    pub params: String,
    /// Provenance: `store` (replayed from the v2 autotuner's schedule
    /// store) or `anneal` (found by this planner's in-process search).
    pub source: String,
}

/// Everything needed to serve one shape class on one device.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Device name (`DeviceSpec::name`).
    pub device: String,
    /// Shape-class name the plan serves.
    pub class: String,
    /// Bottleneck classification of the winning kernel at the largest batch.
    pub bound: String,
    /// The device's fused-vs-nonfused breakeven `K` (see
    /// `perfmodel::break_even_k`); recorded so the probe-set pruning is
    /// auditable.
    pub break_even_k: f64,
    /// Per-batch-size choices, ascending in `n`.
    pub variants: Vec<PlanVariant>,
    /// Modeled on-device cost of building this plan cold (runs of the
    /// probes the lower bound did not prune + tuning evaluations),
    /// nanoseconds of simulated time.
    pub build_cost_ns: u64,
    /// Arrival rate (requests/second) the traffic model assumed for this
    /// class when the plan was built; `0.0` means unknown and disables the
    /// telemetry drift tracker for the class.
    pub assumed_rps: f64,
    /// Present when the autotuner beat the hand schedule.
    pub tuned: Option<TunedSchedule>,
}

impl Plan {
    /// Variant used for a group of `count` requests: the smallest supported
    /// batch that fits, else the largest.
    pub fn variant_for(&self, count: usize) -> &PlanVariant {
        self.variants
            .iter()
            .find(|v| v.n as usize >= count)
            .unwrap_or_else(|| self.variants.last().expect("plan has variants"))
    }

    /// Largest supported batch size.
    pub fn max_batch(&self) -> u32 {
        self.variants.last().expect("plan has variants").n
    }

    /// Worst-case service time over all variants — the queue's safety margin
    /// when deciding the latest dispatch instant that still meets the SLO.
    pub fn worst_service_ns(&self) -> u64 {
        self.variants
            .iter()
            .map(|v| v.service_ns)
            .max()
            .expect("plan has variants")
    }

    /// The plan as a store record; the cubin rides as hex.
    pub fn to_json(&self) -> Json {
        let variants = self.variants.iter().map(|v| {
            obj(&[
                ("n", v.n.into()),
                ("algo", v.algo.as_str().into()),
                ("service_ns", v.service_ns.into()),
                ("tflops", v.tflops.into()),
            ])
        });
        let tuned = self.tuned.as_ref().map_or(Json::Null, |t| {
            obj(&[
                ("n", t.n.into()),
                ("schedule_digest", t.schedule_digest.as_str().into()),
                ("hand_cycles", t.hand_cycles.into()),
                ("tuned_cycles", t.tuned_cycles.into()),
                ("evals", t.evals.into()),
                ("params", t.params.as_str().into()),
                ("source", t.source.as_str().into()),
                ("cubin", to_hex(&t.cubin).into()),
            ])
        });
        obj(&[
            ("device", self.device.as_str().into()),
            ("class", self.class.as_str().into()),
            ("bound", self.bound.as_str().into()),
            ("break_even_k", self.break_even_k.into()),
            ("build_cost_ns", self.build_cost_ns.into()),
            ("assumed_rps", self.assumed_rps.into()),
            ("variants", Json::Arr(variants.collect())),
            ("tuned", tuned),
        ])
    }

    /// Decode a [`Plan::to_json`] record. `None` on a missing or mistyped
    /// field, an inexact integer, a `null` float or an empty variant list —
    /// callers treat that as a cache miss.
    pub fn from_json(j: &Json) -> Option<Plan> {
        let variant = |v: &Json| {
            Some(PlanVariant {
                n: field_u32(v, "n")?,
                algo: field_str(v, "algo")?,
                service_ns: v.get("service_ns")?.as_u64()?,
                tflops: v.get("tflops")?.as_f64()?,
            })
        };
        let tuned = |t: &Json| {
            Some(TunedSchedule {
                n: field_u32(t, "n")?,
                schedule_digest: field_str(t, "schedule_digest")?,
                cubin: from_hex(t.get("cubin")?.as_str()?)?,
                hand_cycles: t.get("hand_cycles")?.as_u64()?,
                tuned_cycles: t.get("tuned_cycles")?.as_u64()?,
                evals: t.get("evals")?.as_u64()?,
                params: field_str(t, "params")?,
                source: field_str(t, "source")?,
            })
        };
        let variants = j.get("variants")?.as_arr()?.iter().map(variant);
        let variants = variants.collect::<Option<Vec<_>>>()?;
        if variants.is_empty() {
            return None;
        }
        Some(Plan {
            device: field_str(j, "device")?,
            class: field_str(j, "class")?,
            bound: field_str(j, "bound")?,
            break_even_k: j.get("break_even_k")?.as_f64()?,
            variants,
            build_cost_ns: j.get("build_cost_ns")?.as_u64()?,
            assumed_rps: j.get("assumed_rps")?.as_f64()?,
            tuned: match j.get("tuned")? {
                Json::Null => None,
                t => Some(tuned(t)?),
            },
        })
    }

    /// Warm-start verification: a plan without a tuned schedule is trivially
    /// valid; one with a schedule must carry a cubin that decodes back to a
    /// module whose digest matches `schedule_digest`.
    pub fn verify(&self) -> bool {
        self.tuned
            .as_ref()
            .is_none_or(|t| verified_module(&t.cubin, &t.schedule_digest).is_some())
    }
}

/// String field `k` of a record.
pub(crate) fn field_str(j: &Json, k: &str) -> Option<String> {
    Some(j.get(k)?.as_str()?.to_string())
}

/// Exact `u32` field `k` of a record.
fn field_u32(j: &Json, k: &str) -> Option<u32> {
    u32::try_from(j.get(k)?.as_u64()?).ok()
}

/// Decode `cubin` and check its module digest against `digest`.
pub(crate) fn verified_module(cubin: &[u8], digest: &str) -> Option<Module> {
    let m = Module::from_cubin(cubin).ok()?;
    (module_hex(&m) == digest).then_some(m)
}

// ---- storage ----------------------------------------------------------------

/// Minimal persistence interface the plan cache needs. Keys are lowercase
/// hex strings (content addresses); values are JSON records (plans, tuned
/// schedules, the LRU index).
///
/// `bench`'s `simcache::SimStore` is the directory-backed implementation;
/// the crate itself ships only [`MemStorage`] so it stays dependency-free.
pub trait PlanStorage {
    fn load(&self, key: &str) -> Option<Json>;
    fn store(&self, key: &str, value: &Json);
    fn remove(&self, key: &str);
}

/// In-memory [`PlanStorage`] for tests and ephemeral runs. Records are kept
/// rendered and parsed again on load, so its users run the same codec path
/// as the directory store.
#[derive(Default)]
pub struct MemStorage {
    map: RefCell<HashMap<String, String>>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }
}

impl PlanStorage for MemStorage {
    fn load(&self, key: &str) -> Option<Json> {
        parse(self.map.borrow().get(key)?).ok()
    }

    fn store(&self, key: &str, value: &Json) {
        self.map
            .borrow_mut()
            .insert(key.to_string(), value.render());
    }

    fn remove(&self, key: &str) {
        self.map.borrow_mut().remove(key);
    }
}

/// Counters the serve report surfaces per device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from storage (verified).
    pub hits: u64,
    /// Plans absent, undecodable, or failing verification.
    pub misses: u64,
    /// Plans written.
    pub stores: u64,
    /// Plans evicted to respect the capacity cap.
    pub evictions: u64,
}

/// LRU plan cache for one device, layered on a [`PlanStorage`].
///
/// The recency index is itself persisted (under a reserved per-device key,
/// as a JSON array of plan keys, oldest first), so eviction order survives
/// process restarts. Index updates are written through on every access; an
/// index that does not decode (not an array of hex keys) reads as empty.
pub struct PlanCache<'a> {
    storage: &'a dyn PlanStorage,
    index_key: String,
    /// Maximum plans retained; `0` means unlimited.
    cap: usize,
    index: Vec<String>,
    pub stats: CacheStats,
}

impl<'a> PlanCache<'a> {
    /// Open the cache for `device`, loading any persisted index.
    pub fn new(storage: &'a dyn PlanStorage, device: &str, cap: usize) -> Self {
        let index_key = {
            let mut d = Digest::new();
            d.str("plan-index").str(device);
            d.hex()
        };
        let index = storage
            .load(&index_key)
            .and_then(|j| {
                let hex = |k: &&str| !k.is_empty() && k.bytes().all(|c| c.is_ascii_hexdigit());
                j.as_arr()?
                    .iter()
                    .map(|k| Some(k.as_str().filter(hex)?.into()))
                    .collect()
            })
            .unwrap_or_default();
        PlanCache {
            storage,
            index_key,
            cap,
            index,
            stats: CacheStats::default(),
        }
    }

    fn write_index(&self) {
        self.storage
            .store(&self.index_key, &Json::from(self.index.clone()));
    }

    fn touch(&mut self, key: &str) {
        self.index.retain(|k| k != key);
        self.index.push(key.to_string());
    }

    /// Plan keys currently tracked, oldest-first.
    pub fn keys(&self) -> &[String] {
        &self.index
    }

    /// The backing storage — shared with the tuned-schedule store, so
    /// `acquire` can consult schedules published by the offline autotuner
    /// through the same backend the plans live in.
    pub fn storage(&self) -> &'a dyn PlanStorage {
        self.storage
    }

    /// Look up and verify a plan. Any failure (absent, undecodable, digest
    /// mismatch) counts as a miss and drops the stale entry.
    pub fn get(&mut self, key: &str) -> Option<Plan> {
        match self.storage.load(key).as_ref().and_then(Plan::from_json) {
            Some(p) if p.verify() => {
                self.stats.hits += 1;
                self.touch(key);
                self.write_index();
                Some(p)
            }
            _ => {
                self.stats.misses += 1;
                self.storage.remove(key);
                self.index.retain(|k| k != key);
                self.write_index();
                None
            }
        }
    }

    /// Insert a plan, evicting least-recently-used entries past the cap.
    pub fn put(&mut self, key: &str, plan: &Plan) {
        self.storage.store(key, &plan.to_json());
        self.stats.stores += 1;
        self.touch(key);
        while self.cap > 0 && self.index.len() > self.cap {
            let victim = self.index.remove(0);
            self.storage.remove(&victim);
            self.stats.evictions += 1;
        }
        self.write_index();
    }
}

// ---- planning ---------------------------------------------------------------

/// Builds plans for one device: probes candidate algorithms through the
/// multi-wave device model, prunes with the breakeven analysis, classifies
/// the winner's bottleneck, and (optionally) anneals the fused schedule.
pub struct Planner {
    pub device: DeviceSpec,
    /// Supported batch sizes, ascending (launch groups are padded up to one
    /// of these).
    pub batch_sizes: Vec<u32>,
    /// Annealing steps for the fused schedule; `0` disables tuning.
    pub tune_budget: u64,
    /// Tuner RNG seed.
    pub tune_seed: u64,
    /// Traffic-mix assumption `(rate_rps, total_weight)` baked into each
    /// built plan as [`Plan::assumed_rps`] (`rate × class.weight / total`);
    /// `None` leaves plans with no assumption (drift tracking disabled).
    pub mix: Option<(f64, f64)>,
}

impl Planner {
    pub fn new(device: DeviceSpec, batch_sizes: Vec<u32>) -> Self {
        assert!(!batch_sizes.is_empty());
        assert!(batch_sizes.windows(2).all(|w| w[0] < w[1]));
        Planner {
            device,
            batch_sizes,
            tune_budget: 0,
            tune_seed: 2020,
            mix: None,
        }
    }

    /// The arrival rate this planner assumes for `class`, requests/second.
    pub fn assumed_rps(&self, class: &ShapeClass) -> f64 {
        match self.mix {
            Some((rate, total)) if total > 0.0 => rate * class.weight / total,
            _ => 0.0,
        }
    }

    /// Content address of the plan this planner would build for `class`:
    /// every probe's `Conv::key`, and every stored tuned-schedule record the
    /// build would consult — so publishing a new schedule rebuilds cached
    /// plans.
    pub fn plan_key_with(&self, class: &ShapeClass, sched: Option<&ScheduleStore>) -> String {
        let mut d = Digest::new();
        d.str("plan").u32(PLAN_FORMAT_VERSION).str(&class.name);
        for (conv, algos) in self.probes(class) {
            for algo in algos {
                d.digest(&conv.key(Target::algo(algo)));
            }
        }
        d.u64(self.tune_budget).u64(self.tune_seed);
        // The mix assumption is part of the plan's content (it lands in
        // `assumed_rps`), so it must move the address too.
        d.u64(self.assumed_rps(class).to_bits());
        let Some(sched) = sched else {
            return d.str("sched:none").hex();
        };
        for &n in &self.batch_sizes {
            let hand = hand_kernel(class, n);
            match sched.load(&Search::new(&self.device, &hand)) {
                Some(entry) => d.str(&entry.to_json().render()),
                None => d.str("none"),
            };
        }
        d.hex()
    }

    /// What a build of `class` may probe: for each supported batch size,
    /// ascending, its `Conv` and the network planner's candidates for it —
    /// legal fused kernels, implicit GEMM, and the nonfused F(4×4) pipeline
    /// only above the device's breakeven `K` (below it, fused F(2×2)
    /// provably wins — see `perfmodel::break_even_k` — so probing it would
    /// waste PROBE_RUNS). The build then skips every candidate whose lower
    /// bound exceeds a time already measured; the key still covers them
    /// all, since their bounds come from the same configurations.
    fn probes(&self, class: &ShapeClass) -> Vec<(Conv, Vec<Algo>)> {
        let probe = |&n: &u32| {
            let conv = Conv::new(class.problem(n), self.device.clone());
            let algos = candidates(&conv.problem, &self.device);
            (conv, algos)
        };
        self.batch_sizes.iter().map(probe).collect()
    }

    /// Build the plan for `class` without a tuned-schedule store (any
    /// tuning happens in-process).
    pub fn build(&self, class: &ShapeClass) -> Plan {
        self.build_with(class, None)
    }

    /// Build the plan for `class`. Deterministic; cost is dominated by one
    /// multi-wave simulation per probe that `select` runs, plus
    /// `tune_budget` one-wave simulations when tuning is on. When a
    /// schedule store is supplied, stored v2-tuner winners are replayed
    /// (digest-verified, re-timed) before any in-process search runs.
    pub fn build_with(&self, class: &ShapeClass, sched: Option<&ScheduleStore>) -> Plan {
        let mut variants = Vec::new();
        let mut probe_ns: u64 = 0;
        let mut top_timing: Option<wino_core::AlgoTiming> = None;
        for (conv, algos) in self.probes(class) {
            let sel = select(&conv, &algos, &DirectTimer);
            for &t in &sel.probed_s {
                probe_ns += PROBE_RUNS * to_ns(t);
            }
            let best = sel.best;
            variants.push(PlanVariant {
                n: conv.problem.n as u32,
                algo: best.algo.name().to_string(),
                service_ns: to_ns(best.time_s),
                tflops: best.tflops_effective,
            });
            top_timing = Some(best);
        }
        let top = top_timing.expect("at least one batch size");
        let bound = top
            .kernel
            .as_ref()
            .map_or("unknown", |k| BottleneckReport::classify(k).bound.name())
            .to_string();

        let mut plan = Plan {
            device: self.device.name.to_string(),
            class: class.name.clone(),
            bound,
            break_even_k: break_even_k(&self.device),
            variants,
            build_cost_ns: probe_ns,
            assumed_rps: self.assumed_rps(class),
            tuned: None,
        };
        if top.algo == Algo::OursFused {
            let replayed = sched
                .map(|s| self.replay_stored(class, s, &mut plan))
                .unwrap_or(false);
            if !replayed {
                self.tune_fused(class, &top, &mut plan);
            }
        }
        plan
    }

    /// Consult the tuned-schedule store for every supported batch size,
    /// largest first; the first verified entry that still beats the hand
    /// schedule under the multi-wave device model is adopted into the plan.
    /// Returns `true` if a schedule was adopted.
    fn replay_stored(&self, class: &ShapeClass, sched: &ScheduleStore, plan: &mut Plan) -> bool {
        for &n in self.batch_sizes.iter().rev() {
            let hand = hand_kernel(class, n);
            let search = Search::new(&self.device, &hand);
            let Some(entry) = sched.load(&search) else {
                continue;
            };
            let tuned = entry.module().expect("load() verified the module");
            let (Some(hand_t), Some(tuned_t)) =
                (search.device_time(&hand.module), search.device_time(&tuned))
            else {
                continue;
            };
            // Two verification runs are the modeled replay cost.
            plan.build_cost_ns += to_ns(hand_t.time_s) + to_ns(tuned_t.time_s);
            if tuned_t.time_s >= hand_t.time_s {
                continue; // store entry no longer wins under this model
            }
            let saved = to_ns(hand_t.time_s) - to_ns(tuned_t.time_s);
            if let Some(v) = plan
                .variants
                .iter_mut()
                .find(|v| v.n == n && v.algo == Algo::OursFused.name())
            {
                v.service_ns -= saved.min(v.service_ns);
            }
            plan.tuned = Some(TunedSchedule {
                n,
                schedule_digest: entry.schedule_digest.clone(),
                cubin: entry.cubin.clone(),
                hand_cycles: entry.hand_cycles,
                tuned_cycles: entry.tuned_cycles,
                evals: entry.evals,
                params: entry.params.clone(),
                source: "store".into(),
            });
            return true;
        }
        false
    }

    /// Anneal the fused schedule at the largest batch, starting from the
    /// hand schedule — a small two-island search (hand + greedy-tightened
    /// hand) splitting `tune_budget` anneal steps; adopt the result only if
    /// the device-level re-timing actually improves on the hand kernel.
    /// A zero `tune_budget` disables it.
    fn tune_fused(&self, class: &ShapeClass, top: &wino_core::AlgoTiming, plan: &mut Plan) {
        if self.tune_budget == 0 {
            return;
        }
        let n = *self.batch_sizes.last().unwrap();
        let hand = hand_kernel(class, n);
        let search = Search::new(&self.device, &hand);
        let icfg = hand_pair((self.tune_budget / 4).max(1), self.tune_seed);
        let outcome = search.islands(&Priors::default(), &icfg, None);
        let hand_cycles = outcome.per_island[0].start_cost;
        // Modeled tuning cost: every objective evaluation is one on-device
        // run of roughly a hand-schedule wave.
        let wave_ns = outcome.best_cost.max(hand_cycles) as f64 / self.device.clock_hz * 1e9;
        plan.build_cost_ns += outcome.stats.evals * (wave_ns as u64);
        if outcome.best_cost >= hand_cycles {
            return; // annealing found nothing better; keep the hand schedule
        }

        let best = hand.module.with_insts(outcome.best_insts.clone());
        // Re-time the tuned module through the full device model on the
        // pipeline layout `Conv::time` timed `top.kernel` on, so the gate
        // compares the same program, and fold the kernel-phase delta into
        // the largest-batch variant.
        let Some(tuned_t) = search.pipeline_device_time(&best) else {
            return;
        };
        let hand_kernel = top.kernel.as_ref().expect("fused timing has a kernel");
        if tuned_t.time_s >= hand_kernel.time_s {
            return; // one-wave win didn't survive the multi-wave model
        }
        let v = plan.variants.last_mut().unwrap();
        let saved = to_ns(hand_kernel.time_s) - to_ns(tuned_t.time_s);
        v.service_ns -= saved.min(v.service_ns);
        plan.tuned = Some(TunedSchedule {
            n,
            schedule_digest: module_hex(&best),
            cubin: best.to_cubin(),
            hand_cycles,
            tuned_cycles: outcome.best_cost,
            evals: outcome.stats.evals,
            params: EmitterParams::hand().label(),
            source: "anneal".into(),
        });
    }

    /// Cache-through acquisition: hit returns the stored plan, miss builds
    /// and stores. The bool is `true` on a hit. The schedule store shares
    /// the cache's storage, so v2-tuner winners published through the same
    /// backend are picked up (and move the plan key, forcing a rebuild).
    pub fn acquire(&self, cache: &mut PlanCache, class: &ShapeClass) -> (Plan, bool) {
        let sched = ScheduleStore::new(cache.storage());
        let key = self.plan_key_with(class, Some(&sched));
        if let Some(p) = cache.get(&key) {
            return (p, true);
        }
        let plan = self.build_with(class, Some(&sched));
        cache.put(&key, &plan);
        (plan, false)
    }
}

/// The hand-scheduled OURS kernel for `class` at batch `n`: what a stored
/// schedule is keyed by and the in-process anneal starts from.
fn hand_kernel(class: &ShapeClass, n: u32) -> FusedKernel {
    FusedKernel::emit(FusedConfig::ours(class.c, class.hw, class.hw, n, class.k))
}

/// Seconds → integer nanoseconds (round to nearest, min 1).
pub fn to_ns(s: f64) -> u64 {
    ((s * 1e9).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedstore::StoredSchedule;

    fn plan_fixture() -> Plan {
        Plan {
            device: "V100".into(),
            class: "Conv4".into(),
            bound: "compute".into(),
            break_even_k: 129.4375,
            variants: vec![
                PlanVariant {
                    n: 32,
                    algo: "OURS".into(),
                    service_ns: 123_456,
                    tflops: 7.25,
                },
                PlanVariant {
                    n: 64,
                    algo: "OURS".into(),
                    service_ns: 222_222,
                    tflops: 8.5,
                },
            ],
            build_cost_ns: 9_999_999,
            assumed_rps: 1562.5,
            tuned: None,
        }
    }

    #[test]
    fn json_round_trip() {
        let p = plan_fixture();
        let t = p.to_json().render();
        let rt = Plan::from_json(&parse(&t).unwrap()).unwrap();
        assert_eq!(rt, p);
        // Exact: re-serializing the parse is byte-identical.
        assert_eq!(rt.to_json().render(), t);
    }

    /// Stores written before plans were JSON records hold each plan and
    /// index as a JSON string of line-based text, under the same keys
    /// (`PLAN_FORMAT_VERSION` is unchanged). Such a plan must read as a
    /// miss that `get` drops, and such an index as an empty one.
    #[test]
    fn text_format_entry_is_a_miss() {
        let mem = MemStorage::new();
        let index_key = PlanCache::new(&mem, "V100", 0).index_key;
        let text = format!(
            "plan v{PLAN_FORMAT_VERSION}\ndevice V100\nclass Conv4\nbound compute\n\
             break_even_k_bits 40602e0000000000\nbuild_cost_ns 9999999\n\
             assumed_rps_bits 40986a0000000000\nvariant 32 OURS 123456 401d000000000000\n"
        );
        mem.store("ee", &Json::Str(text));
        mem.store(&index_key, &Json::Str("ee".into()));
        let mut cache = PlanCache::new(&mem, "V100", 0);
        assert!(cache.keys().is_empty(), "a text index reads as empty");
        assert!(cache.get("ee").is_none());
        assert_eq!(cache.stats.misses, 1);
        assert!(mem.load("ee").is_none(), "stale entry removed");
        // So does an index naming something other than a content address,
        // which a directory store could not evict.
        mem.store(&index_key, &Json::from(vec!["ee", "../escape"]));
        assert!(PlanCache::new(&mem, "V100", 0).keys().is_empty());
    }

    #[test]
    fn variant_lookup() {
        let p = plan_fixture();
        assert_eq!(p.variant_for(1).n, 32);
        assert_eq!(p.variant_for(32).n, 32);
        assert_eq!(p.variant_for(33).n, 64);
        assert_eq!(p.variant_for(500).n, 64);
        assert_eq!(p.worst_service_ns(), 222_222);
    }

    #[test]
    fn lru_eviction_and_persistence() {
        let mem = MemStorage::new();
        let p = plan_fixture();
        {
            let mut cache = PlanCache::new(&mem, "V100", 2);
            cache.put("aa", &p);
            cache.put("bb", &p);
            cache.put("cc", &p); // evicts aa
            assert_eq!(cache.stats.evictions, 1);
            assert!(cache.get("aa").is_none());
            assert!(cache.get("bb").is_some());
            cache.put("dd", &p); // LRU is now cc (bb was touched)
            assert!(cache.get("cc").is_none());
            assert!(cache.get("bb").is_some());
        }
        // A fresh cache over the same storage sees the persisted index.
        let mut cache = PlanCache::new(&mem, "V100", 2);
        assert_eq!(cache.keys().len(), 2);
        assert!(cache.get("bb").is_some());
        assert!(cache.get("dd").is_some());
    }

    #[test]
    fn corrupt_entry_is_dropped() {
        let mem = MemStorage::new();
        let mut cache = PlanCache::new(&mem, "V100", 0);
        cache.put("ee", &plan_fixture());
        mem.store("ee", &obj(&[("device", "V100".into())]));
        assert!(cache.get("ee").is_none());
        assert_eq!(cache.stats.misses, 1);
        assert!(mem.load("ee").is_none(), "stale entry removed");
        assert!(cache.keys().is_empty());
    }

    #[test]
    fn tuned_cubin_round_trip_and_verify() {
        let cfg = FusedConfig::ours(32, 8, 8, 32, 64);
        let kern = FusedKernel::emit(cfg);
        let mut p = plan_fixture();
        p.tuned = Some(TunedSchedule {
            n: 32,
            schedule_digest: module_hex(&kern.module),
            cubin: kern.module.to_cubin(),
            hand_cycles: 100,
            tuned_cycles: 90,
            evals: 10,
            params: "bk64-bn32-bc8-w64-p2".into(),
            source: "store".into(),
        });
        assert!(p.verify());
        let rt = Plan::from_json(&parse(&p.to_json().render()).unwrap()).unwrap();
        assert_eq!(rt, p);
        assert!(rt.verify());
        // Digest tampering fails verification.
        let mut bad = p.clone();
        bad.tuned.as_mut().unwrap().schedule_digest = format!("{:032x}", 0);
        assert!(!bad.verify());
    }

    /// A fused-legal class cheap enough to simulate in a unit test. (The
    /// probe would pick WINOGRAD_NONFUSED for it, which is exactly why the
    /// tests below drive `replay_stored` and `tune_fused` directly.)
    fn proxy_class() -> ShapeClass {
        ShapeClass {
            name: "SmokeA".into(),
            hw: 8,
            c: 32,
            k: 64,
            weight: 1.0,
        }
    }

    fn ours_plan(planner: &Planner, class: &ShapeClass) -> Plan {
        Plan {
            device: planner.device.name.to_string(),
            class: class.name.clone(),
            bound: "smem".into(),
            break_even_k: break_even_k(&planner.device),
            variants: vec![PlanVariant {
                n: 32,
                algo: Algo::OursFused.name().into(),
                service_ns: 20_000,
                tflops: 10.0,
            }],
            build_cost_ns: 0,
            assumed_rps: 0.0,
            tuned: None,
        }
    }

    /// A pruned build picks, per batch size, the algorithm and service time
    /// an exhaustive loop over every candidate picks (least time, earliest
    /// candidate on a tie). It charges `PROBE_RUNS` runs of exactly the
    /// candidates whose bound is at most every time measured before them in
    /// (bound, candidate) order. On both devices the smoke classes prune
    /// something, so the charge falls below the exhaustive one.
    #[test]
    fn pruned_build_matches_exhaustive_probing() {
        for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
            let planner = Planner::new(dev.clone(), vec![32]);
            for class in ShapeClass::smoke_mix() {
                let plan = planner.build(&class);
                let conv = Conv::new(class.problem(32), dev.clone());
                let timed: Vec<_> = candidates(&conv.problem, &dev)
                    .into_iter()
                    .map(|a| (conv.time_lower_bound(a), conv.time(a)))
                    .collect();
                let (mut best, mut all_ns, mut ran_ns) = (&timed[0].1, 0, 0);
                for (i, (bound, t)) in timed.iter().enumerate() {
                    all_ns += PROBE_RUNS * to_ns(t.time_s);
                    let incumbent = timed
                        .iter()
                        .enumerate()
                        .filter(|(j, (b, _))| (*b, *j) < (*bound, i))
                        .map(|(_, (_, u))| u.time_s)
                        .fold(f64::INFINITY, f64::min);
                    if *bound <= incumbent {
                        ran_ns += PROBE_RUNS * to_ns(t.time_s);
                    }
                    if t.time_s < best.time_s {
                        best = t;
                    }
                }
                let v = &plan.variants[0];
                let what = format!("{}/{}", dev.name, class.name);
                assert_eq!(v.algo, best.algo.name(), "{what}");
                assert_eq!(v.service_ns, to_ns(best.time_s), "{what}");
                assert_eq!(
                    v.tflops.to_bits(),
                    best.tflops_effective.to_bits(),
                    "{what}"
                );
                assert_eq!(plan.build_cost_ns, ran_ns, "{what}");
                assert!(ran_ns < all_ns, "{what}: nothing pruned");
            }
        }
    }

    /// Publishing a schedule must move the plan address, so stale cached
    /// plans rebuild — and an empty store is itself a distinct address from
    /// "no store consulted".
    #[test]
    fn plan_key_tracks_schedule_store() {
        let class = proxy_class();
        let planner = Planner::new(DeviceSpec::v100(), vec![32]);
        let mem = MemStorage::new();
        let key_none = planner.plan_key_with(&class, None);
        let key_empty = planner.plan_key_with(&class, Some(&ScheduleStore::new(&mem)));
        assert_ne!(key_none, key_empty);

        let kern = hand_kernel(&class, 32);
        ScheduleStore::new(&mem).save(
            &Search::new(&planner.device, &kern),
            &StoredSchedule {
                params: "bk64-bn32-bc8-w64-p2".into(),
                schedule_digest: module_hex(&kern.module),
                cubin: kern.module.to_cubin(),
                hand_cycles: 100,
                tuned_cycles: 90,
                evals: 10,
            },
        );
        let key_stored = planner.plan_key_with(&class, Some(&ScheduleStore::new(&mem)));
        assert_ne!(
            key_empty, key_stored,
            "publishing a schedule must move the plan key"
        );
    }

    /// The tuned-schedule handoff end to end: `replay_stored` ignores an
    /// empty store, re-times a stored schedule and rejects one that no
    /// longer beats the hand schedule (here: the hand schedule itself with
    /// forged cycle counts), and adopts a genuine winner — which a tiny
    /// island run from the greedy-tightened hand seed manufactures.
    #[test]
    fn replay_adopts_only_verified_winning_schedules() {
        let class = proxy_class();
        let planner = Planner::new(DeviceSpec::v100(), vec![32]);
        let mem = MemStorage::new();
        let sched = ScheduleStore::new(&mem);
        let hand = hand_kernel(&class, 32);
        let search = Search::new(&planner.device, &hand);

        let mut plan = ours_plan(&planner, &class);
        assert!(
            !planner.replay_stored(&class, &sched, &mut plan),
            "empty store adopted"
        );

        // The hand schedule itself, stored with forged "better" cycles:
        // the re-time ties the hand baseline, so the gate must reject it.
        sched.save(
            &search,
            &StoredSchedule {
                params: EmitterParams::hand().label(),
                schedule_digest: module_hex(&hand.module),
                cubin: hand.module.to_cubin(),
                hand_cycles: 100,
                tuned_cycles: 1,
                evals: 1,
            },
        );
        assert!(
            !planner.replay_stored(&class, &sched, &mut plan),
            "non-improving schedule adopted"
        );
        assert!(plan.tuned.is_none());

        // Manufacture a genuine winner: two islands seeded from the hand
        // schedule (one greedy-tightened) against the real simulator.
        let outcome = search.islands(&Priors::default(), &hand_pair(1, 2020), None);
        assert!(
            outcome.best_cost < outcome.per_island[0].start_cost,
            "greedy-tightened island failed to beat the hand schedule"
        );
        let best = hand.module.with_insts(outcome.best_insts.clone());
        sched.save(
            &search,
            &StoredSchedule {
                params: EmitterParams::hand().label(),
                schedule_digest: module_hex(&best),
                cubin: best.to_cubin(),
                hand_cycles: outcome.per_island[0].start_cost,
                tuned_cycles: outcome.best_cost,
                evals: outcome.stats.evals,
            },
        );

        assert!(
            planner.replay_stored(&class, &sched, &mut plan),
            "winning schedule not adopted"
        );
        assert!(plan.verify());
        let tuned = plan.tuned.expect("adopted schedule recorded");
        assert_eq!(tuned.source, "store");
        assert_eq!(tuned.n, 32);
        assert_eq!(tuned.schedule_digest, module_hex(&best));
        assert!(
            tuned.tuned_cycles < tuned.hand_cycles,
            "recorded device-model cycles must show the win"
        );
        assert!(
            plan.build_cost_ns > 0,
            "replay must charge its re-time cost"
        );
    }

    /// The in-process anneal on the proxy class, with the fused pipeline's
    /// own timing as the top choice. A zero budget never searches. With a
    /// budget the search is charged `evals × wave_ns` whichever way the
    /// gate goes. Against a kernel time no schedule can beat, nothing is
    /// adopted; against the real one, the tuned schedule wins, verifies and
    /// cuts the largest variant by exactly hand − tuned device time.
    #[test]
    fn anneal_charges_its_search_and_adopts_only_a_device_win() {
        let class = proxy_class();
        let mut planner = Planner::new(DeviceSpec::v100(), vec![32]);
        let top = Conv::new(class.problem(32), planner.device.clone()).time(Algo::OursFused);
        let mut fresh = ours_plan(&planner, &class);
        fresh.variants[0].service_ns = to_ns(top.time_s);

        let mut plan = fresh.clone();
        planner.tune_fused(&class, &top, &mut plan);
        assert_eq!(plan, fresh, "tune_budget = 0 searched");

        // The same search, run through `Search` directly, prices the charge.
        planner.tune_budget = 12;
        let hand = hand_kernel(&class, 32);
        let search = Search::new(&planner.device, &hand);
        let outcome = search.islands(&Priors::default(), &hand_pair(3, planner.tune_seed), None);
        let wave = outcome.best_cost.max(outcome.per_island[0].start_cost);
        let charge = outcome.stats.evals * (wave as f64 / planner.device.clock_hz * 1e9) as u64;
        assert!(charge > 0);

        let mut unbeatable = top.clone();
        unbeatable.kernel.as_mut().unwrap().time_s = 0.0;
        let mut rejected = fresh.clone();
        planner.tune_fused(&class, &unbeatable, &mut rejected);
        assert_eq!(rejected.build_cost_ns, charge);
        assert_eq!(
            (&rejected.variants, &rejected.tuned),
            (&fresh.variants, &None)
        );

        planner.tune_fused(&class, &top, &mut plan);
        assert_eq!(plan.build_cost_ns, charge);
        let t = plan
            .tuned
            .as_ref()
            .expect("the anneal beats the hand kernel");
        assert!(plan.verify());
        assert_eq!(
            (t.source.as_str(), t.evals),
            ("anneal", outcome.stats.evals)
        );
        let tuned = Module::from_cubin(&t.cubin).unwrap();
        let tuned_ns = to_ns(search.pipeline_device_time(&tuned).unwrap().time_s);
        let hand_ns = to_ns(top.kernel.as_ref().unwrap().time_s);
        assert_eq!(
            plan.variants[0].service_ns,
            fresh.variants[0].service_ns - (hand_ns - tuned_ns)
        );
    }
}
