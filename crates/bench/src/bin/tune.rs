//! `tune` — the two-tier simulator-guided SASS autotuner (ISSUE 5, rebuilt
//! as the v2 search in ISSUE 9).
//!
//! The paper's fused-kernel schedule is hand-tuned (§5.1.4, §6); this
//! binary closes the loop the authors walked by hand, then tries to walk
//! past them. Per device:
//!
//! **Tier 2 — emitter parameters.** Every legal point of the
//! `kernels::EmitterParams` grid (`bk` blocking, filter LDG width,
//! fragment pipelining depth; the 5 of 8 grid points `FusedConfig::check`
//! accepts at the proxy shape) is emitted, lint-checked and functionally
//! differential-checked (bit-exact against the other variants,
//! tolerance-checked against a direct convolution), then handed to Tier 1
//! under successive halving: rung `r` anneals each survivor with a
//! `2^r`-scaled budget and keeps the best 5 → 3 → 2 → 1.
//!
//! **Tier 1 — island annealing** (`sass::island`, run through
//! `kernels::search`, which serve's planner shares too). N independent
//! annealing chains seeded from the detuned baseline, the hand schedule,
//! and greedy-tightened variants of both, with ring migration of best
//! candidates at epoch barriers and a per-region × per-move-family
//! adaptive proposal policy (`sass::tune::AdaptivePolicy`) whose priors
//! come from the profiled region stall shares
//! (`perfmodel::region_move_weights`). Objective: `kernels::search`'s
//! one-wave cycles (decode once, re-patch control codes per candidate),
//! memoized in `simcache` under the candidate's `gpusim::key`, so a
//! timing-model version bump invalidates it. Every evaluated candidate
//! must lint clean and simulate. Byte-identical for any `--jobs`.
//!
//! Three runs per device, all recorded in `BENCH_tune.json` (schema v2):
//!
//! 1. *recovery* — full island lineup from the naive baseline on the proxy
//!    shape; gate: tuned within 3% of the hand schedule (≥97% recovery);
//!    the winner's trajectory keeps every strict improvement plus every
//!    16th accepted move;
//! 2. *tier2* — the successive-halving table and its winning point;
//! 3. *conv2_n32* — ResNet Conv2 at N=32 (a Table 2 shape), islands seeded
//!    from the hand schedule; the tuned schedule must strictly beat the
//!    hand schedule under the **multi-wave device model** on at least one
//!    device, and each winner is published to the serve-layer schedule
//!    store (`serve::schedstore`) so plan building replays it.
//!
//! Flags: `--budget N` (anneal steps per island, default 400), `--islands N`
//! (default 6), `--epochs N` (migration barriers, default 4), `--jobs N`
//! (worker threads, default 1 — results are identical for any value),
//! `--seed S` (default 2020), `--json PATH` (default `BENCH_tune.json`),
//! `--no-cache`, `--cache-dir DIR`.

use bench::json::{obj, Json};
use bench::report::{check_args, flag_value, Report};
use bench::simcache::{timing_from_json, timing_to_json, CacheKey, SimStore, Store};
use bench::Table;
use gpusim::digest::module_hex;
use gpusim::{DeviceSpec, Digest, Gpu, KernelTiming};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::search::{hand_pair, Search, Simulation};
use kernels::{EmitterParams, FusedConfig, FusedKernel};
use perfmodel::{move_weights, region_move_weights, BottleneckReport};
use sass::island::{IslandConfig, IslandOutcome, Priors, SeedKind};
use sass::lint::lint;
use sass::tune::MoveFamily;
use sass::Module;
use serve::schedstore::{ScheduleStore, StoredSchedule};
use tensor::{LayoutKind, Tensor4, XorShiftRng};
use wino_core::{conv2d_direct, ConvProblem};

/// Proxy problem for the Tier-2 search and the recovery gate: one fused
/// tile grid, small enough that thousands of cycle-level simulations stay
/// interactive but with every mechanism live (yield, reuse, scoreboards,
/// smem phases, DRAM).
fn proxy_config() -> FusedConfig {
    FusedConfig::ours(32, 8, 8, 32, 64)
}

/// The beat-the-hand-schedule shape: ResNet Conv2 at N=32, a Table 2
/// point. Its hand kernel is exactly the launch serve's `Planner` looks
/// up in the schedule store for the Conv2 class at its smallest batch, so
/// the published winner is what plan building replays.
fn conv2_config() -> FusedConfig {
    FusedConfig::ours(64, 56, 56, 32, 64)
}

struct Flags {
    budget: u64,
    islands: usize,
    epochs: u64,
    jobs: usize,
    seed: u64,
}

// ---- shared evaluation plumbing ---------------------------------------------

/// The search's memo: every evaluated candidate must lint clean, and with a
/// store its one-wave timing is cached under its `gpusim::key`.
fn memo(
    store: Option<&Store>,
) -> impl Fn(&Module, &Digest, &mut Simulation) -> Option<KernelTiming> + Sync + '_ {
    move |cand, key, sim| {
        assert!(
            lint(&cand.insts).is_empty(),
            "illegal candidate reached the objective"
        );
        let Some(store) = store else { return sim() };
        let key = CacheKey::from_digest(key);
        if let Some(t) = store.load(&key).as_ref().and_then(timing_from_json) {
            return Some(t);
        }
        let t = sim()?;
        store.store(&key, &timing_to_json(&t));
        Some(t)
    }
}

/// Run the island search through the memo, strictly: no candidate
/// simulation may fail, and the best cost never rises from one epoch to
/// the next.
fn islands(
    search: &Search,
    priors: &Priors,
    icfg: &IslandConfig,
    store: Option<&Store>,
) -> IslandOutcome {
    let outcome = search.islands(priors, icfg, Some(&memo(store)));
    assert_eq!(outcome.stats.failed, 0, "candidate timing failed");
    assert!(
        outcome.best_trace.windows(2).all(|w| w[1] <= w[0]),
        "best-so-far trace is not monotone: {:?}",
        outcome.best_trace
    );
    outcome
}

/// Profile `kern` — the search's kernel or its detuned twin — once (cold,
/// uncached — a cached timing carries no profile) and aim the search:
/// per-region proposal odds from the stall/issue cycle split, family
/// weights from the classified bottleneck, per-region family priors from
/// the profiled stall shares.
fn profile_priors(search: &Search, kern: &FusedKernel) -> (&'static str, Priors) {
    let mut t = search.profile(&kern.module).expect("profile run failed");
    let names: Vec<String> = kern.regions.iter().map(|r| r.name.clone()).collect();
    let totals = t.profile.as_mut().map(|prof| {
        prof.regions = kern.regions.clone();
        prof.region_totals()
    });
    let report = BottleneckReport::classify(&t);
    let mut priors = Priors {
        weights: move_weights(&report),
        region_weights: None,
        region_priors: None,
    };
    if let Some(totals) = totals {
        priors.region_weights = Some(
            names
                .iter()
                .map(|n| {
                    totals
                        .iter()
                        .find(|(name, _, _)| name == n)
                        .map_or(1.0, |&(_, issue, stall)| (issue + stall) as f64 + 1.0)
                })
                .collect(),
        );
        priors.region_priors = Some(region_move_weights(&report, &totals, &names));
    }
    (report.bound.name(), priors)
}

// ---- functional differential check ------------------------------------------

/// Functional gate on the Tier-2 grid at the proxy shape: every legal
/// point must emit lint-clean and compute output bit-exact against every
/// other point (and within the usual Winograd tolerance of the workspace's
/// direct convolution, `wino_core::conv2d_direct`). Device-independent, so
/// it runs once per invocation.
fn differential_check() {
    let base = proxy_config();
    let (c, h, w, n, k) = (
        base.c as usize,
        base.h as usize,
        base.w as usize,
        base.n as usize,
        base.k as usize,
    );
    let mut rng = XorShiftRng::new(0x7157);
    let mut random = |kind, dims: [usize; 4]| {
        let data = (0..dims.iter().product()).map(|_| rng.gen_range(-1.0, 1.0));
        Tensor4::from_vec(kind, dims, data.collect())
    };
    let input = random(LayoutKind::Chwn, [c, h, w, n]);
    let filter = random(LayoutKind::Crsk, [c, 3, 3, k]);

    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 26);
    let d_in = gpu.alloc_upload_f32(input.as_slice());
    let d_filt = gpu.alloc_upload_f32(filter.as_slice());
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);
    let fx = emit_filter_transform(base.c, base.k);
    let fx_dims = filter_transform::launch_dims(base.c, base.k);
    gpu.launch_parallel(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    // The workspace's reference runs NCHW/KCRS. Its NCHW output, read with
    // K as the C axis, converts to CHWN: the kernel's KHWN order.
    let problem = ConvProblem {
        n,
        c,
        h,
        w,
        k,
        r: 3,
        s: 3,
        pad: 1,
    };
    let want = conv2d_direct(
        &problem,
        &input.to_layout(LayoutKind::Nchw),
        &filter.to_layout(LayoutKind::Kcrs),
    )
    .to_layout(LayoutKind::Chwn);
    let mut anchor: Option<Vec<f32>> = None;
    let points = EmitterParams::grid(base).0;
    for p in &points {
        let kern = FusedKernel::emit(p.apply(base));
        assert!(
            lint(&kern.module.insts).is_empty(),
            "{}: emitted kernel fails lint",
            p.label()
        );
        gpu.mem
            .upload_f32(d_out, &vec![f32::NAN; k * h * w * n])
            .unwrap();
        let params = kern.params(d_in, d_tf, d_out);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
            .unwrap_or_else(|e| panic!("{}: failed to execute: {e}", p.label()));
        let got = gpu.mem.download_f32(d_out, k * h * w * n).unwrap();
        let rep = tensor::compare(want.as_slice(), &got, 1e-3, 1e-3);
        assert!(rep.num_bad == 0, "{} vs direct reference: {rep}", p.label());
        match &anchor {
            None => anchor = Some(got),
            Some(a) => assert!(
                a.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: output differs bit-for-bit from the anchor variant",
                p.label()
            ),
        }
    }
    println!(
        "differential: {} legal emitter points, all lint-clean, bit-exact, reference-checked",
        points.len()
    );
}

// ---- tier 2: successive halving over emitter parameters ---------------------

struct Tier2Point {
    params: EmitterParams,
    hand_cycles: u64,
    best_cycles: u64,
    evals: u64,
    rungs: usize,
}

/// Successive halving on the legal emitter grid at the proxy shape:
/// rung `r` gives each survivor a `2^r`-scaled island budget and keeps
/// 5 → 3 → 2 → 1 (ties broken toward grid order, so the result is
/// deterministic).
fn tier2_search(dev: &DeviceSpec, store: Option<&Store>, f: &Flags) -> (Vec<Tier2Point>, usize) {
    let points = EmitterParams::grid(proxy_config()).0;
    let b0 = (f.budget / 10).max(4);
    let mut rows: Vec<Tier2Point> = points
        .iter()
        .map(|&params| Tier2Point {
            params,
            hand_cycles: 0,
            best_cycles: u64::MAX,
            evals: 0,
            rungs: 0,
        })
        .collect();
    let mut survivors: Vec<usize> = (0..points.len()).collect();
    for (r, keep) in [3usize, 2, 1].into_iter().enumerate() {
        let rung_budget = b0 << r;
        for &idx in &survivors {
            let p = points[idx];
            let kern = FusedKernel::emit(p.apply(proxy_config()));
            let search = Search::new(dev, &kern);
            let (_, priors) = profile_priors(&search, &kern);
            let mut icfg = hand_pair((rung_budget / 2).max(1), f.seed);
            icfg.jobs = f.jobs;
            let outcome = islands(&search, &priors, &icfg, store);
            rows[idx].hand_cycles = outcome.per_island[0].start_cost;
            rows[idx].best_cycles = outcome.best_cost;
            rows[idx].evals += outcome.stats.evals;
            rows[idx].rungs = r + 1;
        }
        survivors.sort_by_key(|&i| (rows[i].best_cycles, i));
        survivors.truncate(keep);
    }
    (rows, survivors[0])
}

// ---- recovery run (proxy shape, full island lineup) -------------------------

struct RecoveryRun {
    bound: &'static str,
    naive_cycles: u64,
    hand_cycles: u64,
    tuned_cycles: u64,
    outcome: IslandOutcome,
    region_names: Vec<String>,
    schedule_digest: String,
}

impl RecoveryRun {
    fn recovered_pct(&self) -> f64 {
        100.0 * self.hand_cycles as f64 / self.tuned_cycles as f64
    }
    /// Fraction of the naive→hand cycle gap the search closed.
    fn gap_closed_pct(&self) -> f64 {
        let gap = self.naive_cycles.saturating_sub(self.hand_cycles) as f64;
        if gap == 0.0 {
            return 100.0;
        }
        100.0 * self.naive_cycles.saturating_sub(self.tuned_cycles) as f64 / gap
    }
}

fn recovery_run(dev: &DeviceSpec, store: Option<&Store>, f: &Flags) -> RecoveryRun {
    let hand = FusedKernel::emit(proxy_config());
    let naive = FusedKernel::emit_detuned(proxy_config());
    let search = Search::new(dev, &hand);
    // Aim the search by profiling the *detuned* baseline — where the naive
    // schedule burns cycles is where the recovery search must move.
    let (bound, priors) = profile_priors(&search, &naive);

    let ident: Vec<u32> = (0..hand.module.insts.len() as u32).collect();
    let hand_cycles = search.objective(Some(&memo(store)))(&hand.module.insts, &ident)
        .expect("hand timing failed");

    let mut icfg = IslandConfig::new(f.islands, f.epochs, (f.budget / f.epochs).max(1), f.seed);
    icfg.jobs = f.jobs;
    let outcome = islands(&search, &priors, &icfg, store);
    let naive_cycles = outcome
        .per_island
        .iter()
        .find(|s| s.seed_kind == SeedKind::Detuned)
        .map(|s| s.start_cost)
        .expect("lineup has a detuned island");
    let schedule_digest = module_hex(&hand.module.with_insts(outcome.best_insts.clone()));
    RecoveryRun {
        bound,
        naive_cycles,
        hand_cycles,
        tuned_cycles: outcome.best_cost,
        outcome,
        region_names: hand.regions.iter().map(|r| r.name.clone()).collect(),
        schedule_digest,
    }
}

// ---- conv2@32: beat the hand schedule, publish for serve --------------------

struct Conv2Run {
    params_label: String,
    hand_wave_cycles: u64,
    tuned_wave_cycles: u64,
    hand_device_cycles: u64,
    tuned_device_cycles: u64,
    beats_hand: bool,
    evals: u64,
    schedule_digest: String,
    stored: bool,
}

fn conv2_run(
    dev: &DeviceSpec,
    store: Option<&Store>,
    publish: Option<&SimStore>,
    f: &Flags,
) -> Conv2Run {
    let hand = FusedKernel::emit(conv2_config());
    let search = Search::new(dev, &hand);
    // Profile the *hand* schedule: the search starts there, so the priors
    // should point at whatever stalls the authors left on the table.
    let (_, priors) = profile_priors(&search, &hand);

    let mut icfg = hand_pair((f.budget / 2).max(1), f.seed);
    icfg.jobs = f.jobs;
    let outcome = islands(&search, &priors, &icfg, store);
    let hand_wave_cycles = outcome.per_island[0].start_cost;
    let best = hand.module.with_insts(outcome.best_insts.clone());
    let schedule_digest = module_hex(&best);

    // The claim that matters is multi-wave: time both schedules through the
    // full device model and compare whole-kernel cycles.
    let time_device = |m: &Module| search.device_time(m).expect("device sim failed");
    let hand_t = time_device(&hand.module);
    let tuned_t = time_device(&best);
    let device_cycles = |t: &KernelTiming| (t.time_s * dev.clock_hz).round() as u64;
    let (hand_device_cycles, tuned_device_cycles) =
        (device_cycles(&hand_t), device_cycles(&tuned_t));
    let beats_hand =
        outcome.best_cost < hand_wave_cycles && tuned_device_cycles < hand_device_cycles;

    let mut stored = false;
    let params_label = EmitterParams::hand().label();
    if beats_hand {
        if let Some(sim) = publish {
            ScheduleStore::new(sim).save(
                &search,
                &StoredSchedule {
                    params: params_label.clone(),
                    schedule_digest: schedule_digest.clone(),
                    cubin: best.to_cubin(),
                    hand_cycles: hand_device_cycles,
                    tuned_cycles: tuned_device_cycles,
                    evals: outcome.stats.evals,
                },
            );
            stored = true;
        }
    }
    Conv2Run {
        params_label,
        hand_wave_cycles,
        tuned_wave_cycles: outcome.best_cost,
        hand_device_cycles,
        tuned_device_cycles,
        beats_hand,
        evals: outcome.stats.evals,
        schedule_digest,
        stored,
    }
}

// ---- reporting --------------------------------------------------------------

fn trajectory_json(traj: &[sass::tune::TrajPoint], region_names: &[String]) -> Json {
    Json::Arr(
        traj.iter()
            .map(|p| {
                obj(&[
                    ("step", p.step.into()),
                    ("move", p.kind.name().into()),
                    ("pc", p.pc.into()),
                    (
                        "region",
                        region_names
                            .get(p.region)
                            .map_or("?", |s| s.as_str())
                            .into(),
                    ),
                    ("cycles", p.cycles.into()),
                ])
            })
            .collect(),
    )
}

fn per_island_json(outcome: &IslandOutcome) -> Json {
    Json::Arr(
        outcome
            .per_island
            .iter()
            .map(|s| {
                obj(&[
                    ("island", s.island.into()),
                    ("seed", s.seed_kind.name().into()),
                    ("start_cycles", s.start_cost.into()),
                    ("best_cycles", s.best_cost.into()),
                    ("accepted", s.stats.accepted.into()),
                    ("evals", s.stats.evals.into()),
                    ("migrations_in", s.migrations_in.into()),
                ])
            })
            .collect(),
    )
}

/// The winner island's learned per-region × per-family acceptance rates.
fn accept_rates_json(outcome: &IslandOutcome, region_names: &[String]) -> Json {
    let winner = &outcome.per_island[outcome.winner];
    Json::Arr(
        winner
            .accept_rates
            .iter()
            .enumerate()
            .map(|(r, rates)| {
                let mut fields: Vec<(&str, Json)> = vec![(
                    "region",
                    region_names.get(r).map_or("?", |s| s.as_str()).into(),
                )];
                for (f, rate) in MoveFamily::ALL.iter().zip(rates) {
                    fields.push((f.name(), (*rate).into()));
                }
                obj(&fields)
            })
            .collect(),
    )
}

fn u64s_json(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| x.into()).collect())
}

/// Every flag `main` reads.
const TUNE_FLAGS: &[&str] = &[
    "--budget N",
    "--islands N",
    "--epochs N",
    "--jobs N",
    "--seed S",
    "--json PATH",
    "--no-cache",
    "--cache-dir DIR",
];

fn main() {
    check_args("tune", &[TUNE_FLAGS]);
    let args: Vec<String> = std::env::args().collect();
    let flags = Flags {
        budget: flag_value(&args, "--budget").map_or(400, |v| v.parse().expect("--budget N")),
        islands: flag_value(&args, "--islands").map_or(6, |v| v.parse().expect("--islands N")),
        epochs: flag_value(&args, "--epochs").map_or(4, |v| v.parse().expect("--epochs N")),
        jobs: flag_value(&args, "--jobs").map_or(1, |v| v.parse().expect("--jobs N")),
        seed: flag_value(&args, "--seed").map_or(2020, |v| v.parse().expect("--seed S")),
    };
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_tune.json".into());
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let cache_dir = flag_value(&args, "--cache-dir").map_or_else(Store::default_dir, Into::into);
    let store = (!no_cache).then(|| Store::new(&cache_dir));
    // Tuned-schedule publishing shares the cache directory with serve's
    // plan store ("tune once, serve forever" across processes).
    let publish = (!no_cache).then(|| SimStore(Store::new(&cache_dir)));

    let mut report = Report::to_path("tune", Some(json_path));
    let cfg = proxy_config();
    println!(
        "tune v2: two-tier search, proxy c={} h={} w={} n={} k={}, budget {}/island, {} islands x {} epochs, seed {}",
        cfg.c, cfg.h, cfg.w, cfg.n, cfg.k, flags.budget, flags.islands, flags.epochs, flags.seed
    );
    differential_check();

    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let mut recovery_table = Table::new(&[
        "device",
        "bound",
        "naive cyc",
        "tuned cyc",
        "hand cyc",
        "recovered %",
        "gap closed %",
        "accepted",
        "evals",
    ]);
    let mut conv2_table = Table::new(&[
        "device",
        "tier2 winner",
        "hand dev cyc",
        "tuned dev cyc",
        "beats hand",
        "stored",
    ]);
    let mut any_beats = false;

    for dev in &devices {
        // Tier 2: emitter-parameter successive halving on the proxy shape.
        let (t2, winner_idx) = tier2_search(dev, store.as_ref(), &flags);
        let winner = &t2[winner_idx];
        println!(
            "[{}] tier2 winner: {} ({} cycles, {} evals)",
            dev.name,
            winner.params.label(),
            winner.best_cycles,
            t2.iter().map(|p| p.evals).sum::<u64>()
        );

        // Tier 1 showcase: recover the hand schedule from the naive
        // baseline with the full island lineup.
        let rec = recovery_run(dev, store.as_ref(), &flags);
        let s = rec.outcome.stats;
        recovery_table.row(vec![
            dev.name.to_string(),
            rec.bound.to_string(),
            rec.naive_cycles.to_string(),
            rec.tuned_cycles.to_string(),
            rec.hand_cycles.to_string(),
            format!("{:.1}", rec.recovered_pct()),
            format!("{:.1}", rec.gap_closed_pct()),
            s.accepted.to_string(),
            s.evals.to_string(),
        ]);
        assert!(
            rec.recovered_pct() >= 97.0,
            "{}: recovered only {:.1}% of the hand schedule ({} vs {} cycles)",
            dev.name,
            rec.recovered_pct(),
            rec.tuned_cycles,
            rec.hand_cycles
        );

        // Beat-the-hand-schedule run on the Table 2 shape, published to the
        // serve schedule store when it wins.
        let c2 = conv2_run(dev, store.as_ref(), publish.as_ref(), &flags);
        any_beats |= c2.beats_hand;
        conv2_table.row(vec![
            dev.name.to_string(),
            winner.params.label(),
            c2.hand_device_cycles.to_string(),
            c2.tuned_device_cycles.to_string(),
            if c2.beats_hand { "yes" } else { "no" }.to_string(),
            if c2.stored { "yes" } else { "no" }.to_string(),
        ]);

        report.add(
            dev.name,
            &[
                ("schema", 2u32.into()),
                ("phase", "recovery".into()),
                ("kernel", "fused_ours".into()),
                ("c", cfg.c.into()),
                ("hw", cfg.h.into()),
                ("n", cfg.n.into()),
                ("k", cfg.k.into()),
                ("budget", flags.budget.into()),
                ("islands", (flags.islands as u64).into()),
                ("epochs", flags.epochs.into()),
                ("seed", flags.seed.into()),
            ],
            &[
                ("bound", rec.bound.into()),
                ("naive_cycles", rec.naive_cycles.into()),
                ("tuned_cycles", rec.tuned_cycles.into()),
                ("hand_cycles", rec.hand_cycles.into()),
                ("recovered_pct", rec.recovered_pct().into()),
                ("gap_closed_pct", rec.gap_closed_pct().into()),
                ("winner_island", rec.outcome.winner.into()),
                ("proposed", s.proposed.into()),
                ("inapplicable", s.inapplicable.into()),
                ("illegal", s.illegal.into()),
                ("evals", s.evals.into()),
                ("accepted", s.accepted.into()),
                ("per_island", per_island_json(&rec.outcome)),
                ("best_trace", u64s_json(&rec.outcome.best_trace)),
                (
                    "accept_rates",
                    accept_rates_json(&rec.outcome, &rec.region_names),
                ),
                ("schedule_digest", rec.schedule_digest.as_str().into()),
                (
                    "trajectory",
                    trajectory_json(&rec.outcome.trajectory, &rec.region_names),
                ),
            ],
        );
        report.add(
            dev.name,
            &[
                ("schema", 2u32.into()),
                ("phase", "tier2".into()),
                ("seed", flags.seed.into()),
            ],
            &[
                ("winner", winner.params.label().into()),
                (
                    "points",
                    Json::Arr(
                        t2.iter()
                            .map(|p| {
                                obj(&[
                                    ("params", p.params.label().into()),
                                    ("hand_cycles", p.hand_cycles.into()),
                                    ("best_cycles", p.best_cycles.into()),
                                    ("evals", p.evals.into()),
                                    ("rungs", p.rungs.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "pruned",
                    Json::Arr(
                        EmitterParams::grid(cfg)
                            .1
                            .iter()
                            .map(|(p, why)| {
                                obj(&[("params", p.label().into()), ("reason", (*why).into())])
                            })
                            .collect(),
                    ),
                ),
            ],
        );
        let c2cfg = conv2_config();
        report.add(
            dev.name,
            &[
                ("schema", 2u32.into()),
                ("phase", "conv2_n32".into()),
                ("kernel", "fused_ours".into()),
                ("c", c2cfg.c.into()),
                ("hw", c2cfg.h.into()),
                ("n", c2cfg.n.into()),
                ("k", c2cfg.k.into()),
                ("budget", flags.budget.into()),
                ("seed", flags.seed.into()),
            ],
            &[
                ("params", c2.params_label.as_str().into()),
                ("hand_wave_cycles", c2.hand_wave_cycles.into()),
                ("tuned_wave_cycles", c2.tuned_wave_cycles.into()),
                ("hand_device_cycles", c2.hand_device_cycles.into()),
                ("tuned_device_cycles", c2.tuned_device_cycles.into()),
                ("beats_hand", c2.beats_hand.into()),
                ("evals", c2.evals.into()),
                ("schedule_digest", c2.schedule_digest.as_str().into()),
                ("stored_for_serve", c2.stored.into()),
            ],
        );
    }

    assert!(
        any_beats,
        "no device produced a tuned Conv2@32 schedule that beats the hand schedule \
         under the multi-wave device model"
    );

    recovery_table.print();
    println!();
    conv2_table.print();
    report.finish();
}
