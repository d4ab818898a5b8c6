//! Island-model parallel annealing: N independent [`Tuner`] chains with
//! periodic best-candidate migration.
//!
//! Each island owns a full annealing chain (its own RNG, adaptive policy and
//! temperature) seeded from a different ancestry — the naive detuned
//! baseline, the hand schedule, or greedy-tightened variants of either — so
//! the chains start in different basins of the schedule space. Chains run
//! for an epoch of annealing steps, then synchronize: island `i` adopts the
//! best-so-far candidate of island `i-1 (mod N)` (ring topology) whenever
//! that candidate strictly beats island `i`'s *current* cost. Migration
//! moves the chain's current point, never its temperature or learned policy,
//! so a migrant is refined by the recipient's own move distribution.
//!
//! **Determinism.** The outcome is a pure function of `(hand stream,
//! regions, priors, config)` — in particular it is byte-identical for any
//! `--jobs`, the same contract `bench::sweep` and `gpusim::device_sim`
//! honor. The ingredients: per-island RNG seeds are derived from the master
//! seed by island index (splitmix), each chain consumes only its own RNG and
//! its own objective, epoch boundaries are full barriers (the scoped worker
//! pool joins before any migration), and migration applies a *snapshot* of
//! donor bests in island-index order, so neither thread scheduling nor
//! adoption order can feed back into any chain.

use crate::isa::Instruction;
use crate::tune::{detune, MoveFamily, MoveWeights, TrajPoint, TuneRegion, TuneStats, Tuner};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which schedule an island's chain starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedKind {
    /// The naive detuned baseline (full-latency stalls, no reuse, all-yield).
    Detuned,
    /// Detuned, then greedy per-region stall tightening before annealing.
    DetunedGreedy,
    /// The hand schedule as-is.
    Hand,
    /// The hand schedule, greedy-tightened before annealing.
    HandGreedy,
}

impl SeedKind {
    pub fn name(self) -> &'static str {
        match self {
            SeedKind::Detuned => "detuned",
            SeedKind::DetunedGreedy => "detuned+greedy",
            SeedKind::Hand => "hand",
            SeedKind::HandGreedy => "hand+greedy",
        }
    }

    /// Whether this ancestry runs a greedy tightening pass before annealing.
    fn greedy(self) -> bool {
        matches!(self, SeedKind::DetunedGreedy | SeedKind::HandGreedy)
    }

    /// Whether this ancestry starts from the detuned baseline.
    fn detuned(self) -> bool {
        matches!(self, SeedKind::Detuned | SeedKind::DetunedGreedy)
    }

    /// Default lineup for `n` islands: the naive baseline, the hand
    /// schedule, then alternating greedy-tightened ancestries.
    pub fn lineup(n: usize) -> Vec<SeedKind> {
        (0..n)
            .map(|i| match i {
                0 => SeedKind::Detuned,
                1 => SeedKind::Hand,
                i if i % 2 == 0 => SeedKind::DetunedGreedy,
                _ => SeedKind::HandGreedy,
            })
            .collect()
    }
}

/// Move-policy priors shared by every island.
#[derive(Clone, Debug, Default)]
pub struct Priors {
    /// Kernel-level family weights (fallback for every region).
    pub weights: MoveWeights,
    /// Per-region weights (region list order); `None` = uniform.
    pub region_weights: Option<Vec<f64>>,
    /// Per-region family priors (e.g. profiled stall shares via
    /// `perfmodel::tunehint::region_move_weights`); overrides `weights`.
    pub region_priors: Option<Vec<MoveWeights>>,
}

/// Island-run shape. Total annealing budget per island is
/// `epochs × steps_per_epoch` (greedy evaluations ride on top).
#[derive(Clone, Debug)]
pub struct IslandConfig {
    pub islands: usize,
    pub epochs: u64,
    pub steps_per_epoch: u64,
    /// Master seed; per-island seeds are derived by index.
    pub seed: u64,
    /// Worker threads (capped at the island count). Any value yields
    /// byte-identical results.
    pub jobs: usize,
    /// Ancestry per island; empty = [`SeedKind::lineup`].
    pub seeds: Vec<SeedKind>,
    /// Forwarded to [`Tuner::snapshot_every`] on every island.
    pub snapshot_every: u64,
}

impl IslandConfig {
    pub fn new(islands: usize, epochs: u64, steps_per_epoch: u64, seed: u64) -> IslandConfig {
        IslandConfig {
            islands,
            epochs,
            steps_per_epoch,
            seed,
            jobs: 1,
            seeds: Vec::new(),
            snapshot_every: 0,
        }
    }
}

/// Per-island summary (island-index order).
#[derive(Clone, Debug, PartialEq)]
pub struct IslandStat {
    pub island: usize,
    pub seed_kind: SeedKind,
    /// Primed cost of the island's starting stream.
    pub start_cost: u64,
    pub best_cost: u64,
    pub stats: TuneStats,
    /// Learned per-region acceptance rates, [`MoveFamily::ALL`] order.
    pub accept_rates: Vec<[f64; MoveFamily::COUNT]>,
    /// Migrants this island adopted.
    pub migrations_in: u64,
}

/// Result of an island run.
#[derive(Clone, Debug, PartialEq)]
pub struct IslandOutcome {
    pub best_insts: Vec<Instruction>,
    pub best_perm: Vec<u32>,
    pub best_cost: u64,
    /// Index of the island holding the global best (ties → lowest index).
    pub winner: usize,
    pub per_island: Vec<IslandStat>,
    /// Global best cost after each epoch — non-increasing by construction.
    pub best_trace: Vec<u64>,
    /// Counters summed over all islands.
    pub stats: TuneStats,
    /// The winning island's (retention-trimmed) trajectory.
    pub trajectory: Vec<TrajPoint>,
    /// The winning island's snapshots (when `snapshot_every` is set).
    pub snapshots: Vec<Vec<Instruction>>,
}

/// Splitmix-style per-island seed derivation: decorrelates neighbouring
/// island indices for any master seed.
fn derive_seed(master: u64, island: usize) -> u64 {
    let mut z = master ^ 0x9E3779B97F4A7C15u64.wrapping_mul(island as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)).max(1)
}

struct Island<O> {
    tuner: Tuner,
    obj: Option<O>,
    seed_kind: SeedKind,
    start_cost: u64,
    migrations_in: u64,
}

/// Run the island search. `hand` must lint clean (it is the emitter's
/// output); `make_objective(i)` builds island `i`'s private objective —
/// typically a clone of a shared `gpusim::BatchTimer` closed over the same
/// decoded descriptor table. The result is deterministic for a fixed
/// config regardless of `cfg.jobs`.
pub fn run_islands<O, F>(
    hand: &[Instruction],
    regions: &[TuneRegion],
    priors: &Priors,
    cfg: &IslandConfig,
    make_objective: F,
) -> IslandOutcome
where
    F: Fn(usize) -> O + Sync,
    O: FnMut(&[Instruction], &[u32]) -> Option<u64> + Send,
{
    assert!(cfg.islands > 0, "need at least one island");
    let seeds = if cfg.seeds.is_empty() {
        SeedKind::lineup(cfg.islands)
    } else {
        assert_eq!(cfg.seeds.len(), cfg.islands, "one seed kind per island");
        cfg.seeds.clone()
    };
    let total_budget = cfg.epochs.saturating_mul(cfg.steps_per_epoch);

    // Build islands serially in index order.
    let slots: Vec<Mutex<Island<O>>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &sk)| {
            let mut base = hand.to_vec();
            if sk.detuned() {
                detune(&mut base);
            }
            let mut tuner = Tuner::new(base, regions.to_vec(), derive_seed(cfg.seed, i));
            tuner.weights = priors.weights;
            if let Some(rw) = &priors.region_weights {
                tuner.region_weights = rw.clone();
            }
            tuner.region_priors = priors.region_priors.clone();
            tuner.snapshot_every = cfg.snapshot_every;
            Mutex::new(Island {
                tuner,
                obj: None,
                seed_kind: sk,
                start_cost: 0,
                migrations_in: 0,
            })
        })
        .collect();

    let n = slots.len();
    let mut best_trace = Vec::with_capacity(cfg.epochs as usize);
    for epoch in 0..cfg.epochs {
        // One epoch of independent annealing on the scoped worker pool
        // (sweep-style: atomic cursor hands out island indices; results
        // land in the island's own slot, so completion order is
        // irrelevant).
        let cursor = AtomicUsize::new(0);
        let workers = cfg.jobs.max(1).min(n);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let isl = &mut *slots[i].lock().unwrap();
                    if isl.obj.is_none() {
                        isl.obj = Some(make_objective(i));
                    }
                    let obj = isl.obj.as_mut().unwrap();
                    if epoch == 0 {
                        isl.start_cost = isl.tuner.prime(obj);
                        if isl.seed_kind.greedy() {
                            isl.tuner.greedy_tighten(obj);
                        }
                        isl.tuner.start_anneal(total_budget);
                    }
                    for _ in 0..cfg.steps_per_epoch {
                        isl.tuner.anneal_step(obj);
                    }
                });
            }
        });
        // Barrier reached: snapshot every island's best, then migrate along
        // the ring in island-index order. Donors are snapshots, so the
        // application order cannot feed back within the pass.
        let bests: Vec<(u64, Vec<Instruction>, Vec<u32>)> = slots
            .iter()
            .map(|m| {
                let isl = m.lock().unwrap();
                (
                    isl.tuner.best_cost,
                    isl.tuner.best_insts.clone(),
                    isl.tuner.best_perm.clone(),
                )
            })
            .collect();
        if n > 1 {
            for (i, slot) in slots.iter().enumerate() {
                let (dc, di, dp) = &bests[(i + n - 1) % n];
                let isl = &mut *slot.lock().unwrap();
                if *dc < isl.tuner.cur_cost {
                    isl.tuner.insts = di.clone();
                    isl.tuner.perm = dp.clone();
                    isl.tuner.cur_cost = *dc;
                    isl.migrations_in += 1;
                    if isl.tuner.cur_cost < isl.tuner.best_cost {
                        isl.tuner.best_cost = isl.tuner.cur_cost;
                        isl.tuner.best_insts = isl.tuner.insts.clone();
                        isl.tuner.best_perm = isl.tuner.perm.clone();
                    }
                }
            }
        }
        best_trace.push(bests.iter().map(|(c, _, _)| *c).min().unwrap_or(u64::MAX));
    }

    // Index-ordered merge.
    let mut per_island = Vec::with_capacity(n);
    let mut stats = TuneStats::default();
    let mut winner = 0usize;
    let mut best_cost = u64::MAX;
    let mut best_insts = Vec::new();
    let mut best_perm = Vec::new();
    let mut trajectory = Vec::new();
    let mut snapshots = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let isl = slot.into_inner().unwrap();
        let t = &isl.tuner;
        stats.proposed += t.stats.proposed;
        stats.inapplicable += t.stats.inapplicable;
        stats.illegal += t.stats.illegal;
        stats.evals += t.stats.evals;
        stats.failed += t.stats.failed;
        stats.accepted += t.stats.accepted;
        per_island.push(IslandStat {
            island: i,
            seed_kind: isl.seed_kind,
            start_cost: isl.start_cost,
            best_cost: t.best_cost,
            stats: t.stats,
            accept_rates: t.policy.as_ref().map(|p| p.rates()).unwrap_or_default(),
            migrations_in: isl.migrations_in,
        });
        if t.best_cost < best_cost {
            winner = i;
            best_cost = t.best_cost;
            best_insts = t.best_insts.clone();
            best_perm = t.best_perm.clone();
            trajectory = t.trajectory.clone();
            snapshots = t.snapshots.clone();
        }
    }
    IslandOutcome {
        best_insts,
        best_perm,
        best_cost,
        winner,
        per_island,
        best_trace,
        stats,
        trajectory,
        snapshots,
    }
}
