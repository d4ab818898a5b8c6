//! The island search's determinism contract (ISSUE 9): for a fixed seed the
//! outcome is a pure function of `(hand stream, regions, priors, config)` —
//! byte-identical for any `--jobs`, including every piece of observable
//! state (best stream, traces, per-island counters, the adaptive policy's
//! learned acceptance rates, snapshots, trajectory).
//!
//! Uses a cheap static objective — summed stalls plus a yield penalty — so
//! thousands of steps run in milliseconds while the *real* move generators,
//! legality gates, migration barriers and policy updates all exercise.

use sass::island::{run_islands, IslandConfig, IslandOutcome, Priors};
use sass::tune::TuneRegion;
use sass::{assemble, Instruction};

/// A stream with enough independent work that reorders, stall edits, reuse
/// and yield moves all apply.
fn hand_stream() -> Vec<Instruction> {
    let mut insts = assemble(
        r#"
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  SHF.L.U32 R1, R0, 0x4, RZ;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x10, R10;
    --:-:0:-:2  LDG.E.128 R4, [R2];
    --:-:-:Y:6  MOV R20, c[0x0][0x168];
    --:-:-:Y:6  SHF.L.U32 R21, R0, 0x2, RZ;
    --:-:-:Y:6  IMAD.WIDE.U32 R22, R0, 0x4, R20;
    --:-:1:-:2  LDG.E R24, [R22];
    01:-:-:Y:1  FFMA R8, R4, R5, R6;
    --:-:-:Y:1  FFMA R9, R4, R5, R7;
    02:-:-:Y:1  FFMA R25, R24, R4, R8;
    --:-:-:Y:4  FADD R12, R8, R9;
    --:-:-:Y:4  FADD R13, R25, R12;
    --:-:-:Y:4  STG.E [R2], R13;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap()
    .insts;
    // The stream above is written for shape, not legality; repair stalls
    // and scoreboard waits so it models a valid "hand" schedule.
    sass::lint::fix_schedule(&mut insts);
    assert!(sass::lint(&insts).is_empty());
    insts
}

fn regions() -> Vec<TuneRegion> {
    vec![
        TuneRegion {
            name: "setup".into(),
            start: 0,
            end: 10,
        },
        TuneRegion {
            name: "math".into(),
            start: 10,
            end: 17,
        },
    ]
}

/// Static objective: total stall cycles plus one cycle per yielding
/// instruction. Deterministic, monotone under tightening, and sensitive to
/// every move family the tuner proposes.
fn cost(insts: &[Instruction], _perm: &[u32]) -> Option<u64> {
    Some(
        insts
            .iter()
            .map(|i| i.ctrl.stall.max(1) as u64 + i.ctrl.yield_flag as u64)
            .sum(),
    )
}

fn run(jobs: usize, seed: u64) -> IslandOutcome {
    let hand = hand_stream();
    let mut cfg = IslandConfig::new(4, 3, 40, seed);
    cfg.jobs = jobs;
    // A snapshot after every accepted move: the comparison sees the
    // winner's whole stream at each step, not just the retained trajectory.
    cfg.snapshot_every = 1;
    run_islands(&hand, &regions(), &Priors::default(), &cfg, |_| cost)
}

#[test]
fn outcome_identical_across_jobs_1_2_8() {
    let a = run(1, 0x5eed_2020);
    let b = run(2, 0x5eed_2020);
    let c = run(8, 0x5eed_2020);
    assert!(a == b, "jobs 1 vs 2: outcomes differ");
    assert!(a == c, "jobs 1 vs 8: outcomes differ");
    // And the run did real work: improving moves landed and the search beat
    // the worst island's starting point.
    assert!(a.stats.accepted > 0, "nothing accepted");
    let worst_start = a.per_island.iter().map(|s| s.start_cost).max().unwrap();
    assert!(a.best_cost < worst_start, "no improvement found");
}

#[test]
fn best_trace_is_monotone_and_ends_at_best() {
    let o = run(2, 7);
    assert!(
        o.best_trace.windows(2).all(|w| w[1] <= w[0]),
        "best-so-far trace must never regress: {:?}",
        o.best_trace
    );
    assert_eq!(
        *o.best_trace.last().unwrap(),
        o.best_cost,
        "trace must end at the final best"
    );
}

#[test]
fn different_seeds_explore_differently() {
    let a = run(1, 1);
    let b = run(1, 2);
    // Not a strict requirement of annealing, but with 480 proposals the
    // chance two seeds propose identical move sequences is nil — if the
    // counters match exactly, the RNG plumbing is likely ignoring the seed.
    let fp = |o: &IslandOutcome| {
        o.per_island
            .iter()
            .map(|s| (s.stats.proposed, s.stats.accepted, s.best_cost))
            .collect::<Vec<_>>()
    };
    assert_ne!(fp(&a), fp(&b), "seed does not influence the search");
}
