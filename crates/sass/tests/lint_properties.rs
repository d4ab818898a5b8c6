//! Property tests for the schedule-legality oracle.
//!
//! The tuner's contract (ISSUE 5) is that every candidate it hands to the
//! cycle simulator is *legal*: randomly generated schedule mutations either
//! pass `sass::lint` clean or are rejected before evaluation, and the
//! repairer `fix_schedule_marked` is a fixpoint on everything the tuner
//! produces (repairing an already-clean stream changes nothing, and a
//! second repair after a first one changes nothing either).
//!
//! Programs here are *generated*, not hand-picked: random straight-line
//! streams over a small register file with loads, stores, predicates and
//! scoreboard waits, repaired into legality by `fix_schedule`, then mutated
//! by the real tuner move generators under a recording objective.

use sass::ctrl::Ctrl;
use sass::isa::{build, CmpOp, Instruction, MemWidth, Op, PredGuard, SpecialReg};
use sass::lint::{fix_schedule, fix_schedule_marked, lint};
use sass::tune::{detune, Tuner};
use sass::{Pred, Reg};
use tensor::XorShiftRng;

/// One random straight-line instruction over a compact register window.
/// Destinations stay in R8..R23 so sources (R0..R23) can hit them; R0..R7
/// are "warm inputs" only ever read.
fn random_op(rng: &mut XorShiftRng) -> Op {
    let d = Reg(8 + rng.gen_index(16) as u8);
    let a = Reg(rng.gen_index(24) as u8);
    let b = Reg(rng.gen_index(24) as u8);
    let c = Reg(rng.gen_index(24) as u8);
    match rng.gen_index(12) {
        0 => build::ffma(d, a, b, c),
        1 => build::fadd(d, a, b),
        2 => build::fmul(d, a, b),
        3 => build::iadd3(d, a, b, c),
        4 => build::mov(d, b),
        5 => build::lea(d, a, b, (rng.gen_index(4) + 1) as u8),
        6 => build::and(d, a, b),
        // Loads/stores use an even base so .64/.128 stay aligned; offsets
        // are multiples of 16 inside a private 256 B window per slot.
        7 => build::lds(MemWidth::B32, d, Reg(0), (rng.gen_index(16) * 16) as i32),
        8 => build::sts(MemWidth::B32, Reg(0), (rng.gen_index(16) * 16) as i32, a),
        9 => build::isetp(Pred(rng.gen_index(3) as u8), CmpOp::Lt, a, b),
        10 => build::s2r(d, SpecialReg::TidX),
        _ => build::shl(d, a, (rng.gen_index(8)) as u8),
    }
}

/// Random control word: stall 1..=8, half the streams get sprinkled
/// scoreboard waits on barriers the generator also assigns to loads.
fn random_ctrl(rng: &mut XorShiftRng, op: &Op) -> Ctrl {
    let mut c = Ctrl::stall((1 + rng.gen_index(8)) as u8);
    if rng.gen_index(4) == 0 {
        c.yield_flag = false;
    }
    if matches!(op, Op::Ld { .. } | Op::S2r { .. }) {
        c = c.with_write_bar(rng.gen_index(6) as u8);
    }
    // Stores always carry a read barrier: an unprotected store's WAR hazard
    // is the one thing `fix_schedule` cannot repair (it has no barrier to
    // wait on), and the emitters never produce one.
    if matches!(op, Op::St { .. }) {
        c = c.with_read_bar(rng.gen_index(6) as u8);
    }
    if rng.gen_index(3) == 0 {
        c.wait_mask |= 1 << rng.gen_index(6);
    }
    c
}

/// A random program, made legal by the repairer. Occasionally predicated.
fn random_program(rng: &mut XorShiftRng, len: usize) -> Vec<Instruction> {
    let mut insts: Vec<Instruction> = (0..len)
        .map(|_| {
            let op = random_op(rng);
            let ctrl = random_ctrl(rng, &op);
            let mut inst = Instruction::new(op).with_ctrl(ctrl);
            // Guard some non-SETP instructions with a predicate the stream
            // may also define (exercises predicate dependences).
            if rng.gen_index(8) == 0 && !matches!(inst.op, Op::Isetp { .. }) {
                inst = inst.with_guard(PredGuard::on(Pred(rng.gen_index(3) as u8)));
            }
            inst
        })
        .collect();
    insts.push(Instruction::new(Op::Exit).with_ctrl(Ctrl::stall(5)));
    fix_schedule(&mut insts);
    assert!(lint(&insts).is_empty(), "generator produced unfixable code");
    insts
}

/// Every candidate the tuner evaluates — across all move kinds, including
/// reorders and barrier reassignments — lints clean; mutations that would
/// not are rejected before the objective ever sees them.
#[test]
fn tuner_candidates_are_always_legal() {
    let mut rng = XorShiftRng::new(0xfeed);
    for trial in 0..24 {
        let len = 12 + rng.gen_index(30);
        let base = random_program(&mut rng, len);
        let mut tuner = Tuner::new(base.clone(), Vec::new(), 0x1000 + trial);
        let mut seen = 0u64;
        let mut obj = |insts: &[Instruction], perm: &[u32]| {
            seen += 1;
            assert!(
                lint(insts).is_empty(),
                "illegal candidate reached the objective (trial {trial})"
            );
            // The position map is always a permutation of the baseline.
            let mut sorted: Vec<u32> = perm.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..insts.len() as u32).collect::<Vec<_>>());
            Some(insts.iter().map(|i| i.ctrl.stall.max(1) as u64).sum())
        };
        tuner.prime(&mut obj);
        tuner.start_anneal(120);
        for _ in 0..120 {
            tuner.anneal_step(&mut obj);
        }
        assert!(seen > 1, "trial {trial}: tuner never evaluated a candidate");
        assert!(lint(&tuner.best_insts).is_empty());
        assert!(lint(&tuner.insts).is_empty());
        // Rejections really happen (the generators do propose aggressive
        // mutations) but never crash or corrupt the current stream.
        let s = tuner.stats;
        assert_eq!(s.proposed, 120);
        assert_eq!(s.proposed, s.inapplicable + s.illegal + s.evals - 1);
    }
}

/// `fix_schedule_marked` is a fixpoint: on any tuner-visited candidate
/// (already legal) it performs zero repairs; on a freshly generated dirty
/// stream, repairing twice is the same as repairing once.
#[test]
fn fix_schedule_marked_is_a_fixpoint() {
    let mut rng = XorShiftRng::new(0xabcdef);
    for trial in 0..24 {
        // Dirty stream: random ctrl, no repair yet.
        let len = 10 + rng.gen_index(30);
        let mut dirty: Vec<Instruction> = (0..len)
            .map(|_| {
                let op = random_op(&mut rng);
                let ctrl = random_ctrl(&mut rng, &op);
                Instruction::new(op).with_ctrl(ctrl)
            })
            .collect();
        dirty.push(Instruction::new(Op::Exit).with_ctrl(Ctrl::stall(5)));

        let mut markers = vec![0u32; dirty.len()];
        fix_schedule_marked(&mut dirty, &mut markers);
        let after_once = dirty.clone();
        let mut markers2 = vec![0u32; dirty.len()];
        let second = fix_schedule_marked(&mut dirty, &mut markers2);
        assert_eq!(second, 0, "trial {trial}: second repair still changed code");
        assert_eq!(dirty, after_once, "trial {trial}: stream drifted");

        // Tuner-visited candidates are already clean ⇒ zero repairs.
        let blen = 10 + rng.gen_index(20);
        let base = random_program(&mut rng, blen);
        let mut tuner = Tuner::new(base, Vec::new(), 0x2000 + trial);
        let mut candidates: Vec<Vec<Instruction>> = Vec::new();
        let mut obj = |insts: &[Instruction], _: &[u32]| {
            candidates.push(insts.to_vec());
            Some(insts.iter().map(|i| i.ctrl.stall.max(1) as u64).sum())
        };
        tuner.prime(&mut obj);
        tuner.start_anneal(60);
        for _ in 0..60 {
            tuner.anneal_step(&mut obj);
        }
        for (i, cand) in candidates.iter().enumerate() {
            let mut c = cand.clone();
            let mut m = vec![0u32; c.len()];
            let fixes = fix_schedule_marked(&mut c, &mut m);
            assert_eq!(fixes, 0, "trial {trial} candidate {i}: not a fixpoint");
            assert_eq!(&c, cand);
        }
    }
}

/// Detuning is itself a legality-preserving, idempotent transform.
#[test]
fn detune_is_idempotent_on_generated_programs() {
    let mut rng = XorShiftRng::new(77);
    for _ in 0..16 {
        let plen = 8 + rng.gen_index(24);
        let mut p = random_program(&mut rng, plen);
        detune(&mut p);
        assert!(lint(&p).is_empty());
        let once = p.clone();
        detune(&mut p);
        assert_eq!(p, once);
    }
}
