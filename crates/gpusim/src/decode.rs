//! Decoded-instruction descriptor table for the timing hot loop.
//!
//! [`crate::simulate`] simulates every cycle of a wave; anything
//! the per-cycle path computes by pattern-matching [`Op`] is paid millions
//! of times per launch. This module folds all of it into one flat
//! [`InstDesc`] per PC, built once per launch:
//!
//! * pipe classification and FLOP count (the old `pipe_of` / `flops_of`);
//! * control-code fields the scheduler consults every cycle (`wait_mask`,
//!   stall count, yield/reuse flags, read/write barriers);
//! * the source-operand list of `Op::src_regs()` as a fixed array (reuse
//!   accounting, strict-writeback poison checks, reuse-cache latching);
//! * a register-bank **conflict table** for FP32 ops — the old
//!   `reg_bank_conflict` built two `Vec`s per FP32 issue; the descriptor
//!   holds the answer for every set of reuse-covered operand slots, so an
//!   issue only forms the 4-bit coverage index and reads one bit.
//!
//! Everything here is observationally identical to the direct computation on
//! [`Instruction`]; `gpusim/tests/hotloop_identity.rs` pins the end-to-end
//! contract and the unit tests below pin the per-field equivalences.

use sass::isa::{Instruction, MemSpace, Op};
use sass::reg::Reg;

use crate::exec::Effects;
use crate::slice::timing_slice;

/// Classification for pipe assignment.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum PipeKind {
    Fp32,
    Int,
    Mio,
    Ctrl,
    None,
}

/// Memory-space classification of an MIO instruction.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum MemKind {
    NotMem,
    Shared,
    Global,
}

/// Upper bound on `Op::src_regs()` occurrences (STG.E.128 to global memory:
/// a 64-bit base pair in slot 0 plus four data registers in slot 2).
pub(crate) const MAX_SRCS: usize = 6;

/// Flat per-PC descriptor: everything the timing loop needs about an
/// instruction without touching [`Op`] again.
#[derive(Clone)]
pub(crate) struct InstDesc {
    pub pipe: PipeKind,
    pub mem: MemKind,
    /// FP32 FLOPs of the whole warp (per-lane FLOPs × 32).
    pub flops_x32: u64,
    /// Issue-to-next-issue stall from the control code, floored at 1 (a
    /// byte keeps the descriptor at 96 bytes).
    pub stall_cycles: u8,
    pub yield_flag: bool,
    pub reuse: u8,
    pub wait_mask: u8,
    pub write_bar: Option<u8>,
    pub read_bar: Option<u8>,
    /// PC inside the accounting region of this launch.
    pub in_region: bool,
    /// `(first dst reg, reg count)` of a load that participates in strict
    /// writeback (an `Op::Ld` with a real destination and a write barrier).
    pub strict_ld: Option<(u8, u8)>,
    /// What a timing run carries out of the instruction: [`Effects::All`]
    /// inside the module's timing slice ([`crate::slice`]). Op-derived, so a
    /// dependence-legal reorder (a schedule-tuner candidate) keeps it.
    pub effects: Effects,
    /// `Op::src_regs()` occurrences, in order (RZ already excluded).
    srcs: [(u8, Reg); MAX_SRCS],
    nsrcs: u8,
    /// First source occurrence per operand slot — what `.reuse` latches.
    pub reuse_latch: [Option<Reg>; 4],
    /// Register-bank conflicts of an FP32 op: bit `m` is set iff the op
    /// conflicts when exactly the operand slots in the 4-bit mask `m` are
    /// served by the reuse cache ([`conflict_table`]). Zero for every other
    /// pipe, and for an FP32 op that can never conflict.
    conflicts: u16,
}

/// The issue-to-next-issue stall of `inst`, floored at 1. The control
/// field is 4-bit, and the wave loop releases stalls on a 16-cycle wheel.
fn stall_cycles(inst: &Instruction) -> u8 {
    let stall = inst.ctrl.stall;
    assert!(
        stall < 16,
        "stall count {stall} exceeds the 4-bit control field"
    );
    stall.max(1)
}

fn pipe_of(op: &Op) -> PipeKind {
    match op {
        Op::Ffma { .. }
        | Op::Fadd { .. }
        | Op::Fmul { .. }
        | Op::Fsetp { .. }
        | Op::Hfma2 { .. }
        | Op::Hadd2 { .. }
        | Op::Hmul2 { .. } => PipeKind::Fp32,
        Op::Iadd3 { .. }
        | Op::Imad { .. }
        | Op::ImadHi { .. }
        | Op::ImadWide { .. }
        | Op::Lea { .. }
        | Op::Lop3 { .. }
        | Op::Shf { .. }
        | Op::Mov { .. }
        | Op::Sel { .. }
        | Op::Isetp { .. }
        | Op::P2r { .. }
        | Op::R2p { .. }
        | Op::S2r { .. } => PipeKind::Int,
        Op::Ld { .. } | Op::St { .. } => PipeKind::Mio,
        Op::Bra { .. } | Op::Exit | Op::BarSync => PipeKind::Ctrl,
        Op::Nop => PipeKind::None,
    }
}

/// FP32 FLOPs per lane for an op.
fn flops_of(op: &Op) -> u64 {
    match op {
        Op::Ffma { .. } => 2,
        Op::Fadd { .. } | Op::Fmul { .. } => 1,
        // Paired fp16 ops do two element-operations per lane (§8.3's 2×).
        Op::Hfma2 { .. } => 4,
        Op::Hadd2 { .. } | Op::Hmul2 { .. } => 2,
        _ => 0,
    }
}

impl InstDesc {
    pub fn decode(
        inst: &Instruction,
        pc: u32,
        region: Option<(u32, u32)>,
        effects: Effects,
    ) -> Self {
        let op = &inst.op;
        let occurrences = op.src_regs();
        assert!(
            occurrences.len() <= MAX_SRCS,
            "instruction has {} source occurrences (descriptor cap {MAX_SRCS})",
            occurrences.len()
        );
        let mut srcs = [(0u8, Reg(0)); MAX_SRCS];
        let mut reuse_latch = [None; 4];
        for (i, &(slot, r)) in occurrences.iter().enumerate() {
            srcs[i] = (slot, r);
            let latch = &mut reuse_latch[slot as usize];
            if latch.is_none() {
                *latch = Some(r);
            }
        }
        let pipe = pipe_of(op);
        let strict_ld = match *op {
            Op::Ld { d, width, .. } if !d.is_rz() && inst.ctrl.write_bar.is_some() => {
                Some((d.0, width.regs()))
            }
            _ => None,
        };
        let mem = match op {
            Op::Ld { space, .. } | Op::St { space, .. } => match space {
                MemSpace::Shared => MemKind::Shared,
                MemSpace::Global => MemKind::Global,
            },
            _ => MemKind::NotMem,
        };
        InstDesc {
            pipe,
            mem,
            flops_x32: flops_of(op) * 32,
            stall_cycles: stall_cycles(inst),
            yield_flag: inst.ctrl.yield_flag,
            reuse: inst.ctrl.reuse,
            wait_mask: inst.ctrl.wait_mask,
            write_bar: inst.ctrl.write_bar,
            read_bar: inst.ctrl.read_bar,
            in_region: region.is_none_or(|(a, b)| pc >= a && pc < b),
            strict_ld,
            effects,
            srcs,
            nsrcs: occurrences.len() as u8,
            reuse_latch,
            conflicts: if pipe == PipeKind::Fp32 {
                conflict_table(&occurrences)
            } else {
                0
            },
        }
    }

    /// Whether a timing run only advances the PC past this instruction: it
    /// is outside the timing slice, and neither a memory access (whose
    /// addresses the loop reads) nor control flow.
    #[inline]
    pub fn pc_only(&self) -> bool {
        self.effects == Effects::NoData && !matches!(self.pipe, PipeKind::Mio | PipeKind::Ctrl)
    }

    /// Source occurrences in `Op::src_regs()` order (RZ never appears).
    #[inline]
    pub fn srcs(&self) -> &[(u8, Reg)] {
        &self.srcs[..self.nsrcs as usize]
    }

    /// Refresh the control-code-derived fields from `inst` without redoing
    /// the operand analysis. This is the batch-evaluation fast path
    /// ([`crate::batch::BatchTimer`]): a schedule-tuner candidate differs
    /// from its baseline only in control codes and instruction order, so the
    /// expensive op-derived fields (pipe, FLOPs, source lists, conflict table)
    /// can be cloned from the baseline descriptor of the *same* instruction
    /// and only this part recomputed. `inst.op` must match the op this
    /// descriptor was decoded from.
    pub fn repatch_ctrl(&mut self, inst: &Instruction, pc: u32, region: Option<(u32, u32)>) {
        self.stall_cycles = stall_cycles(inst);
        self.yield_flag = inst.ctrl.yield_flag;
        self.reuse = inst.ctrl.reuse;
        self.wait_mask = inst.ctrl.wait_mask;
        self.write_bar = inst.ctrl.write_bar;
        self.read_bar = inst.ctrl.read_bar;
        self.in_region = region.is_none_or(|(a, b)| pc >= a && pc < b);
        self.strict_ld = match inst.op {
            Op::Ld { d, width, .. } if !d.is_rz() && inst.ctrl.write_bar.is_some() => {
                Some((d.0, width.regs()))
            }
            _ => None,
        };
    }

    /// Extra FP32-pipe cycle from a register-bank conflict of this FP32
    /// instruction, given the warp's reuse-cache state. A slot is covered
    /// when the cache holds the register this instruction names there, and
    /// the covered slots index the [`conflict_table`].
    #[inline]
    pub fn bank_conflict(&self, reuse_cache: &[Option<Reg>; 4]) -> bool {
        if self.conflicts == 0 {
            return false;
        }
        let mut covered = 0;
        for (sl, (&latch, &cached)) in self.reuse_latch.iter().zip(reuse_cache).enumerate() {
            if latch.is_some() && cached == latch {
                covered |= 1 << sl;
            }
        }
        self.conflicts >> covered & 1 != 0
    }
}

/// The register-bank conflict table of an FP32 op's source occurrences:
/// bit `m` is set iff the op conflicts when the reuse cache serves exactly
/// the operand slots in the 4-bit mask `m`.
///
/// Volta/Turing have two 64-bit banks (even/odd register index). Per the
/// paper's footnote 6, an FFMA whose three source registers all fall in
/// one bank occupies the pipe one extra cycle; operands served from the
/// reuse cache don't touch the bank. A register reads its bank iff *some*
/// slot naming it is not covered by the cache. An FP32 op names one
/// register per slot, so which slots are covered decides which registers
/// read their bank, and the table is exact. A mask that covers a slot with
/// no register cannot occur, and its bit stays clear.
fn conflict_table(occurrences: &[(u8, Reg)]) -> u16 {
    let present = occurrences.iter().fold(0u8, |m, &(slot, _)| m | 1 << slot);
    assert_eq!(
        present.count_ones() as usize,
        occurrences.len(),
        "an FP32 op names one register per operand slot"
    );
    let mut table = 0u16;
    for covered in 0..16u8 {
        if covered & !present != 0 {
            continue;
        }
        // Distinct banked registers by index parity, one bit per register
        // pair (`reg.0 >> 1`).
        let (mut even, mut odd) = (0u128, 0u128);
        for &(slot, r) in occurrences {
            if covered & 1 << slot == 0 {
                let bank = if r.0 & 1 == 0 { &mut even } else { &mut odd };
                *bank |= 1 << (r.0 >> 1);
            }
        }
        if even.count_ones() >= 3 || odd.count_ones() >= 3 {
            table |= 1 << covered;
        }
    }
    table
}

/// Build the descriptor table for a launch: one entry per PC.
pub(crate) fn decode_module(insts: &[Instruction], region: Option<(u32, u32)>) -> Vec<InstDesc> {
    insts
        .iter()
        .zip(timing_slice(insts))
        .enumerate()
        .map(|(pc, (inst, effects))| InstDesc::decode(inst, pc as u32, region, effects))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::assemble;

    /// The pre-descriptor implementation of the conflict test, kept as the
    /// reference the conflict table must match for every reuse state.
    fn reference_conflict(inst: &Instruction, reuse_cache: &[Option<Reg>; 4]) -> bool {
        let mut even = Vec::new();
        let mut odd = Vec::new();
        for (slot, r) in inst.op.src_regs() {
            if r.is_rz() {
                continue;
            }
            if reuse_cache[slot as usize] == Some(r) {
                continue;
            }
            let v = if r.0 & 1 == 0 { &mut even } else { &mut odd };
            if !v.contains(&r) {
                v.push(r);
            }
        }
        even.len() >= 3 || odd.len() >= 3
    }

    fn sample_module() -> sass::Module {
        assemble(
            r#"
.kernel mix
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:1  FFMA R4, R2, R4, R6;
    --:-:-:Y:1  FFMA R5, R2, R4.reuse, R7;
    --:-:-:Y:1  FFMA R6, R3, R5, R9;
    --:-:-:Y:1  FADD R8, R2, R4;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x10, R10;
    --:-:0:-:2  LDG.E.128 R4, [R2];
    --:-:-:Y:2  STG.E.128 [R2], R4;
    01:-:-:Y:4  IADD3 R12, R4, R5, R6;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap()
    }

    #[test]
    fn descriptor_matches_direct_computation() {
        // Every timing run and every schedule-tuner chain holds a table of
        // these, one per instruction.
        assert!(std::mem::size_of::<InstDesc>() <= 96);
        let m = sample_module();
        let table = decode_module(&m.insts, Some((3, 7)));
        for (pc, (inst, d)) in m.insts.iter().zip(&table).enumerate() {
            assert_eq!(d.flops_x32, flops_of(&inst.op) * 32, "pc {pc}");
            assert_eq!(d.stall_cycles, inst.ctrl.stall.max(1), "pc {pc}");
            assert_eq!(d.yield_flag, inst.ctrl.yield_flag, "pc {pc}");
            assert_eq!(d.wait_mask, inst.ctrl.wait_mask, "pc {pc}");
            assert_eq!(d.write_bar, inst.ctrl.write_bar, "pc {pc}");
            assert_eq!(d.read_bar, inst.ctrl.read_bar, "pc {pc}");
            assert_eq!(d.in_region, (3..7).contains(&(pc as u32)), "pc {pc}");
            assert_eq!(d.srcs(), inst.op.src_regs().as_slice(), "pc {pc}");
            for sl in 0..4u8 {
                let first = inst
                    .op
                    .src_regs()
                    .into_iter()
                    .find(|(s, _)| *s == sl)
                    .map(|(_, r)| r);
                assert_eq!(d.reuse_latch[sl as usize], first, "pc {pc} slot {sl}");
            }
        }
        // Pipe/mem classification spot checks.
        assert_eq!(table[0].pipe, PipeKind::Int); // S2R
        assert_eq!(table[3].pipe, PipeKind::Fp32); // FFMA
        assert_eq!(table[8].pipe, PipeKind::Mio); // LDG
        assert_eq!(table[8].mem, MemKind::Global);
        assert_eq!(table[11].pipe, PipeKind::Ctrl); // EXIT
                                                    // Strict-writeback eligibility: the LDG carries a write barrier and
                                                    // a real destination; the STG must not qualify.
        assert_eq!(table[8].strict_ld, Some((4, 4)));
        assert_eq!(table[9].strict_ld, None);
    }

    /// Check `d.bank_conflict` against the reference for every reuse-cache
    /// state over the registers `inst` names, `None` and an unrelated
    /// register, in all four slots.
    fn check_all_reuse_states(inst: &Instruction, d: &InstDesc, what: &str) {
        let mut regs: Vec<Option<Reg>> = vec![None, Some(Reg(99))];
        regs.extend(inst.op.src_regs().iter().map(|&(_, r)| Some(r)));
        for &a in &regs {
            for &b in &regs {
                for &c in &regs {
                    for &e in &regs {
                        let cache = [a, b, c, e];
                        assert_eq!(
                            d.bank_conflict(&cache),
                            reference_conflict(inst, &cache),
                            "{what} cache {cache:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bank_conflict_matches_reference_for_all_reuse_states() {
        // The conflict test is defined for the FP32 pipe, the only one that
        // charges it.
        let m = sample_module();
        let table = decode_module(&m.insts, None);
        for (pc, (inst, d)) in m.insts.iter().zip(&table).enumerate() {
            if d.pipe == PipeKind::Fp32 {
                check_all_reuse_states(inst, d, &format!("pc {pc}"));
            }
        }
        // Generated FP32 ops over small register pools, so that a register
        // repeated across slots and three same-parity sources are both
        // common: each instruction draws its registers from the even pool,
        // the odd pool or a mixed pool with RZ. 2,000 instructions, each
        // under every cache state above (up to 6^4 = 1,296).
        use sass::reg::RZ;
        const POOLS: [[Reg; 4]; 3] = [
            [Reg(0), Reg(2), Reg(4), Reg(6)],
            [Reg(1), Reg(3), Reg(5), Reg(7)],
            [Reg(0), Reg(1), Reg(2), RZ],
        ];
        let mut rng = tensor::XorShiftRng::new(0xC0F1_1C75);
        let (mut conflicting, mut repeated) = (0, 0);
        for case in 0..2_000 {
            let pool = POOLS[rng.gen_index(3)];
            let reg = |rng: &mut tensor::XorShiftRng| pool[rng.gen_index(4)];
            let (d, a, c) = (reg(&mut rng), reg(&mut rng), reg(&mut rng));
            // `B` is a register three times in four, else an immediate.
            let b = if rng.gen_index(4) == 0 {
                sass::isa::SrcB::Imm(0x3f80_0000)
            } else {
                sass::isa::SrcB::Reg(reg(&mut rng))
            };
            let op = match rng.gen_index(7) {
                0 | 1 => Op::Ffma {
                    d,
                    a,
                    b,
                    c,
                    neg_b: false,
                    neg_c: false,
                },
                2 => Op::Fadd {
                    d,
                    a,
                    neg_a: false,
                    b,
                    neg_b: false,
                },
                3 => Op::Fmul {
                    d,
                    a,
                    b,
                    neg_b: false,
                },
                4 => Op::Fsetp {
                    p: sass::reg::Pred(0),
                    cmp: sass::isa::CmpOp::Gt,
                    a,
                    b,
                    combine: sass::isa::PredSrc::pt(),
                },
                _ => Op::Hfma2 { d, a, b, c },
            };
            let inst = Instruction::new(op);
            let desc = InstDesc::decode(&inst, 0, None, Effects::NoData);
            assert_eq!(desc.pipe, PipeKind::Fp32);
            conflicting += usize::from(desc.bank_conflict(&[None; 4]));
            let srcs = inst.op.src_regs();
            repeated +=
                usize::from((1..srcs.len()).any(|i| srcs[..i].iter().any(|p| p.1 == srcs[i].1)));
            check_all_reuse_states(&inst, &desc, &format!("case {case} {op:?}"));
        }
        // The generator reaches both interesting shapes often.
        assert!(
            conflicting > 100 && repeated > 100,
            "{conflicting} {repeated}"
        );
    }

    /// Three distinct even sources conflict unless reuse covers one; an op
    /// with fewer than three sources per bank has an empty table, which
    /// skips the per-issue work.
    #[test]
    fn static_screen_and_masks() {
        let m = assemble(
            ".kernel t\n--:-:-:Y:1 FFMA R8, R2, R4, R6;\n--:-:-:Y:1 FADD R8, R2, R4;\nEXIT;\n",
        )
        .unwrap();
        let t = decode_module(&m.insts, None);
        // Slots 0–2 name R2, R4, R6: only the uncovered state conflicts.
        assert_eq!(t[0].conflicts, 0b1);
        assert!(t[0].bank_conflict(&[None; 4]));
        // Covering one even source by reuse removes the conflict.
        assert!(!t[0].bank_conflict(&[Some(Reg(2)), None, None, None]));
        // A latched register in a slot that names another one covers
        // nothing.
        assert!(t[0].bank_conflict(&[Some(Reg(4)), None, None, Some(Reg(6))]));
        assert_eq!(t[1].conflicts, 0);
        assert!(!t[1].bank_conflict(&[None; 4]));
        // Only FP32 ops carry a table.
        assert_eq!(t[2].conflicts, 0);
    }
}
