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
//! * register-bank parity **bitmasks** for the conflict test — the old
//!   `reg_bank_conflict` built two `Vec`s per FP32 issue; the descriptor
//!   knows statically whether a conflict is even possible (fewer than three
//!   distinct same-parity sources can never conflict, since the reuse cache
//!   only ever removes bank reads) and otherwise resolves it by clearing
//!   mask bits for reuse-covered registers.
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
    /// Distinct source registers by index parity, one bit per register pair
    /// (`reg.0 >> 1`). Two 64-bit banks ⇒ three distinct same-parity reads
    /// stall the FP32 pipe one extra cycle.
    even_mask: u128,
    odd_mask: u128,
    /// Distinct source registers with the slot-mask of where they appear.
    uniq: [(Reg, u8); MAX_SRCS],
    nuniq: u8,
    /// Static screen: with fewer than three distinct sources in either bank
    /// the access can never conflict, whatever the reuse cache holds.
    maybe_conflict: bool,
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
        let mut uniq: [(Reg, u8); MAX_SRCS] = [(Reg(0), 0); MAX_SRCS];
        let mut nuniq = 0usize;
        let (mut even_mask, mut odd_mask) = (0u128, 0u128);
        for (i, &(slot, r)) in occurrences.iter().enumerate() {
            srcs[i] = (slot, r);
            let latch = &mut reuse_latch[slot as usize];
            if latch.is_none() {
                *latch = Some(r);
            }
            match uniq[..nuniq].iter_mut().find(|(u, _)| *u == r) {
                Some((_, slots)) => *slots |= 1 << slot,
                None => {
                    uniq[nuniq] = (r, 1 << slot);
                    nuniq += 1;
                    let bit = 1u128 << (r.0 >> 1);
                    if r.0 & 1 == 0 {
                        even_mask |= bit;
                    } else {
                        odd_mask |= bit;
                    }
                }
            }
        }
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
            pipe: pipe_of(op),
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
            even_mask,
            odd_mask,
            uniq,
            nuniq: nuniq as u8,
            maybe_conflict: even_mask.count_ones() >= 3 || odd_mask.count_ones() >= 3,
        }
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
    /// expensive op-derived fields (pipe, FLOPs, source lists, bank masks)
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

    /// Extra FP32-pipe cycle from a register-bank conflict, given the warp's
    /// current reuse-cache state.
    ///
    /// Volta/Turing have two 64-bit banks (even/odd register index). Per the
    /// paper's footnote 6, an FFMA whose three source registers all fall in
    /// one bank occupies the pipe one extra cycle; operands served from the
    /// reuse cache don't touch the bank. A register reads its bank iff *some*
    /// slot naming it is not covered by the cache.
    #[inline]
    pub fn bank_conflict(&self, reuse_cache: &[Option<Reg>; 4]) -> bool {
        if !self.maybe_conflict {
            return false;
        }
        let (mut even, mut odd) = (self.even_mask, self.odd_mask);
        for &(r, slots) in &self.uniq[..self.nuniq as usize] {
            let mut banked = false;
            for sl in 0..4u8 {
                if slots & (1 << sl) != 0 && reuse_cache[sl as usize] != Some(r) {
                    banked = true;
                    break;
                }
            }
            if !banked {
                let bit = 1u128 << (r.0 >> 1);
                if r.0 & 1 == 0 {
                    even &= !bit;
                } else {
                    odd &= !bit;
                }
            }
        }
        even.count_ones() >= 3 || odd.count_ones() >= 3
    }
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
    /// reference the bitmask version must match for every reuse state.
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

    #[test]
    fn bank_conflict_matches_reference_for_all_reuse_states() {
        let m = sample_module();
        let table = decode_module(&m.insts, None);
        // Enumerate reuse-cache states over the registers each instruction
        // actually names (plus None and an unrelated register).
        for (pc, (inst, d)) in m.insts.iter().zip(&table).enumerate() {
            let mut regs: Vec<Option<Reg>> = vec![None, Some(Reg(99))];
            regs.extend(inst.op.src_regs().iter().map(|&(_, r)| Some(r)));
            for &a in &regs {
                for &b in &regs {
                    for &c in &regs {
                        let cache = [a, b, c, None];
                        assert_eq!(
                            d.bank_conflict(&cache),
                            reference_conflict(inst, &cache),
                            "pc {pc} cache {cache:?}"
                        );
                    }
                }
            }
        }
    }

    /// Three distinct even sources conflict; the static screen filters a
    /// two-source op before any per-issue work.
    #[test]
    fn static_screen_and_masks() {
        let m = assemble(
            ".kernel t\n--:-:-:Y:1 FFMA R8, R2, R4, R6;\n--:-:-:Y:1 FADD R8, R2, R4;\nEXIT;\n",
        )
        .unwrap();
        let t = decode_module(&m.insts, None);
        assert!(t[0].maybe_conflict);
        assert!(t[0].bank_conflict(&[None; 4]));
        // Covering one even source by reuse removes the conflict.
        assert!(!t[0].bank_conflict(&[Some(Reg(2)), None, None, None]));
        assert!(!t[1].maybe_conflict);
        assert!(!t[1].bank_conflict(&[None; 4]));
    }
}
