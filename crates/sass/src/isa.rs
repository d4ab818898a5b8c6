//! The instruction set.
//!
//! The subset implemented here is the "essential subset of instructions for
//! linear algebra routines" the paper's TuringAs targets (§5.3): float math,
//! integer address arithmetic, predicate manipulation (including the
//! `P2R`/`R2P` pair that motivates SASS programming in §3.5), memory access
//! at all widths, and control flow.

use crate::ctrl::Ctrl;
use crate::reg::{Pred, Reg, PT, RZ};

/// Guard predicate on an instruction: `@P0`, `@!P3`, or the implicit `@PT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredGuard {
    pub pred: Pred,
    pub neg: bool,
}

impl PredGuard {
    /// The always-true guard.
    pub fn always() -> Self {
        PredGuard {
            pred: PT,
            neg: false,
        }
    }

    /// Guard on `p`.
    pub fn on(p: Pred) -> Self {
        PredGuard {
            pred: p,
            neg: false,
        }
    }

    /// Guard on `!p`.
    pub fn on_not(p: Pred) -> Self {
        PredGuard { pred: p, neg: true }
    }

    /// True if this is the implicit `@PT` guard.
    pub fn is_always(&self) -> bool {
        self.pred.is_pt() && !self.neg
    }
}

/// A predicate used as a *source* operand (with optional negation),
/// e.g. the combine input of `ISETP` or the selector of `SEL`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredSrc {
    pub pred: Pred,
    pub neg: bool,
}

impl PredSrc {
    pub fn pt() -> Self {
        PredSrc {
            pred: PT,
            neg: false,
        }
    }
    pub fn of(p: Pred) -> Self {
        PredSrc {
            pred: p,
            neg: false,
        }
    }
}

/// The flexible "B" source operand: register, 32-bit immediate, or constant
/// memory `c[0x0][off]` (§5.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcB {
    Reg(Reg),
    /// Raw 32-bit immediate; for float instructions these are the IEEE-754
    /// bits of the value.
    Imm(u32),
    /// Byte offset into constant bank 0. Kernel parameters live at
    /// `0x160` onward, launch dimensions below (the real CUDA ABI layout).
    Const(u16),
}

impl SrcB {
    /// Float immediate helper.
    pub fn imm_f32(v: f32) -> Self {
        SrcB::Imm(v.to_bits())
    }
}

/// Memory access width in bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemWidth {
    B32,
    B64,
    B128,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B32 => 4,
            MemWidth::B64 => 8,
            MemWidth::B128 => 16,
        }
    }

    /// Number of consecutive 32-bit registers moved.
    pub fn regs(self) -> u8 {
        (self.bytes() / 4) as u8
    }
}

/// Address space of a memory instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSpace {
    /// Global memory; base register is a 64-bit pair (`LDG.E`).
    Global,
    /// Shared memory; base register is a 32-bit byte offset.
    Shared,
}

/// Memory operand `[Rb + offset]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Addr {
    /// Base register (pair for global). `RZ` means absolute `offset`.
    pub base: Reg,
    /// Signed byte offset, 24-bit range.
    pub offset: i32,
}

impl Addr {
    pub fn new(base: Reg, offset: i32) -> Self {
        assert!(
            (-(1 << 23)..(1 << 23)).contains(&offset),
            "memory offset {offset} out of 24-bit range"
        );
        Addr { base, offset }
    }
}

/// Special registers readable via `S2R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecialReg {
    TidX,
    TidY,
    TidZ,
    CtaidX,
    CtaidY,
    CtaidZ,
    LaneId,
    /// Warp index within the thread block (`tid / 32` for 1-D blocks).
    WarpId,
}

impl SpecialReg {
    pub const ALL: [SpecialReg; 8] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::TidZ,
        SpecialReg::CtaidX,
        SpecialReg::CtaidY,
        SpecialReg::CtaidZ,
        SpecialReg::LaneId,
        SpecialReg::WarpId,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "SR_TID.X",
            SpecialReg::TidY => "SR_TID.Y",
            SpecialReg::TidZ => "SR_TID.Z",
            SpecialReg::CtaidX => "SR_CTAID.X",
            SpecialReg::CtaidY => "SR_CTAID.Y",
            SpecialReg::CtaidZ => "SR_CTAID.Z",
            SpecialReg::LaneId => "SR_LANEID",
            SpecialReg::WarpId => "SR_WARPID",
        }
    }
}

/// Comparison operators for `ISETP`/`FSETP`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
        }
    }
}

/// One operation with its typed operands.
///
/// Operand-slot convention for reuse flags and bank-conflict analysis:
/// slot 0 = `a`, slot 1 = `b`, slot 2 = `c`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `FFMA Rd, Ra, B, Rc` — `d = a*b + c` (fp32).
    Ffma {
        d: Reg,
        a: Reg,
        b: SrcB,
        c: Reg,
        neg_b: bool,
        neg_c: bool,
    },
    /// `FADD Rd, Ra, B` — `d = ±a ± b`.
    Fadd {
        d: Reg,
        a: Reg,
        neg_a: bool,
        b: SrcB,
        neg_b: bool,
    },
    /// `FMUL Rd, Ra, B`.
    Fmul {
        d: Reg,
        a: Reg,
        b: SrcB,
        neg_b: bool,
    },
    /// `HFMA2 Rd, Ra, B, Rc` — paired fp16: `d.{lo,hi} = a.{lo,hi} ×
    /// b.{lo,hi} + c.{lo,hi}` (§8.3's fp16 port doubles throughput).
    Hfma2 { d: Reg, a: Reg, b: SrcB, c: Reg },
    /// `HADD2 Rd, ±Ra, ±B` — paired fp16 add.
    Hadd2 {
        d: Reg,
        a: Reg,
        neg_a: bool,
        b: SrcB,
        neg_b: bool,
    },
    /// `HMUL2 Rd, Ra, B` — paired fp16 multiply.
    Hmul2 { d: Reg, a: Reg, b: SrcB },
    /// `FSETP.cmp.AND Pd, PT, Ra, B, Pc`.
    Fsetp {
        p: Pred,
        cmp: CmpOp,
        a: Reg,
        b: SrcB,
        combine: PredSrc,
    },
    /// `IADD3 Rd, ±Ra, ±B, ±Rc`.
    Iadd3 {
        d: Reg,
        a: Reg,
        neg_a: bool,
        b: SrcB,
        neg_b: bool,
        c: Reg,
        neg_c: bool,
    },
    /// `IMAD Rd, Ra, B, Rc` — low 32 bits of `a*b + c`.
    Imad { d: Reg, a: Reg, b: SrcB, c: Reg },
    /// `IMAD.HI.U32 Rd, Ra, B, Rc` — `((a*b) >> 32) + c` (unsigned).
    ImadHi { d: Reg, a: Reg, b: SrcB, c: Reg },
    /// `IMAD.WIDE.U32 Rd, Ra, B, Rc` — 64-bit `a*b + (Rc,Rc+1)` into the
    /// register pair `(Rd, Rd+1)`. The standard Volta addressing idiom.
    ImadWide { d: Reg, a: Reg, b: SrcB, c: Reg },
    /// `LEA Rd, Ra, B, shift` — `d = b + (a << shift)`.
    Lea { d: Reg, a: Reg, b: SrcB, shift: u8 },
    /// `LOP3.LUT Rd, Ra, B, Rc, lut` — bitwise 3-input LUT.
    Lop3 {
        d: Reg,
        a: Reg,
        b: SrcB,
        c: Reg,
        lut: u8,
    },
    /// `SHF.{L,R}[.U32] Rd, Rlo, B, Rhi` — funnel shift, or plain 32-bit
    /// shift of `Rlo` when `u32_mode` (the common `SHF.L.U32 Rd, Ra, n, RZ`).
    Shf {
        d: Reg,
        lo: Reg,
        shift: SrcB,
        hi: Reg,
        right: bool,
        u32_mode: bool,
    },
    /// `MOV Rd, B`.
    Mov { d: Reg, b: SrcB },
    /// `SEL Rd, Ra, B, Pc` — `d = p ? a : b`.
    Sel { d: Reg, a: Reg, b: SrcB, p: PredSrc },
    /// `ISETP.cmp[.U32].AND Pd, PT, Ra, B, Pc`.
    Isetp {
        p: Pred,
        cmp: CmpOp,
        u32: bool,
        a: Reg,
        b: SrcB,
        combine: PredSrc,
    },
    /// `P2R Rd, PR, Ra, mask` — pack predicate file bits into a register:
    /// `d = (a & !mask) | (pred_bits & mask)` (§3.5).
    P2r { d: Reg, a: Reg, mask: u32 },
    /// `R2P PR, Ra, mask` — unpack register bits into predicate registers
    /// selected by `mask`.
    R2p { a: Reg, mask: u32 },
    /// `S2R Rd, SR_*`.
    S2r { d: Reg, sr: SpecialReg },
    /// `LDG.E.width Rd, [Ra(+off)]` / `LDS.width Rd, [Ra(+off)]`.
    Ld {
        space: MemSpace,
        width: MemWidth,
        d: Reg,
        addr: Addr,
    },
    /// `STG.E.width [Ra(+off)], Rs` / `STS.width [Ra(+off)], Rs`.
    St {
        space: MemSpace,
        width: MemWidth,
        addr: Addr,
        src: Reg,
    },
    /// `BAR.SYNC 0` — block-wide barrier.
    BarSync,
    /// `BRA target` — branch to absolute instruction index `target`.
    Bra { target: u32 },
    /// `EXIT` — thread termination.
    Exit,
    /// `NOP`.
    Nop,
}

impl Op {
    /// Destination register range written by this op, as (first, count).
    pub fn dst_regs(&self) -> Option<(Reg, u8)> {
        match *self {
            Op::Ffma { d, .. }
            | Op::Fadd { d, .. }
            | Op::Fmul { d, .. }
            | Op::Hfma2 { d, .. }
            | Op::Hadd2 { d, .. }
            | Op::Hmul2 { d, .. }
            | Op::Iadd3 { d, .. }
            | Op::Imad { d, .. }
            | Op::ImadHi { d, .. }
            | Op::Lea { d, .. }
            | Op::Lop3 { d, .. }
            | Op::Shf { d, .. }
            | Op::Mov { d, .. }
            | Op::Sel { d, .. }
            | Op::P2r { d, .. }
            | Op::S2r { d, .. } => Some((d, 1)),
            Op::ImadWide { d, .. } => Some((d, 2)),
            Op::Ld { d, width, .. } => Some((d, width.regs())),
            _ => None,
        }
    }

    /// Source registers in operand-slot order (slot, reg), for bank-conflict
    /// and scoreboard analysis. Only *register-file* reads are listed.
    pub fn src_regs(&self) -> Vec<(u8, Reg)> {
        let mut v = Vec::new();
        let mut push = |slot: u8, r: Reg| {
            if !r.is_rz() {
                v.push((slot, r));
            }
        };
        match *self {
            Op::Ffma { a, b, c, .. } | Op::Hfma2 { a, b, c, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
                push(2, c);
            }
            Op::Fadd { a, b, .. }
            | Op::Fmul { a, b, .. }
            | Op::Fsetp { a, b, .. }
            | Op::Hadd2 { a, b, .. }
            | Op::Hmul2 { a, b, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
            }
            Op::Iadd3 { a, b, c, .. }
            | Op::Imad { a, b, c, .. }
            | Op::ImadHi { a, b, c, .. }
            | Op::Lop3 { a, b, c, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
                push(2, c);
            }
            Op::ImadWide { a, b, c, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
                push(2, c);
                push(2, c.offset(1));
            }
            Op::Lea { a, b, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
            }
            Op::Shf { lo, shift, hi, .. } => {
                push(0, lo);
                if let SrcB::Reg(r) = shift {
                    push(1, r);
                }
                push(2, hi);
            }
            Op::Mov {
                b: SrcB::Reg(r), ..
            } => push(1, r),
            Op::Mov { .. } => {}
            Op::Sel { a, b, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
            }
            Op::Isetp { a, b, .. } => {
                push(0, a);
                if let SrcB::Reg(r) = b {
                    push(1, r);
                }
            }
            Op::P2r { a, .. } => push(0, a),
            Op::R2p { a, .. } => push(0, a),
            Op::Ld { addr, space, .. } => {
                push(0, addr.base);
                if space == MemSpace::Global {
                    push(0, addr.base.offset(1));
                }
            }
            Op::St {
                addr,
                src,
                width,
                space,
            } => {
                push(0, addr.base);
                if space == MemSpace::Global {
                    push(0, addr.base.offset(1));
                }
                for i in 0..width.regs() {
                    push(2, src.offset(i));
                }
            }
            _ => {}
        }
        v
    }

    /// Mnemonic for display and encoding dispatch.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Ffma { .. } => "FFMA",
            Op::Fadd { .. } => "FADD",
            Op::Fmul { .. } => "FMUL",
            Op::Hfma2 { .. } => "HFMA2",
            Op::Hadd2 { .. } => "HADD2",
            Op::Hmul2 { .. } => "HMUL2",
            Op::Fsetp { .. } => "FSETP",
            Op::Iadd3 { .. } => "IADD3",
            Op::Imad { .. } => "IMAD",
            Op::ImadHi { .. } => "IMAD.HI.U32",
            Op::ImadWide { .. } => "IMAD.WIDE.U32",
            Op::Lea { .. } => "LEA",
            Op::Lop3 { .. } => "LOP3.LUT",
            Op::Shf { .. } => "SHF",
            Op::Mov { .. } => "MOV",
            Op::Sel { .. } => "SEL",
            Op::Isetp { .. } => "ISETP",
            Op::P2r { .. } => "P2R",
            Op::R2p { .. } => "R2P",
            Op::S2r { .. } => "S2R",
            Op::Ld {
                space: MemSpace::Global,
                ..
            } => "LDG",
            Op::Ld {
                space: MemSpace::Shared,
                ..
            } => "LDS",
            Op::St {
                space: MemSpace::Global,
                ..
            } => "STG",
            Op::St {
                space: MemSpace::Shared,
                ..
            } => "STS",
            Op::BarSync => "BAR.SYNC",
            Op::Bra { .. } => "BRA",
            Op::Exit => "EXIT",
            Op::Nop => "NOP",
        }
    }
}

/// A complete instruction: guard, operation, scheduling control.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instruction {
    pub guard: PredGuard,
    pub op: Op,
    pub ctrl: Ctrl,
}

impl Instruction {
    /// Unguarded instruction with default control.
    pub fn new(op: Op) -> Self {
        Instruction {
            guard: PredGuard::always(),
            op,
            ctrl: Ctrl::new(),
        }
    }

    /// Builder: attach control.
    pub fn with_ctrl(mut self, ctrl: Ctrl) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// Builder: attach a guard predicate.
    pub fn with_guard(mut self, guard: PredGuard) -> Self {
        self.guard = guard;
        self
    }
}

impl Eq for Instruction {}

/// Convenience constructors used heavily by the kernel emitters.
pub mod build {
    use super::*;

    pub fn ffma(d: Reg, a: Reg, b: impl Into<SrcB>, c: Reg) -> Op {
        Op::Ffma {
            d,
            a,
            b: b.into(),
            c,
            neg_b: false,
            neg_c: false,
        }
    }
    pub fn fadd(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Fadd {
            d,
            a,
            neg_a: false,
            b: b.into(),
            neg_b: false,
        }
    }
    pub fn fsub(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Fadd {
            d,
            a,
            neg_a: false,
            b: b.into(),
            neg_b: true,
        }
    }
    pub fn fmul(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Fmul {
            d,
            a,
            b: b.into(),
            neg_b: false,
        }
    }
    pub fn hfma2(d: Reg, a: Reg, b: impl Into<SrcB>, c: Reg) -> Op {
        Op::Hfma2 {
            d,
            a,
            b: b.into(),
            c,
        }
    }
    pub fn hadd2(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Hadd2 {
            d,
            a,
            neg_a: false,
            b: b.into(),
            neg_b: false,
        }
    }
    pub fn hsub2(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Hadd2 {
            d,
            a,
            neg_a: false,
            b: b.into(),
            neg_b: true,
        }
    }
    pub fn iadd3(d: Reg, a: Reg, b: impl Into<SrcB>, c: Reg) -> Op {
        Op::Iadd3 {
            d,
            a,
            neg_a: false,
            b: b.into(),
            neg_b: false,
            c,
            neg_c: false,
        }
    }
    pub fn imad(d: Reg, a: Reg, b: impl Into<SrcB>, c: Reg) -> Op {
        Op::Imad {
            d,
            a,
            b: b.into(),
            c,
        }
    }
    pub fn imad_wide(d: Reg, a: Reg, b: impl Into<SrcB>, c: Reg) -> Op {
        Op::ImadWide {
            d,
            a,
            b: b.into(),
            c,
        }
    }
    pub fn lea(d: Reg, a: Reg, b: impl Into<SrcB>, shift: u8) -> Op {
        Op::Lea {
            d,
            a,
            b: b.into(),
            shift,
        }
    }
    pub fn mov(d: Reg, b: impl Into<SrcB>) -> Op {
        Op::Mov { d, b: b.into() }
    }
    pub fn shl(d: Reg, a: Reg, n: u8) -> Op {
        Op::Shf {
            d,
            lo: a,
            shift: SrcB::Imm(n as u32),
            hi: RZ,
            right: false,
            u32_mode: true,
        }
    }
    pub fn shr(d: Reg, a: Reg, n: u8) -> Op {
        Op::Shf {
            d,
            lo: a,
            shift: SrcB::Imm(n as u32),
            hi: RZ,
            right: true,
            u32_mode: true,
        }
    }
    pub fn and(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        // LOP3 LUT for a & b: 0xc0.
        Op::Lop3 {
            d,
            a,
            b: b.into(),
            c: RZ,
            lut: 0xc0,
        }
    }
    pub fn or(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        // LOP3 LUT for a | b: 0xfc.
        Op::Lop3 {
            d,
            a,
            b: b.into(),
            c: RZ,
            lut: 0xfc,
        }
    }
    pub fn xor(d: Reg, a: Reg, b: impl Into<SrcB>) -> Op {
        // LOP3 LUT for a ^ b: 0x3c.
        Op::Lop3 {
            d,
            a,
            b: b.into(),
            c: RZ,
            lut: 0x3c,
        }
    }
    pub fn isetp(p: Pred, cmp: CmpOp, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Isetp {
            p,
            cmp,
            u32: false,
            a,
            b: b.into(),
            combine: PredSrc::pt(),
        }
    }
    pub fn isetp_u32(p: Pred, cmp: CmpOp, a: Reg, b: impl Into<SrcB>) -> Op {
        Op::Isetp {
            p,
            cmp,
            u32: true,
            a,
            b: b.into(),
            combine: PredSrc::pt(),
        }
    }
    pub fn s2r(d: Reg, sr: SpecialReg) -> Op {
        Op::S2r { d, sr }
    }
    pub fn ldg(width: MemWidth, d: Reg, base: Reg, offset: i32) -> Op {
        Op::Ld {
            space: MemSpace::Global,
            width,
            d,
            addr: Addr::new(base, offset),
        }
    }
    pub fn stg(width: MemWidth, base: Reg, offset: i32, src: Reg) -> Op {
        Op::St {
            space: MemSpace::Global,
            width,
            addr: Addr::new(base, offset),
            src,
        }
    }
    pub fn lds(width: MemWidth, d: Reg, base: Reg, offset: i32) -> Op {
        Op::Ld {
            space: MemSpace::Shared,
            width,
            d,
            addr: Addr::new(base, offset),
        }
    }
    pub fn sts(width: MemWidth, base: Reg, offset: i32, src: Reg) -> Op {
        Op::St {
            space: MemSpace::Shared,
            width,
            addr: Addr::new(base, offset),
            src,
        }
    }
}

impl From<Reg> for SrcB {
    fn from(r: Reg) -> Self {
        SrcB::Reg(r)
    }
}

impl From<u32> for SrcB {
    fn from(v: u32) -> Self {
        SrcB::Imm(v)
    }
}

impl From<i32> for SrcB {
    fn from(v: i32) -> Self {
        SrcB::Imm(v as u32)
    }
}

impl From<f32> for SrcB {
    fn from(v: f32) -> Self {
        SrcB::Imm(v.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::reg::PT;

    #[test]
    fn dst_regs_cover_widths() {
        let i = ldg(MemWidth::B128, Reg(4), Reg(2), 0);
        assert_eq!(i.dst_regs(), Some((Reg(4), 4)));
        let i = imad_wide(Reg(2), Reg(0), 4u32, Reg(10));
        assert_eq!(i.dst_regs(), Some((Reg(2), 2)));
        assert_eq!(Op::Exit.dst_regs(), None);
    }

    #[test]
    fn src_regs_skip_rz_and_imm() {
        let i = ffma(Reg(0), Reg(1), SrcB::imm_f32(2.0), RZ);
        assert_eq!(i.src_regs(), vec![(0, Reg(1))]);
        let i = ffma(Reg(0), Reg(1), Reg(2), Reg(3));
        assert_eq!(i.src_regs(), vec![(0, Reg(1)), (1, Reg(2)), (2, Reg(3))]);
    }

    #[test]
    fn store_reads_data_regs() {
        let i = stg(MemWidth::B128, Reg(2), 16, Reg(8));
        let srcs = i.src_regs();
        // base pair + 4 data regs
        assert_eq!(srcs.len(), 6);
        assert!(srcs.contains(&(2, Reg(11))));
    }

    #[test]
    fn guard_constructors() {
        assert!(PredGuard::always().is_always());
        assert!(!PredGuard::on(Pred(0)).is_always());
        assert!(!PredGuard::on_not(PT).is_always());
    }

    #[test]
    #[should_panic(expected = "24-bit range")]
    fn addr_offset_range_checked() {
        let _ = Addr::new(Reg(0), 1 << 23);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(lds(MemWidth::B128, Reg(0), Reg(1), 0).mnemonic(), "LDS");
        assert_eq!(sts(MemWidth::B32, Reg(1), 0, Reg(0)).mnemonic(), "STS");
        assert_eq!(Op::BarSync.mnemonic(), "BAR.SYNC");
    }
}
