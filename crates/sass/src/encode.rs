//! 128-bit binary encode/decode.
//!
//! The field layout follows the paper's Figure 6 structure:
//!
//! ```text
//! [ 11:  0] opcode (12 bits — §5.1.1)
//! [ 15: 12] guard predicate (3-bit index, 1 negate bit)
//! [ 23: 16] destination register rd
//! [ 31: 24] source register rs0
//! [ 63: 32] immediate / constant offset / rs1 (operand-B area)
//! [ 71: 64] source register rs2
//! [ 79: 72] predicate operand fields
//! [104: 80] flags ("funct") bits
//! [108:105] stall count        ┐
//! [109]     yield flag         │
//! [112:110] write barrier      │ control code (§5.1.4)
//! [115:113] read barrier       │
//! [121:116] wait barrier mask  │
//! [125:122] reuse flags        ┘
//! ```
//!
//! Opcode values for the instructions the paper documents (`FFMA` = 0x223,
//! `FADD` = 0x221, `LDG` = 0x381, `LDS` = 0x984) match the paper; the rest
//! are our own assignments in the same 12-bit space.
//!
//! One deliberate simplification: `BRA` targets are stored as *absolute*
//! instruction indices rather than byte-relative displacements, which keeps
//! modules trivially relocatable inside the simulator.

use crate::ctrl::Ctrl;
use crate::isa::*;
use crate::reg::{Pred, Reg};

// ---- opcode table -----------------------------------------------------------

pub(crate) const OP_FFMA: u16 = 0x223;
pub(crate) const OP_FADD: u16 = 0x221;
pub(crate) const OP_FMUL: u16 = 0x220;
pub(crate) const OP_HFMA2: u16 = 0x231;
pub(crate) const OP_HADD2: u16 = 0x230;
pub(crate) const OP_HMUL2: u16 = 0x232;
pub(crate) const OP_FSETP: u16 = 0x22b;
pub(crate) const OP_IADD3: u16 = 0x210;
pub(crate) const OP_IMAD: u16 = 0x224;
pub(crate) const OP_IMAD_HI: u16 = 0x227;
pub(crate) const OP_IMAD_WIDE: u16 = 0x225;
pub(crate) const OP_LEA: u16 = 0x211;
pub(crate) const OP_LOP3: u16 = 0x212;
pub(crate) const OP_SHF: u16 = 0x219;
pub(crate) const OP_MOV: u16 = 0x202;
pub(crate) const OP_SEL: u16 = 0x207;
pub(crate) const OP_ISETP: u16 = 0x20c;
pub(crate) const OP_P2R: u16 = 0x803;
pub(crate) const OP_R2P: u16 = 0x804;
pub(crate) const OP_S2R: u16 = 0x919;
pub(crate) const OP_LDG: u16 = 0x381;
pub(crate) const OP_STG: u16 = 0x386;
pub(crate) const OP_LDS: u16 = 0x984;
pub(crate) const OP_STS: u16 = 0x388;
pub(crate) const OP_BAR: u16 = 0xb1d;
pub(crate) const OP_BRA: u16 = 0x947;
pub(crate) const OP_EXIT: u16 = 0x94d;
pub(crate) const OP_NOP: u16 = 0x918;

// ---- bitfield helpers -------------------------------------------------------

#[inline]
fn put(w: &mut u128, lo: u32, len: u32, val: u128) {
    debug_assert!(len == 128 || val < (1u128 << len), "field overflow");
    *w |= val << lo;
}

#[inline]
fn get(w: u128, lo: u32, len: u32) -> u128 {
    (w >> lo) & ((1u128 << len) - 1)
}

/// Errors produced by [`decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown 12-bit opcode.
    UnknownOpcode(u16),
    /// A field held an out-of-range value (e.g. bad width code).
    BadField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#05x}"),
            DecodeError::BadField(name) => write!(f, "bad field: {name}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---- operand-B sub-encoding --------------------------------------------------

const BKIND_REG: u128 = 0;
const BKIND_IMM: u128 = 1;
const BKIND_CONST: u128 = 2;

fn put_srcb(w: &mut u128, b: SrcB) {
    match b {
        SrcB::Reg(r) => {
            put(w, 80, 2, BKIND_REG);
            put(w, 32, 8, r.0 as u128);
        }
        SrcB::Imm(v) => {
            put(w, 80, 2, BKIND_IMM);
            put(w, 32, 32, v as u128);
        }
        SrcB::Const(off) => {
            put(w, 80, 2, BKIND_CONST);
            put(w, 32, 16, off as u128);
        }
    }
}

fn get_srcb(w: u128) -> Result<SrcB, DecodeError> {
    match get(w, 80, 2) {
        BKIND_REG => Ok(SrcB::Reg(Reg(get(w, 32, 8) as u8))),
        BKIND_IMM => Ok(SrcB::Imm(get(w, 32, 32) as u32)),
        BKIND_CONST => Ok(SrcB::Const(get(w, 32, 16) as u16)),
        _ => Err(DecodeError::BadField("operand-B kind")),
    }
}

fn put_cmp(w: &mut u128, cmp: CmpOp) {
    let v = match cmp {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Gt => 2,
        CmpOp::Ge => 3,
        CmpOp::Eq => 4,
        CmpOp::Ne => 5,
    };
    put(w, 84, 3, v);
}

fn get_cmp(w: u128) -> Result<CmpOp, DecodeError> {
    Ok(match get(w, 84, 3) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        3 => CmpOp::Ge,
        4 => CmpOp::Eq,
        5 => CmpOp::Ne,
        _ => return Err(DecodeError::BadField("cmp op")),
    })
}

fn put_width(w: &mut u128, width: MemWidth) {
    let v = match width {
        MemWidth::B32 => 0,
        MemWidth::B64 => 1,
        MemWidth::B128 => 2,
    };
    put(w, 85, 2, v);
}

fn get_width(w: u128) -> Result<MemWidth, DecodeError> {
    Ok(match get(w, 85, 2) {
        0 => MemWidth::B32,
        1 => MemWidth::B64,
        2 => MemWidth::B128,
        _ => return Err(DecodeError::BadField("memory width")),
    })
}

fn put_pred_ops(w: &mut u128, dst: Pred, src: PredSrc) {
    put(w, 72, 3, dst.0 as u128);
    put(w, 75, 3, src.pred.0 as u128);
    put(w, 78, 1, src.neg as u128);
}

fn get_pred_ops(w: u128) -> (Pred, PredSrc) {
    (
        Pred(get(w, 72, 3) as u8),
        PredSrc {
            pred: Pred(get(w, 75, 3) as u8),
            neg: get(w, 78, 1) != 0,
        },
    )
}

fn put_mem(w: &mut u128, width: MemWidth, addr: Addr) {
    put_width(w, width);
    put(w, 24, 8, addr.base.0 as u128);
    put(w, 32, 24, (addr.offset & 0x00ff_ffff) as u128);
}

fn get_mem(w: u128) -> Result<(MemWidth, Addr), DecodeError> {
    let width = get_width(w)?;
    let base = Reg(get(w, 24, 8) as u8);
    let raw = get(w, 32, 24) as i32;
    let offset = (raw << 8) >> 8; // sign-extend 24-bit
    Ok((width, Addr { base, offset }))
}

// ---- instruction encode ------------------------------------------------------

/// Encode one instruction into a 128-bit word.
pub fn encode(inst: &Instruction) -> u128 {
    let mut w: u128 = 0;
    // Guard.
    put(&mut w, 12, 3, inst.guard.pred.0 as u128);
    put(&mut w, 15, 1, inst.guard.neg as u128);
    // Control code.
    let c = &inst.ctrl;
    put(&mut w, 105, 4, c.stall as u128);
    put(&mut w, 109, 1, c.yield_flag as u128);
    put(&mut w, 110, 3, c.write_bar.map_or(7, |b| b) as u128);
    put(&mut w, 113, 3, c.read_bar.map_or(7, |b| b) as u128);
    put(&mut w, 116, 6, c.wait_mask as u128);
    put(&mut w, 122, 4, c.reuse as u128);

    let opc = |w: &mut u128, v: u16| put(w, 0, 12, v as u128);
    let rd = |w: &mut u128, r: Reg| put(w, 16, 8, r.0 as u128);
    let rs0 = |w: &mut u128, r: Reg| put(w, 24, 8, r.0 as u128);
    let rs2 = |w: &mut u128, r: Reg| put(w, 64, 8, r.0 as u128);

    match inst.op {
        Op::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => {
            opc(&mut w, OP_FFMA);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
            put(&mut w, 82, 1, neg_b as u128);
            put(&mut w, 83, 1, neg_c as u128);
        }
        Op::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            opc(&mut w, OP_FADD);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put(&mut w, 82, 1, neg_a as u128);
            put(&mut w, 83, 1, neg_b as u128);
        }
        Op::Fmul { d, a, b, neg_b } => {
            opc(&mut w, OP_FMUL);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put(&mut w, 83, 1, neg_b as u128);
        }
        Op::Hfma2 { d, a, b, c } => {
            opc(&mut w, OP_HFMA2);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
        }
        Op::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            opc(&mut w, OP_HADD2);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put(&mut w, 82, 1, neg_a as u128);
            put(&mut w, 83, 1, neg_b as u128);
        }
        Op::Hmul2 { d, a, b } => {
            opc(&mut w, OP_HMUL2);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
        }
        Op::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => {
            opc(&mut w, OP_FSETP);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put_cmp(&mut w, cmp);
            put_pred_ops(&mut w, p, combine);
        }
        Op::Iadd3 {
            d,
            a,
            neg_a,
            b,
            neg_b,
            c,
            neg_c,
        } => {
            opc(&mut w, OP_IADD3);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
            put(&mut w, 82, 1, neg_a as u128);
            put(&mut w, 83, 1, neg_b as u128);
            put(&mut w, 84, 1, neg_c as u128);
        }
        Op::Imad { d, a, b, c } => {
            opc(&mut w, OP_IMAD);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
        }
        Op::ImadHi { d, a, b, c } => {
            opc(&mut w, OP_IMAD_HI);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
        }
        Op::ImadWide { d, a, b, c } => {
            opc(&mut w, OP_IMAD_WIDE);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
        }
        Op::Lea { d, a, b, shift } => {
            opc(&mut w, OP_LEA);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put(&mut w, 87, 5, shift as u128);
        }
        Op::Lop3 { d, a, b, c, lut } => {
            opc(&mut w, OP_LOP3);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            rs2(&mut w, c);
            put(&mut w, 92, 8, lut as u128);
        }
        Op::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => {
            opc(&mut w, OP_SHF);
            rd(&mut w, d);
            rs0(&mut w, lo);
            put_srcb(&mut w, shift);
            rs2(&mut w, hi);
            put(&mut w, 82, 1, right as u128);
            put(&mut w, 83, 1, u32_mode as u128);
        }
        Op::Mov { d, b } => {
            opc(&mut w, OP_MOV);
            rd(&mut w, d);
            put_srcb(&mut w, b);
        }
        Op::Sel { d, a, b, p } => {
            opc(&mut w, OP_SEL);
            rd(&mut w, d);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put_pred_ops(&mut w, Pred(0), p);
        }
        Op::Isetp {
            p,
            cmp,
            u32,
            a,
            b,
            combine,
        } => {
            opc(&mut w, OP_ISETP);
            rs0(&mut w, a);
            put_srcb(&mut w, b);
            put_cmp(&mut w, cmp);
            put(&mut w, 90, 1, u32 as u128);
            put_pred_ops(&mut w, p, combine);
        }
        Op::P2r { d, a, mask } => {
            opc(&mut w, OP_P2R);
            rd(&mut w, d);
            rs0(&mut w, a);
            put(&mut w, 32, 32, mask as u128);
        }
        Op::R2p { a, mask } => {
            opc(&mut w, OP_R2P);
            rs0(&mut w, a);
            put(&mut w, 32, 32, mask as u128);
        }
        Op::S2r { d, sr } => {
            opc(&mut w, OP_S2R);
            rd(&mut w, d);
            let idx = SpecialReg::ALL.iter().position(|&s| s == sr).unwrap() as u128;
            put(&mut w, 32, 4, idx);
        }
        Op::Ld {
            space,
            width,
            d,
            addr,
        } => {
            opc(
                &mut w,
                if space == MemSpace::Global {
                    OP_LDG
                } else {
                    OP_LDS
                },
            );
            rd(&mut w, d);
            put_mem(&mut w, width, addr);
        }
        Op::St {
            space,
            width,
            addr,
            src,
        } => {
            opc(
                &mut w,
                if space == MemSpace::Global {
                    OP_STG
                } else {
                    OP_STS
                },
            );
            rd(&mut w, src);
            put_mem(&mut w, width, addr);
        }
        Op::BarSync => opc(&mut w, OP_BAR),
        Op::Bra { target } => {
            opc(&mut w, OP_BRA);
            put(&mut w, 32, 32, target as u128);
        }
        Op::Exit => opc(&mut w, OP_EXIT),
        Op::Nop => opc(&mut w, OP_NOP),
    }
    w
}

/// Decode a 128-bit word back into an [`Instruction`].
pub fn decode(w: u128) -> Result<Instruction, DecodeError> {
    let guard = PredGuard {
        pred: Pred(get(w, 12, 3) as u8),
        neg: get(w, 15, 1) != 0,
    };
    let bar = |v: u128| if v == 7 { None } else { Some(v as u8) };
    let ctrl = Ctrl {
        stall: get(w, 105, 4) as u8,
        yield_flag: get(w, 109, 1) != 0,
        write_bar: bar(get(w, 110, 3)),
        read_bar: bar(get(w, 113, 3)),
        wait_mask: get(w, 116, 6) as u8,
        reuse: get(w, 122, 4) as u8,
    };

    let opcode = get(w, 0, 12) as u16;
    let rd = Reg(get(w, 16, 8) as u8);
    let rs0 = Reg(get(w, 24, 8) as u8);
    let rs2 = Reg(get(w, 64, 8) as u8);

    let op = match opcode {
        OP_FFMA => Op::Ffma {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
            neg_b: get(w, 82, 1) != 0,
            neg_c: get(w, 83, 1) != 0,
        },
        OP_FADD => Op::Fadd {
            d: rd,
            a: rs0,
            neg_a: get(w, 82, 1) != 0,
            b: get_srcb(w)?,
            neg_b: get(w, 83, 1) != 0,
        },
        OP_FMUL => Op::Fmul {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            neg_b: get(w, 83, 1) != 0,
        },
        OP_HFMA2 => Op::Hfma2 {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
        },
        OP_HADD2 => Op::Hadd2 {
            d: rd,
            a: rs0,
            neg_a: get(w, 82, 1) != 0,
            b: get_srcb(w)?,
            neg_b: get(w, 83, 1) != 0,
        },
        OP_HMUL2 => Op::Hmul2 {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
        },
        OP_FSETP => {
            let (p, combine) = get_pred_ops(w);
            Op::Fsetp {
                p,
                cmp: get_cmp(w)?,
                a: rs0,
                b: get_srcb(w)?,
                combine,
            }
        }
        OP_IADD3 => Op::Iadd3 {
            d: rd,
            a: rs0,
            neg_a: get(w, 82, 1) != 0,
            b: get_srcb(w)?,
            neg_b: get(w, 83, 1) != 0,
            c: rs2,
            neg_c: get(w, 84, 1) != 0,
        },
        OP_IMAD => Op::Imad {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
        },
        OP_IMAD_HI => Op::ImadHi {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
        },
        OP_IMAD_WIDE => Op::ImadWide {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
        },
        OP_LEA => Op::Lea {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            shift: get(w, 87, 5) as u8,
        },
        OP_LOP3 => Op::Lop3 {
            d: rd,
            a: rs0,
            b: get_srcb(w)?,
            c: rs2,
            lut: get(w, 92, 8) as u8,
        },
        OP_SHF => Op::Shf {
            d: rd,
            lo: rs0,
            shift: get_srcb(w)?,
            hi: rs2,
            right: get(w, 82, 1) != 0,
            u32_mode: get(w, 83, 1) != 0,
        },
        OP_MOV => Op::Mov {
            d: rd,
            b: get_srcb(w)?,
        },
        OP_SEL => {
            let (_, p) = get_pred_ops(w);
            Op::Sel {
                d: rd,
                a: rs0,
                b: get_srcb(w)?,
                p,
            }
        }
        OP_ISETP => {
            let (p, combine) = get_pred_ops(w);
            Op::Isetp {
                p,
                cmp: get_cmp(w)?,
                u32: get(w, 90, 1) != 0,
                a: rs0,
                b: get_srcb(w)?,
                combine,
            }
        }
        OP_P2R => Op::P2r {
            d: rd,
            a: rs0,
            mask: get(w, 32, 32) as u32,
        },
        OP_R2P => Op::R2p {
            a: rs0,
            mask: get(w, 32, 32) as u32,
        },
        OP_S2R => {
            let idx = get(w, 32, 4) as usize;
            let sr = *SpecialReg::ALL
                .get(idx)
                .ok_or(DecodeError::BadField("special register"))?;
            Op::S2r { d: rd, sr }
        }
        OP_LDG | OP_LDS => {
            let (width, addr) = get_mem(w)?;
            Op::Ld {
                space: if opcode == OP_LDG {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                width,
                d: rd,
                addr,
            }
        }
        OP_STG | OP_STS => {
            let (width, addr) = get_mem(w)?;
            Op::St {
                space: if opcode == OP_STG {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                width,
                addr,
                src: rd,
            }
        }
        OP_BAR => Op::BarSync,
        OP_BRA => Op::Bra {
            target: get(w, 32, 32) as u32,
        },
        OP_EXIT => Op::Exit,
        OP_NOP => Op::Nop,
        other => return Err(DecodeError::UnknownOpcode(other)),
    };

    Ok(Instruction { guard, op, ctrl })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::build;
    use crate::reg::RZ;

    fn rt(inst: Instruction) {
        let w = encode(&inst);
        let back = decode(w).expect("decode");
        assert_eq!(back, inst, "round-trip failed for {:?}", inst.op);
    }

    #[test]
    fn round_trip_float_ops() {
        rt(
            Instruction::new(build::ffma(Reg(8), Reg(64), Reg(80), Reg(8)))
                .with_ctrl(Ctrl::new().with_stall(4).reuse_slot(1)),
        );
        rt(Instruction::new(build::fadd(
            Reg(1),
            Reg(2),
            SrcB::imm_f32(-0.5),
        )));
        rt(Instruction::new(Op::Ffma {
            d: Reg(0),
            a: Reg(1),
            b: SrcB::Const(0x160),
            c: RZ,
            neg_b: true,
            neg_c: true,
        }));
        rt(Instruction::new(build::fmul(Reg(3), Reg(4), 2.0f32)));
    }

    #[test]
    fn round_trip_integer_ops() {
        rt(Instruction::new(build::iadd3(Reg(0), Reg(1), 5u32, Reg(2))));
        rt(Instruction::new(Op::Iadd3 {
            d: Reg(0),
            a: Reg(1),
            neg_a: false,
            b: Reg(2).into(),
            neg_b: true,
            c: RZ,
            neg_c: false,
        }));
        rt(Instruction::new(build::imad(
            Reg(0),
            Reg(1),
            SrcB::Const(0x168),
            Reg(2),
        )));
        rt(Instruction::new(build::imad_wide(
            Reg(2),
            Reg(4),
            Reg(6),
            Reg(8),
        )));
        rt(Instruction::new(Op::ImadHi {
            d: Reg(0),
            a: Reg(1),
            b: SrcB::Imm(0x9999),
            c: RZ,
        }));
        rt(Instruction::new(build::lea(Reg(0), Reg(1), Reg(2), 7)));
        rt(Instruction::new(build::and(Reg(0), Reg(1), 0xffu32)));
        rt(Instruction::new(build::shl(Reg(0), Reg(1), 4)));
        rt(Instruction::new(Op::Shf {
            d: Reg(0),
            lo: Reg(1),
            shift: SrcB::Reg(Reg(2)),
            hi: Reg(3),
            right: true,
            u32_mode: false,
        }));
    }

    #[test]
    fn round_trip_pred_ops() {
        rt(Instruction::new(build::isetp(
            Pred(3),
            CmpOp::Ge,
            Reg(0),
            10u32,
        )));
        rt(Instruction::new(Op::Isetp {
            p: Pred(1),
            cmp: CmpOp::Ne,
            u32: true,
            a: Reg(5),
            b: SrcB::Reg(Reg(6)),
            combine: PredSrc {
                pred: Pred(2),
                neg: true,
            },
        }));
        rt(Instruction::new(Op::Fsetp {
            p: Pred(0),
            cmp: CmpOp::Lt,
            a: Reg(1),
            b: SrcB::imm_f32(0.0),
            combine: PredSrc::pt(),
        }));
        rt(Instruction::new(Op::P2r {
            d: Reg(10),
            a: RZ,
            mask: 0xffff,
        }));
        rt(Instruction::new(Op::R2p {
            a: Reg(10),
            mask: 0xf,
        }));
        rt(Instruction::new(Op::Sel {
            d: Reg(0),
            a: Reg(1),
            b: SrcB::Imm(0),
            p: PredSrc::of(Pred(4)),
        }));
    }

    #[test]
    fn round_trip_memory_ops() {
        rt(Instruction::new(build::ldg(
            MemWidth::B128,
            Reg(4),
            Reg(2),
            0x10,
        )));
        rt(
            Instruction::new(build::ldg(MemWidth::B32, Reg(4), Reg(2), -64))
                .with_guard(PredGuard::on_not(Pred(1))),
        );
        rt(Instruction::new(build::stg(
            MemWidth::B64,
            Reg(2),
            0x7f_fff0,
            Reg(8),
        )));
        rt(Instruction::new(build::lds(
            MemWidth::B128,
            Reg(80),
            Reg(30),
            1024,
        )));
        rt(Instruction::new(build::sts(
            MemWidth::B32,
            Reg(31),
            -4,
            Reg(99),
        )));
    }

    #[test]
    fn round_trip_control_ops() {
        rt(Instruction::new(Op::BarSync).with_ctrl(Ctrl::new().with_wait_mask(0x3f)));
        rt(Instruction::new(Op::Bra { target: 12345 }).with_guard(PredGuard::on(Pred(6))));
        rt(Instruction::new(Op::Exit));
        rt(Instruction::new(Op::Nop));
        for sr in SpecialReg::ALL {
            rt(Instruction::new(build::s2r(Reg(0), sr)));
        }
    }

    #[test]
    fn opcode_field_matches_paper_values() {
        let w = encode(&Instruction::new(build::ffma(
            Reg(0),
            Reg(1),
            Reg(2),
            Reg(3),
        )));
        assert_eq!(get(w, 0, 12) as u16, 0x223);
        let w = encode(&Instruction::new(build::fadd(Reg(0), Reg(1), Reg(2))));
        assert_eq!(get(w, 0, 12) as u16, 0x221);
        let w = encode(&Instruction::new(build::ldg(
            MemWidth::B32,
            Reg(0),
            Reg(2),
            0,
        )));
        assert_eq!(get(w, 0, 12) as u16, 0x381);
        let w = encode(&Instruction::new(build::lds(
            MemWidth::B32,
            Reg(0),
            Reg(2),
            0,
        )));
        assert_eq!(get(w, 0, 12) as u16, 0x984);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(decode(0xfff), Err(DecodeError::UnknownOpcode(0xfff)));
    }

    #[test]
    fn control_bits_live_in_high_quarter() {
        let i = Instruction::new(Op::Nop).with_ctrl(
            Ctrl::new()
                .with_stall(15)
                .with_wait_mask(0x3f)
                .with_write_bar(5)
                .with_read_bar(4),
        );
        let w = encode(&i);
        // Everything except opcode+guard+ctrl must be zero for a NOP.
        assert_eq!(get(w, 16, 89 - 16), 0);
        assert_eq!(decode(w).unwrap(), i);
    }

    #[test]
    fn guard_pt_encodes_as_7() {
        let w = encode(&Instruction::new(Op::Nop));
        assert_eq!(get(w, 12, 3), 7);
        assert_eq!(get(w, 15, 1), 0);
    }
}
