//! Differential test of the row executor against a lane-by-lane oracle.
//!
//! `exec::step` runs every data instruction over whole 32-lane register
//! rows under a lane mask, with predicates as lane masks and one bounds
//! check per warp memory access. [`oracle`] below is the reference it must
//! match: the lane-by-lane interpreter the executor used to be, which
//! reads, computes and writes one active lane at a time and checks every
//! memory access per lane. Each case draws a random warp (registers,
//! predicates, divergence mask), one random data instruction (every data
//! op, `RZ`/immediate/constant operands, destinations aliasing sources, all
//! widths in both memory spaces) and memory contents, with inactive lanes
//! holding wild addresses and some active lanes past the end or off their
//! access width's alignment. Both sides then run the instruction on their
//! own copy of the state, and the registers (NaN bits included: both sides
//! return the hardware's canonical NaNs), predicates, divergence contexts,
//! shared and global memory and the `MemTrace` must match exactly. A
//! faulting access ends the launch, so there only the `ExecError` text is
//! compared; [`misaligned_accesses_fault_and_move_nothing`] pins that a
//! fault moves nothing on either side.
//!
//! Randomized with the workspace's deterministic `XorShiftRng`; a failure
//! prints its case number and instruction.

use gpusim::exec::{step, Effects, MemTrace, StepEvent, WarpCtx};
use gpusim::{ConstBank, ExecEnv, ExecError, GlobalMemory, Warp};
use sass::isa::*;
use sass::reg::{Pred, Reg, PT, RZ};
use tensor::XorShiftRng;

const CASES: u32 = 12_000;
/// Registers per warp: few, so operands alias often.
const NUM_REGS: u8 = 16;
const SMEM: usize = 1024;
const GLOBAL: usize = 4096;
/// The address of the first allocation on a fresh arena.
const GLOBAL_BASE: u64 = 0x1000_0000;

// ---- the oracle: one lane at a time -------------------------------------

fn read_reg(w: &Warp, r: Reg, lane: usize) -> u32 {
    if r.is_rz() {
        0
    } else {
        w.regs[r.0 as usize][lane]
    }
}

fn write_reg(w: &mut Warp, r: Reg, lane: usize, v: u32) {
    if !r.is_rz() {
        w.regs[r.0 as usize][lane] = v;
    }
}

fn read_pred(w: &Warp, p: Pred, lane: usize) -> bool {
    p.is_pt() || w.preds[p.0 as usize] >> lane & 1 != 0
}

fn write_pred(w: &mut Warp, p: Pred, lane: usize, v: bool) {
    if !p.is_pt() {
        let bit = 1u32 << lane;
        let word = &mut w.preds[p.0 as usize];
        *word = if v { *word | bit } else { *word & !bit };
    }
}

/// NVIDIA's canonical NaN for an f32 result.
fn canon_f32(v: u32) -> u32 {
    if f32::from_bits(v).is_nan() {
        0x7fff_ffff
    } else {
        v
    }
}

/// NVIDIA's canonical NaN for each f16 half of a half2 result.
fn canon_half2(v: u32) -> u32 {
    let half = |h: u32| {
        if h & 0x7c00 == 0x7c00 && h & 0x3ff != 0 {
            0x7fff
        } else {
            h
        }
    };
    half(v & 0xffff) | half(v >> 16) << 16
}

fn neg_f(bits: u32, neg: bool, sign: u32) -> u32 {
    if neg {
        bits ^ sign
    } else {
        bits
    }
}

fn neg_i(v: u32, neg: bool) -> u32 {
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

fn lop3(a: u32, b: u32, c: u32, lut: u8) -> u32 {
    let mut r = 0u32;
    for i in 0..8 {
        if lut >> i & 1 != 0 {
            let pick = |v: u32, bit: u32| if i >> bit & 1 != 0 { v } else { !v };
            r |= pick(a, 2) & pick(b, 1) & pick(c, 0);
        }
    }
    r
}

/// `a cmp b`, the ISETP/FSETP comparison: on floats, every comparison with
/// a NaN is false except `NE`.
fn compare<T: PartialOrd>(cmp: CmpOp, a: T, b: T) -> bool {
    match cmp {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

/// The oracle's view of one block: [`ExecEnv`] with the arena borrowed for
/// writing, since the oracle stores through the host's word API.
struct Env<'a> {
    global: &'a mut GlobalMemory,
    smem: &'a mut [u8],
    cbank: &'a ConstBank,
    ctaid: [u32; 3],
    block_dim: [u32; 3],
}

/// The byte address lane `lane` of a memory instruction accesses.
fn lane_addr(w: &Warp, space: MemSpace, addr: Addr, lane: usize) -> u64 {
    match space {
        MemSpace::Global => {
            let lo = read_reg(w, addr.base, lane) as u64;
            let hi = read_reg(w, addr.base.offset(1), lane) as u64;
            (lo | (hi << 32)).wrapping_add(addr.offset as i64 as u64)
        }
        MemSpace::Shared => read_reg(w, addr.base, lane).wrapping_add(addr.offset as u32) as u64,
    }
}

/// Why one lane's `width`-byte access at `a` faults, if it does: an
/// address off its width's alignment first, then one out of bounds.
fn lane_fault(env: &Env<'_>, space: MemSpace, a: u64, width: u64, store: bool) -> Option<String> {
    if !a.is_multiple_of(width) {
        return Some(format!("misaligned address: {width} bytes at {a:#x}"));
    }
    match space {
        MemSpace::Global => (0..width / 4)
            .any(|i| env.global.read_u32(a + 4 * i).is_err())
            .then(|| format!("out-of-bounds access: {width} bytes at {a:#x}")),
        MemSpace::Shared => (a + width > env.smem.len() as u64).then(|| {
            let what = if store { "store" } else { "load" };
            format!(
                "shared {what} at {a:#x} past smem size {:#x}",
                env.smem.len()
            )
        }),
    }
}

/// Execute the single data instruction the warp's one context is at, lane
/// by lane, and advance that context: the executor's former semantics,
/// with canonical NaNs and word-aligned memory. A memory instruction
/// checks every active lane before any lane moves, so a fault (the lowest
/// faulting lane's) changes nothing.
fn oracle(
    w: &mut Warp,
    inst: &Instruction,
    env: &mut Env<'_>,
    trace: &mut MemTrace,
) -> Result<(), ExecError> {
    *trace = MemTrace::default();
    let ctx = w.ctxs[0];
    let fail = |msg: String| ExecError {
        ctaid: env.ctaid,
        warp: 0,
        pc: ctx.pc,
        inst: sass::disasm::inst_text(inst),
        msg,
    };
    let lanes: Vec<usize> = (0..32)
        .filter(|&l| ctx.mask >> l & 1 != 0 && read_pred(w, inst.guard.pred, l) != inst.guard.neg)
        .collect();
    trace.exec_mask = lanes.iter().fold(0, |m, &l| m | 1 << l);
    if let Op::Ld {
        space, width, addr, ..
    }
    | Op::St {
        space, width, addr, ..
    } = inst.op
    {
        let store = matches!(inst.op, Op::St { .. });
        for &lane in &lanes {
            let a = lane_addr(w, space, addr, lane);
            if let Some(e) = lane_fault(env, space, a, width.bytes() as u64, store) {
                return Err(fail(format!("lane {lane}: {e}")));
            }
        }
    }
    let cbank = env.cbank;
    let srcb = |w: &Warp, b: SrcB, lane: usize| match b {
        SrcB::Reg(r) => read_reg(w, r, lane),
        SrcB::Imm(v) => v,
        SrcB::Const(off) => cbank.read_u32(off),
    };
    let f = f32::from_bits;
    let h2 = sass::half::unpack_half2;
    let p2 = sass::half::pack_half2;
    for &lane in &lanes {
        match inst.op {
            Op::Ffma {
                d,
                a,
                b,
                c,
                neg_b,
                neg_c,
            } => {
                let va = f(read_reg(w, a, lane));
                let vb = f(neg_f(srcb(w, b, lane), neg_b, 1 << 31));
                let vc = f(neg_f(read_reg(w, c, lane), neg_c, 1 << 31));
                write_reg(w, d, lane, canon_f32(va.mul_add(vb, vc).to_bits()));
            }
            Op::Fadd {
                d,
                a,
                neg_a,
                b,
                neg_b,
            } => {
                let va = f(neg_f(read_reg(w, a, lane), neg_a, 1 << 31));
                let vb = f(neg_f(srcb(w, b, lane), neg_b, 1 << 31));
                write_reg(w, d, lane, canon_f32((va + vb).to_bits()));
            }
            Op::Fmul { d, a, b, neg_b } => {
                let va = f(read_reg(w, a, lane));
                let vb = f(neg_f(srcb(w, b, lane), neg_b, 1 << 31));
                write_reg(w, d, lane, canon_f32((va * vb).to_bits()));
            }
            Op::Hfma2 { d, a, b, c } => {
                let (a0, a1) = h2(read_reg(w, a, lane));
                let (b0, b1) = h2(srcb(w, b, lane));
                let (c0, c1) = h2(read_reg(w, c, lane));
                let v = p2(a0.mul_add(b0, c0), a1.mul_add(b1, c1));
                write_reg(w, d, lane, canon_half2(v));
            }
            Op::Hadd2 {
                d,
                a,
                neg_a,
                b,
                neg_b,
            } => {
                let (a0, a1) = h2(neg_f(read_reg(w, a, lane), neg_a, 0x8000_8000));
                let (b0, b1) = h2(neg_f(srcb(w, b, lane), neg_b, 0x8000_8000));
                write_reg(w, d, lane, canon_half2(p2(a0 + b0, a1 + b1)));
            }
            Op::Hmul2 { d, a, b } => {
                let (a0, a1) = h2(read_reg(w, a, lane));
                let (b0, b1) = h2(srcb(w, b, lane));
                write_reg(w, d, lane, canon_half2(p2(a0 * b0, a1 * b1)));
            }
            Op::Fsetp {
                p,
                cmp,
                a,
                b,
                combine,
            } => {
                let base = compare(cmp, f(read_reg(w, a, lane)), f(srcb(w, b, lane)));
                let comb = read_pred(w, combine.pred, lane) != combine.neg;
                write_pred(w, p, lane, base && comb);
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
                let va = neg_i(read_reg(w, a, lane), neg_a);
                let vb = neg_i(srcb(w, b, lane), neg_b);
                let vc = neg_i(read_reg(w, c, lane), neg_c);
                write_reg(w, d, lane, va.wrapping_add(vb).wrapping_add(vc));
            }
            Op::Imad { d, a, b, c } => {
                let v = read_reg(w, a, lane)
                    .wrapping_mul(srcb(w, b, lane))
                    .wrapping_add(read_reg(w, c, lane));
                write_reg(w, d, lane, v);
            }
            Op::ImadHi { d, a, b, c } => {
                let prod = read_reg(w, a, lane) as u64 * srcb(w, b, lane) as u64;
                let v = ((prod >> 32) as u32).wrapping_add(read_reg(w, c, lane));
                write_reg(w, d, lane, v);
            }
            Op::ImadWide { d, a, b, c } => {
                let clo = read_reg(w, c, lane) as u64;
                let chi = read_reg(w, c.offset(1), lane) as u64;
                let prod = read_reg(w, a, lane) as u64 * srcb(w, b, lane) as u64;
                let sum = prod.wrapping_add(clo | (chi << 32));
                write_reg(w, d, lane, sum as u32);
                write_reg(w, d.offset(1), lane, (sum >> 32) as u32);
            }
            Op::Lea { d, a, b, shift } => {
                let v = srcb(w, b, lane).wrapping_add(read_reg(w, a, lane) << shift);
                write_reg(w, d, lane, v);
            }
            Op::Lop3 { d, a, b, c, lut } => {
                let v = lop3(
                    read_reg(w, a, lane),
                    srcb(w, b, lane),
                    read_reg(w, c, lane),
                    lut,
                );
                write_reg(w, d, lane, v);
            }
            Op::Shf {
                d,
                lo,
                shift,
                hi,
                right,
                u32_mode,
            } => {
                let n = srcb(w, shift, lane) & 63;
                let (vlo, vhi) = (read_reg(w, lo, lane), read_reg(w, hi, lane));
                let wide = (vhi as u64) << 32 | vlo as u64;
                let v = match (u32_mode, right) {
                    (true, true) => vlo >> (n & 31),
                    (true, false) => vlo << (n & 31),
                    (false, true) => (wide >> n) as u32,
                    (false, false) => ((wide << n) >> 32) as u32,
                };
                write_reg(w, d, lane, v);
            }
            Op::Mov { d, b } => {
                let v = srcb(w, b, lane);
                write_reg(w, d, lane, v);
            }
            Op::Sel { d, a, b, p } => {
                let v = if read_pred(w, p.pred, lane) != p.neg {
                    read_reg(w, a, lane)
                } else {
                    srcb(w, b, lane)
                };
                write_reg(w, d, lane, v);
            }
            Op::Isetp {
                p,
                cmp,
                u32: unsigned,
                a,
                b,
                combine,
            } => {
                let (va, vb) = (read_reg(w, a, lane), srcb(w, b, lane));
                let base = if unsigned {
                    compare(cmp, va, vb)
                } else {
                    compare(cmp, va as i32, vb as i32)
                };
                let comb = read_pred(w, combine.pred, lane) != combine.neg;
                write_pred(w, p, lane, base && comb);
            }
            Op::P2r { d, a, mask } => {
                let bits = (0..7).fold(0, |b, i| b | (read_pred(w, Pred(i), lane) as u32) << i);
                let v = (read_reg(w, a, lane) & !mask) | (bits & mask);
                write_reg(w, d, lane, v);
            }
            Op::R2p { a, mask } => {
                let v = read_reg(w, a, lane);
                for i in 0..7u8 {
                    if mask >> i & 1 != 0 {
                        write_pred(w, Pred(i), lane, v >> i & 1 != 0);
                    }
                }
            }
            Op::S2r { d, sr } => {
                let bd = env.block_dim;
                let linear = w.base_tid + lane as u32;
                let v = match sr {
                    SpecialReg::TidX => linear % bd[0],
                    SpecialReg::TidY => (linear / bd[0]) % bd[1],
                    SpecialReg::TidZ => linear / (bd[0] * bd[1]),
                    SpecialReg::CtaidX => env.ctaid[0],
                    SpecialReg::CtaidY => env.ctaid[1],
                    SpecialReg::CtaidZ => env.ctaid[2],
                    SpecialReg::LaneId => lane as u32,
                    SpecialReg::WarpId => linear / 32,
                };
                write_reg(w, d, lane, v);
            }
            Op::Ld {
                space: MemSpace::Global,
                width,
                d,
                addr,
            } => {
                let a = lane_addr(w, MemSpace::Global, addr, lane);
                trace.global_addrs.push(a);
                for i in 0..width.regs() {
                    let v = env.global.read_u32(a + 4 * i as u64).unwrap();
                    write_reg(w, d.offset(i), lane, v);
                }
            }
            Op::Ld {
                space: MemSpace::Shared,
                width,
                d,
                addr,
            } => {
                let a = lane_addr(w, MemSpace::Shared, addr, lane) as u32;
                trace.shared_addrs.push(a);
                for i in 0..width.regs() {
                    let off = a as usize + i as usize * 4;
                    let v = u32::from_le_bytes(env.smem[off..off + 4].try_into().unwrap());
                    write_reg(w, d.offset(i), lane, v);
                }
            }
            Op::St {
                space: MemSpace::Global,
                width,
                addr,
                src,
            } => {
                let a = lane_addr(w, MemSpace::Global, addr, lane);
                trace.global_addrs.push(a);
                for i in 0..width.regs() {
                    let v = read_reg(w, src.offset(i), lane);
                    env.global.write_u32(a + 4 * i as u64, v).unwrap();
                }
            }
            Op::St {
                space: MemSpace::Shared,
                width,
                addr,
                src,
            } => {
                let a = lane_addr(w, MemSpace::Shared, addr, lane) as u32;
                trace.shared_addrs.push(a);
                for i in 0..width.regs() {
                    let off = a as usize + i as usize * 4;
                    let v = read_reg(w, src.offset(i), lane);
                    env.smem[off..off + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            Op::Nop => {}
            Op::Exit | Op::Bra { .. } | Op::BarSync => unreachable!("data ops only"),
        }
    }
    if let Op::Ld { width, .. } | Op::St { width, .. } = inst.op {
        trace.width = width.bytes();
        trace.is_store = matches!(inst.op, Op::St { .. });
    }
    w.ctxs[0].pc += 1;
    Ok(())
}

// ---- random cases --------------------------------------------------------

fn pick<T: Copy>(rng: &mut XorShiftRng, xs: &[T]) -> T {
    xs[rng.gen_index(xs.len())]
}

fn coin(rng: &mut XorShiftRng) -> bool {
    rng.next_u32() & 1 != 0
}

/// A register operand: `RZ` sometimes, else one of the first `below`
/// registers.
fn reg(rng: &mut XorShiftRng, below: u8) -> Reg {
    if rng.gen_index(8) == 0 {
        RZ
    } else {
        Reg(rng.gen_index(below as usize) as u8)
    }
}

fn pred(rng: &mut XorShiftRng) -> Pred {
    if rng.gen_index(4) == 0 {
        PT
    } else {
        Pred(rng.gen_index(7) as u8)
    }
}

fn pred_src(rng: &mut XorShiftRng) -> PredSrc {
    PredSrc {
        pred: pred(rng),
        neg: coin(rng),
    }
}

/// A `B` operand: a register, an immediate, or a constant-bank word (some
/// past the end of the bank, which read zero).
fn src_b(rng: &mut XorShiftRng) -> SrcB {
    match rng.gen_index(4) {
        0 => SrcB::Imm(rng.next_u32()),
        1 => SrcB::Const(4 * rng.gen_index(0x70) as u16),
        _ => SrcB::Reg(reg(rng, NUM_REGS)),
    }
}

fn cmp(rng: &mut XorShiftRng) -> CmpOp {
    pick(
        rng,
        &[
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ],
    )
}

/// One random data instruction. Vector operands stay inside the register
/// file.
fn data_op(rng: &mut XorShiftRng) -> Op {
    let r = |rng: &mut XorShiftRng| reg(rng, NUM_REGS);
    let width = pick(rng, &[MemWidth::B32, MemWidth::B64, MemWidth::B128]);
    let space = pick(rng, &[MemSpace::Global, MemSpace::Shared]);
    let vec = |rng: &mut XorShiftRng, n: u8| reg(rng, NUM_REGS + 1 - n);
    let addr = |rng: &mut XorShiftRng| {
        let base = match space {
            MemSpace::Global => vec(rng, 2),
            MemSpace::Shared => r(rng),
        };
        Addr::new(base, 4 * rng.gen_index(9) as i32 - 16)
    };
    match rng.gen_index(22) {
        0 => Op::Ffma {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            c: r(rng),
            neg_b: coin(rng),
            neg_c: coin(rng),
        },
        1 => Op::Fadd {
            d: r(rng),
            a: r(rng),
            neg_a: coin(rng),
            b: src_b(rng),
            neg_b: coin(rng),
        },
        2 => Op::Fmul {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            neg_b: coin(rng),
        },
        3 => Op::Hfma2 {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            c: r(rng),
        },
        4 => Op::Hadd2 {
            d: r(rng),
            a: r(rng),
            neg_a: coin(rng),
            b: src_b(rng),
            neg_b: coin(rng),
        },
        5 => Op::Hmul2 {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
        },
        6 => Op::Fsetp {
            p: pred(rng),
            cmp: cmp(rng),
            a: r(rng),
            b: src_b(rng),
            combine: pred_src(rng),
        },
        7 => Op::Iadd3 {
            d: r(rng),
            a: r(rng),
            neg_a: coin(rng),
            b: src_b(rng),
            neg_b: coin(rng),
            c: r(rng),
            neg_c: coin(rng),
        },
        8 => Op::Imad {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            c: r(rng),
        },
        9 => Op::ImadHi {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            c: r(rng),
        },
        10 => Op::ImadWide {
            d: vec(rng, 2),
            a: r(rng),
            b: src_b(rng),
            c: vec(rng, 2),
        },
        11 => Op::Lea {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            shift: rng.gen_index(32) as u8,
        },
        12 => Op::Lop3 {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            c: r(rng),
            lut: rng.next_u32() as u8,
        },
        13 => Op::Shf {
            d: r(rng),
            lo: r(rng),
            shift: src_b(rng),
            hi: r(rng),
            right: coin(rng),
            u32_mode: coin(rng),
        },
        14 => Op::Mov {
            d: r(rng),
            b: src_b(rng),
        },
        15 => Op::Sel {
            d: r(rng),
            a: r(rng),
            b: src_b(rng),
            p: pred_src(rng),
        },
        16 => Op::Isetp {
            p: pred(rng),
            cmp: cmp(rng),
            u32: coin(rng),
            a: r(rng),
            b: src_b(rng),
            combine: pred_src(rng),
        },
        17 => Op::P2r {
            d: r(rng),
            a: r(rng),
            mask: rng.next_u32(),
        },
        18 => Op::R2p {
            a: r(rng),
            mask: rng.next_u32(),
        },
        19 => Op::S2r {
            d: r(rng),
            sr: pick(rng, &SpecialReg::ALL),
        },
        20 => Op::Ld {
            space,
            width,
            d: vec(rng, width.regs()),
            addr: addr(rng),
        },
        _ => Op::St {
            space,
            width,
            addr: addr(rng),
            src: vec(rng, width.regs()),
        },
    }
}

/// A lane mask: full half the time, else random, sometimes sparse.
fn mask(rng: &mut XorShiftRng) -> u32 {
    match rng.gen_index(4) {
        0 | 1 => u32::MAX,
        2 => rng.next_u32(),
        _ => rng.next_u32() & rng.next_u32(),
    }
}

/// Point the memory operand's base register(s) at `space` for the lanes in
/// `exec`: most land in bounds on multiples of the access width (on a few
/// shared slots, so stores collide), some active ones past the end or off
/// the width's alignment; inactive lanes keep wild values.
fn aim(rng: &mut XorShiftRng, w: &mut Warp, op: &Op, exec: u32, global_base: u64) {
    let (space, width, addr) = match *op {
        Op::Ld {
            space, width, addr, ..
        }
        | Op::St {
            space, width, addr, ..
        } => (space, width.bytes() as u64, addr),
        _ => return,
    };
    if addr.base.is_rz() {
        return;
    }
    let bad = rng.gen_index(4) == 0;
    for lane in (0..32).filter(|l| exec >> l & 1 != 0) {
        let (size, origin) = match space {
            MemSpace::Global => (GLOBAL as u64, global_base),
            MemSpace::Shared => (SMEM as u64, 0),
        };
        let off = match space {
            MemSpace::Shared if coin(rng) => 16 * rng.gen_index(4) as u64,
            _ => width * rng.gen_index((size / width) as usize) as u64,
        };
        let mut a = origin + off;
        if bad && rng.gen_index(8) == 0 {
            a = match rng.gen_index(4) {
                0 => origin + size - width + 1 + rng.gen_index(64) as u64,
                1 => 0,
                2 => origin.wrapping_sub(4),
                _ => a + 1 + rng.gen_index(width as usize - 1) as u64,
            };
        }
        let a = a.wrapping_sub(addr.offset as i64 as u64);
        w.regs[addr.base.0 as usize][lane] = a as u32;
        if space == MemSpace::Global {
            w.regs[addr.base.offset(1).0 as usize][lane] = (a >> 32) as u32;
        }
    }
}

/// A fresh arena holding `words` in its one allocation at `GLOBAL_BASE`.
fn arena(words: &[u32]) -> GlobalMemory {
    let mut g = GlobalMemory::new(GLOBAL);
    assert_eq!(g.alloc(GLOBAL as u64), GLOBAL_BASE);
    let words: Vec<f32> = words.iter().map(|&v| f32::from_bits(v)).collect();
    g.upload_f32(GLOBAL_BASE, &words).unwrap();
    g
}

/// The words of the arena's one allocation.
fn arena_words(g: &mut GlobalMemory) -> Vec<u32> {
    let words = g.download_f32(GLOBAL_BASE, GLOBAL / 4).unwrap();
    words.iter().map(|v| v.to_bits()).collect()
}

/// What one side left behind: the error text, or the state.
type Outcome = (
    Option<String>,
    Vec<[u32; 32]>,
    [u32; 7],
    Vec<WarpCtx>,
    Vec<u8>,
    Vec<u32>,
    MemTrace,
);

/// Run `inst` on a copy of the state, through the oracle or through `step`.
#[allow(clippy::too_many_arguments)]
fn run(
    exec_oracle: bool,
    inst: &Instruction,
    warp: &Warp,
    global: &[u32],
    smem: &[u8],
    cbank: &ConstBank,
    ctaid: [u32; 3],
    block_dim: [u32; 3],
) -> Outcome {
    let (mut w, mut g, mut s) = (warp.clone(), arena(global), smem.to_vec());
    let mut trace = MemTrace {
        global_addrs: vec![7; 3],
        shared_addrs: vec![9],
        width: 16,
        is_store: true,
        exec_mask: 1,
    };
    let res = if exec_oracle {
        let mut env = Env {
            global: &mut g,
            smem: &mut s,
            cbank,
            ctaid,
            block_dim,
        };
        oracle(&mut w, inst, &mut env, &mut trace)
    } else {
        let mut env = ExecEnv {
            global: &g,
            smem: &mut s,
            cbank,
            ctaid,
            block_dim,
        };
        step(
            &mut w,
            std::slice::from_ref(inst),
            &mut env,
            0,
            &mut trace,
            Effects::All,
        )
        .map(|ev| assert_eq!(ev, StepEvent::Executed))
    };
    let err = res.err().map(|e| e.to_string());
    let mem = arena_words(&mut g);
    (err, w.regs, w.preds, w.ctxs, s, mem, trace)
}

#[test]
fn row_executor_matches_the_lane_by_lane_oracle() {
    let mut rng = XorShiftRng::new(0x0e8e_c0de);
    let params: Vec<u8> = (0..0x40).map(|_| rng.next_u32() as u8).collect();
    let block_dim = [48, 3, 2];
    let cbank = ConstBank::new(block_dim, [5, 6, 7], &params);
    let (mut faults, mut misaligned, mut moves, mut partial) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut warp = Warp::new(NUM_REGS as u16, 32 * rng.gen_index(9) as u32, 32);
        for row in warp.regs.iter_mut() {
            row.iter_mut().for_each(|v| *v = rng.next_u32());
        }
        warp.preds.iter_mut().for_each(|p| *p = rng.next_u32());
        warp.ctxs = vec![WarpCtx {
            mask: mask(&mut rng),
            pc: 0,
        }];
        let guard = PredGuard {
            pred: pred(&mut rng),
            neg: rng.gen_index(4) == 0,
        };
        let inst = Instruction::new(data_op(&mut rng)).with_guard(guard);
        let guard_mask = if guard.pred.is_pt() {
            u32::MAX
        } else {
            warp.preds[guard.pred.0 as usize]
        };
        let exec = warp.ctxs[0].mask & if guard.neg { !guard_mask } else { guard_mask };
        partial += (exec != u32::MAX) as u32;

        let global: Vec<u32> = (0..GLOBAL / 4).map(|_| rng.next_u32()).collect();
        aim(&mut rng, &mut warp, &inst.op, exec, GLOBAL_BASE);
        let smem: Vec<u8> = (0..SMEM).map(|_| rng.next_u32() as u8).collect();
        let ctaid = [rng.gen_index(5) as u32, 1, 2];

        let side = |exec_oracle| {
            run(
                exec_oracle,
                &inst,
                &warp,
                &global,
                &smem,
                &cbank,
                ctaid,
                block_dim,
            )
        };
        let (want, got) = (side(true), side(false));
        let what = format!("case {case}: {}", sass::disasm::inst_text(&inst));
        assert_eq!(got.0, want.0, "{what}: error");
        if let Some(err) = &want.0 {
            faults += 1;
            misaligned += err.contains("misaligned") as u32;
            continue;
        }
        let moved = !got.6.global_addrs.is_empty() || !got.6.shared_addrs.is_empty();
        moves += moved as u32;
        assert_eq!(got.1, want.1, "{what}: registers");
        assert_eq!(got.2, want.2, "{what}: predicates");
        assert_eq!(got.3, want.3, "{what}: contexts");
        assert!(got.4 == want.4, "{what}: shared memory");
        assert!(got.5 == want.5, "{what}: global memory");
        assert_eq!(got.6, want.6, "{what}: trace");
    }
    // The draw covers both outcomes, both kinds of fault, the move path and
    // both mask shapes.
    assert!(faults > CASES / 100, "only {faults} faulting cases");
    assert!(
        misaligned > CASES / 400,
        "only {misaligned} misaligned faults"
    );
    assert!(moves > CASES / 20, "only {moves} data-moving cases");
    assert!(partial > CASES / 3, "only {partial} partial-mask cases");
}

#[test]
fn cmp_eval() {
    assert!(compare(CmpOp::Lt, -1, 0));
    assert!(compare(CmpOp::Ge, 5, 5));
    assert!(compare(CmpOp::Ne, 1.0f32, 2.0));
    assert!(!compare(CmpOp::Eq, f32::NAN, f32::NAN));
    assert!(compare(CmpOp::Ne, f32::NAN, f32::NAN));
}

/// A misaligned LDG, STG, LDS or STS faults alike in `step` and in the
/// oracle: the error names the lowest faulting active lane, and no
/// register, predicate or memory byte changes. A misaligned inactive lane
/// below it is never checked.
#[test]
fn misaligned_accesses_fault_and_move_nothing() {
    let cbank = ConstBank::new([32, 1, 1], [1, 1, 1], &[]);
    let global: Vec<u32> = (0..GLOBAL as u32 / 4).collect();
    let smem: Vec<u8> = (0..SMEM).map(|i| i as u8).collect();
    for space in [MemSpace::Global, MemSpace::Shared] {
        for width in [MemWidth::B32, MemWidth::B64, MemWidth::B128] {
            for store in [false, true] {
                let (base, data) = (Reg(2), Reg(8));
                let addr = Addr::new(base, 0);
                let op = match store {
                    false => Op::Ld {
                        space,
                        width,
                        d: data,
                        addr,
                    },
                    true => Op::St {
                        space,
                        width,
                        addr,
                        src: data,
                    },
                };
                let inst = Instruction::new(op);
                let bytes = width.bytes() as u64;
                let origin = match space {
                    MemSpace::Global => GLOBAL_BASE,
                    MemSpace::Shared => 0,
                };
                // Lanes 5 and 9 sit off their alignment by a whole word
                // where the width allows it; lane 2 does too, but is inactive.
                let skew = if bytes == 4 { 2 } else { 4 };
                let mut warp = Warp::new(NUM_REGS as u16, 0, 32);
                warp.ctxs[0].mask = !(1 << 2);
                for lane in 0..32 {
                    let off = [2, 5, 9].contains(&lane) as u64 * skew;
                    let a = origin + bytes * lane as u64 + off;
                    warp.regs[2][lane] = a as u32;
                    warp.regs[3][lane] = (a >> 32) as u32;
                    for r in 8..12 {
                        warp.regs[r][lane] = 0xdead_0000 | (r * 32 + lane) as u32;
                    }
                }
                let fault = origin + bytes * 5 + skew;
                let want_err = format!("lane 5: misaligned address: {bytes} bytes at {fault:#x}");
                for exec_oracle in [true, false] {
                    let (err, regs, preds, ctxs, s, g, _) = run(
                        exec_oracle,
                        &inst,
                        &warp,
                        &global,
                        &smem,
                        &cbank,
                        [0; 3],
                        [32, 1, 1],
                    );
                    let what = format!(
                        "{} ({}): ",
                        sass::disasm::inst_text(&inst),
                        if exec_oracle { "oracle" } else { "step" }
                    );
                    let err = err.unwrap_or_else(|| panic!("{what}no fault"));
                    assert!(err.ends_with(&want_err), "{what}{err}");
                    assert!(regs == warp.regs, "{what}registers changed");
                    assert_eq!(preds, warp.preds, "{what}predicates changed");
                    assert_eq!(ctxs, warp.ctxs, "{what}contexts changed");
                    assert!(s == smem, "{what}shared memory changed");
                    assert!(g == global, "{what}global memory changed");
                }
            }
        }
    }
}
