//! Functional (architectural) execution of warps.
//!
//! This module gives every ISA instruction its semantics. It is used both by
//! the functional grid launcher (correctness runs) and by the cycle-level SM
//! model in [`crate::timing`], which executes instructions functionally at
//! issue time so that memory addresses — and therefore bank conflicts and
//! cache behaviour — are exact rather than statistical.
//!
//! Divergence is handled SIMT-style with a set of `(mask, pc)` execution
//! contexts per warp; the context with the smallest PC runs next, and
//! contexts at equal PCs merge (a simple reconvergence rule that is exact
//! for the structured control flow our kernels use).

use sass::isa::*;
use sass::reg::{Pred, Reg};

use crate::memory::{ConstBank, GlobalMemory, MemError};

/// Maximum lanes per warp.
pub const WARP_SIZE: u32 = 32;

/// One divergence context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpCtx {
    /// Active-lane mask.
    pub mask: u32,
    /// Next instruction index.
    pub pc: u32,
}

/// Architectural state of one warp.
#[derive(Clone, Debug)]
pub struct Warp {
    /// Register file: `regs[r][lane]`.
    pub regs: Vec<[u32; WARP_SIZE as usize]>,
    /// Predicate file: `preds[p][lane]`, p in 0..7.
    pub preds: [[bool; WARP_SIZE as usize]; 7],
    /// Divergence contexts (invariant: non-empty unless exited; disjoint
    /// masks).
    pub ctxs: Vec<WarpCtx>,
    /// Linear thread id of lane 0 within the block.
    pub base_tid: u32,
    /// True once all lanes have exited.
    pub exited: bool,
}

impl Warp {
    /// Fresh warp: `num_regs` registers, all zero, one context at PC 0.
    pub fn new(num_regs: u16, base_tid: u32, lanes: u32) -> Self {
        assert!((1..=WARP_SIZE).contains(&lanes));
        let mask = if lanes == 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        Warp {
            regs: vec![[0u32; 32]; num_regs as usize],
            preds: [[false; 32]; 7],
            ctxs: vec![WarpCtx { mask, pc: 0 }],
            base_tid,
            exited: false,
        }
    }

    #[inline]
    fn read_reg(&self, r: Reg, lane: usize) -> u32 {
        if r.is_rz() {
            0
        } else {
            self.regs[r.0 as usize][lane]
        }
    }

    #[inline]
    fn write_reg(&mut self, r: Reg, lane: usize, v: u32) {
        if !r.is_rz() {
            self.regs[r.0 as usize][lane] = v;
        }
    }

    #[inline]
    fn read_pred(&self, p: Pred, lane: usize) -> bool {
        if p.is_pt() {
            true
        } else {
            self.preds[p.0 as usize][lane]
        }
    }

    #[inline]
    fn write_pred(&mut self, p: Pred, lane: usize, v: bool) {
        if !p.is_pt() {
            self.preds[p.0 as usize][lane] = v;
        }
    }

    /// The context that executes next (lowest PC), if any.
    pub fn current_ctx(&self) -> Option<WarpCtx> {
        match self.ctxs.as_slice() {
            [only] => Some(*only),
            ctxs => ctxs.iter().copied().min_by_key(|c| c.pc),
        }
    }
}

/// What a single step did — the caller (block runner or timing model)
/// schedules around these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// A non-synchronizing instruction was executed.
    Executed,
    /// A `BAR.SYNC` was executed; the warp is now waiting at the barrier.
    Barrier,
    /// The warp has fully exited.
    Exited,
}

/// Execution environment for one block.
pub struct ExecEnv<'a> {
    pub global: &'a mut GlobalMemory,
    pub smem: &'a mut [u8],
    pub cbank: &'a ConstBank,
    pub ctaid: [u32; 3],
    pub block_dim: [u32; 3],
}

/// Execution error with full context.
#[derive(Clone, Debug)]
pub struct ExecError {
    pub ctaid: [u32; 3],
    pub warp: u32,
    pub pc: u32,
    pub inst: String,
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block ({},{},{}) warp {} pc {}: {} — {}",
            self.ctaid[0], self.ctaid[1], self.ctaid[2], self.warp, self.pc, self.inst, self.msg
        )
    }
}

impl std::error::Error for ExecError {}

/// Side-channel describing the memory behaviour of an executed instruction,
/// consumed by the timing model. Empty for non-memory instructions. The
/// caller owns one and [`step`] refills it, so the address lists keep their
/// capacity from one instruction to the next.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemTrace {
    /// Byte addresses touched, one per active lane (global space).
    pub global_addrs: Vec<u64>,
    /// Byte addresses touched, one per active lane (shared space).
    pub shared_addrs: Vec<u32>,
    /// Access width in bytes.
    pub width: u32,
    /// True for a store.
    pub is_store: bool,
    /// Lanes that executed the instruction (guard ∧ divergence mask).
    pub exec_mask: u32,
}

#[inline]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

#[inline]
fn neg_f(bits: u32, neg: bool) -> u32 {
    if neg {
        bits ^ 0x8000_0000
    } else {
        bits
    }
}

/// Negate both halves of a half2 word.
#[inline]
fn neg_f2(bits: u32, neg: bool) -> u32 {
    if neg {
        bits ^ 0x8000_8000
    } else {
        bits
    }
}

#[inline]
fn neg_i(v: u32, neg: bool) -> u32 {
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

fn lop3(a: u32, b: u32, c: u32, lut: u8) -> u32 {
    let mut r = 0u32;
    if lut & 0x01 != 0 {
        r |= !a & !b & !c;
    }
    if lut & 0x02 != 0 {
        r |= !a & !b & c;
    }
    if lut & 0x04 != 0 {
        r |= !a & b & !c;
    }
    if lut & 0x08 != 0 {
        r |= !a & b & c;
    }
    if lut & 0x10 != 0 {
        r |= a & !b & !c;
    }
    if lut & 0x20 != 0 {
        r |= a & !b & c;
    }
    if lut & 0x40 != 0 {
        r |= a & b & !c;
    }
    if lut & 0x80 != 0 {
        r |= a & b & c;
    }
    r
}

/// Execute one instruction step for `warp` and return the event. `trace`
/// is cleared and then filled with the step's memory behaviour (empty for
/// anything but a memory instruction).
pub fn step(
    warp: &mut Warp,
    insts: &[Instruction],
    env: &mut ExecEnv<'_>,
    warp_idx: u32,
    trace: &mut MemTrace,
) -> Result<StepEvent, ExecError> {
    trace.global_addrs.clear();
    trace.shared_addrs.clear();
    trace.width = 0;
    trace.is_store = false;
    trace.exec_mask = 0;
    let ctx = match warp.current_ctx() {
        Some(c) => c,
        None => {
            warp.exited = true;
            return Ok(StepEvent::Exited);
        }
    };
    let pc = ctx.pc;
    let inst = match insts.get(pc as usize) {
        Some(i) => i,
        None => {
            return Err(ExecError {
                ctaid: env.ctaid,
                warp: warp_idx,
                pc,
                inst: "<end of code>".into(),
                msg: "fell off the end of the instruction stream (missing EXIT?)".into(),
            })
        }
    };

    let fail = |msg: String| ExecError {
        ctaid: env.ctaid,
        warp: warp_idx,
        pc,
        inst: sass::disasm::inst_text(inst),
        msg,
    };

    // Per-lane guard evaluation. Unpredicated instructions (@PT, the common
    // case) execute every context lane.
    let mut exec_mask = 0u32;
    if inst.guard.pred.is_pt() {
        if !inst.guard.neg {
            exec_mask = ctx.mask;
        }
    } else {
        for lane in 0..32 {
            if ctx.mask & (1 << lane) != 0 {
                let p = warp.read_pred(inst.guard.pred, lane);
                if p != inst.guard.neg {
                    exec_mask |= 1 << lane;
                }
            }
        }
    }

    // Control flow first (it rewrites contexts).
    match inst.op {
        Op::Exit => {
            // Exit the executing lanes; the rest continue at pc+1.
            remove_ctx(warp, pc);
            if ctx.mask & !exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: ctx.mask & !exec_mask,
                        pc: pc + 1,
                    },
                );
            }
            if warp.ctxs.is_empty() {
                warp.exited = true;
                return Ok(StepEvent::Exited);
            }
            return Ok(StepEvent::Executed);
        }
        Op::Bra { target } => {
            remove_ctx(warp, pc);
            if exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: exec_mask,
                        pc: target,
                    },
                );
            }
            if ctx.mask & !exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: ctx.mask & !exec_mask,
                        pc: pc + 1,
                    },
                );
            }
            return Ok(StepEvent::Executed);
        }
        Op::BarSync => {
            if warp.ctxs.len() > 1 {
                return Err(fail(
                    "BAR.SYNC in divergent control flow is not supported".into(),
                ));
            }
            advance_ctx(warp, pc);
            return Ok(StepEvent::Barrier);
        }
        _ => {}
    }

    // Data instructions: execute lane-by-lane under exec_mask.
    trace.exec_mask = exec_mask;
    let cbank = env.cbank;
    let bd = env.block_dim;
    let ctaid = env.ctaid;

    // Resolve SrcB for a lane.
    macro_rules! srcb {
        ($b:expr, $lane:expr) => {
            match $b {
                SrcB::Reg(r) => warp.read_reg(r, $lane),
                SrcB::Imm(v) => v,
                SrcB::Const(off) => cbank.read_u32(off),
            }
        };
    }

    // Full-warp row fast paths: when every lane executes and the destination
    // is a real register, operate on whole 32-lane register rows. Source
    // rows are copied to the stack first (sources may alias the
    // destination; per-lane order then matches the general path exactly),
    // which hoists all bounds checks and lets the lane loop vectorize. Lane
    // arithmetic is identical to the general path, so results stay
    // bit-identical.
    let full = exec_mask == u32::MAX;
    let row = |warp: &Warp, r: Reg| -> [u32; 32] {
        if r.is_rz() {
            [0u32; 32]
        } else {
            warp.regs[r.0 as usize]
        }
    };
    let row_b = |warp: &Warp, b: SrcB| -> [u32; 32] {
        match b {
            SrcB::Reg(r) => row(warp, r),
            SrcB::Imm(v) => [v; 32],
            SrcB::Const(off) => [cbank.read_u32(off); 32],
        }
    };

    match inst.op {
        Op::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => {
            if full && !d.is_rz() {
                // Source rows are read in place (only an immediate or
                // constant `b` is materialised), and the result row is
                // stored after every source has been read, so `d` may alias
                // any of them.
                let zero = [0u32; 32];
                let src = |r: Reg| {
                    if r.is_rz() {
                        &zero
                    } else {
                        &warp.regs[r.0 as usize]
                    }
                };
                let b_row;
                let rb = match b {
                    SrcB::Reg(r) => src(r),
                    other => {
                        b_row = row_b(warp, other);
                        &b_row
                    }
                };
                let out = ffma_rows(src(a), rb, src(c), neg_b, neg_c);
                warp.regs[d.0 as usize] = out;
            } else {
                for lane in lanes(exec_mask) {
                    let va = f(warp.read_reg(a, lane));
                    let vb = f(neg_f(srcb!(b, lane), neg_b));
                    let vc = f(neg_f(warp.read_reg(c, lane), neg_c));
                    warp.write_reg(d, lane, va.mul_add(vb, vc).to_bits());
                }
            }
        }
        Op::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            if full && !d.is_rz() {
                let ra = row(warp, a);
                let rb = row_b(warp, b);
                let rd = &mut warp.regs[d.0 as usize];
                for lane in 0..32 {
                    let va = f(neg_f(ra[lane], neg_a));
                    let vb = f(neg_f(rb[lane], neg_b));
                    rd[lane] = (va + vb).to_bits();
                }
            } else {
                for lane in lanes(exec_mask) {
                    let va = f(neg_f(warp.read_reg(a, lane), neg_a));
                    let vb = f(neg_f(srcb!(b, lane), neg_b));
                    warp.write_reg(d, lane, (va + vb).to_bits());
                }
            }
        }
        Op::Fmul { d, a, b, neg_b } => {
            if full && !d.is_rz() {
                let ra = row(warp, a);
                let rb = row_b(warp, b);
                let rd = &mut warp.regs[d.0 as usize];
                for lane in 0..32 {
                    let va = f(ra[lane]);
                    let vb = f(neg_f(rb[lane], neg_b));
                    rd[lane] = (va * vb).to_bits();
                }
            } else {
                for lane in lanes(exec_mask) {
                    let va = f(warp.read_reg(a, lane));
                    let vb = f(neg_f(srcb!(b, lane), neg_b));
                    warp.write_reg(d, lane, (va * vb).to_bits());
                }
            }
        }
        Op::Hfma2 { d, a, b, c } => {
            // Paired fp16 FMA: compute in f32, round each half to f16
            // (the hardware's fp16 accumulate behaviour, §8.3).
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(warp.read_reg(a, lane));
                let (b0, b1) = sass::half::unpack_half2(srcb!(b, lane));
                let (c0, c1) = sass::half::unpack_half2(warp.read_reg(c, lane));
                let v = sass::half::pack_half2(a0.mul_add(b0, c0), a1.mul_add(b1, c1));
                warp.write_reg(d, lane, v);
            }
        }
        Op::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(neg_f2(warp.read_reg(a, lane), neg_a));
                let (b0, b1) = sass::half::unpack_half2(neg_f2(srcb!(b, lane), neg_b));
                warp.write_reg(d, lane, sass::half::pack_half2(a0 + b0, a1 + b1));
            }
        }
        Op::Hmul2 { d, a, b } => {
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(warp.read_reg(a, lane));
                let (b0, b1) = sass::half::unpack_half2(srcb!(b, lane));
                warp.write_reg(d, lane, sass::half::pack_half2(a0 * b0, a1 * b1));
            }
        }
        Op::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => {
            for lane in lanes(exec_mask) {
                let va = f(warp.read_reg(a, lane));
                let vb = f(srcb!(b, lane));
                let base = cmp.eval_f32(va, vb);
                let comb = warp.read_pred(combine.pred, lane) != combine.neg;
                warp.write_pred(p, lane, base && comb);
            }
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
            for lane in lanes(exec_mask) {
                let va = neg_i(warp.read_reg(a, lane), neg_a);
                let vb = neg_i(srcb!(b, lane), neg_b);
                let vc = neg_i(warp.read_reg(c, lane), neg_c);
                warp.write_reg(d, lane, va.wrapping_add(vb).wrapping_add(vc));
            }
        }
        Op::Imad { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let v = warp
                    .read_reg(a, lane)
                    .wrapping_mul(srcb!(b, lane))
                    .wrapping_add(warp.read_reg(c, lane));
                warp.write_reg(d, lane, v);
            }
        }
        Op::ImadHi { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let prod = warp.read_reg(a, lane) as u64 * srcb!(b, lane) as u64;
                let v = ((prod >> 32) as u32).wrapping_add(warp.read_reg(c, lane));
                warp.write_reg(d, lane, v);
            }
        }
        Op::ImadWide { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let clo = warp.read_reg(c, lane) as u64;
                let chi = warp.read_reg(c.offset(1), lane) as u64;
                let prod = warp.read_reg(a, lane) as u64 * srcb!(b, lane) as u64;
                let sum = prod.wrapping_add(clo | (chi << 32));
                warp.write_reg(d, lane, sum as u32);
                warp.write_reg(d.offset(1), lane, (sum >> 32) as u32);
            }
        }
        Op::Lea { d, a, b, shift } => {
            for lane in lanes(exec_mask) {
                let v = srcb!(b, lane).wrapping_add(warp.read_reg(a, lane) << shift);
                warp.write_reg(d, lane, v);
            }
        }
        Op::Lop3 { d, a, b, c, lut } => {
            for lane in lanes(exec_mask) {
                let v = lop3(
                    warp.read_reg(a, lane),
                    srcb!(b, lane),
                    warp.read_reg(c, lane),
                    lut,
                );
                warp.write_reg(d, lane, v);
            }
        }
        Op::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => {
            for lane in lanes(exec_mask) {
                let n = srcb!(shift, lane) & 63;
                let vlo = warp.read_reg(lo, lane);
                let vhi = warp.read_reg(hi, lane);
                let v = if u32_mode {
                    let n = n & 31;
                    if right {
                        vlo >> n
                    } else {
                        vlo << n
                    }
                } else {
                    let wide = (vhi as u64) << 32 | vlo as u64;
                    if right {
                        (wide >> n) as u32
                    } else {
                        ((wide << n) >> 32) as u32
                    }
                };
                warp.write_reg(d, lane, v);
            }
        }
        Op::Mov { d, b } => {
            for lane in lanes(exec_mask) {
                let v = srcb!(b, lane);
                warp.write_reg(d, lane, v);
            }
        }
        Op::Sel { d, a, b, p } => {
            for lane in lanes(exec_mask) {
                let sel = warp.read_pred(p.pred, lane) != p.neg;
                let v = if sel {
                    warp.read_reg(a, lane)
                } else {
                    srcb!(b, lane)
                };
                warp.write_reg(d, lane, v);
            }
        }
        Op::Isetp {
            p,
            cmp,
            u32: unsigned,
            a,
            b,
            combine,
        } => {
            for lane in lanes(exec_mask) {
                let va = warp.read_reg(a, lane);
                let vb = srcb!(b, lane);
                let base = if unsigned {
                    cmp.eval_i64(va as i64, vb as i64)
                } else {
                    cmp.eval_i64(va as i32 as i64, vb as i32 as i64)
                };
                let comb = warp.read_pred(combine.pred, lane) != combine.neg;
                warp.write_pred(p, lane, base && comb);
            }
        }
        Op::P2r { d, a, mask } => {
            for lane in lanes(exec_mask) {
                let mut bits = 0u32;
                for i in 0..7 {
                    if warp.preds[i][lane] {
                        bits |= 1 << i;
                    }
                }
                let v = (warp.read_reg(a, lane) & !mask) | (bits & mask);
                warp.write_reg(d, lane, v);
            }
        }
        Op::R2p { a, mask } => {
            for lane in lanes(exec_mask) {
                let v = warp.read_reg(a, lane);
                for i in 0..7u32 {
                    if mask & (1 << i) != 0 {
                        warp.preds[i as usize][lane] = v & (1 << i) != 0;
                    }
                }
            }
        }
        Op::S2r { d, sr } => {
            for lane in lanes(exec_mask) {
                let linear = warp.base_tid + lane as u32;
                let v = match sr {
                    SpecialReg::TidX => linear % bd[0],
                    SpecialReg::TidY => (linear / bd[0]) % bd[1],
                    SpecialReg::TidZ => linear / (bd[0] * bd[1]),
                    SpecialReg::CtaidX => ctaid[0],
                    SpecialReg::CtaidY => ctaid[1],
                    SpecialReg::CtaidZ => ctaid[2],
                    SpecialReg::LaneId => lane as u32,
                    SpecialReg::WarpId => linear / WARP_SIZE,
                };
                warp.write_reg(d, lane, v);
            }
        }
        Op::Ld {
            space,
            width,
            d,
            addr,
        } => {
            trace.width = width.bytes();
            match space {
                MemSpace::Global => {
                    for lane in lanes(exec_mask) {
                        let lo = warp.read_reg(addr.base, lane) as u64;
                        let hi = warp.read_reg(addr.base.offset(1), lane) as u64;
                        let a = (lo | (hi << 32)).wrapping_add(addr.offset as i64 as u64);
                        trace.global_addrs.push(a);
                        // Widest access is 16 bytes; stage through a stack
                        // buffer so the per-lane path never heap-allocates.
                        let mut buf = [0u8; 16];
                        let n = width.bytes() as usize;
                        buf[..n].copy_from_slice(
                            env.global
                                .read(a, n)
                                .map_err(|e: MemError| fail(format!("lane {lane}: {e}")))?,
                        );
                        for i in 0..width.regs() {
                            let off = i as usize * 4;
                            warp.write_reg(
                                d.offset(i),
                                lane,
                                u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()),
                            );
                        }
                    }
                }
                MemSpace::Shared => {
                    if full {
                        // Row path: resolve and bounds-check all lane
                        // addresses up front (addresses come from the
                        // pre-copied base row, so a destination overlapping
                        // the address register reads the same values the
                        // lane-order path would), then fill each destination
                        // row with one tight pass over the lanes.
                        let base = row(warp, addr.base);
                        let mut addrs = [0u32; 32];
                        for (lane, slot) in addrs.iter_mut().enumerate() {
                            let a = base[lane].wrapping_add(addr.offset as u32);
                            trace.shared_addrs.push(a);
                            if a as usize + width.bytes() as usize > env.smem.len() {
                                return Err(fail(format!(
                                    "lane {lane}: shared load at {a:#x} past smem size {:#x}",
                                    env.smem.len()
                                )));
                            }
                            *slot = a;
                        }
                        for i in 0..width.regs() {
                            let di = d.offset(i);
                            if di.is_rz() {
                                continue;
                            }
                            let rd = &mut warp.regs[di.0 as usize];
                            for lane in 0..32 {
                                let off = addrs[lane] as usize + i as usize * 4;
                                rd[lane] =
                                    u32::from_le_bytes(env.smem[off..off + 4].try_into().unwrap());
                            }
                        }
                    } else {
                        for lane in lanes(exec_mask) {
                            let a = warp
                                .read_reg(addr.base, lane)
                                .wrapping_add(addr.offset as u32);
                            trace.shared_addrs.push(a);
                            let end = a as usize + width.bytes() as usize;
                            if end > env.smem.len() {
                                return Err(fail(format!(
                                    "lane {lane}: shared load at {a:#x} past smem size {:#x}",
                                    env.smem.len()
                                )));
                            }
                            for i in 0..width.regs() {
                                let off = a as usize + i as usize * 4;
                                let v =
                                    u32::from_le_bytes(env.smem[off..off + 4].try_into().unwrap());
                                warp.write_reg(d.offset(i), lane, v);
                            }
                        }
                    }
                }
            }
        }
        Op::St {
            space,
            width,
            addr,
            src,
        } => {
            trace.width = width.bytes();
            trace.is_store = true;
            match space {
                MemSpace::Global => {
                    for lane in lanes(exec_mask) {
                        let lo = warp.read_reg(addr.base, lane) as u64;
                        let hi = warp.read_reg(addr.base.offset(1), lane) as u64;
                        let a = (lo | (hi << 32)).wrapping_add(addr.offset as i64 as u64);
                        trace.global_addrs.push(a);
                        let mut buf = [0u8; 16];
                        for i in 0..width.regs() {
                            buf[i as usize * 4..i as usize * 4 + 4]
                                .copy_from_slice(&warp.read_reg(src.offset(i), lane).to_le_bytes());
                        }
                        env.global
                            .write(a, &buf[..width.bytes() as usize])
                            .map_err(|e| fail(format!("lane {lane}: {e}")))?;
                    }
                }
                MemSpace::Shared => {
                    if full {
                        // Stores only read registers, so staging the source
                        // rows is purely a bounds-check hoist. Writes stay
                        // lane-major like the general path, so overlapping
                        // lane addresses resolve identically.
                        let base = row(warp, addr.base);
                        let mut rows = [[0u32; 32]; 4];
                        for (i, r) in rows.iter_mut().take(width.regs() as usize).enumerate() {
                            *r = row(warp, src.offset(i as u8));
                        }
                        for (lane, &b) in base.iter().enumerate() {
                            let a = b.wrapping_add(addr.offset as u32);
                            trace.shared_addrs.push(a);
                            if a as usize + width.bytes() as usize > env.smem.len() {
                                return Err(fail(format!(
                                    "lane {lane}: shared store at {a:#x} past smem size {:#x}",
                                    env.smem.len()
                                )));
                            }
                            for (i, r) in rows.iter().take(width.regs() as usize).enumerate() {
                                let off = a as usize + i * 4;
                                env.smem[off..off + 4].copy_from_slice(&r[lane].to_le_bytes());
                            }
                        }
                    } else {
                        for lane in lanes(exec_mask) {
                            let a = warp
                                .read_reg(addr.base, lane)
                                .wrapping_add(addr.offset as u32);
                            trace.shared_addrs.push(a);
                            let end = a as usize + width.bytes() as usize;
                            if end > env.smem.len() {
                                return Err(fail(format!(
                                    "lane {lane}: shared store at {a:#x} past smem size {:#x}",
                                    env.smem.len()
                                )));
                            }
                            for i in 0..width.regs() {
                                let off = a as usize + i as usize * 4;
                                env.smem[off..off + 4].copy_from_slice(
                                    &warp.read_reg(src.offset(i), lane).to_le_bytes(),
                                );
                            }
                        }
                    }
                }
            }
        }
        Op::Nop => {}
        Op::Exit | Op::Bra { .. } | Op::BarSync => unreachable!("handled above"),
    }

    advance_ctx(warp, pc);
    Ok(StepEvent::Executed)
}

fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |l| mask & (1 << l) != 0)
}

/// 32-lane FFMA row kernel: `ra * (±rb) + (±rc)` per lane, fused
/// rounding. On x86-64 with FMA support this compiles with the FMA target
/// feature enabled, so `mul_add` inlines to `vfmadd` instead of calling
/// libm's `fmaf` per lane; both are IEEE correctly-rounded, so the result
/// bits are identical on every path.
#[inline]
fn ffma_rows(
    ra: &[u32; 32],
    rb: &[u32; 32],
    rc: &[u32; 32],
    neg_b: bool,
    neg_c: bool,
) -> [u32; 32] {
    #[inline(always)]
    fn rows(ra: &[u32; 32], rb: &[u32; 32], rc: &[u32; 32], neg_b: bool, neg_c: bool) -> [u32; 32] {
        let mut rd = [0u32; 32];
        for lane in 0..32 {
            let va = f(ra[lane]);
            let vb = f(neg_f(rb[lane], neg_b));
            let vc = f(neg_f(rc[lane], neg_c));
            rd[lane] = va.mul_add(vb, vc).to_bits();
        }
        rd
    }
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "fma")]
        unsafe fn rows_hw(
            ra: &[u32; 32],
            rb: &[u32; 32],
            rc: &[u32; 32],
            neg_b: bool,
            neg_c: bool,
        ) -> [u32; 32] {
            rows(ra, rb, rc, neg_b, neg_c)
        }
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the FMA feature was just detected at runtime.
            return unsafe { rows_hw(ra, rb, rc, neg_b, neg_c) };
        }
    }
    rows(ra, rb, rc, neg_b, neg_c)
}

fn remove_ctx(warp: &mut Warp, pc: u32) {
    warp.ctxs.retain(|c| c.pc != pc);
}

fn push_ctx(warp: &mut Warp, ctx: WarpCtx) {
    // Merge with an existing context at the same PC (reconvergence).
    for c in &mut warp.ctxs {
        if c.pc == ctx.pc {
            c.mask |= ctx.mask;
            return;
        }
    }
    warp.ctxs.push(ctx);
}

fn advance_ctx(warp: &mut Warp, pc: u32) {
    // A converged warp has nothing to merge with: bump its PC in place.
    if let [only] = warp.ctxs.as_mut_slice() {
        if only.pc == pc {
            only.pc += 1;
            return;
        }
    }
    let mut moved = 0u32;
    warp.ctxs.retain(|c| {
        if c.pc == pc {
            moved |= c.mask;
            false
        } else {
            true
        }
    });
    if moved != 0 {
        push_ctx(
            warp,
            WarpCtx {
                mask: moved,
                pc: pc + 1,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{ConstBank, GlobalMemory, ParamBuilder};
    use sass::isa::build::*;
    use sass::reg::{Pred, Reg, RZ};

    fn env_fixture<'a>(
        global: &'a mut GlobalMemory,
        smem: &'a mut [u8],
        cbank: &'a ConstBank,
    ) -> ExecEnv<'a> {
        // Lifetimes: caller holds the storage.
        ExecEnv {
            global,
            smem,
            cbank,
            ctaid: [3, 2, 1],
            block_dim: [64, 1, 1],
        }
    }

    fn run_insts(
        insts: Vec<Instruction>,
        setup: impl FnOnce(&mut Warp, &mut GlobalMemory),
    ) -> (Warp, GlobalMemory) {
        let mut insts = insts;
        insts.push(Instruction::new(Op::Exit));
        let mut global = GlobalMemory::new(1 << 20);
        let mut smem = vec![0u8; 48 * 1024];
        let cbank = ConstBank::new(
            [64, 1, 1],
            [8, 8, 8],
            &ParamBuilder::new().push_u32(42).push_u32(7).build(),
        );
        let mut warp = Warp::new(64, 0, 32);
        setup(&mut warp, &mut global);
        let mut env = ExecEnv {
            global: &mut global,
            smem: &mut smem,
            cbank: &cbank,
            ctaid: [3, 2, 1],
            block_dim: [64, 1, 1],
        };
        let mut trace = MemTrace::default();
        for _ in 0..10_000 {
            match step(&mut warp, &insts, &mut env, 0, &mut trace).unwrap() {
                StepEvent::Exited => break,
                StepEvent::Barrier => panic!("unexpected barrier"),
                StepEvent::Executed => {}
            }
        }
        assert!(warp.exited, "warp did not exit");
        (warp, global)
    }

    #[test]
    fn ffma_and_fadd_semantics() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 3.0f32)),
                Instruction::new(mov(Reg(2), 4.0f32)),
                Instruction::new(mov(Reg(3), 10.0f32)),
                Instruction::new(ffma(Reg(4), Reg(1), Reg(2), Reg(3))),
                Instruction::new(fsub(Reg(5), Reg(4), Reg(3))),
                Instruction::new(Op::Ffma {
                    d: Reg(6),
                    a: Reg(1),
                    b: SrcB::Reg(Reg(2)),
                    c: Reg(3),
                    neg_b: true,
                    neg_c: true,
                }),
            ],
            |_, _| {},
        );
        assert_eq!(f32::from_bits(w.regs[4][0]), 22.0);
        assert_eq!(f32::from_bits(w.regs[5][7]), 12.0);
        assert_eq!(f32::from_bits(w.regs[6][31]), -22.0);
    }

    #[test]
    fn integer_ops() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 100u32)),
                Instruction::new(iadd3(Reg(2), Reg(1), 28u32, Reg(1))), // 228
                Instruction::new(imad(Reg(3), Reg(1), 3u32, Reg(2))),   // 528
                Instruction::new(Op::Iadd3 {
                    d: Reg(4),
                    a: Reg(3),
                    neg_a: false,
                    b: Reg(1).into(),
                    neg_b: true,
                    c: RZ,
                    neg_c: false,
                }), // 528 - 100 = 428
                Instruction::new(shl(Reg(5), Reg(1), 4)),               // 1600
                Instruction::new(shr(Reg(6), Reg(5), 2)),               // 400
                Instruction::new(and(Reg(7), Reg(1), 0x6cu32)),         // 0x64 & 0x6c = 0x64
                Instruction::new(or(Reg(8), Reg(1), 0x1u32)),
                Instruction::new(xor(Reg(9), Reg(1), Reg(1))),
                Instruction::new(lea(Reg(10), Reg(1), 5u32, 2)), // 5 + 100*4 = 405
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[2][0], 228);
        assert_eq!(w.regs[3][0], 528);
        assert_eq!(w.regs[4][0], 428);
        assert_eq!(w.regs[5][0], 1600);
        assert_eq!(w.regs[6][0], 400);
        assert_eq!(w.regs[7][0], 0x64);
        assert_eq!(w.regs[8][0], 101);
        assert_eq!(w.regs[9][0], 0);
        assert_eq!(w.regs[10][0], 405);
    }

    #[test]
    fn imad_wide_builds_64bit_addresses() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(4), 0x8000_0000u32)), // c lo
                Instruction::new(mov(Reg(5), 0x1u32)),         // c hi
                Instruction::new(mov(Reg(1), 0x4000_0000u32)),
                Instruction::new(imad_wide(Reg(2), Reg(1), 4u32, Reg(4))),
            ],
            |_, _| {},
        );
        // 0x4000_0000 * 4 + 0x1_8000_0000 = 0x2_8000_0000
        assert_eq!(w.regs[2][0], 0x8000_0000);
        assert_eq!(w.regs[3][0], 0x2);
    }

    #[test]
    fn imad_hi_for_magic_division() {
        // Divide 1000 by 28 via magic number: m = ceil(2^34/28)=613566757,
        // shift = 2 (classic magicu). q = hi(1000*m) >> 2 = 35.
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 1000u32)),
                Instruction::new(mov(Reg(2), 613566757u32)),
                Instruction::new(Op::ImadHi {
                    d: Reg(3),
                    a: Reg(1),
                    b: SrcB::Reg(Reg(2)),
                    c: RZ,
                }),
                Instruction::new(shr(Reg(4), Reg(3), 2)),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][0], 1000 / 28);
    }

    #[test]
    fn s2r_thread_indices() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::TidX)),
                Instruction::new(s2r(Reg(2), SpecialReg::CtaidY)),
                Instruction::new(s2r(Reg(3), SpecialReg::LaneId)),
                Instruction::new(s2r(Reg(4), SpecialReg::WarpId)),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[1][5], 5);
        assert_eq!(w.regs[2][0], 2);
        assert_eq!(w.regs[3][9], 9);
        assert_eq!(w.regs[4][0], 0);
    }

    #[test]
    fn predicates_and_sel() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(isetp(Pred(0), CmpOp::Lt, Reg(1), 16u32)),
                Instruction::new(mov(Reg(2), 111u32)),
                Instruction::new(mov(Reg(3), 222u32)),
                Instruction::new(Op::Sel {
                    d: Reg(4),
                    a: Reg(2),
                    b: SrcB::Reg(Reg(3)),
                    p: PredSrc::of(Pred(0)),
                }),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][3], 111);
        assert_eq!(w.regs[4][20], 222);
    }

    #[test]
    fn p2r_r2p_round_trip() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                // P0 = lane < 8, P1 = lane is even, P2 = lane >= 30.
                Instruction::new(isetp(Pred(0), CmpOp::Lt, Reg(1), 8u32)),
                Instruction::new(and(Reg(2), Reg(1), 1u32)),
                Instruction::new(isetp(Pred(1), CmpOp::Eq, Reg(2), 0u32)),
                Instruction::new(isetp(Pred(2), CmpOp::Ge, Reg(1), 30u32)),
                // Pack into R3, clobber preds, unpack.
                Instruction::new(Op::P2r {
                    d: Reg(3),
                    a: RZ,
                    mask: 0x7f,
                }),
                Instruction::new(isetp(Pred(0), CmpOp::Ge, Reg(1), 0u32)), // true
                Instruction::new(isetp(Pred(1), CmpOp::Ge, Reg(1), 0u32)),
                Instruction::new(isetp(Pred(2), CmpOp::Ge, Reg(1), 0u32)),
                Instruction::new(Op::R2p {
                    a: Reg(3),
                    mask: 0x7,
                }),
                // Read back via SEL.
                Instruction::new(Op::Sel {
                    d: Reg(4),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(0)),
                }),
                Instruction::new(Op::Sel {
                    d: Reg(5),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(1)),
                }),
                Instruction::new(Op::Sel {
                    d: Reg(6),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(2)),
                }),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][5], 5); // P0 true for lane 5
        assert_eq!(w.regs[4][9], 999);
        assert_eq!(w.regs[5][4], 4); // even lane
        assert_eq!(w.regs[5][5], 999);
        assert_eq!(w.regs[6][31], 31);
        assert_eq!(w.regs[6][2], 999);
    }

    #[test]
    fn global_memory_round_trip_and_predication() {
        let (w, g) = run_insts(
            vec![
                // R2:R3 = base pointer from params? use direct setup value.
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(shl(Reg(6), Reg(1), 2)),
                Instruction::new(iadd3(Reg(2), Reg(6), Reg(4), RZ)),
                Instruction::new(mov(Reg(3), Reg(5))),
                // Guarded load: only lanes < 16 load.
                Instruction::new(isetp(Pred(1), CmpOp::Lt, Reg(1), 16u32)),
                Instruction::new(mov(Reg(8), 0xdeadu32)),
                Instruction::new(ldg(MemWidth::B32, Reg(8), Reg(2), 0))
                    .with_guard(PredGuard::on(Pred(1))),
                // All lanes store R8 to base + 256 + lane*4.
                Instruction::new(stg(MemWidth::B32, Reg(2), 256, Reg(8))),
            ],
            |w, g| {
                let p = g.alloc(1024);
                let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
                g.upload_f32(p, &vals).unwrap();
                for lane in 0..32 {
                    w.regs[4][lane] = p as u32;
                    w.regs[5][lane] = (p >> 32) as u32;
                }
            },
        );
        assert_eq!(f32::from_bits(w.regs[8][3]), 3.0);
        assert_eq!(w.regs[8][20], 0xdead, "guarded-off lane keeps old value");
        let base = 0x1000_0000u64; // first alloc
        let stored = g.download_f32(base + 256, 32).unwrap();
        assert_eq!(stored[7], 7.0);
        assert_eq!(stored[25], f32::from_bits(0xdead));
    }

    #[test]
    fn shared_memory_and_vector_widths() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(shl(Reg(2), Reg(1), 4)),
                Instruction::new(mov(Reg(4), 1.0f32)),
                Instruction::new(mov(Reg(5), 2.0f32)),
                Instruction::new(mov(Reg(6), 3.0f32)),
                Instruction::new(mov(Reg(7), 4.0f32)),
                Instruction::new(sts(MemWidth::B128, Reg(2), 0, Reg(4))),
                Instruction::new(lds(MemWidth::B64, Reg(8), Reg(2), 8)),
            ],
            |_, _| {},
        );
        assert_eq!(f32::from_bits(w.regs[8][0]), 3.0);
        assert_eq!(f32::from_bits(w.regs[9][0]), 4.0);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // if (lane < 4) R2 = 7; else R2 = 9;  then all lanes R3 = R2 + 1.
        let insts = vec![
            /* 0 */ Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
            /* 1 */ Instruction::new(isetp(Pred(0), CmpOp::Ge, Reg(1), 4u32)),
            /* 2 */
            Instruction::new(Op::Bra { target: 5 }).with_guard(PredGuard::on(Pred(0))),
            /* 3 */ Instruction::new(mov(Reg(2), 7u32)),
            /* 4 */ Instruction::new(Op::Bra { target: 6 }),
            /* 5 */ Instruction::new(mov(Reg(2), 9u32)),
            /* 6 */ Instruction::new(iadd3(Reg(3), Reg(2), 1u32, RZ)),
        ];
        let (w, _) = run_insts(insts, |_, _| {});
        assert_eq!(w.regs[3][0], 8);
        assert_eq!(w.regs[3][3], 8);
        assert_eq!(w.regs[3][4], 10);
        assert_eq!(w.regs[3][31], 10);
    }

    #[test]
    fn loop_with_backward_branch() {
        // R2 = sum of 1..=10 via a loop.
        let insts = vec![
            /* 0 */ Instruction::new(mov(Reg(1), 10u32)),
            /* 1 */ Instruction::new(mov(Reg(2), 0u32)),
            /* 2 */ Instruction::new(iadd3(Reg(2), Reg(2), Reg(1), RZ)),
            /* 3 */ Instruction::new(iadd3(Reg(1), Reg(1), (-1i32) as u32, RZ)),
            /* 4 */ Instruction::new(isetp(Pred(0), CmpOp::Gt, Reg(1), 0u32)),
            /* 5 */
            Instruction::new(Op::Bra { target: 2 }).with_guard(PredGuard::on(Pred(0))),
        ];
        let (w, _) = run_insts(insts, |_, _| {});
        assert_eq!(w.regs[2][0], 55);
    }

    #[test]
    fn const_bank_reads() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), SrcB::Const(0x160))),
                Instruction::new(mov(Reg(2), SrcB::Const(0x164))),
                Instruction::new(mov(Reg(3), SrcB::Const(0x0))), // blockDim.x
                Instruction::new(mov(Reg(4), SrcB::Const(0x10))), // gridDim.y
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[1][0], 42);
        assert_eq!(w.regs[2][0], 7);
        assert_eq!(w.regs[3][0], 64);
        assert_eq!(w.regs[4][0], 8);
    }

    #[test]
    fn oob_global_access_reports_context() {
        let insts = vec![
            Instruction::new(mov(Reg(2), 0u32)),
            Instruction::new(mov(Reg(3), 0u32)),
            Instruction::new(ldg(MemWidth::B32, Reg(4), Reg(2), 0)),
            Instruction::new(Op::Exit),
        ];
        let mut global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 0];
        let cbank = ConstBank::new([32, 1, 1], [1, 1, 1], &[]);
        let mut warp = Warp::new(16, 0, 32);
        let mut env = env_fixture(&mut global, &mut smem, &cbank);
        let mut trace = MemTrace::default();
        let mut res = Ok(StepEvent::Executed);
        for _ in 0..4 {
            res = step(&mut warp, &insts, &mut env, 5, &mut trace);
            if res.is_err() {
                break;
            }
        }
        let err = res.unwrap_err();
        assert_eq!(err.warp, 5);
        assert_eq!(err.pc, 2);
        assert!(err.msg.contains("out-of-bounds"), "{err}");
        assert!(err.inst.contains("LDG"), "{err}");
    }

    #[test]
    fn partial_warp_masks_inactive_lanes() {
        let mut global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 256];
        let cbank = ConstBank::new([8, 1, 1], [1, 1, 1], &[]);
        // Block of 8 threads: only lanes 0-7 active.
        let mut warp = Warp::new(16, 0, 8);
        let insts = vec![
            Instruction::new(mov(Reg(1), 5u32)),
            Instruction::new(Op::Exit),
        ];
        let mut env = env_fixture(&mut global, &mut smem, &cbank);
        let mut trace = MemTrace::default();
        loop {
            if step(&mut warp, &insts, &mut env, 0, &mut trace).unwrap() == StepEvent::Exited {
                break;
            }
        }
        assert_eq!(warp.regs[1][7], 5);
        assert_eq!(warp.regs[1][8], 0, "inactive lane untouched");
    }
}
