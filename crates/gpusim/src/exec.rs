//! Functional (architectural) execution of warps.
//!
//! This module gives every ISA instruction its semantics. It is used both by
//! the functional grid launcher (correctness runs) and by the cycle-level SM
//! model in [`crate::timing`], which executes instructions at issue time so
//! that memory addresses — and therefore bank conflicts and cache
//! behaviour — are exact rather than statistical. The launcher runs every
//! instruction with [`Effects::All`]; the timing model runs the memory
//! accesses and control flow outside its timing slice ([`crate::slice`])
//! with [`Effects::NoData`], and moves the PC past the other instructions
//! there itself.
//!
//! Divergence is handled SIMT-style with a set of `(mask, pc)` execution
//! contexts per warp; the context with the smallest PC runs next, and
//! contexts at equal PCs merge (a simple reconvergence rule that is exact
//! for the structured control flow our kernels use).
//!
//! Every data instruction has one implementation, over whole 32-lane
//! register rows, whatever its lane mask:
//!
//! * **Rows in, one masked row out.** Each source resolves once per
//!   instruction to a row (a register read in place, `RZ` as zeros, an
//!   immediate or constant-bank word broadcast), the op computes all 32
//!   lanes, and the result lands through one masked row store: lanes in the
//!   executing mask (divergence context ∧ guard) take the new value, the rest
//!   keep theirs. Computing an inactive lane has no side effect (integer ops
//!   wrap, float ops do not trap), so active lanes are bit-identical to
//!   lane-by-lane execution. Every source row is read before any destination
//!   is written, so a destination may alias any source.
//! * **Predicates are lane masks.** `Warp::preds[p]` holds predicate `Pp` of
//!   every lane as one bit; a guard is `ctx.mask & (p ^ neg)`.
//! * **Memory is checked once per warp access, over active lanes only.**
//!   An access of `w` bytes per lane must sit at a multiple of `w`, as on
//!   the hardware, or it faults with `misaligned address` before any bounds
//!   check. A shared access checks every lane in lane-mask compares; a
//!   global access takes one window of the word arena spanning the active
//!   lanes, and searches lane by lane only when that fails. Either way the
//!   [`ExecError`] names the lowest faulting active lane. An inactive lane's
//!   address is never checked, so a guarded-off padding load with a wild
//!   address is legal. Each active lane then moves one 4, 8 or 16 B chunk;
//!   stores go in lane order, so on overlapping addresses the last lane
//!   wins. A faulting access changes no register or memory. Global words
//!   move by relaxed atomics, so blocks on other host threads may share the
//!   arena ([`crate::memory`]).
//! * **Float results carry canonical NaNs**: `0x7fff_ffff` from FFMA, FADD
//!   and FMUL, `0x7fff` per NaN half from HFMA2, HADD2 and HMUL2, as on
//!   NVIDIA hardware. Rust leaves a computed NaN's bits unspecified, so
//!   without the rule they would depend on how the simulator was compiled.

use sass::isa::*;
use sass::reg::{Pred, Reg};

use std::sync::atomic::Ordering::Relaxed;

use crate::memory::{ConstBank, GlobalMemory, MemError};

/// Maximum lanes per warp.
pub const WARP_SIZE: u32 = 32;

/// One register's 32 lane values: the unit every data instruction works on.
type Row = [u32; WARP_SIZE as usize];

/// The row `RZ` reads.
const ZERO_ROW: Row = [0; WARP_SIZE as usize];

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
    pub regs: Vec<Row>,
    /// Predicate file: bit `lane` of `preds[p]` is `Pp` of that lane, p in
    /// 0..7.
    pub preds: [u32; 7],
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
        Warp {
            regs: vec![ZERO_ROW; num_regs as usize],
            preds: [0; 7],
            ctxs: vec![WarpCtx {
                mask: u32::MAX >> (WARP_SIZE - lanes),
                pc: 0,
            }],
            base_tid,
            exited: false,
        }
    }

    /// A register source's row, read in place (`RZ` reads zeros).
    #[inline]
    fn reg(&self, r: Reg) -> &Row {
        if r.is_rz() {
            &ZERO_ROW
        } else {
            &self.regs[r.0 as usize]
        }
    }

    /// The `B` operand's row: a register read in place, or an immediate or
    /// constant-bank word broadcast into `splat`.
    #[inline]
    fn src_b<'a>(&'a self, b: SrcB, cbank: &ConstBank, splat: &'a mut Row) -> &'a Row {
        match b {
            SrcB::Reg(r) => self.reg(r),
            SrcB::Imm(v) => {
                *splat = [v; 32];
                splat
            }
            SrcB::Const(off) => {
                *splat = [cbank.read_u32(off); 32];
                splat
            }
        }
    }

    /// The lanes where predicate source `p` (negated if `neg`) holds; `PT`
    /// holds on every lane.
    #[inline]
    fn pred(&self, p: Pred, neg: bool) -> u32 {
        let v = if p.is_pt() {
            u32::MAX
        } else {
            self.preds[p.0 as usize]
        };
        if neg {
            !v
        } else {
            v
        }
    }

    /// The masked row store: lanes in `mask` take `v`, the others keep their
    /// value; writes to `RZ` are discarded.
    #[inline]
    fn store(&mut self, d: Reg, v: &Row, mask: u32) {
        if !d.is_rz() {
            blend(&mut self.regs[d.0 as usize], v, mask);
        }
    }

    /// The masked predicate store: `Pp` of the lanes in `mask` becomes their
    /// bit of `v`; writes to `PT` are discarded.
    #[inline]
    fn set_pred(&mut self, p: Pred, v: u32, mask: u32) {
        if !p.is_pt() {
            let old = &mut self.preds[p.0 as usize];
            *old = (*old & !mask) | (v & mask);
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

/// How much of an instruction [`step`] carries out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effects {
    /// Everything: the functional semantics. The functional launchers run
    /// every instruction this way.
    All,
    /// What steers the warp and where it touches memory, and no data:
    /// control flow runs in full, a memory access computes, checks and
    /// traces its addresses but moves nothing, and any other instruction
    /// only advances the PC. The timing model runs the memory accesses and
    /// control flow outside its timing slice ([`crate::slice`]) this way.
    NoData,
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
    /// The global arena, shared with every other block of the launch.
    pub global: &'a GlobalMemory,
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

/// The sign mask a float negation flag XORs in: `0x8000_0000` for one
/// f32, `0x8000_8000` for both halves of a half2 word.
#[inline]
fn sign(neg: bool, bits: u32) -> u32 {
    if neg {
        bits
    } else {
        0
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

/// `LOP3.LUT` over rows: bit `i` of `lut` is the output for inputs
/// `(a, b, c)` equal to the bits of `i`, `a` the most significant, so the
/// result ORs the minterm of every set bit.
fn lop3(a: &Row, b: &Row, c: &Row, lut: u8) -> Row {
    let mut out = ZERO_ROW;
    for i in 0..8 {
        if lut >> i & 1 != 0 {
            // XOR with all ones complements an input whose bit in `i` is 0.
            let flip = |bit: u32| if i >> bit & 1 != 0 { 0 } else { u32::MAX };
            let (fa, fb, fc) = (flip(2), flip(1), flip(0));
            for lane in 0..32 {
                out[lane] |= (a[lane] ^ fa) & (b[lane] ^ fb) & (c[lane] ^ fc);
            }
        }
    }
    out
}

/// The lane mask of `cmp` over the lane values `a(lane)` and `b(lane)`.
#[inline(always)]
fn compare<T: PartialOrd>(cmp: CmpOp, a: impl Fn(usize) -> T, b: impl Fn(usize) -> T) -> u32 {
    match cmp {
        CmpOp::Lt => lane_mask(|l| a(l) < b(l)),
        CmpOp::Le => lane_mask(|l| a(l) <= b(l)),
        CmpOp::Gt => lane_mask(|l| a(l) > b(l)),
        CmpOp::Ge => lane_mask(|l| a(l) >= b(l)),
        CmpOp::Eq => lane_mask(|l| a(l) == b(l)),
        CmpOp::Ne => lane_mask(|l| a(l) != b(l)),
    }
}

/// The lanes of `mask` in `dst` take their value in `v`.
#[inline]
fn blend(dst: &mut Row, v: &Row, mask: u32) {
    if mask == u32::MAX {
        *dst = *v;
    } else {
        for lane in 0..32 {
            if mask & 1 << lane != 0 {
                dst[lane] = v[lane];
            }
        }
    }
}

/// An f32 result's bits, with a NaN canonical as NVIDIA hardware returns
/// it: `0x7fff_ffff`. Applied per lane inside the op, so it vectorizes with
/// the arithmetic.
#[inline(always)]
fn canonical(v: f32) -> u32 {
    if v.is_nan() {
        0x7fff_ffff
    } else {
        v.to_bits()
    }
}

/// A half2 result word with each NaN half canonical: `0x7fff`.
#[inline(always)]
fn canonical_half2(w: u32) -> u32 {
    let half = |h: u32| if h & 0x7fff > 0x7c00 { 0x7fff } else { h };
    half(w & 0xffff) | half(w >> 16) << 16
}

/// `f` over three source rows, lane by lane.
#[inline(always)]
fn zip3(a: &Row, b: &Row, c: &Row, f: impl Fn(u32, u32, u32) -> u32) -> Row {
    let mut out = ZERO_ROW;
    for lane in 0..32 {
        out[lane] = f(a[lane], b[lane], c[lane]);
    }
    out
}

/// `f` over two source rows, lane by lane.
#[inline(always)]
fn zip2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) -> Row {
    zip3(a, b, &ZERO_ROW, |a, b, _| f(a, b))
}

/// The lane mask of `f(lane)`.
#[inline(always)]
fn lane_mask(f: impl Fn(usize) -> bool) -> u32 {
    let mut mask = 0;
    for lane in 0..32 {
        mask |= (f(lane) as u32) << lane;
    }
    mask
}

/// `f` on each lane of `mask`, in ascending order (a full mask runs a
/// plain `0..32` loop).
#[inline(always)]
fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for lane in 0..32 {
            f(lane);
        }
    } else {
        let mut rest = mask;
        while rest != 0 {
            f(rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Append the `mask` lanes of `row`, in lane order, to `out` as one slice.
#[inline]
fn push_active<T: Copy + Default>(out: &mut Vec<T>, row: &[T; 32], mask: u32) {
    if mask == u32::MAX {
        out.extend_from_slice(row);
    } else {
        let (mut packed, mut n) = ([T::default(); 32], 0);
        for_lanes(mask, |lane| {
            packed[n] = row[lane];
            n += 1;
        });
        out.extend_from_slice(&packed[..n]);
    }
}

/// One warp memory access of `N` words per lane: `LD` into the rows from
/// `data` on, or `ST` from them. Every lane's address is resolved (an
/// inactive lane's is never checked or touched) and the active lanes'
/// addresses are appended to `trace`. Then one check covers the active
/// lanes: lane-mask compares against the width and the shared-memory size,
/// or one global arena window spanning them. A failed check names the
/// lowest faulting active lane, misalignment before bounds, and moves
/// nothing; otherwise, when `moves` is set, each active lane moves its one
/// chunk, stores in lane order.
#[allow(clippy::too_many_arguments)]
fn access<const N: usize>(
    warp: &mut Warp,
    env: &mut ExecEnv<'_>,
    trace: &mut MemTrace,
    space: MemSpace,
    addr: Addr,
    data: Reg,
    mask: u32,
    store: bool,
    moves: bool,
) -> Result<(), String> {
    let width = 4 * N;
    trace.width = width as u32;
    let base = warp.reg(addr.base);
    let mut offs = [0usize; 32];
    let mut rows = [ZERO_ROW; N];
    if store && moves {
        for (i, row) in rows.iter_mut().enumerate() {
            *row = *warp.reg(data.offset(i as u8));
        }
    }
    match space {
        MemSpace::Shared => {
            let mut a = ZERO_ROW;
            for lane in 0..32 {
                a[lane] = base[lane].wrapping_add(addr.offset as u32);
                offs[lane] = a[lane] as usize;
            }
            push_active(&mut trace.shared_addrs, &a, mask);
            let size = env.smem.len();
            // A lane faults off its width's alignment or past the end:
            // `a + width > size`, as `a > size - width` in u32.
            let fault = match size.checked_sub(width) {
                Some(last) => {
                    let last = u32::try_from(last).unwrap_or(u32::MAX);
                    lane_mask(|l| !a[l].is_multiple_of(width as u32) || a[l] > last) & mask
                }
                None => mask,
            };
            if fault != 0 {
                let lane = fault.trailing_zeros() as usize;
                let what = if store { "store" } else { "load" };
                return Err(if a[lane].is_multiple_of(width as u32) {
                    format!(
                        "lane {lane}: shared {what} at {:#x} past smem size {size:#x}",
                        a[lane]
                    )
                } else {
                    let e = MemError::Misaligned {
                        addr: a[lane] as u64,
                        len: width,
                    };
                    format!("lane {lane}: {e}")
                });
            }
            if !moves {
                return Ok(());
            }
            let smem = &mut *env.smem;
            if store {
                for_lanes(mask, |lane| {
                    let (words, _) = smem[offs[lane]..offs[lane] + width].as_chunks_mut::<4>();
                    for i in 0..N {
                        words[i] = rows[i][lane].to_le_bytes();
                    }
                });
            } else {
                for_lanes(mask, |lane| {
                    let (words, _) = smem[offs[lane]..offs[lane] + width].as_chunks::<4>();
                    for i in 0..N {
                        rows[i][lane] = u32::from_le_bytes(words[i]);
                    }
                });
            }
        }
        MemSpace::Global => {
            let high = warp.reg(addr.base.offset(1));
            let mut a = [0u64; 32];
            for lane in 0..32 {
                let pair = base[lane] as u64 | (high[lane] as u64) << 32;
                a[lane] = pair.wrapping_add(addr.offset as i64 as u64);
            }
            push_active(&mut trace.global_addrs, &a, mask);
            if mask == 0 {
                return Ok(());
            }
            // The OR of the addresses has a low bit set iff some lane's has.
            let (mut lo, mut hi, mut any) = (u64::MAX, 0, 0);
            for_lanes(mask, |l| {
                (lo, hi, any) = (lo.min(a[l]), hi.max(a[l]), any | a[l])
            });
            let window = any
                .is_multiple_of(width as u64)
                .then(|| env.global.window(lo, hi.saturating_add(width as u64)))
                .flatten();
            let Some(words) = window else {
                let (lane, e) = (0..32)
                    .filter(|&l| mask >> l & 1 != 0)
                    .find_map(|l| Some((l, env.global.check(a[l], width).err()?)))
                    .expect("an active lane faults");
                return Err(format!("lane {lane}: {e}"));
            };
            if !moves {
                return Ok(());
            }
            for lane in 0..32 {
                offs[lane] = (a[lane].wrapping_sub(lo) / 4) as usize;
            }
            if store {
                for_lanes(mask, |lane| {
                    for (i, word) in words[offs[lane]..offs[lane] + N].iter().enumerate() {
                        word.store(rows[i][lane], Relaxed);
                    }
                });
            } else {
                for_lanes(mask, |lane| {
                    for (i, word) in words[offs[lane]..offs[lane] + N].iter().enumerate() {
                        rows[i][lane] = word.load(Relaxed);
                    }
                });
            }
        }
    }
    if !store {
        for (i, row) in rows.iter().enumerate() {
            warp.store(data.offset(i as u8), row, mask);
        }
    }
    Ok(())
}

/// Execute one instruction step for `warp`, carrying out the `effects` of
/// it, and return the event. `trace` is cleared and then filled with the
/// step's memory behaviour (empty for anything but a memory instruction).
pub fn step(
    warp: &mut Warp,
    insts: &[Instruction],
    env: &mut ExecEnv<'_>,
    warp_idx: u32,
    trace: &mut MemTrace,
    effects: Effects,
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

    let ctaid = env.ctaid;
    let fail = |msg: String| ExecError {
        ctaid,
        warp: warp_idx,
        pc,
        inst: sass::disasm::inst_text(inst),
        msg,
    };

    let exec_mask = ctx.mask & warp.pred(inst.guard.pred, inst.guard.neg);

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

    // Data instructions: whole rows under exec_mask.
    trace.exec_mask = exec_mask;
    let moves = effects == Effects::All;
    if !moves && !matches!(inst.op, Op::Ld { .. } | Op::St { .. }) {
        advance_ctx(warp, pc);
        return Ok(StepEvent::Executed);
    }
    let cbank = env.cbank;
    let mut splat = ZERO_ROW;
    let half2 = sass::half::unpack_half2;
    let pack2 = sass::half::pack_half2;
    let out = match inst.op {
        Op::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = ffma_rows(warp.reg(a), rb, warp.reg(c), neg_b, neg_c);
            Some((d, out))
        }
        Op::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            let (sa, sb) = (sign(neg_a, 1 << 31), sign(neg_b, 1 << 31));
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip2(warp.reg(a), rb, |a, b| canonical(f(a ^ sa) + f(b ^ sb)));
            Some((d, out))
        }
        Op::Fmul { d, a, b, neg_b } => {
            let sb = sign(neg_b, 1 << 31);
            let rb = warp.src_b(b, cbank, &mut splat);
            Some((d, zip2(warp.reg(a), rb, |a, b| canonical(f(a) * f(b ^ sb)))))
        }
        Op::Hfma2 { d, a, b, c } => {
            // Paired fp16 FMA: compute in f32, round each half to f16
            // (the hardware's fp16 accumulate behaviour, §8.3).
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip3(warp.reg(a), rb, warp.reg(c), |a, b, c| {
                let ((a0, a1), (b0, b1), (c0, c1)) = (half2(a), half2(b), half2(c));
                canonical_half2(pack2(a0.mul_add(b0, c0), a1.mul_add(b1, c1)))
            });
            Some((d, out))
        }
        Op::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            let (sa, sb) = (sign(neg_a, 0x8000_8000), sign(neg_b, 0x8000_8000));
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip2(warp.reg(a), rb, |a, b| {
                let ((a0, a1), (b0, b1)) = (half2(a ^ sa), half2(b ^ sb));
                canonical_half2(pack2(a0 + b0, a1 + b1))
            });
            Some((d, out))
        }
        Op::Hmul2 { d, a, b } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip2(warp.reg(a), rb, |a, b| {
                let ((a0, a1), (b0, b1)) = (half2(a), half2(b));
                canonical_half2(pack2(a0 * b0, a1 * b1))
            });
            Some((d, out))
        }
        Op::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => {
            let (ra, rb) = (warp.reg(a), warp.src_b(b, cbank, &mut splat));
            let v = compare(cmp, |l| f(ra[l]), |l| f(rb[l]));
            let v = v & warp.pred(combine.pred, combine.neg);
            warp.set_pred(p, v, exec_mask);
            None
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
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip3(warp.reg(a), rb, warp.reg(c), |a, b, c| {
                let (a, b, c) = (neg_i(a, neg_a), neg_i(b, neg_b), neg_i(c, neg_c));
                a.wrapping_add(b).wrapping_add(c)
            });
            Some((d, out))
        }
        Op::Imad { d, a, b, c } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip3(warp.reg(a), rb, warp.reg(c), |a, b, c| {
                a.wrapping_mul(b).wrapping_add(c)
            });
            Some((d, out))
        }
        Op::ImadHi { d, a, b, c } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            let out = zip3(warp.reg(a), rb, warp.reg(c), |a, b, c| {
                (((a as u64 * b as u64) >> 32) as u32).wrapping_add(c)
            });
            Some((d, out))
        }
        Op::ImadWide { d, a, b, c } => {
            let (ra, rb) = (warp.reg(a), warp.src_b(b, cbank, &mut splat));
            let (clo, chi) = (warp.reg(c), warp.reg(c.offset(1)));
            let mut sum = [0u64; 32];
            for lane in 0..32 {
                let c = clo[lane] as u64 | (chi[lane] as u64) << 32;
                sum[lane] = (ra[lane] as u64 * rb[lane] as u64).wrapping_add(c);
            }
            warp.store(d, &sum.map(|s| s as u32), exec_mask);
            Some((d.offset(1), sum.map(|s| (s >> 32) as u32)))
        }
        Op::Lea { d, a, b, shift } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            Some((d, zip2(warp.reg(a), rb, |a, b| b.wrapping_add(a << shift))))
        }
        Op::Lop3 { d, a, b, c, lut } => {
            let rb = warp.src_b(b, cbank, &mut splat);
            Some((d, lop3(warp.reg(a), rb, warp.reg(c), lut)))
        }
        Op::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => {
            let (rl, rh) = (warp.reg(lo), warp.reg(hi));
            let rs = warp.src_b(shift, cbank, &mut splat);
            let wide = |lo: u32, hi: u32| (hi as u64) << 32 | lo as u64;
            let out = match (u32_mode, right) {
                (true, true) => zip2(rl, rs, |lo, n| lo >> (n & 31)),
                (true, false) => zip2(rl, rs, |lo, n| lo << (n & 31)),
                (false, true) => zip3(rl, rs, rh, |lo, n, hi| (wide(lo, hi) >> (n & 63)) as u32),
                (false, false) => zip3(rl, rs, rh, |lo, n, hi| {
                    (wide(lo, hi) << (n & 63) >> 32) as u32
                }),
            };
            Some((d, out))
        }
        Op::Mov { d, b } => Some((d, *warp.src_b(b, cbank, &mut splat))),
        Op::Sel { d, a, b, p } => {
            let sel = warp.pred(p.pred, p.neg);
            let mut out = *warp.src_b(b, cbank, &mut splat);
            blend(&mut out, warp.reg(a), sel);
            Some((d, out))
        }
        Op::Isetp {
            p,
            cmp,
            u32: unsigned,
            a,
            b,
            combine,
        } => {
            let (ra, rb) = (warp.reg(a), warp.src_b(b, cbank, &mut splat));
            let v = if unsigned {
                compare(cmp, |l| ra[l], |l| rb[l])
            } else {
                compare(cmp, |l| ra[l] as i32, |l| rb[l] as i32)
            };
            let v = v & warp.pred(combine.pred, combine.neg);
            warp.set_pred(p, v, exec_mask);
            None
        }
        Op::P2r { d, a, mask } => {
            let preds = warp.preds;
            let bits: Row =
                std::array::from_fn(|l| (0..7).fold(0, |bits, i| bits | (preds[i] >> l & 1) << i));
            Some((
                d,
                zip2(warp.reg(a), &bits, |a, bits| (a & !mask) | (bits & mask)),
            ))
        }
        Op::R2p { a, mask } => {
            let ra = *warp.reg(a);
            for_lanes(mask & 0x7f, |i| {
                let v = lane_mask(|l| ra[l] >> i & 1 != 0);
                warp.set_pred(Pred(i as u8), v, exec_mask);
            });
            None
        }
        Op::S2r { d, sr } => {
            let bd = env.block_dim;
            let mut out = ZERO_ROW;
            for (lane, v) in out.iter_mut().enumerate() {
                let tid = warp.base_tid + lane as u32;
                *v = match sr {
                    SpecialReg::TidX => tid % bd[0],
                    SpecialReg::TidY => (tid / bd[0]) % bd[1],
                    SpecialReg::TidZ => tid / (bd[0] * bd[1]),
                    SpecialReg::CtaidX => ctaid[0],
                    SpecialReg::CtaidY => ctaid[1],
                    SpecialReg::CtaidZ => ctaid[2],
                    SpecialReg::LaneId => lane as u32,
                    SpecialReg::WarpId => tid / WARP_SIZE,
                };
            }
            Some((d, out))
        }
        Op::Ld {
            space,
            width,
            d: data,
            addr,
        }
        | Op::St {
            space,
            width,
            addr,
            src: data,
        } => {
            let store = matches!(inst.op, Op::St { .. });
            trace.is_store = store;
            let run = match width {
                MemWidth::B32 => access::<1>,
                MemWidth::B64 => access::<2>,
                MemWidth::B128 => access::<4>,
            };
            run(warp, env, trace, space, addr, data, exec_mask, store, moves).map_err(fail)?;
            None
        }
        Op::Nop => None,
        Op::Exit | Op::Bra { .. } | Op::BarSync => unreachable!("handled above"),
    };
    if let Some((d, row)) = out {
        warp.store(d, &row, exec_mask);
    }

    advance_ctx(warp, pc);
    Ok(StepEvent::Executed)
}

/// 32-lane FFMA row kernel: `ra * (±rb) + (±rc)` per lane, fused
/// rounding, canonical NaNs. On x86-64 with FMA support this compiles with
/// the FMA target feature enabled, so `mul_add` inlines to `vfmadd` instead
/// of calling libm's `fmaf` per lane; both are IEEE correctly-rounded and
/// NaNs are canonical, so the result bits are identical on every path.
/// This runtime dispatch is one of the crate's two `unsafe` sites.
#[inline]
#[allow(unsafe_code)]
fn ffma_rows(ra: &Row, rb: &Row, rc: &Row, neg_b: bool, neg_c: bool) -> Row {
    #[inline(always)]
    fn rows(ra: &Row, rb: &Row, rc: &Row, neg_b: bool, neg_c: bool) -> Row {
        let (sb, sc) = (sign(neg_b, 1 << 31), sign(neg_c, 1 << 31));
        zip3(ra, rb, rc, |a, b, c| {
            canonical(f(a).mul_add(f(b ^ sb), f(c ^ sc)))
        })
    }
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "fma")]
        unsafe fn rows_hw(ra: &Row, rb: &Row, rc: &Row, neg_b: bool, neg_c: bool) -> Row {
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

/// Move the lanes of `warp`'s context at `pc` on to `pc + 1`, merging them
/// into a context already there: all that [`step`] does for an instruction
/// that only advances the PC.
pub(crate) fn advance_ctx(warp: &mut Warp, pc: u32) {
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
        global: &'a GlobalMemory,
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
            global: &global,
            smem: &mut smem,
            cbank: &cbank,
            ctaid: [3, 2, 1],
            block_dim: [64, 1, 1],
        };
        let mut trace = MemTrace::default();
        for _ in 0..10_000 {
            match step(&mut warp, &insts, &mut env, 0, &mut trace, Effects::All).unwrap() {
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

    /// FADD of +inf and -inf, and FFMA on a NaN operand with a payload,
    /// return the one canonical f32 NaN; HADD2 with one NaN half returns
    /// `0x7fff` in that half and the sum in the other.
    #[test]
    fn float_ops_return_canonical_nans() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), f32::INFINITY)),
                Instruction::new(mov(Reg(2), 0xff80_0000u32)), // -inf
                Instruction::new(mov(Reg(3), 0x7fc0_0001u32)), // NaN, payload 1
                Instruction::new(mov(Reg(4), 2.0f32)),
                Instruction::new(fadd(Reg(5), Reg(1), Reg(2))),
                Instruction::new(ffma(Reg(6), Reg(4), Reg(3), Reg(4))),
                Instruction::new(ffma(Reg(7), Reg(3), Reg(4), Reg(4))),
                // Low half: 1.0 + 2.0; high half: -NaN (payload) + 1.0.
                Instruction::new(mov(Reg(8), 0xfe01_3c00u32)),
                Instruction::new(mov(Reg(9), 0x3c00_4000u32)),
                Instruction::new(Op::Hadd2 {
                    d: Reg(10),
                    a: Reg(8),
                    neg_a: false,
                    b: SrcB::Reg(Reg(9)),
                    neg_b: false,
                }),
            ],
            |_, _| {},
        );
        for lane in [0, 17, 31] {
            assert_eq!(w.regs[5][lane], 0x7fff_ffff, "FADD +inf + -inf");
            assert_eq!(w.regs[6][lane], 0x7fff_ffff, "FFMA, NaN b");
            assert_eq!(w.regs[7][lane], 0x7fff_ffff, "FFMA, NaN a");
            assert_eq!(w.regs[10][lane], 0x7fff_4200, "HADD2, NaN high half");
        }
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
        let (w, mut g) = run_insts(
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
        let global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 0];
        let cbank = ConstBank::new([32, 1, 1], [1, 1, 1], &[]);
        let mut warp = Warp::new(16, 0, 32);
        let mut env = env_fixture(&global, &mut smem, &cbank);
        let mut trace = MemTrace::default();
        let mut res = Ok(StepEvent::Executed);
        for _ in 0..4 {
            res = step(&mut warp, &insts, &mut env, 5, &mut trace, Effects::All);
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
        let global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 256];
        let cbank = ConstBank::new([8, 1, 1], [1, 1, 1], &[]);
        // Block of 8 threads: only lanes 0-7 active.
        let mut warp = Warp::new(16, 0, 8);
        let insts = vec![
            Instruction::new(mov(Reg(1), 5u32)),
            Instruction::new(Op::Exit),
        ];
        let mut env = env_fixture(&global, &mut smem, &cbank);
        let mut trace = MemTrace::default();
        loop {
            if step(&mut warp, &insts, &mut env, 0, &mut trace, Effects::All).unwrap()
                == StepEvent::Exited
            {
                break;
            }
        }
        assert_eq!(warp.regs[1][7], 5);
        assert_eq!(warp.regs[1][8], 0, "inactive lane untouched");
    }
}
