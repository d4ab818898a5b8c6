//! The fused batched `F(2×2, 3×3)` Winograd convolution kernel — the
//! paper's primary contribution (§3–§4), emitted as scheduled SASS.
//!
//! Structure (Algorithm 1):
//!
//! ```text
//! setup: indices, base addresses, zero-padding mask (P2R-packed, §3.5),
//!        zeroed accumulators
//! prologue: LDG filter+input tiles for iteration 0
//! main loop over C in steps of bc = 8:
//!   BAR; STS filter tiles + ITF (32 FADDs, §4.2) + STS input tiles; BAR
//!   inner i = 0..8 (fully unrolled):
//!     FFMA batches (8×8 outer products per plane, register allocation per
//!     Fig. 4, bank-conflict-free pairing per §4.3), software-pipelined
//!     with LDS.128 fragment loads (lane arrangement per Fig. 3) and the
//!     LDG prefetch of the next channel block (§3.4)
//! epilogue: output transform in 4 rounds through shared memory (§4.4)
//! ```
//!
//! Two register layouts exist, mirroring Table 7:
//!
//! * **bk = 64 (ours)**: 128 accumulators, double-buffered fragments,
//!   dedicated LDG staging — 253 registers, 1 block/SM everywhere.
//! * **bk = 32 (cuDNN-like)**: 64 accumulators, *single-buffered*
//!   fragments, input staging shared with the fragment registers —
//!   ≤126 registers, so two blocks fit per SM on the V100's 96 KiB shared
//!   memory but only one on Turing's 64 KiB (§7.1's mechanism).
//!
//! Every knob the paper studies is a config field: `bk` (§3.3), the yield
//! strategy (§6.1), LDG/STS interleave distances (§6.2), and P2R packing vs
//! per-iteration mask recomputation (§3.5). Problem dims specialize the
//! emitted code (immediates), exactly like the paper's TuringAs-generated
//! kernels.

use sass::ctrl::Ctrl;
use sass::isa::{build, CmpOp, Instruction, MemWidth, Op, PredGuard, PredSrc, SrcB};
use sass::reg::{Pred, Reg, RZ};
use sass::Module;

use crate::buffers::Buffers;
pub use crate::emit::YieldStrategy;
use crate::emit::{Emitter, YieldApplier};
use crate::filter_transform;

/// LDG interleave distance (§6.2, Fig. 8): one LDG every n FFMAs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LdgStrategy {
    Ldg2,
    Ldg4,
    Ldg8,
}

impl LdgStrategy {
    pub fn distance(self) -> u32 {
        match self {
            LdgStrategy::Ldg2 => 2,
            LdgStrategy::Ldg4 => 4,
            LdgStrategy::Ldg8 => 8,
        }
    }
}

/// STS interleave distance (§6.2, Fig. 9): one STS every n instruction
/// slots of the store phase (realized as stall spacing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StsStrategy {
    Sts2,
    Sts4,
    Sts6,
}

impl StsStrategy {
    pub fn distance(self) -> u32 {
        match self {
            StsStrategy::Sts2 => 2,
            StsStrategy::Sts4 => 4,
            StsStrategy::Sts6 => 6,
        }
    }
}

/// Width of the 16 filter-tile global loads (§4.1). `W64` loads each
/// lane's k-pair with one LDG.64 (bk=64 only — a lane owns two consecutive
/// k there); `W32` splits the pair into two LDG.32 (twice the LDG count,
/// same registers, same bytes — the schedule space the Tier-2 search
/// probes). bk=32 lanes own a single k, so only `W32` is emittable there.
/// There is no 128-bit load: it would need each lane to own four
/// consecutive k, which neither lane→filter mapping gives (and 64 staging
/// registers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterLdgWidth {
    W32,
    W64,
}

impl FilterLdgWidth {
    pub fn bits(self) -> u32 {
        match self {
            FilterLdgWidth::W32 => 32,
            FilterLdgWidth::W64 => 64,
        }
    }
}

/// Full configuration of the fused kernel.
#[derive(Clone, Copy, Debug)]
pub struct FusedConfig {
    pub c: u32,
    pub h: u32,
    pub w: u32,
    pub n: u32,
    pub k: u32,
    /// Filters per thread block (§3.3): 64 = ours, 32 = cuDNN-like.
    pub bk: u32,
    /// Filter LDG width (bk=64 only; see [`FilterLdgWidth`]).
    pub filter_ldg: FilterLdgWidth,
    /// Fragment software-pipelining depth: 2 = double-buffered LDS
    /// prefetch one sub-iteration ahead (the paper's schedule, §3.4),
    /// 1 = single-buffered (each sub-iteration loads its own fragments —
    /// fewer live registers, no LDS latency hiding). Depth 2 requires
    /// bk=64: the compact bk=32 layout stages input LDGs in the fragment
    /// registers, which aliases any second buffer.
    pub pipeline_depth: u32,
    pub yield_strategy: YieldStrategy,
    pub ldg: LdgStrategy,
    pub sts: StsStrategy,
    /// Pack the 16 zero-padding predicates into one register with P2R and
    /// unpack with R2P inside the loop (§3.5). When false, the masks are
    /// recomputed with ISETPs every iteration — the overhead P2R eliminates.
    pub use_p2r: bool,
    /// Emit only setup + main loop (timing runs for the paper's "main loop"
    /// figures); functional output is not written.
    pub main_loop_only: bool,
    /// Override the declared shared-memory footprint (cuDNN's kernel
    /// declares 48 KiB; used to reproduce Table 7 occupancy).
    pub smem_override: Option<u32>,
    /// Overlap the input STS with the ITF row passes (our schedule). When
    /// false, the transform completes first and the stores trail in a bunch
    /// (the tighter STS2-style schedule §6.2 observes in cuDNN's code).
    pub overlap_sts: bool,
    /// Read the input in NCHW layout (cuDNN's default, §7: "with NCHW data
    /// layout") instead of the CHWN layout our kernel is designed around
    /// (§4.2). NCHW scatters a warp's 32 batch lanes across 32 distinct
    /// sectors per element, losing the coalescing the paper's layout buys.
    pub input_nchw: bool,
    /// fp16 data path (§8.3): bn doubles to 64 by packing two batches into
    /// each 32-bit register as `half2`; FFMA/FADD become HFMA2/HADD2 and
    /// every per-element address halves (the byte math is otherwise
    /// identical to the fp32 kernel at N/2).
    pub fp16: bool,
}

/// Input tiles per block (fixed: 32 batches, §3.2). Each warp lane owns
/// one batch of the input fragment (Fig. 3): 64 would double the
/// accumulator file past the 255-register budget, 16 would idle half of
/// every warp.
pub const BN: u32 = 32;
/// Channels per main-loop iteration (fixed, §3.2). The warp index
/// (`tid/32` ∈ 0..8) *is* the channel-within-iteration coordinate, and the
/// shared-memory arena is sized `16·BC·(BN+bk)` words.
pub const BC: u32 = 8;

impl FusedConfig {
    /// The paper's configuration: bk=64, Natural yield, LDG8, STS6, P2R.
    pub fn ours(c: u32, h: u32, w: u32, n: u32, k: u32) -> Self {
        FusedConfig {
            c,
            h,
            w,
            n,
            k,
            bk: 64,
            filter_ldg: FilterLdgWidth::W64,
            pipeline_depth: 2,
            yield_strategy: YieldStrategy::Natural,
            ldg: LdgStrategy::Ldg8,
            sts: StsStrategy::Sts6,
            use_p2r: true,
            main_loop_only: false,
            smem_override: None,
            overlap_sts: true,
            input_nchw: false,
            fp16: false,
        }
    }

    /// The §8.3 fp16 port of our kernel: bn = 64, half2 arithmetic.
    /// The transformed filter must be supplied in duplicated-half2 format
    /// (each value in both halves of a word), and input/output buffers hold
    /// f16 in CHWN/KHWN, two batches per word.
    pub fn ours_fp16(c: u32, h: u32, w: u32, n: u32, k: u32) -> Self {
        FusedConfig {
            fp16: true,
            ..FusedConfig::ours(c, h, w, n, k)
        }
    }

    /// Our kernel ported to NCHW input, per the §8.4 sketch: the spatial
    /// 8×4-tile block partitioning with every other optimization kept
    /// ("The offsets of global and shared memory accesses need to be
    /// recomputed, while all other optimizations can be adopted").
    pub fn ours_nchw(c: u32, h: u32, w: u32, n: u32, k: u32) -> Self {
        FusedConfig {
            input_nchw: true,
            ..FusedConfig::ours(c, h, w, n, k)
        }
    }

    /// The cuDNN-7.6.1-like fused Winograd configuration the paper measures
    /// against (§3.3, §6, Table 7): bk=32, yield every 7 float instructions,
    /// LDG2, STS2, 48 KiB shared memory, ≤126 registers.
    pub fn cudnn_like(c: u32, h: u32, w: u32, n: u32, k: u32) -> Self {
        FusedConfig {
            c,
            h,
            w,
            n,
            k,
            bk: 32,
            filter_ldg: FilterLdgWidth::W32,
            pipeline_depth: 1,
            yield_strategy: YieldStrategy::Cudnn,
            ldg: LdgStrategy::Ldg2,
            sts: StsStrategy::Sts2,
            use_p2r: true,
            main_loop_only: false,
            smem_override: Some(48 * 1024),
            overlap_sts: false,
            input_nchw: true,
            fp16: false,
        }
    }

    /// Whether the emitter accepts this configuration: `Err` names the
    /// first rule it breaks. Planners filter candidates with this;
    /// [`FusedConfig::validate`] panics on it.
    pub fn check(&self) -> Result<(), &'static str> {
        let rule = |ok: bool, why| if ok { Ok(()) } else { Err(why) };
        rule(self.bk == 64 || self.bk == 32, "bk must be 32 or 64")?;
        rule(
            self.pipeline_depth == 1 || self.pipeline_depth == 2,
            "pipeline_depth must be 1 or 2",
        )?;
        if self.bk == 32 {
            rule(
                self.filter_ldg == FilterLdgWidth::W32,
                "bk=32 lanes own one k: filter LDG must be 32-bit",
            )?;
            rule(
                self.pipeline_depth == 1,
                "bk=32 stages input LDGs in the fragment registers: no double buffer",
            )?;
        }
        if self.fp16 {
            rule(
                self.n.is_multiple_of(2 * BN),
                "fp16: N must be a multiple of 64 (bn = 64, §8.3)",
            )?;
            rule(!self.input_nchw, "fp16 path supports CHWN input only")?;
        }
        rule(self.n.is_multiple_of(BN), "N must be a multiple of 32")?;
        rule(self.k.is_multiple_of(self.bk), "K must be a multiple of bk")?;
        rule(self.c.is_multiple_of(BC), "C must be a multiple of 8")?;
        rule(self.h >= 2 && self.w >= 2, "image too small")
    }

    /// Panics with the first rule [`FusedConfig::check`] finds broken.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    pub fn htiles(&self) -> u32 {
        self.h.div_ceil(2)
    }
    pub fn wtiles(&self) -> u32 {
        self.w.div_ceil(2)
    }
    pub fn kblocks(&self) -> u32 {
        self.k / self.bk
    }
    pub fn ngroups(&self) -> u32 {
        if self.fp16 {
            self.n / (2 * BN)
        } else {
            self.n / BN
        }
    }

    /// Shared memory: input (16·8·32) + filter (16·8·bk) floats; the
    /// output-transform rounds reuse the same arena (§4.5, Table 4).
    pub fn smem_bytes(&self) -> u32 {
        self.smem_override.unwrap_or(16 * BC * (BN + self.bk) * 4)
    }

    /// FMA FLOPs per block in the main loop (each thread: 1024 FFMAs per
    /// iteration when bk=64, §4.3; the fp16 path does two element-FMAs per
    /// HFMA2 lane).
    pub fn mainloop_flops_per_block(&self) -> f64 {
        let bn_eff = if self.fp16 { 2 * BN } else { BN };
        let per_iter = 16.0 * self.bk as f64 * bn_eff as f64 * BC as f64 * 2.0;
        per_iter * (self.c / BC) as f64
    }

    /// FP32-pipe warp instructions one block issues in the main loop: 32
    /// lanes of 2 FLOPs per FFMA, or of 4 per HFMA2 on the fp16 path, so
    /// both precisions issue 16·bk·BN·C / 32.
    pub fn ffma_per_block(&self) -> f64 {
        let flops_per_inst = if self.fp16 { 128.0 } else { 64.0 };
        self.mainloop_flops_per_block() / flops_per_inst
    }

    /// Launch dims, 256 threads per block; a function of the configuration
    /// alone, so a grid is known without emitting the kernel.
    ///
    /// CHWN: grid (wtiles, htiles, ngroups·kblocks) — one (h,w) tile × 32
    /// batches per block. NCHW: grid (⌈wtiles/8⌉, ⌈htiles/4⌉, N·kblocks) —
    /// an 8×4 spatial tile patch of one image per block (§8.4).
    pub fn launch_dims(&self) -> gpusim::LaunchDims {
        let grid = if self.input_nchw {
            [
                self.wtiles().div_ceil(8),
                self.htiles().div_ceil(4),
                self.n * self.kblocks(),
            ]
        } else {
            [
                self.wtiles(),
                self.htiles(),
                self.ngroups() * self.kblocks(),
            ]
        };
        gpusim::LaunchDims::new(grid, [256, 1, 1])
    }
}

/// Signature shared by the FADD/HADD2-style two-source emit helpers.
type BinEmit = fn(Reg, Reg, Reg) -> Op;

/// The emitted kernel plus its launch metadata.
pub struct FusedKernel {
    pub module: Module,
    pub config: FusedConfig,
    /// Instruction index range `[start, end)` of the main loop, for the
    /// timing model's region accounting.
    pub region: (u32, u32),
    /// Named kernel phases (setup / prologue / main_loop / output_transform)
    /// as repaired instruction-index ranges, for `simprof` reports.
    pub regions: Vec<gpusim::Region>,
}

// ---- register layouts ----------------------------------------------------------

/// Register assignment for one kernel flavour. See module docs: the bk=64
/// layout matches Fig. 4/Table 5; the bk=32 layout is the compact ≤126-reg
/// variant that reproduces cuDNN's Table 7 occupancy.
#[derive(Clone, Copy, Debug)]
struct Lay {
    bk: u32,
    /// Double-buffered fragments (bk=64) vs single-buffered (bk=32).
    double_frag: bool,
    /// Input LDG staging shares the fragment registers (bk=32).
    shared_input_staging: bool,
    pf_filter: u8,
    pf_input: u8,
    inptr: u8,
    fptr: u8,
    ists: u8,
    /// Filter smem write address register; `None` = derive from `ists` with
    /// an immediate (+16 KiB), valid when `bk == 32` (same lane function).
    fsts: Option<u8>,
    flds: u8,
    ilds: u8,
    mask: u8,
    t0: u8,
    t1: u8,
    t2: u8,
    ctr: u8,
    /// Epilogue scratch base (≥14 consecutive regs, dead during epilogue).
    ep: u8,
    /// Epilogue OTF value regs: 16 plane values, 8 intermediates, 4 outputs.
    ep_o: u8,
    ep_y: u8,
    ep_out: u8,
    /// Epilogue output-pointer pair.
    ep_optr: u8,
}

impl Lay {
    fn for_cfg(cfg: &FusedConfig) -> Lay {
        if cfg.bk == 64 {
            Lay {
                bk: 64,
                double_frag: cfg.pipeline_depth == 2,
                shared_input_staging: false,
                pf_filter: 192,
                pf_input: 224,
                inptr: 240,
                fptr: 242,
                ists: 244,
                fsts: Some(245),
                flds: 246,
                ilds: 247,
                mask: 248,
                t0: 249,
                t1: 250,
                t2: 251,
                ctr: 252,
                ep: 192,
                ep_o: 128,
                ep_y: 144,
                ep_out: 152,
                ep_optr: 250, // pair 250:251 (t1:t2, dead in epilogue)
            }
        } else {
            Lay {
                bk: 32,
                double_frag: false,
                shared_input_staging: true,
                pf_filter: 88,
                pf_input: 64, // shared with the fragment registers
                inptr: 104,
                fptr: 106,
                ists: 108,
                fsts: None,
                flds: 109,
                ilds: 110,
                mask: 111,
                t0: 112,
                t1: 113,
                t2: 114,
                ctr: 115,
                ep: 88,
                ep_o: 64,
                ep_y: 80,
                ep_out: 64,   // reuses o() after the first OTF pass
                ep_optr: 102, // pair 102:103 inside the ep area
            }
        }
    }

    /// Accumulator register (Fig. 4): plane δ, filter f, batch n.
    fn acc(&self, delta: u32, f: u32, n: u32) -> Reg {
        let fmax = self.bk / 8; // 8 or 4
        Reg((delta * fmax * 8 + f * 8 + n) as u8)
    }

    /// Fragment-buffer base: after the accumulators.
    fn frag_base(&self) -> u32 {
        2 * (self.bk / 8) * 8
    }

    fn frag_filter(&self, buf: u32, delta: u32, f: u32) -> Reg {
        let fmax = self.bk / 8;
        let per_buf = 2 * fmax + 16; // filter (2·fmax) + input (16) per buffer
        let buf = if self.double_frag { buf } else { 0 };
        Reg((self.frag_base() + buf * per_buf + delta * fmax + f) as u8)
    }

    fn frag_input(&self, buf: u32, delta: u32, n: u32) -> Reg {
        let fmax = self.bk / 8;
        let per_buf = 2 * fmax + 16;
        let buf = if self.double_frag { buf } else { 0 };
        Reg((self.frag_base() + buf * per_buf + 2 * fmax + delta * 8 + n) as u8)
    }
}

// Predicates: P0..P3 pad masks / scratch; P2..P4 epilogue guards; P5 loop;
// P6 prefetch guard.
const P_LOOP: Pred = Pred(5);
const P_MORE: Pred = Pred(6);

/// Byte offset of the filter region inside the shared-memory arena.
const SMEM_FILTER_BASE: u32 = 16 * BC * BN * 4; // 16 KiB

impl FusedKernel {
    /// Emit the kernel for `cfg`.
    pub fn emit(cfg: FusedConfig) -> FusedKernel {
        cfg.validate();
        let lay = Lay::for_cfg(&cfg);
        let mut e = Emitter::new();
        let rg_setup = e.region_begin("setup");
        let bk = cfg.bk;
        // fp16 packs two batches per 32-bit word, so every N-indexed byte
        // computation matches the fp32 kernel at N/2 (§8.3).
        let n_words = if cfg.fp16 { cfg.n / 2 } else { cfg.n };
        let (hh, ww, nn, kk, cc) = (cfg.h, cfg.w, n_words, cfg.k, cfg.c);
        let wn = ww * nn;

        let rt = Reg(lay.t0);
        let rs = Reg(lay.t1);
        // Setup-only staging in accumulator registers (zeroed afterwards).
        let rtid = Reg(0);
        let r_hx = Reg(1);
        let r_wx = Reg(2);
        let r_zx = Reg(3);
        let r_ng = Reg(4);
        let r_kb = Reg(5);
        let r_nu = Reg(6);
        let r_cl = Reg(7);
        let r_y = Reg(8);
        let r_x = Reg(9);

        e.op(build::s2r(rtid, sass::isa::SpecialReg::TidX));
        e.op(build::s2r(r_wx, sass::isa::SpecialReg::CtaidX));
        e.op(build::s2r(r_hx, sass::isa::SpecialReg::CtaidY));
        e.opc(
            build::s2r(r_zx, sass::isa::SpecialReg::CtaidZ),
            Ctrl::new().with_stall(6),
        );
        e.div_rem_const(r_ng, r_kb, r_zx, cfg.kblocks(), rt);
        e.op(build::and(r_nu, rtid, 31u32));
        e.op(build::shr(r_cl, rtid, 5));

        // Input base.
        //   CHWN (ours, §4.2): lane ν = batch; biased_ptr + 4·(c_l·H·W·N +
        //     2h·W·N + 2w·N + ng·32 + ν) — 32 consecutive batches per warp,
        //     fully coalesced.
        //   NCHW (cuDNN's, per the §8.4 sketch): the 32 tiles of a block are
        //     an 8×4 *spatial* patch of one image; lane ν = tile (ty, tx) =
        //     (ν/8, ν%8); biased_ptr + 4·(n·C·H·W + c_l·H·W + 2h_t·W +
        //     2w_t) — stride-2 rows, roughly half of every sector wasted.
        e.load_param_ptr(Reg(lay.inptr), 0);
        if cfg.input_nchw {
            // Per-lane tile coordinates: h_t = 4·ctaid.y + ν/8,
            // w_t = 8·ctaid.x + ν%8. r_ng holds the batch index.
            let r_ht = r_y; // staged in the mask registers computed below
            let r_wt = r_x;
            e.op(build::shr(rt, r_nu, 3));
            e.op(build::imad(r_ht, r_hx, 4u32, rt));
            e.op(build::and(rt, r_nu, 7u32));
            e.op(build::imad(r_wt, r_wx, 8u32, rt));
            e.op(build::imad(rt, r_ng, cc * hh * ww, RZ));
            e.op(build::imad(rs, r_cl, hh * ww, RZ));
            e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
            e.op(build::imad(rt, r_ht, 2 * ww, rt));
            e.op(build::shl(rs, r_wt, 1));
            e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        } else {
            e.op(build::imad(rt, r_cl, hh * wn, RZ));
            e.op(build::imad(rt, r_hx, 2 * wn, rt));
            e.op(build::imad(rt, r_wx, 2 * nn, rt));
            e.op(build::imad(rs, r_ng, 32u32, r_nu));
            e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        }
        e.op(build::imad_wide(Reg(lay.inptr), rt, 4u32, Reg(lay.inptr)));

        // Filter base: tf_ptr + 4·(c_l·16·K + kblk·bk + lane_k),
        // lane_k = 2ν (bk=64, LDG.64 pairs) or ν (bk=32).
        e.load_param_ptr(Reg(lay.fptr), 8);
        e.op(build::imad(rt, r_cl, 16 * kk, RZ));
        e.op(build::imad(rt, r_kb, bk, rt));
        if bk == 64 {
            e.op(build::shl(rs, r_nu, 1));
        } else {
            e.op(build::mov(rs, r_nu));
        }
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::imad_wide(Reg(lay.fptr), rt, 4u32, Reg(lay.fptr)));

        // Shared-memory write addresses.
        e.op(build::imad(rt, r_cl, 32u32, r_nu));
        e.op(build::shl(Reg(lay.ists), rt, 2)); // input_sts = (c_l·32 + ν)·4
        if let Some(fsts) = lay.fsts {
            e.op(build::imad(rt, r_cl, bk, RZ));
            e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ)); // + lane_k (in rs)
            e.op(build::shl(rt, rt, 2));
            e.op(build::iadd3(Reg(fsts), rt, SMEM_FILTER_BASE, RZ));
        }

        // Shared-memory read bases (Fig. 3).
        e.op(build::and(rt, r_nu, 14u32));
        e.op(build::shl(rt, rt, 3)); // foff bytes = (ν & 14)·8
        e.op(build::imad(rs, r_cl, 2 * BC * bk * 4, RZ));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::iadd3(Reg(lay.flds), rt, SMEM_FILTER_BASE, RZ));
        e.op(build::and(rt, r_nu, 1u32));
        e.op(build::shl(rt, rt, 4));
        e.op(build::shr(rs, r_nu, 4));
        e.op(build::shl(rs, rs, 5));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ)); // ioff bytes
        e.op(build::imad(Reg(lay.ilds), r_cl, 2 * BC * BN * 4, rt));

        // Zero-padding masks over rows 2h-1+r and cols 2w-1+s (r,s ∈ 0..4).
        // The -1 cases wrap as u32 and fail the unsigned bound compare. In
        // the NCHW path the tile coordinates (already in r_y/r_x) are
        // per-lane, so the masks are per-lane too.
        if cfg.input_nchw {
            e.op(build::shl(r_y, r_y, 1));
            e.op(build::iadd3(r_y, r_y, (-1i32) as u32, RZ));
            e.op(build::shl(r_x, r_x, 1));
            e.op(build::iadd3(r_x, r_x, (-1i32) as u32, RZ));
        } else {
            e.op(build::shl(r_y, r_hx, 1));
            e.op(build::iadd3(r_y, r_y, (-1i32) as u32, RZ));
            e.op(build::shl(r_x, r_wx, 1));
            e.op(build::iadd3(r_x, r_x, (-1i32) as u32, RZ));
        }
        if cfg.use_p2r {
            e.op(build::mov(Reg(lay.mask), RZ));
            let ru = Reg(lay.t2);
            for r in 0..4u32 {
                e.op(build::iadd3(rt, r_y, r, RZ));
                for s in 0..4u32 {
                    e.op(build::iadd3(rs, r_x, s, RZ));
                    e.op(build::isetp_u32(Pred(s as u8), CmpOp::Lt, rt, hh));
                    e.op(Op::Isetp {
                        p: Pred(s as u8),
                        cmp: CmpOp::Lt,
                        u32: true,
                        a: rs,
                        b: SrcB::Imm(ww),
                        combine: PredSrc::of(Pred(s as u8)),
                    });
                }
                e.opc(
                    Op::P2r {
                        d: ru,
                        a: RZ,
                        mask: 0xf,
                    },
                    Ctrl::new().with_stall(2),
                );
                e.op(build::shl(ru, ru, (r * 4) as u8));
                e.op(build::or(Reg(lay.mask), Reg(lay.mask), ru));
            }
        } else {
            // Keep the tile origin live for per-iteration recomputation: the
            // mask register holds 2h-1 and t2 holds 2w-1 (t2 is otherwise
            // scratch; the recompute path avoids it in-loop).
            e.op(build::mov(Reg(lay.mask), r_y));
            e.op(build::mov(Reg(lay.t2), r_x));
        }

        e.mov_imm(Reg(lay.ctr), cc / BC);

        // Zero the accumulators (also clears the setup staging).
        let fmax = bk / 8;
        for d in 0..2u32 {
            for f in 0..fmax {
                for n in 0..8u32 {
                    e.op(build::mov(lay.acc(d, f, n), RZ));
                }
            }
        }

        // ---- prologue: stage iteration 0 -------------------------------
        e.region_end(rg_setup);
        let rg_prologue = e.region_begin("prologue");
        for i in filter_ldg_insts(&cfg, &lay) {
            push(&mut e, i);
        }
        for i in input_zero_insts(&lay) {
            push(&mut e, i);
        }
        for i in input_ldg_insts(&cfg, &lay, None) {
            push(&mut e, i);
        }

        // ---- main loop ---------------------------------------------------
        e.region_end(rg_prologue);
        let rg_main = e.region_begin("main_loop");
        let loop_top = e.label();
        e.bind(loop_top);

        e.op(build::isetp(P_MORE, CmpOp::Gt, Reg(lay.ctr), 1u32));
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));
        emit_store_phase(&mut e, &cfg, &lay);
        // Advance base pointers (32-bit low word; device arenas fit).
        let in_step = if cfg.input_nchw {
            BC * hh * ww * 4
        } else {
            BC * hh * wn * 4
        };
        e.op(build::iadd3(Reg(lay.inptr), Reg(lay.inptr), in_step, RZ));
        e.op(build::iadd3(
            Reg(lay.fptr),
            Reg(lay.fptr),
            BC * 16 * kk * 4,
            RZ,
        ));
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));

        if lay.double_frag {
            for i in lds_frag_insts(&cfg, &lay, 0, 0) {
                push(&mut e, i);
            }
        }
        emit_inner_loop(&mut e, &cfg, &lay);

        e.loop_dec(Reg(lay.ctr), 1, P_LOOP, loop_top);
        e.region_end(rg_main);

        // ---- epilogue ------------------------------------------------------
        if !cfg.main_loop_only {
            let rg_ep = e.region_begin("output_transform");
            emit_epilogue(&mut e, &cfg, &lay);
            e.region_end(rg_ep);
        }
        e.opc(Op::Exit, Ctrl::new().with_stall(5));

        let (module, regions) = e.build_with_regions(
            if bk == 64 {
                "winograd_fused_b64"
            } else {
                "winograd_fused_b32"
            },
            cfg.smem_bytes(),
            24,
        );
        let main = regions.iter().find(|r| r.name == "main_loop").unwrap();
        FusedKernel {
            module,
            config: cfg,
            region: (main.start, main.end),
            regions,
        }
    }

    /// Emit the kernel for `cfg` with its hand schedule degraded to the
    /// naive legal baseline the schedule autotuner starts from: full
    /// fixed-latency stalls, no operand reuse, all yields set
    /// (`sass::tune::detune`). Instruction count, registers, region markers
    /// and functional behaviour are identical to [`FusedKernel::emit`].
    pub fn emit_detuned(cfg: FusedConfig) -> FusedKernel {
        let mut kern = FusedKernel::emit(cfg);
        sass::tune::detune(&mut kern.module.insts);
        kern
    }

    /// [`FusedKernel::regions`] as the schedule tuner's region list.
    pub fn tune_regions(&self) -> Vec<sass::tune::TuneRegion> {
        self.regions
            .iter()
            .map(|r| sass::tune::TuneRegion {
                name: r.name.clone(),
                start: r.start,
                end: r.end,
            })
            .collect()
    }

    /// Launch dims of the emitted kernel: [`FusedConfig::launch_dims`].
    pub fn launch_dims(&self) -> gpusim::LaunchDims {
        self.config.launch_dims()
    }

    /// Build the parameter blob. `input` is the raw CHWN input pointer,
    /// `tf_filter` the transformed `(C,4,4,K)` filter, `output` the KHWN
    /// output. The kernel expects the input pointer pre-biased by one row
    /// and one column of padding so in-kernel offsets stay non-negative.
    pub fn params(&self, input: u64, tf_filter: u64, output: u64) -> Vec<u8> {
        let c = &self.config;
        let n_words = if c.fp16 { c.n as u64 / 2 } else { c.n as u64 };
        let bias = if c.input_nchw {
            4 * (c.w as u64 + 1)
        } else {
            4 * (c.w as u64 * n_words + n_words)
        };
        gpusim::ParamBuilder::new()
            .push_ptr(input.wrapping_sub(bias))
            .push_ptr(tf_filter)
            .push_ptr(output)
            .build()
    }

    /// Device buffers `[input, transformed filter, output]`, the pointers
    /// [`FusedKernel::params`] takes. The fp16 path packs two batch elements
    /// per word in input and output; its transformed filter is duplicated
    /// `half2`, one word per element, like the fp32 one.
    pub fn buffers(&self) -> Buffers {
        let c = &self.config;
        let elem = if c.fp16 { 2 } else { 4 };
        let (ch, hw, n, k) = (
            u64::from(c.c),
            u64::from(c.h) * u64::from(c.w),
            u64::from(c.n),
            u64::from(c.k),
        );
        Buffers(vec![ch * hw * n * elem, ch * 16 * k * 4, k * hw * n * elem])
    }

    /// The FX → fused pipeline's layout `[input, CRSK filter, transformed
    /// filter, output]`: [`FusedKernel::buffers`] with the filter the
    /// filter-transform kernel reads inserted before its output. The fused
    /// kernel's addresses differ from [`FusedKernel::buffers`], and the L2
    /// model indexes sets by address, so a kernel timed alone is compared
    /// with a pipeline timing only on this layout.
    pub fn pipeline_buffers(&self) -> Buffers {
        let mut b = self.buffers();
        b.0.insert(
            1,
            filter_transform::buffers(self.config.c, self.config.k).0[0],
        );
        b
    }
}

fn push(e: &mut Emitter, i: Instruction) {
    e.opc(i.op, i.ctrl).guard = i.guard;
}

/// The 16 filter tile loads (bk=64: LDG.64 k-pairs, or 2×LDG.32 under
/// `FilterLdgWidth::W32`; bk=32: LDG.32).
fn filter_ldg_insts(cfg: &FusedConfig, lay: &Lay) -> Vec<Instruction> {
    let mut v = Vec::new();
    for el in 0..16u32 {
        let off = (el * cfg.k * 4) as i32;
        let first = v.is_empty();
        if cfg.bk == 64 && cfg.filter_ldg == FilterLdgWidth::W32 {
            // Narrow split of the k-pair: same registers, same bytes, two
            // 32-bit transactions instead of one 64-bit.
            for half in 0..2u32 {
                v.push(
                    Instruction::new(build::ldg(
                        MemWidth::B32,
                        Reg(lay.pf_filter + (2 * el + half) as u8),
                        Reg(lay.fptr),
                        off + 4 * half as i32,
                    ))
                    .with_ctrl(Ctrl::new().with_write_bar(2).with_stall(1)),
                );
            }
        } else {
            let (width, dst) = if cfg.bk == 64 {
                (MemWidth::B64, Reg(lay.pf_filter + (2 * el) as u8))
            } else {
                (MemWidth::B32, Reg(lay.pf_filter + el as u8))
            };
            v.push(
                Instruction::new(build::ldg(width, dst, Reg(lay.fptr), off))
                    .with_ctrl(Ctrl::new().with_write_bar(2).with_stall(1)),
            );
        }
        if first {
            // WAR vs the store phase that read the staging registers.
            v[0].ctrl.wait_mask |= 1 << 4;
        }
    }
    v
}

/// Zero the input staging registers (masked-off LDGs must read as zero).
fn input_zero_insts(lay: &Lay) -> Vec<Instruction> {
    (0..16u8)
        .map(|el| Instruction::new(build::mov(Reg(lay.pf_input + el), RZ)))
        .collect()
}

/// The 16 predicated input tile loads with their mask plumbing. When
/// `more_guard` is set (in-loop prefetch), the pad predicates are
/// additionally cleared unless another iteration follows.
fn input_ldg_insts(cfg: &FusedConfig, lay: &Lay, more_guard: Option<Pred>) -> Vec<Instruction> {
    let mut v = Vec::new();
    for r in 0..4u32 {
        if cfg.use_p2r {
            // Unpack this row's nibble: P0..P3 ← mask >> 4r (§3.5).
            let mut sh = Instruction::new(build::shr(Reg(lay.t0), Reg(lay.mask), (4 * r) as u8));
            if r == 0 {
                sh.ctrl.wait_mask |= 1 << 5;
            }
            v.push(sh);
            if let Some(p) = more_guard {
                v.push(Instruction::new(Op::Sel {
                    d: Reg(lay.t0),
                    a: Reg(lay.t0),
                    b: SrcB::Imm(0),
                    p: PredSrc::of(p),
                }));
            }
            v.push(
                Instruction::new(Op::R2p {
                    a: Reg(lay.t0),
                    mask: 0xf,
                })
                .with_ctrl(Ctrl::new().with_stall(2)),
            );
        } else {
            // Recompute the row's predicates — the per-iteration cost that
            // P2R packing eliminates (§3.5). 2h-1 lives in `mask`, 2w-1 in
            // `t2` on this path.
            let mut y = Instruction::new(build::iadd3(Reg(lay.t0), Reg(lay.mask), r, RZ));
            if r == 0 {
                y.ctrl.wait_mask |= 1 << 5;
            }
            v.push(y);
            for s in 0..4u32 {
                v.push(Instruction::new(build::isetp_u32(
                    Pred(s as u8),
                    CmpOp::Lt,
                    Reg(lay.t0),
                    cfg.h,
                )));
            }
            for s in 0..4u32 {
                v.push(Instruction::new(build::iadd3(
                    Reg(lay.t1),
                    Reg(lay.t2),
                    s,
                    RZ,
                )));
                v.push(Instruction::new(Op::Isetp {
                    p: Pred(s as u8),
                    cmp: CmpOp::Lt,
                    u32: true,
                    a: Reg(lay.t1),
                    b: SrcB::Imm(cfg.w),
                    combine: PredSrc::of(Pred(s as u8)),
                }));
            }
            if let Some(p) = more_guard {
                for s in 0..4u32 {
                    v.push(
                        Instruction::new(Op::Isetp {
                            p: Pred(s as u8),
                            cmp: CmpOp::Ne,
                            u32: true,
                            a: RZ,
                            b: SrcB::Imm(0),
                            combine: PredSrc::pt(),
                        })
                        .with_guard(PredGuard::on_not(p)),
                    );
                }
            }
        }
        for s in 0..4u32 {
            let stride = if cfg.input_nchw {
                1
            } else if cfg.fp16 {
                cfg.n / 2
            } else {
                cfg.n
            };
            let off = ((r * cfg.w + s) * stride * 4) as i32;
            let el = (r * 4 + s) as u8;
            v.push(
                Instruction::new(build::ldg(
                    MemWidth::B32,
                    Reg(lay.pf_input + el),
                    Reg(lay.inptr),
                    off,
                ))
                .with_guard(PredGuard::on(Pred(s as u8)))
                .with_ctrl(Ctrl::new().with_write_bar(3).with_stall(1)),
            );
        }
    }
    v
}

/// Store phase: filter STS + ITF FADDs + input STS, with STS spacing per
/// the configured strategy (§6.2).
fn emit_store_phase(e: &mut Emitter, cfg: &FusedConfig, lay: &Lay) {
    let bk = cfg.bk;
    let dist = cfg.sts.distance() as usize;

    // ITF filler stream: BᵀXB on the staged input tile, in place, one temp.
    // The second (row) pass finishes one output row per 5 instructions, so
    // that row's input STS go out right behind it — the stores overlap the
    // remaining transform arithmetic instead of trailing it.
    let x = |r: u32, s: u32| Reg(lay.pf_input + (r * 4 + s) as u8);
    let t = Reg(lay.t1);
    let mut fillers: Vec<Instruction> = Vec::new();
    let (add, sub): (BinEmit, BinEmit) = if cfg.fp16 {
        (
            |d, a, b| build::hadd2(d, a, b),
            |d, a, b| build::hsub2(d, a, b),
        )
    } else {
        (
            |d, a, b| build::fadd(d, a, b),
            |d, a, b| build::fsub(d, a, b),
        )
    };
    let pass = |fillers: &mut Vec<Instruction>, a: [Reg; 4]| {
        // a0 -= a2; t = a1 + a2; a2 = a2 - a1; a3 = a1 - a3; a1 = t.
        fillers.push(Instruction::new(sub(a[0], a[0], a[2])).with_ctrl(Ctrl::new().with_stall(1)));
        fillers.push(Instruction::new(add(t, a[1], a[2])).with_ctrl(Ctrl::new().with_stall(1)));
        fillers.push(Instruction::new(sub(a[2], a[2], a[1])).with_ctrl(Ctrl::new().with_stall(1)));
        fillers.push(Instruction::new(sub(a[3], a[1], a[3])).with_ctrl(Ctrl::new().with_stall(2)));
        fillers.push(Instruction::new(build::mov(a[1], t)).with_ctrl(Ctrl::new().with_stall(4)));
    };
    for s in 0..4u32 {
        pass(&mut fillers, [x(0, s), x(1, s), x(2, s), x(3, s)]);
    }
    let input_sts_for_row = |r: u32, first_stall: u8| -> Vec<Instruction> {
        (0..4u32)
            .map(|sx| {
                let el = r * 4 + sx;
                let off = (el * BC * BN * 4) as i32;
                let mut inst = Instruction::new(build::sts(
                    MemWidth::B32,
                    Reg(lay.ists),
                    off,
                    Reg(lay.pf_input + el as u8),
                ));
                inst.ctrl = Ctrl::new().with_stall(1).with_read_bar(5);
                if sx == 0 {
                    inst.ctrl.stall = first_stall;
                }
                inst
            })
            .collect()
    };
    for r in 0..4u32 {
        pass(&mut fillers, [x(r, 0), x(r, 1), x(r, 2), x(r, 3)]);
        if cfg.overlap_sts {
            // Row r is final: store its 4 transformed elements right away so
            // the stores overlap the remaining transform arithmetic.
            fillers.extend(input_sts_for_row(r, 4));
        }
    }
    if !cfg.overlap_sts {
        // Trailing bunch: all 16 input STS after the whole ITF, spaced only
        // by their stall counts (cuDNN's STS2-style schedule).
        let dist = cfg.sts.distance() as u8;
        for r in 0..4u32 {
            for mut inst in input_sts_for_row(r, 4) {
                if inst.ctrl.stall == 1 {
                    inst.ctrl.stall = dist;
                }
                fillers.push(inst);
            }
        }
    }
    // First filler reads staged input → wait for the input LDGs.
    fillers[0].ctrl.wait_mask |= 1 << 3;

    // Filter STS (independent of the ITF), interleaved into the fillers.
    let filter_sts: Vec<Instruction> = (0..16u32)
        .map(|el| {
            let (base, extra) = match lay.fsts {
                Some(r) => (Reg(r), 0),
                None => (Reg(lay.ists), SMEM_FILTER_BASE as i32),
            };
            let off = extra + (el * BC * bk * 4) as i32;
            let (width, src) = if bk == 64 {
                (MemWidth::B64, Reg(lay.pf_filter + (2 * el) as u8))
            } else {
                (MemWidth::B32, Reg(lay.pf_filter + el as u8))
            };
            let mut inst = Instruction::new(build::sts(width, base, off, src));
            inst.ctrl = Ctrl::new().with_stall(1).with_read_bar(4);
            if el == 0 {
                inst.ctrl.wait_mask |= 1 << 2; // filter LDGs landed
            }
            inst
        })
        .collect();

    let mut f_iter = fillers.into_iter();
    for s in filter_sts {
        push(e, s);
        for _ in 0..dist {
            if let Some(f) = f_iter.next() {
                push(e, f);
            }
        }
    }
    for f in f_iter {
        push(e, f);
    }
}

/// Fragment loads for inner iteration `i` into buffer `buf` (Fig. 3).
fn lds_frag_insts(cfg: &FusedConfig, lay: &Lay, i: u32, buf: u32) -> Vec<Instruction> {
    let bk = cfg.bk;
    let mut v = Vec::new();
    for delta in 0..2u32 {
        let base = ((delta * BC + i) * bk * 4) as i32;
        let chunks: &[(u32, i32)] = if bk == 64 {
            &[(0, 0), (4, 128)]
        } else {
            &[(0, 0)]
        };
        for &(f0, coff) in chunks {
            v.push(
                Instruction::new(build::lds(
                    MemWidth::B128,
                    lay.frag_filter(buf, delta, f0),
                    Reg(lay.flds),
                    base + coff,
                ))
                .with_ctrl(Ctrl::new().with_write_bar(0).with_stall(1)),
            );
        }
        let ibase = ((delta * BC + i) * BN * 4) as i32;
        for &(n0, coff) in &[(0u32, 0i32), (4, 64)] {
            v.push(
                Instruction::new(build::lds(
                    MemWidth::B128,
                    lay.frag_input(buf, delta, n0),
                    Reg(lay.ilds),
                    ibase + coff,
                ))
                .with_ctrl(Ctrl::new().with_write_bar(1).with_stall(1)),
            );
        }
    }
    v
}

/// The unrolled inner loop: 8 FFMA batches with LDS pipelining and the LDG
/// prefetch stream interleaved (§3.4, §6.2).
fn emit_inner_loop(e: &mut Emitter, cfg: &FusedConfig, lay: &Lay) {
    let fmax = cfg.bk / 8;
    let mut yield_app = YieldApplier::new(cfg.yield_strategy);
    let ldg_dist = cfg.ldg.distance();

    // Prefetch stream for the next channel block (guarded by P_MORE). With
    // shared input staging (bk=32), the input part must wait until the last
    // sub-iteration's FFMAs have issued, so it is appended after the loop.
    let mut filter_pf: Vec<Instruction> = Vec::new();
    for mut inst in filter_ldg_insts(cfg, lay) {
        inst.guard = PredGuard::on(P_MORE);
        filter_pf.push(inst);
    }
    let mut input_pf: Vec<Instruction> = Vec::new();
    input_pf.extend(input_zero_insts(lay));
    input_pf.extend(input_ldg_insts(cfg, lay, Some(P_MORE)));

    let mut prefetch: Vec<Instruction> = filter_pf;
    if !lay.shared_input_staging {
        prefetch.append(&mut input_pf);
    }
    let mut prefetch = prefetch.into_iter();

    for i in 0..BC {
        let buf = i % 2;
        if !lay.double_frag {
            // Single-buffered fragments: load this sub-iteration's data now
            // (the latency-hiding weakness of the compact layout).
            for l in lds_frag_insts(cfg, lay, i, 0) {
                push(e, l);
            }
        }
        let lds = if lay.double_frag && i + 1 < BC {
            lds_frag_insts(cfg, lay, i + 1, buf ^ 1)
        } else {
            Vec::new()
        };
        let mut lds = lds.into_iter();

        let mut ffma_count = 0u32;
        for delta in 0..2u32 {
            for f in 0..fmax {
                // Bank-conflict-free pairing (§4.3): even f starts with an
                // odd n and reuses the filter operand; odd f starts even.
                let order: [u32; 8] = if f % 2 == 0 {
                    [1, 0, 3, 2, 5, 4, 7, 6]
                } else {
                    [0, 1, 2, 3, 4, 5, 6, 7]
                };
                for (j, &n) in order.iter().enumerate() {
                    let mk = if cfg.fp16 {
                        build::hfma2
                    } else {
                        |d, a, b: Reg, c| build::ffma(d, a, b, c)
                    };
                    let mut inst = Instruction::new(mk(
                        lay.acc(delta, f, n),
                        lay.frag_input(buf, delta, n),
                        lay.frag_filter(buf, delta, f),
                        lay.acc(delta, f, n),
                    ));
                    if j % 2 == 0 {
                        inst.ctrl = inst.ctrl.reuse_slot(1);
                    }
                    if yield_app.next_clears() {
                        inst.ctrl.yield_flag = false;
                    }
                    if ffma_count == 0 {
                        inst.ctrl.wait_mask |= 0b11; // this buffer's LDS
                    }
                    push(e, inst);
                    ffma_count += 1;

                    if ffma_count.is_multiple_of(4) {
                        if let Some(l) = lds.next() {
                            push(e, l);
                        }
                    }
                    if ffma_count.is_multiple_of(ldg_dist) {
                        if let Some(pf) = prefetch.next() {
                            push(e, pf);
                        }
                    }
                }
            }
        }
        for l in lds {
            push(e, l);
        }
        if i + 1 == BC {
            for pf in prefetch.by_ref() {
                push(e, pf);
            }
            // Shared-staging input prefetch: safe only after every FFMA of
            // the loop has issued (the staging aliases the fragments).
            for pf in input_pf.drain(..) {
                push(e, pf);
            }
        }
    }
}

/// Output-transform epilogue: 4 rounds through shared memory (§4.4).
fn emit_epilogue(e: &mut Emitter, cfg: &FusedConfig, lay: &Lay) {
    let bk = cfg.bk;
    let kr = bk / 4; // k values per round (16 for bk=64, 8 for bk=32)
    let n_words = if cfg.fp16 { cfg.n / 2 } else { cfg.n };
    let (hh, ww, nn) = (cfg.h, cfg.w, n_words);

    // Recompute per-thread indices in the epilogue scratch area.
    let ep = |i: u8| Reg(lay.ep + i);
    let rtid = ep(0);
    let r_nu = ep(1);
    let r_wp = ep(2);
    let r_foff = ep(3); // filter word offset (Fig. 3)
    let r_ioff = ep(4); // input word offset
    let r_hx = ep(5);
    let r_wx = ep(6);
    let r_zx = ep(7);
    let r_ng = ep(8);
    let r_kb = ep(9);
    let r_rnd = ep(10); // chunk-1 round index
    let rt = ep(11);
    let rs = ep(12);
    e.op(build::s2r(rtid, sass::isa::SpecialReg::TidX));
    e.op(build::s2r(r_wx, sass::isa::SpecialReg::CtaidX));
    e.op(build::s2r(r_hx, sass::isa::SpecialReg::CtaidY));
    e.opc(
        build::s2r(r_zx, sass::isa::SpecialReg::CtaidZ),
        Ctrl::new().with_stall(6),
    );
    e.op(build::and(r_nu, rtid, 31u32));
    e.op(build::shr(r_wp, rtid, 5));
    e.op(build::and(rt, r_nu, 14u32));
    e.op(build::shl(r_foff, rt, 1)); // foff words = (ν & 14)·2
    e.op(build::and(rt, r_nu, 1u32));
    e.op(build::shl(rt, rt, 2));
    e.op(build::shr(rs, r_nu, 4));
    e.op(build::shl(rs, rs, 3));
    e.op(build::iadd3(r_ioff, rt, SrcB::Reg(rs), RZ)); // ioff words
    e.div_rem_const(r_ng, r_kb, r_zx, cfg.kblocks(), rt);
    e.op(build::shr(r_rnd, r_foff, kr.trailing_zeros() as u8));

    // Output-edge guards.
    //   CHWN: uniform per block — P4 = 2h+1 < H ; P3 = 2w+1 < W ; P2 = both;
    //         the (0,0) store is always in bounds.
    //   NCHW: per-lane tile coords, and whole tiles may overshoot the 8×4
    //         patch, so the (0,0) store needs its own guard (P5).
    let r_ht = rtid; // dead after setup; reused for per-lane tile coords
    let r_wt = ep(13);
    if cfg.input_nchw {
        e.op(build::shr(rt, r_nu, 3));
        e.op(build::imad(r_ht, r_hx, 4u32, rt));
        e.op(build::and(rt, r_nu, 7u32));
        e.op(build::imad(r_wt, r_wx, 8u32, rt));
        // y0 = 2h_t, y1 = y0+1, x0 = 2w_t, x1 = x0+1.
        e.op(build::shl(r_ht, r_ht, 1));
        e.op(build::shl(r_wt, r_wt, 1));
        e.op(build::isetp_u32(Pred(5), CmpOp::Lt, r_ht, hh)); // y0 ok
        e.op(Op::Isetp {
            p: Pred(5),
            cmp: CmpOp::Lt,
            u32: true,
            a: r_wt,
            b: SrcB::Imm(ww),
            combine: PredSrc::of(Pred(5)),
        }); // P5 = y0<H && x0<W
        e.op(build::iadd3(rt, r_wt, 1u32, RZ));
        e.op(build::isetp_u32(Pred(3), CmpOp::Lt, rt, ww));
        e.op(Op::Isetp {
            p: Pred(3),
            cmp: CmpOp::Lt,
            u32: true,
            a: r_ht,
            b: SrcB::Imm(hh),
            combine: PredSrc::of(Pred(3)),
        }); // P3 = y0<H && x1<W
        e.op(build::iadd3(rs, r_ht, 1u32, RZ));
        e.op(build::isetp_u32(Pred(4), CmpOp::Lt, rs, hh));
        e.op(Op::Isetp {
            p: Pred(4),
            cmp: CmpOp::Lt,
            u32: true,
            a: r_wt,
            b: SrcB::Imm(ww),
            combine: PredSrc::of(Pred(4)),
        }); // P4 = y1<H && x0<W
        e.op(build::isetp_u32(Pred(2), CmpOp::Lt, rs, hh));
        e.op(Op::Isetp {
            p: Pred(2),
            cmp: CmpOp::Lt,
            u32: true,
            a: rt,
            b: SrcB::Imm(ww),
            combine: PredSrc::of(Pred(2)),
        }); // P2 = y1<H && x1<W
    } else {
        e.op(build::shl(rt, r_hx, 1));
        e.op(build::iadd3(rt, rt, 1u32, RZ));
        e.op(build::isetp_u32(Pred(4), CmpOp::Lt, rt, hh));
        e.op(build::shl(rt, r_wx, 1));
        e.op(build::iadd3(rt, rt, 1u32, RZ));
        e.op(build::isetp_u32(Pred(3), CmpOp::Lt, rt, ww));
        e.op(Op::Isetp {
            p: Pred(2),
            cmp: CmpOp::Lt,
            u32: true,
            a: rt,
            b: SrcB::Imm(ww),
            combine: PredSrc::of(Pred(4)),
        });
        // (0,0) is always in bounds in the CHWN partitioning.
        e.op(build::isetp_u32(Pred(5), CmpOp::Ge, RZ, 0u32));
    }

    let tiles_per_thread: u32 = if bk == 64 { 2 } else { 1 };

    for g in 0..4u32 {
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));

        // --- scatter: participating chunks STS their accumulators --------
        // bk=64: chunk 0 (acc f 0..4, k_local = foff+fl) owns rounds 0–1
        // (when r_rnd == g); chunk 1 (acc f 4..8, k_local = foff+32+fl)
        // owns rounds 2–3 (when r_rnd == g-2).
        // bk=32: the single chunk owns round r_rnd == g (r_rnd ∈ 0..4).
        let chunks: &[(u32, u32)] = if bk == 64 {
            if g < 2 {
                &[(0, 0)]
            } else {
                &[(4, 2)]
            }
        } else {
            &[(0, 0)]
        };
        for &(fbase, gbias) in chunks {
            e.op(build::isetp_u32(Pred(0), CmpOp::Eq, r_rnd, g - gbias));
            // smem word address = (2·warp + δ)·kr·32 + (foff % kr + fl)·32
            //                     + ioff (+ nq·16); δ, fl, nq via immediates.
            e.op(build::and(rt, r_foff, kr - 1));
            e.op(build::imad(rs, r_wp, 2 * kr * 32, RZ));
            e.op(build::imad(rt, rt, 32u32, rs));
            e.op(build::iadd3(rt, rt, SrcB::Reg(r_ioff), RZ));
            e.op(build::shl(rt, rt, 2));
            for delta in 0..2u32 {
                for fl in 0..4u32 {
                    for nq in 0..2u32 {
                        let off = (delta * kr * 32 * 4 + fl * 32 * 4 + nq * 16 * 4) as i32;
                        let src = lay.acc(delta, fbase + fl, nq * 4);
                        let mut inst = Instruction::new(build::sts(MemWidth::B128, rt, off, src))
                            .with_guard(PredGuard::on(Pred(0)));
                        inst.ctrl = Ctrl::new().with_stall(1);
                        push(e, inst);
                    }
                }
            }
        }
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));

        // --- gather + OTF + STG ------------------------------------------
        for tile in 0..tiles_per_thread {
            let kr0_add = if bk == 64 { tile * 8 } else { 0 };
            let o = |idx: u32| Reg(lay.ep_o + idx as u8);
            e.op(build::iadd3(rt, r_wp, kr0_add, RZ));
            e.op(build::imad(rt, rt, 32u32, r_nu));
            e.op(build::shl(rt, rt, 2));
            for el in 0..16u32 {
                let off = (el * kr * 32 * 4) as i32;
                push(
                    e,
                    Instruction::new(build::lds(MemWidth::B32, o(el), rt, off))
                        .with_ctrl(Ctrl::new().with_write_bar(0).with_stall(1)),
                );
            }
            // OTF: Aᵀ O A — 24 FADDs (§2.1).
            let y = |j: u32, s: u32| Reg(lay.ep_y + (j * 4 + s) as u8);
            let (add, sub): (BinEmit, BinEmit) = if cfg.fp16 {
                (
                    |d, a, b| build::hadd2(d, a, b),
                    |d, a, b| build::hsub2(d, a, b),
                )
            } else {
                (
                    |d, a, b| build::fadd(d, a, b),
                    |d, a, b| build::fsub(d, a, b),
                )
            };
            for s in 0..4u32 {
                let c0 = if s == 0 {
                    Ctrl::new().with_wait_mask(1).with_stall(2)
                } else {
                    Ctrl::new().with_stall(2)
                };
                e.opc(add(y(0, s), o(s), o(4 + s)), c0);
                e.opc(add(y(0, s), y(0, s), o(8 + s)), Ctrl::new().with_stall(4));
                e.opc(sub(y(1, s), o(4 + s), o(8 + s)), Ctrl::new().with_stall(2));
                e.opc(sub(y(1, s), y(1, s), o(12 + s)), Ctrl::new().with_stall(4));
            }
            let out = |dy: u32, dx: u32| Reg(lay.ep_out + (dy * 2 + dx) as u8);
            for dy in 0..2u32 {
                e.opc(
                    add(out(dy, 0), y(dy, 0), y(dy, 1)),
                    Ctrl::new().with_stall(2),
                );
                e.opc(
                    add(out(dy, 0), out(dy, 0), y(dy, 2)),
                    Ctrl::new().with_stall(4),
                );
                e.opc(
                    sub(out(dy, 1), y(dy, 1), y(dy, 2)),
                    Ctrl::new().with_stall(2),
                );
                e.opc(
                    sub(out(dy, 1), out(dy, 1), y(dy, 3)),
                    Ctrl::new().with_stall(4),
                );
            }
            // k_global = kblk·bk + g·kr + kr0.
            // CHWN output (KHWN): elem = ((k·H + 2h)·W + 2w)·N + ng·32 + ν.
            // NCHW output:        elem = ((n·K + k)·H + 2h_t)·W + 2w_t.
            e.op(build::iadd3(rt, r_wp, kr0_add + g * kr, RZ));
            e.op(build::imad(rt, r_kb, bk, rt));
            let (dx_off, dy_off) = if cfg.input_nchw {
                e.op(build::imad(rs, r_ng, cfg.k, rt));
                e.op(build::imad(rt, rs, hh, RZ));
                e.op(build::iadd3(rt, rt, SrcB::Reg(r_ht), RZ));
                e.op(build::imad(rt, rt, ww, RZ));
                e.op(build::iadd3(rt, rt, SrcB::Reg(r_wt), RZ));
                (4i32, (ww * 4) as i32)
            } else {
                e.op(build::imad(rt, rt, hh, RZ));
                e.op(build::shl(rs, r_hx, 1));
                e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
                e.op(build::imad(rt, rt, ww, RZ));
                e.op(build::shl(rs, r_wx, 1));
                e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
                e.op(build::imad(rt, rt, nn, RZ));
                e.op(build::imad(rs, r_ng, 32u32, r_nu));
                e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
                ((nn * 4) as i32, (ww * nn * 4) as i32)
            };
            let r_optr = Reg(lay.ep_optr);
            e.load_param_ptr(r_optr, 16);
            e.opc(
                build::imad_wide(r_optr, rt, 4u32, r_optr),
                Ctrl::new().with_stall(6),
            );
            // Read barrier 4 protects the out registers until the stores
            // have consumed them (the next tile's OTF reuses them).
            let stg_ctrl = Ctrl::new().with_stall(1).with_read_bar(4);
            let i0 = e.opc(build::stg(MemWidth::B32, r_optr, 0, out(0, 0)), stg_ctrl);
            i0.guard = PredGuard::on(Pred(5));
            e.opc(
                build::stg(MemWidth::B32, r_optr, dx_off, out(0, 1)),
                stg_ctrl,
            )
            .guard = PredGuard::on(Pred(3));
            e.opc(
                build::stg(MemWidth::B32, r_optr, dy_off, out(1, 0)),
                stg_ctrl,
            )
            .guard = PredGuard::on(Pred(4));
            e.opc(
                build::stg(MemWidth::B32, r_optr, dy_off + dx_off, out(1, 1)),
                stg_ctrl,
            )
            .guard = PredGuard::on(Pred(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detuned_baseline_is_legal_and_shape_identical() {
        let cfg = FusedConfig::ours(32, 8, 8, 32, 64);
        let hand = FusedKernel::emit(cfg);
        let naive = FusedKernel::emit_detuned(cfg);
        assert_eq!(naive.module.insts.len(), hand.module.insts.len());
        assert_eq!(naive.module.info.num_regs, hand.module.info.num_regs);
        assert_eq!(naive.region, hand.region);
        assert_eq!(naive.regions.len(), hand.regions.len());
        for (a, b) in naive.regions.iter().zip(&hand.regions) {
            assert_eq!(
                (a.name.as_str(), a.start, a.end),
                (b.name.as_str(), b.start, b.end)
            );
        }
        assert!(sass::lint(&naive.module.insts).is_empty());
        // The baseline really is degraded: no reuse flags, stalls no lower.
        assert!(naive.module.insts.iter().all(|i| i.ctrl.reuse == 0));
        assert!(naive
            .module
            .insts
            .iter()
            .zip(&hand.module.insts)
            .all(|(n, h)| n.ctrl.stall >= h.ctrl.stall && n.op == h.op));
        assert!(naive
            .module
            .insts
            .iter()
            .zip(&hand.module.insts)
            .any(|(n, h)| n.ctrl.stall > h.ctrl.stall || h.ctrl.reuse != 0));
    }

    #[test]
    fn register_budgets_match_table7() {
        let cfg = FusedConfig::ours(64, 56, 56, 32, 64);
        cfg.validate();
        let kern = FusedKernel::emit(cfg);
        // Ours: must fit in 253 registers (§3.5/Table 5) and be large
        // enough to be register-bound to 1 block/SM.
        assert!(
            kern.module.info.num_regs <= 253,
            "ours: {}",
            kern.module.info.num_regs
        );
        assert!(
            kern.module.info.num_regs >= 250,
            "ours suspiciously small: {}",
            kern.module.info.num_regs
        );
        // cuDNN-like: ≤128 registers so V100 fits two blocks per SM (§7.1).
        let cu = FusedKernel::emit(FusedConfig::cudnn_like(64, 56, 56, 32, 32));
        assert!(
            cu.module.info.num_regs <= 128,
            "cudnn-like: {}",
            cu.module.info.num_regs
        );
        assert_eq!(cu.module.info.smem_bytes, 48 * 1024);
        let v100 = gpusim::DeviceSpec::v100();
        let t2070 = gpusim::DeviceSpec::rtx2070();
        assert_eq!(
            v100.blocks_per_sm(
                256,
                cu.module.info.num_regs as u32,
                cu.module.info.smem_bytes
            ),
            2
        );
        assert_eq!(
            t2070.blocks_per_sm(
                256,
                cu.module.info.num_regs as u32,
                cu.module.info.smem_bytes
            ),
            1
        );
        assert_eq!(
            v100.blocks_per_sm(
                256,
                kern.module.info.num_regs as u32,
                kern.module.info.smem_bytes
            ),
            1
        );
    }

    #[test]
    fn launch_dims_match_partitioning() {
        let kern = FusedKernel::emit(FusedConfig::ours(64, 56, 56, 32, 64));
        let d = kern.launch_dims();
        // Conv2N32: 28×28 tiles × 1 ngroup × 1 kblock = 784 blocks (§3.2).
        assert_eq!(d.grid, [28, 28, 1]);
        assert_eq!(d.num_blocks(), 784);
        let kern = FusedKernel::emit(FusedConfig::ours(512, 7, 7, 128, 512));
        // Conv5N128: 4×4 tiles × 4 ngroups × 8 kblocks.
        assert_eq!(kern.launch_dims().grid, [4, 4, 32]);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn rejects_bad_n() {
        FusedConfig::ours(64, 56, 56, 30, 64).validate();
    }

    /// Region markers survive schedule repair: the phases tile the module
    /// contiguously from instruction 0 and `region` matches `main_loop`.
    #[test]
    fn regions_tile_the_kernel() {
        let kern = FusedKernel::emit(FusedConfig::ours(64, 56, 56, 32, 64));
        let names: Vec<&str> = kern.regions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup", "prologue", "main_loop", "output_transform"]
        );
        assert_eq!(kern.regions[0].start, 0);
        for w in kern.regions.windows(2) {
            assert_eq!(w[0].end, w[1].start, "phases must be contiguous");
        }
        let last = kern.regions.last().unwrap();
        // Only the final EXIT may sit outside the named phases.
        assert!(kern.module.insts.len() as u32 - last.end <= 1);
        let main = kern.regions.iter().find(|r| r.name == "main_loop").unwrap();
        assert_eq!((main.start, main.end), kern.region);
        assert!(
            main.end > main.start + 1000,
            "main loop holds the FFMA bulk"
        );
        // main_loop_only drops the output transform.
        let mut cfg = FusedConfig::ours(64, 56, 56, 32, 64);
        cfg.main_loop_only = true;
        let short = FusedKernel::emit(cfg);
        assert!(short.regions.iter().all(|r| r.name != "output_transform"));
    }
}
