//! Tiled (batched) SGEMM kernel — the compute core of the GEMM-based
//! convolution baselines (cuDNN `GEMM` / `IMPLICIT_PRECOMP_GEMM`) and of the
//! non-fused Winograd pipeline's batched-matrix-multiply phase (§7.3).
//!
//! Computes `C[b] = Aᵀ[b] × B[b]` per batch `b`, where `A` is stored
//! transposed (`Kd × M`, row-major) and `B` is `Kd × N` — both therefore
//! load fully coalesced, the same trick the Winograd kernel's CRSK filter
//! layout uses. Tile: 64 (M) × 128 (N) output per 256-thread block, `Kd`
//! consumed in steps of 8 through shared memory, 4×8 accumulators per
//! thread with double-buffered fragments — a maxas-style SGEMM whose
//! shared-memory traffic per FFMA leaves the MIO pipe ~75% free.

use sass::ctrl::Ctrl;
use sass::isa::{build, CmpOp, Instruction, MemWidth, Op, PredGuard, SrcB};
use sass::reg::{Pred, Reg, RZ};
use sass::Module;

use crate::buffers::Buffers;
use crate::emit::Emitter;

/// Configuration: problem sizes are compile-time like all our kernels.
#[derive(Clone, Copy, Debug)]
pub struct GemmConfig {
    /// Rows of C (= columns of the transposed A input).
    pub m: u32,
    /// Columns of C.
    pub n: u32,
    /// Reduction depth.
    pub kd: u32,
    /// Number of independent GEMMs (grid.z); 1 for a plain GEMM.
    pub batches: u32,
    /// Extra integer instructions per global B load, modelling cuDNN's
    /// IMPLICIT_GEMM which recomputes im2col indices on the fly (0 for the
    /// precomputed-offset variant).
    pub extra_index_ops: u32,
}

impl GemmConfig {
    pub fn new(m: u32, n: u32, kd: u32) -> Self {
        GemmConfig {
            m,
            n,
            kd,
            batches: 1,
            extra_index_ops: 0,
        }
    }

    pub fn batched(mut self, b: u32) -> Self {
        self.batches = b;
        self
    }

    pub fn validate(&self) {
        assert_eq!(self.m % 64, 0, "M must be a multiple of 64");
        assert_eq!(self.n % 128, 0, "N must be a multiple of 128");
        assert_eq!(self.kd % 8, 0, "Kd must be a multiple of 8");
        assert!(self.batches >= 1);
    }

    /// FLOPs of the whole launch.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.kd as f64 * self.batches as f64
    }

    /// One block per 64×128 tile of `C`, per batch, 256 threads each.
    pub fn launch_dims(&self) -> gpusim::LaunchDims {
        gpusim::LaunchDims::new([self.n / 128, self.m / 64, self.batches], [256, 1, 1])
    }

    /// FFMA warp instructions one block issues: a 64×128 tile over a
    /// `Kd`-deep reduction is 8192·Kd FMAs, 32 lanes per instruction.
    pub fn ffma_per_block(&self) -> f64 {
        256.0 * self.kd as f64
    }
}

/// The emitted GEMM kernel plus launch metadata.
pub struct GemmKernel {
    pub module: Module,
    pub config: GemmConfig,
    /// Main-loop instruction range for region timing.
    pub region: (u32, u32),
}

// Register map:
//   R0..31   accumulators (4 rows × 8 cols)
//   R32..55  fragments, double-buffered: per buffer A rows (4) + B cols (8)
//   R56..57  A staging (LDG.64), R60..63 B staging (LDG.128)
//   R64.. addresses and scratch
fn racc(i: u32, j: u32) -> Reg {
    Reg((i * 8 + j) as u8)
}
fn rfrag_a(buf: u32, i: u32) -> Reg {
    Reg((32 + buf * 12 + i) as u8)
}
fn rfrag_b(buf: u32, j: u32) -> Reg {
    Reg((32 + buf * 12 + 4 + j) as u8)
}
const PF_A: u8 = 56; // 2 regs (LDG.64)
const PF_B: u8 = 60; // 4 regs (LDG.128)
const R_APTR: u8 = 64;
const R_BPTR: u8 = 66;
const R_ASTS: u8 = 68;
const R_BSTS: u8 = 69;
const R_ALDS: u8 = 70;
const R_BLDS: u8 = 71;
const R_CTR: u8 = 72;
const R_T0: u8 = 73;
const R_T1: u8 = 74;

const P_MORE: Pred = Pred(6);
const P_LOOP: Pred = Pred(5);

/// Shared memory: As[8][64] then Bs[8][128] (6 KiB total).
const SMEM_B_BASE: u32 = 8 * 64 * 4;
const SMEM_TOTAL: u32 = SMEM_B_BASE + 8 * 128 * 4;

impl GemmKernel {
    /// Emit the kernel. Parameters: `A` (Kd×M, i.e. transposed), `B`
    /// (Kd×N), `C` (M×N), all row-major f32; grid
    /// `(N/128, M/64, batches)` × 256 threads.
    pub fn emit(cfg: GemmConfig) -> GemmKernel {
        cfg.validate();
        let mut e = Emitter::new();
        let (m, n, kd) = (cfg.m, cfg.n, cfg.kd);

        let rt = Reg(R_T0);
        let rs = Reg(R_T1);
        // Setup staging in accumulator registers (zeroed afterwards).
        let rtid = Reg(0);
        let r_bx = Reg(1); // n-tile
        let r_by = Reg(2); // m-tile
        let r_bz = Reg(3); // batch
        let r_row = Reg(4); // t/32
        let r_lane = Reg(5); // t%32
        e.op(build::s2r(rtid, sass::isa::SpecialReg::TidX));
        e.op(build::s2r(r_bx, sass::isa::SpecialReg::CtaidX));
        e.op(build::s2r(r_by, sass::isa::SpecialReg::CtaidY));
        e.opc(
            build::s2r(r_bz, sass::isa::SpecialReg::CtaidZ),
            Ctrl::new().with_stall(6),
        );
        e.op(build::and(r_lane, rtid, 31u32));
        e.op(build::shr(r_row, rtid, 5));

        // A ptr: a + 4·(bz·Kd·M + row·M + by·64 + 2·lane).
        e.load_param_ptr(Reg(R_APTR), 0);
        e.op(build::imad(rt, r_bz, kd * m, RZ));
        e.op(build::imad(rt, r_row, m, rt));
        e.op(build::shl(rs, r_lane, 1));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::imad(rs, r_by, 64u32, RZ));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::imad_wide(Reg(R_APTR), rt, 4u32, Reg(R_APTR)));
        // B ptr: b + 4·(bz·Kd·N + row·N + bx·128 + 4·lane).
        e.load_param_ptr(Reg(R_BPTR), 8);
        e.op(build::imad(rt, r_bz, kd * n, RZ));
        e.op(build::imad(rt, r_row, n, rt));
        e.op(build::shl(rs, r_lane, 2));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::imad(rs, r_bx, 128u32, RZ));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::imad_wide(Reg(R_BPTR), rt, 4u32, Reg(R_BPTR)));

        // STS addresses.
        e.op(build::shl(rs, r_lane, 1));
        e.op(build::imad(rt, r_row, 64u32, RZ));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::shl(Reg(R_ASTS), rt, 2));
        e.op(build::shl(rs, r_lane, 2));
        e.op(build::imad(rt, r_row, 128u32, RZ));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::shl(rt, rt, 2));
        e.op(build::iadd3(Reg(R_BSTS), rt, SMEM_B_BASE, RZ));

        // LDS bases. Warp (wr, wc) = (w%2, w/2); lane → r4 = l%8, c8 = l/8.
        // A rows = wr·32 + r4·4 ; B cols = wc·32 + c8·8.
        let r_wp = Reg(6);
        e.op(build::shr(r_wp, rtid, 5));
        e.op(build::and(rt, r_wp, 1u32));
        e.op(build::shl(rt, rt, 5));
        e.op(build::and(rs, r_lane, 7u32));
        e.op(build::shl(rs, rs, 2));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::shl(Reg(R_ALDS), rt, 2));
        e.op(build::shr(rt, r_wp, 1));
        e.op(build::shl(rt, rt, 5));
        e.op(build::shr(rs, r_lane, 3));
        e.op(build::shl(rs, rs, 3));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ));
        e.op(build::shl(rt, rt, 2));
        e.op(build::iadd3(Reg(R_BLDS), rt, SMEM_B_BASE, RZ));

        e.mov_imm(Reg(R_CTR), kd / 8);
        for i in 0..4u32 {
            for j in 0..8u32 {
                e.op(build::mov(racc(i, j), RZ));
            }
        }

        // Prologue: stage block 0.
        for inst in ldg_insts(&cfg, false) {
            e.opc(inst.op, inst.ctrl).guard = inst.guard;
        }

        let region_start = e.mark();
        let loop_top = e.label();
        e.bind(loop_top);
        e.op(build::isetp(P_MORE, CmpOp::Gt, Reg(R_CTR), 1u32));
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));
        // STS staged slivers.
        let mut a_sts = Instruction::new(build::sts(MemWidth::B64, Reg(R_ASTS), 0, Reg(PF_A)));
        a_sts.ctrl = Ctrl::new()
            .with_stall(2)
            .with_read_bar(4)
            .with_wait_mask(0b1100);
        e.opc(a_sts.op, a_sts.ctrl);
        let mut b_sts = Instruction::new(build::sts(MemWidth::B128, Reg(R_BSTS), 0, Reg(PF_B)));
        b_sts.ctrl = Ctrl::new().with_stall(2).with_read_bar(4);
        e.opc(b_sts.op, b_sts.ctrl);
        // Advance pointers: 8 rows.
        e.op(build::iadd3(Reg(R_APTR), Reg(R_APTR), 8 * m * 4, RZ));
        e.op(build::iadd3(Reg(R_BPTR), Reg(R_BPTR), 8 * n * 4, RZ));
        e.opc(Op::BarSync, Ctrl::new().with_stall(1));

        // Inner: 8 sub-iterations, fragments double-buffered.
        for inst in lds_insts(0, 0) {
            e.opc(inst.op, inst.ctrl);
        }
        let mut prefetch: Vec<Instruction> = ldg_insts(&cfg, true);
        let mut pf = prefetch.drain(..);
        for i in 0..8u32 {
            let buf = i % 2;
            let mut lds = if i < 7 {
                lds_insts(i + 1, buf ^ 1)
            } else {
                Vec::new()
            };
            let mut lds = lds.drain(..);
            let mut count = 0u32;
            for a in 0..4u32 {
                for b in 0..8u32 {
                    let mut inst = Instruction::new(build::ffma(
                        racc(a, b),
                        rfrag_a(buf, a),
                        rfrag_b(buf, b),
                        racc(a, b),
                    ));
                    // The A-row operand repeats across the 8 columns.
                    inst.ctrl = inst.ctrl.reuse_slot(0);
                    if count == 0 {
                        inst.ctrl.wait_mask |= 0b11;
                    }
                    e.opc(inst.op, inst.ctrl);
                    count += 1;
                    if count.is_multiple_of(8) {
                        if let Some(l) = lds.next() {
                            e.opc(l.op, l.ctrl);
                        }
                    }
                    if count % 8 == 4 {
                        if let Some(p) = pf.next() {
                            e.opc(p.op, p.ctrl).guard = p.guard;
                        }
                    }
                }
            }
            for l in lds {
                e.opc(l.op, l.ctrl);
            }
        }
        for p in pf {
            e.opc(p.op, p.ctrl).guard = p.guard;
        }
        e.loop_dec(Reg(R_CTR), 1, P_LOOP, loop_top);
        let region_end = e.mark();

        // Epilogue: C[by·64 + a_row][bx·128 + b_col] from accumulators.
        // Staging uses the (now dead) fragment registers — the accumulators
        // must stay untouched until their STG.
        let r_cptr = Reg(R_APTR); // reuse
        let (rtid, r_bx, r_by, r_bz, r_wp, r_lane) =
            (Reg(32), Reg(33), Reg(34), Reg(35), Reg(36), Reg(37));
        e.op(build::s2r(rtid, sass::isa::SpecialReg::TidX));
        e.op(build::s2r(r_bx, sass::isa::SpecialReg::CtaidX));
        e.op(build::s2r(r_by, sass::isa::SpecialReg::CtaidY));
        e.opc(
            build::s2r(r_bz, sass::isa::SpecialReg::CtaidZ),
            Ctrl::new().with_stall(6),
        );
        e.op(build::shr(r_wp, rtid, 5));
        e.op(build::and(r_lane, rtid, 31u32));
        // a_off = (w&1)·32 + (l%8)·4 ; b_off = (w>>1)·32 + (l/8)·8.
        let r_aoff = Reg(38); // dead fragment register
        e.op(build::and(rt, r_wp, 1u32));
        e.op(build::shl(rt, rt, 5));
        e.op(build::and(rs, r_lane, 7u32));
        e.op(build::shl(rs, rs, 2));
        e.op(build::iadd3(r_aoff, rt, SrcB::Reg(rs), RZ)); // a_off
        e.op(build::shr(rt, r_wp, 1));
        e.op(build::shl(rt, rt, 5));
        e.op(build::shr(rs, r_lane, 3));
        e.op(build::shl(rs, rs, 3));
        e.op(build::iadd3(rt, rt, SrcB::Reg(rs), RZ)); // b_off in rt
                                                       // elem = (bz·M + by·64 + a_off)·N + bx·128 + b_off.
        e.op(build::imad(rs, r_bz, m, RZ));
        e.op(build::imad(rs, r_by, 64u32, rs));
        e.op(build::iadd3(rs, rs, SrcB::Reg(r_aoff), RZ));
        e.op(build::imad(rs, rs, n, RZ));
        e.op(build::iadd3(rs, rs, SrcB::Reg(rt), RZ));
        e.op(build::imad(rt, r_bx, 128u32, RZ));
        e.op(build::iadd3(rs, rs, SrcB::Reg(rt), RZ));
        e.load_param_ptr(r_cptr, 16);
        e.opc(
            build::imad_wide(r_cptr, rs, 4u32, r_cptr),
            Ctrl::new().with_stall(6),
        );
        for a in 0..4u32 {
            let off = (a * n * 4) as i32;
            e.opc(
                build::stg(MemWidth::B128, r_cptr, off, racc(a, 0)),
                Ctrl::new().with_stall(2),
            );
            e.opc(
                build::stg(MemWidth::B128, r_cptr, off + 16, racc(a, 4)),
                Ctrl::new().with_stall(2),
            );
        }
        e.opc(Op::Exit, Ctrl::new().with_stall(5));

        let (module, markers) = e.build_with_markers("sgemm_tn_64x128", SMEM_TOTAL, 24);
        GemmKernel {
            module,
            config: cfg,
            region: (markers[region_start], markers[region_end]),
        }
    }

    /// Launch dims of the emitted kernel: [`GemmConfig::launch_dims`].
    pub fn launch_dims(&self) -> gpusim::LaunchDims {
        self.config.launch_dims()
    }

    pub fn params(&self, a: u64, b: u64, c: u64) -> Vec<u8> {
        gpusim::ParamBuilder::new()
            .push_ptr(a)
            .push_ptr(b)
            .push_ptr(c)
            .build()
    }

    /// Device buffers `[A, B, C]` over all batches, f32 — the pointers
    /// [`GemmKernel::params`] takes.
    pub fn buffers(&self) -> Buffers {
        let c = &self.config;
        let (m, n, kd, b) = (
            u64::from(c.m),
            u64::from(c.n),
            u64::from(c.kd),
            u64::from(c.batches),
        );
        Buffers(vec![b * kd * m * 4, b * kd * n * 4, b * m * n * 4])
    }
}

/// Staging loads for one 8-row block: one LDG.64 of A (row t/32, columns
/// 2·(t%32)) and one LDG.128 of B (columns 4·(t%32)) per thread — 256
/// threads cover the 8×64 and 8×128 tiles exactly. `extra_index_ops`
/// IADD3s per B load model IMPLICIT_GEMM's index recomputation.
fn ldg_insts(cfg: &GemmConfig, guarded: bool) -> Vec<Instruction> {
    let mut v = Vec::new();
    let guard = if guarded {
        PredGuard::on(P_MORE)
    } else {
        PredGuard::always()
    };
    let mut a0 = Instruction::new(build::ldg(MemWidth::B64, Reg(PF_A), Reg(R_APTR), 0))
        .with_guard(guard)
        .with_ctrl(Ctrl::new().with_write_bar(2).with_stall(1));
    a0.ctrl.wait_mask |= 1 << 4; // WAR vs STS of the previous block
    v.push(a0);
    for _ in 0..cfg.extra_index_ops {
        v.push(Instruction::new(build::iadd3(
            Reg(R_T1),
            Reg(R_T1),
            1u32,
            RZ,
        )));
    }
    v.push(
        Instruction::new(build::ldg(MemWidth::B128, Reg(PF_B), Reg(R_BPTR), 0))
            .with_guard(guard)
            .with_ctrl(Ctrl::new().with_write_bar(3).with_stall(1)),
    );
    v
}

/// Fragment loads for sub-iteration `i` into buffer `buf`: one LDS.128 of
/// A rows and two of B columns.
fn lds_insts(i: u32, buf: u32) -> Vec<Instruction> {
    let a_off = (i * 64 * 4) as i32;
    let b_off = (i * 128 * 4) as i32;
    vec![
        Instruction::new(build::lds(
            MemWidth::B128,
            rfrag_a(buf, 0),
            Reg(R_ALDS),
            a_off,
        ))
        .with_ctrl(Ctrl::new().with_write_bar(0).with_stall(1)),
        Instruction::new(build::lds(
            MemWidth::B128,
            rfrag_b(buf, 0),
            Reg(R_BLDS),
            b_off,
        ))
        .with_ctrl(Ctrl::new().with_write_bar(1).with_stall(1)),
        Instruction::new(build::lds(
            MemWidth::B128,
            rfrag_b(buf, 4),
            Reg(R_BLDS),
            b_off + 16,
        ))
        .with_ctrl(Ctrl::new().with_write_bar(1).with_stall(1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{DeviceSpec, Gpu, Model};
    use tensor::XorShiftRng;

    fn host_gemm_tn(m: usize, n: usize, kd: usize, at: &[f32], b: &[f32]) -> Vec<f32> {
        // at is Kd×M; result M×N.
        let mut c = vec![0.0f32; m * n];
        for kk in 0..kd {
            for i in 0..m {
                let a = at[kk * m + i];
                for j in 0..n {
                    c[i * n + j] += a * b[kk * n + j];
                }
            }
        }
        c
    }

    fn run(cfg: GemmConfig, seed: u64) {
        let (m, n, kd, bt) = (
            cfg.m as usize,
            cfg.n as usize,
            cfg.kd as usize,
            cfg.batches as usize,
        );
        let mut rng = XorShiftRng::new(seed);
        let at: Vec<f32> = (0..bt * kd * m).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..bt * kd * n).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let kern = GemmKernel::emit(cfg);
        assert!(
            kern.module.info.num_regs <= 80,
            "regs {}",
            kern.module.info.num_regs
        );
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 28);
        let da = gpu.alloc_upload_f32(&at);
        let db = gpu.alloc_upload_f32(&b);
        let dc = gpu.alloc((bt * m * n) as u64 * 4);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &kern.params(da, db, dc))
            .unwrap_or_else(|e| panic!("gemm failed: {e}"));
        let got = gpu.mem.download_f32(dc, bt * m * n).unwrap();
        for bi in 0..bt {
            let want = host_gemm_tn(
                m,
                n,
                kd,
                &at[bi * kd * m..(bi + 1) * kd * m],
                &b[bi * kd * n..(bi + 1) * kd * n],
            );
            let rep = tensor::compare(&want, &got[bi * m * n..(bi + 1) * m * n], 1e-3, 1e-3);
            assert_eq!(rep.num_bad, 0, "batch {bi}: {rep}");
        }
    }

    #[test]
    fn gemm_64x128x8() {
        run(GemmConfig::new(64, 128, 8), 1);
    }

    #[test]
    fn gemm_rectangular() {
        run(GemmConfig::new(128, 256, 32), 2);
    }

    #[test]
    fn gemm_batched() {
        run(GemmConfig::new(64, 128, 16).batched(3), 3);
    }

    #[test]
    fn gemm_deep_reduction() {
        run(GemmConfig::new(64, 128, 256), 4);
    }

    #[test]
    fn implicit_variant_emits_extra_ops() {
        let plain = GemmKernel::emit(GemmConfig::new(64, 128, 64));
        let mut cfg = GemmConfig::new(64, 128, 64);
        cfg.extra_index_ops = 4;
        let noisy = GemmKernel::emit(cfg);
        assert!(noisy.module.insts.len() > plain.module.insts.len());
        run(cfg, 5); // still correct
    }

    #[test]
    fn gemm_efficiency_near_peak() {
        // The GEMM baseline must run well (cuDNN's GEMM path is highly
        // optimized; Table 2's modest Winograd speedups depend on it).
        // 8 × 30 = 240 blocks = exactly one wave at occupancy 3 on V100.
        let cfg = GemmConfig::new(512, 3840, 512);
        let kern = GemmKernel::emit(cfg);
        let dev = DeviceSpec::v100();
        let mut gpu = Gpu::new(dev.clone(), 1 << 26);
        let da = gpu.alloc((cfg.kd * cfg.m) as u64 * 4);
        let db = gpu.alloc((cfg.kd * cfg.n) as u64 * 4);
        let dc = gpu.alloc((cfg.m * cfg.n) as u64 * 4);
        let t = gpusim::simulate(
            &mut gpu,
            &kern.module,
            kern.launch_dims(),
            &kern.params(da, db, dc),
            Model::OneWave,
            gpusim::TimingOptions::default(),
        )
        .unwrap()
        .0;
        let eff = t.tflops / (dev.peak_fp32_flops() / 1e12);
        assert!(eff > 0.55, "GEMM efficiency {eff}");
    }
}
