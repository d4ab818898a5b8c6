//! Emitter infrastructure: a thin typed layer over `sass::Instruction`
//! streams with label patching, scheduling helpers, and the host-side magic
//! constants for division by compile-time divisors.

use sass::ctrl::Ctrl;
use sass::isa::{build, CmpOp, Instruction, Op, PredGuard, SrcB};
use sass::reg::{Pred, Reg, RZ};
use sass::Module;

/// Incrementally builds an instruction stream.
pub struct Emitter {
    insts: Vec<Instruction>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, usize)>, // (inst index, label id)
    markers: Vec<u32>,
    /// Named regions as (name, start marker id, end marker id).
    regions: Vec<(String, usize, Option<usize>)>,
}

/// A forward-referenceable branch label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label(usize);

/// Handle of an open named region (see [`Emitter::region_begin`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionHandle(usize);

impl Emitter {
    pub fn new() -> Self {
        Emitter {
            insts: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            markers: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Append an op with default control (stall 1, yield).
    pub fn op(&mut self, op: Op) -> &mut Instruction {
        self.insts.push(Instruction::new(op));
        self.insts.last_mut().unwrap()
    }

    /// Append an op with explicit control.
    pub fn opc(&mut self, op: Op, ctrl: Ctrl) -> &mut Instruction {
        self.insts.push(Instruction::new(op).with_ctrl(ctrl));
        self.insts.last_mut().unwrap()
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the current position.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.insts.len() as u32);
    }

    /// Guarded branch to a label (patched at build).
    pub fn bra_if(&mut self, guard: PredGuard, l: Label) -> &mut Instruction {
        self.patches.push((self.insts.len(), l.0));
        self.insts
            .push(Instruction::new(Op::Bra { target: u32::MAX }).with_guard(guard));
        self.insts.last_mut().unwrap()
    }

    /// Register a marker at the current position. Markers stay consistent
    /// across the build-time schedule repair (NOP insertions shift them);
    /// resolve with the vector [`Emitter::build_with_markers`] returns.
    pub fn mark(&mut self) -> usize {
        self.markers.push(self.insts.len() as u32);
        self.markers.len() - 1
    }

    /// Open a named region (a kernel phase: setup, main loop, ...) at the
    /// current position. Region boundaries are markers, so they survive the
    /// build-time schedule repair; resolve them with
    /// [`Emitter::build_with_regions`].
    pub fn region_begin(&mut self, name: &str) -> RegionHandle {
        let m = self.mark();
        self.regions.push((name.to_string(), m, None));
        RegionHandle(self.regions.len() - 1)
    }

    /// Close a region opened with [`Emitter::region_begin`] at the current
    /// position.
    pub fn region_end(&mut self, h: RegionHandle) {
        assert!(self.regions[h.0].2.is_none(), "region closed twice");
        let m = self.mark();
        self.regions[h.0].2 = Some(m);
    }

    /// Load a 32-bit value into `d` (MOV imm).
    pub fn mov_imm(&mut self, d: Reg, v: u32) {
        self.op(build::mov(d, v));
    }

    /// Load a 64-bit parameter pointer at `param_off` (relative to the
    /// parameter base) into the pair `(d, d+1)`.
    pub fn load_param_ptr(&mut self, d: Reg, param_off: u16) {
        let base = gpusim::PARAM_BASE + param_off;
        self.op(build::mov(d, SrcB::Const(base)));
        self.op(build::mov(d.offset(1), SrcB::Const(base + 4)));
    }

    /// `d = a / divisor` and `m = a % divisor` for a compile-time `divisor`,
    /// exact for `a < 65536` (grid coordinates). Uses the IMAD.HI magic
    /// sequence, or a plain shift for powers of two. `tmp` must differ from
    /// `a`.
    pub fn div_rem_const(&mut self, d: Reg, m: Reg, a: Reg, divisor: u32, tmp: Reg) {
        assert!(divisor > 0);
        assert_ne!(tmp, a);
        if divisor == 1 {
            self.op(build::mov(d, a));
            self.op(build::mov(m, RZ));
            return;
        }
        if divisor.is_power_of_two() {
            let sh = divisor.trailing_zeros() as u8;
            self.op(build::shr(d, a, sh));
            self.op(build::and(m, a, divisor - 1));
            return;
        }
        // q = (a * ceil(2^32/d)) >> 32 — exact for a < 2^16, d < 2^16.
        let magic = ((1u64 << 32).div_ceil(divisor as u64)) as u32;
        self.op(Op::ImadHi {
            d: tmp,
            a,
            b: SrcB::Imm(magic),
            c: RZ,
        });
        self.op(build::mov(d, tmp));
        // m = a - q*d
        self.op(build::imad(tmp, tmp, SrcB::Imm(divisor.wrapping_neg()), a));
        self.op(build::mov(m, tmp));
    }

    /// Finish: patch branches, auto-repair schedule hazards (stall counts
    /// and scoreboard waits, like maxas's auto-scheduling pass — see
    /// `sass::lint::fix_schedule`), derive the register count, and build
    /// the module.
    pub fn build(self, name: &str, smem_bytes: u32, param_bytes: u32) -> Module {
        self.build_with_markers(name, smem_bytes, param_bytes).0
    }

    /// Like [`Emitter::build`], also returning the repaired positions of
    /// every marker registered with [`Emitter::mark`].
    pub fn build_with_markers(
        mut self,
        name: &str,
        smem_bytes: u32,
        param_bytes: u32,
    ) -> (Module, Vec<u32>) {
        for (idx, label) in self.patches.drain(..) {
            let target = self.labels[label].expect("unbound label");
            if let Op::Bra { target: t } = &mut self.insts[idx].op {
                *t = target;
            }
        }
        sass::lint::fix_schedule_marked(&mut self.insts, &mut self.markers);
        (
            Module::new(name, smem_bytes, param_bytes, self.insts),
            self.markers,
        )
    }

    /// Like [`Emitter::build`], also resolving every region opened with
    /// [`Emitter::region_begin`] to repaired instruction-index ranges.
    pub fn build_with_regions(
        self,
        name: &str,
        smem_bytes: u32,
        param_bytes: u32,
    ) -> (Module, Vec<gpusim::Region>) {
        let region_meta: Vec<(String, usize, usize)> = self
            .regions
            .iter()
            .map(|(n, s, e)| {
                (
                    n.clone(),
                    *s,
                    e.unwrap_or_else(|| panic!("region '{n}' never closed")),
                )
            })
            .collect();
        let (module, markers) = self.build_with_markers(name, smem_bytes, param_bytes);
        let regions = region_meta
            .into_iter()
            .map(|(name, s, e)| gpusim::Region {
                name,
                start: markers[s],
                end: markers[e],
            })
            .collect();
        (module, regions)
    }

    /// Emit a decrementing counter loop guard:
    /// `ctr -= step; P = ctr > 0; @P BRA top`.
    pub fn loop_dec(&mut self, ctr: Reg, step: u32, p: Pred, top: Label) {
        self.op(build::iadd3(
            ctr,
            ctr,
            (step as i32).wrapping_neg() as u32,
            RZ,
        ));
        self.opc(
            build::isetp(p, CmpOp::Gt, ctr, 0u32),
            Ctrl::new().with_stall(4),
        );
        self.bra_if(PredGuard::on(p), top).ctrl.stall = 5;
    }
}

impl Default for Emitter {
    fn default() -> Self {
        Self::new()
    }
}

/// Yield-flag placement strategies from §6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YieldStrategy {
    /// Never clear the yield flag (the paper's winning "Natural" strategy).
    Natural,
    /// Clear the yield flag every 8 float instructions (NVCC's heuristic).
    Nvcc,
    /// Clear the yield flag every 7 float instructions (cuDNN's heuristic).
    Cudnn,
}

impl YieldStrategy {
    /// Period between cleared yield flags (None = never clear).
    pub fn period(self) -> Option<u32> {
        match self {
            YieldStrategy::Natural => None,
            YieldStrategy::Nvcc => Some(8),
            YieldStrategy::Cudnn => Some(7),
        }
    }
}

/// Tracks float-instruction count and applies a yield strategy.
pub struct YieldApplier {
    strategy: YieldStrategy,
    count: u32,
}

impl YieldApplier {
    pub fn new(strategy: YieldStrategy) -> Self {
        YieldApplier { strategy, count: 0 }
    }

    /// Call on each float instruction; returns whether the yield flag should
    /// be *cleared* on it.
    pub fn next_clears(&mut self) -> bool {
        self.count += 1;
        match self.strategy.period() {
            Some(p) => self.count.is_multiple_of(p),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{Gpu, LaunchDims};

    #[test]
    fn div_rem_const_is_exact() {
        for divisor in [1u32, 2, 3, 4, 7, 8, 12, 28, 49, 196, 784] {
            let mut e = Emitter::new();
            e.op(build::s2r(Reg(0), sass::isa::SpecialReg::CtaidX));
            e.div_rem_const(Reg(1), Reg(2), Reg(0), divisor, Reg(3));
            e.load_param_ptr(Reg(4), 0);
            // out[2*ctaid] = q, out[2*ctaid+1] = m.
            e.op(build::shl(Reg(6), Reg(0), 3));
            e.op(build::iadd3(Reg(4), Reg(4), Reg(6), RZ));
            e.op(build::stg(sass::isa::MemWidth::B32, Reg(4), 0, Reg(1)));
            e.op(build::stg(sass::isa::MemWidth::B32, Reg(4), 4, Reg(2)));
            e.op(Op::Exit);
            let m = e.build("divtest", 0, 8);
            let mut gpu = Gpu::new(gpusim::DeviceSpec::v100(), 1 << 22);
            let blocks = 1000u32;
            let out = gpu.alloc(blocks as u64 * 8);
            let params = gpusim::ParamBuilder::new().push_ptr(out).build();
            gpu.launch(&m, LaunchDims::linear(blocks, 1), &params)
                .unwrap();
            for a in (0..blocks).step_by(37) {
                let q = gpu.mem.read_u32(out + a as u64 * 8).unwrap();
                let r = gpu.mem.read_u32(out + a as u64 * 8 + 4).unwrap();
                assert_eq!((q, r), (a / divisor, a % divisor), "a={a} d={divisor}");
            }
        }
    }

    #[test]
    fn labels_patch_forward_and_backward() {
        let mut e = Emitter::new();
        let top = e.label();
        let done = e.label();
        e.mov_imm(Reg(0), 3);
        e.bind(top);
        e.op(build::iadd3(Reg(0), Reg(0), (-1i32) as u32, RZ));
        e.op(build::isetp(Pred(0), CmpOp::Le, Reg(0), 0u32));
        e.bra_if(PredGuard::on(Pred(0)), done);
        e.bra_if(PredGuard::always(), top);
        e.bind(done);
        e.op(Op::Exit);
        let m = e.build("loop", 0, 0);
        // Branch targets resolved.
        match m.insts[3].op {
            Op::Bra { target } => assert_eq!(target, 5),
            ref o => panic!("{o:?}"),
        }
        match m.insts[4].op {
            Op::Bra { target } => assert_eq!(target, 1),
            ref o => panic!("{o:?}"),
        }
        let mut gpu = Gpu::new(gpusim::DeviceSpec::v100(), 1 << 16);
        gpu.launch(&m, LaunchDims::linear(1, 32), &[]).unwrap();
    }

    #[test]
    fn yield_applier_periods() {
        let mut y = YieldApplier::new(YieldStrategy::Cudnn);
        let clears: Vec<bool> = (0..14).map(|_| y.next_clears()).collect();
        assert_eq!(clears.iter().filter(|&&c| c).count(), 2);
        assert!(clears[6] && clears[13]);
        let mut y = YieldApplier::new(YieldStrategy::Natural);
        assert!((0..100).all(|_| !y.next_clears()));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut e = Emitter::new();
        let l = e.label();
        e.bra_if(PredGuard::always(), l);
        let _ = e.build("bad", 0, 0);
    }
}
