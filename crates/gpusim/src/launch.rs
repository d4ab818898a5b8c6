//! Functional grid launch: run every thread block of a kernel to completion.
//!
//! Blocks are independent (CUDA semantics); within a block, warps are
//! co-scheduled cooperatively and `BAR.SYNC` is honoured. The two
//! [`Gpu`] launchers are one walk (`claim_walk`): workers claim block
//! indices from one atomic counter and run each block against the shared
//! word arena ([`crate::memory`]), so blocks on different host threads share
//! global memory without `unsafe`. The device model's SM workers
//! ([`crate::device_sim`]) run on the same walk.

use sass::Module;

use std::sync::atomic::{AtomicU64, Ordering};

use crate::decode::InstDesc;
use crate::device::DeviceSpec;
use crate::exec::{step, Effects, ExecEnv, ExecError, MemTrace, StepEvent, Warp, WARP_SIZE};
use crate::memory::{ConstBank, DevPtr, GlobalMemory};
use crate::timing::grid_coord;

/// Grid/block shape for a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchDims {
    pub grid: [u32; 3],
    pub block: [u32; 3],
}

impl LaunchDims {
    pub fn new(grid: [u32; 3], block: [u32; 3]) -> Self {
        LaunchDims { grid, block }
    }

    /// 1-D helper.
    pub fn linear(grid: u32, block: u32) -> Self {
        LaunchDims {
            grid: [grid, 1, 1],
            block: [block, 1, 1],
        }
    }

    pub fn threads_per_block(&self) -> u32 {
        self.block[0] * self.block[1] * self.block[2]
    }

    pub fn num_blocks(&self) -> u64 {
        self.grid[0] as u64 * self.grid[1] as u64 * self.grid[2] as u64
    }
}

/// Launch-time validation errors.
#[derive(Clone, Debug)]
pub enum LaunchError {
    /// Kernel exceeds the per-thread register limit (§5.2.1 footnote 7).
    TooManyRegisters { used: u16, limit: u32 },
    /// Static shared memory exceeds the device maximum.
    TooMuchSharedMem { used: u32, limit: u32 },
    /// Block too large.
    BadBlockShape(String),
    /// A warp faulted.
    Exec(ExecError),
    /// The request has no meaning under the chosen model.
    Unsupported(&'static str),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::TooManyRegisters { used, limit } => {
                write!(
                    f,
                    "kernel uses {used} registers/thread, device limit is {limit}"
                )
            }
            LaunchError::TooMuchSharedMem { used, limit } => {
                write!(
                    f,
                    "kernel uses {used} B shared memory, device limit is {limit}"
                )
            }
            LaunchError::BadBlockShape(s) => write!(f, "bad block shape: {s}"),
            LaunchError::Exec(e) => write!(f, "execution fault: {e}"),
            LaunchError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A simulated GPU: device description plus its global memory.
pub struct Gpu {
    pub device: DeviceSpec,
    pub mem: GlobalMemory,
}

/// Per-warp instruction-step budget to catch runaway kernels.
const STEP_LIMIT: u64 = 500_000_000;

impl Gpu {
    /// A GPU with the given arena capacity.
    pub fn new(device: DeviceSpec, mem_capacity: usize) -> Self {
        Gpu {
            device,
            mem: GlobalMemory::new(mem_capacity),
        }
    }

    /// Allocate device memory.
    pub fn alloc(&mut self, bytes: u64) -> DevPtr {
        self.mem.alloc(bytes)
    }

    /// Allocate and upload.
    pub fn alloc_upload_f32(&mut self, data: &[f32]) -> DevPtr {
        let p = self.mem.alloc(data.len() as u64 * 4);
        self.mem.upload_f32(p, data).expect("fresh allocation");
        p
    }

    fn validate(&self, module: &Module, dims: &LaunchDims) -> Result<(), LaunchError> {
        if module.info.num_regs as u32 > self.device.max_regs_per_thread {
            return Err(LaunchError::TooManyRegisters {
                used: module.info.num_regs,
                limit: self.device.max_regs_per_thread,
            });
        }
        if module.info.smem_bytes > self.device.smem_per_sm {
            return Err(LaunchError::TooMuchSharedMem {
                used: module.info.smem_bytes,
                limit: self.device.smem_per_sm,
            });
        }
        let tpb = dims.threads_per_block();
        if tpb == 0 || tpb > 1024 {
            return Err(LaunchError::BadBlockShape(format!(
                "{} threads per block",
                tpb
            )));
        }
        Ok(())
    }

    /// Run the kernel functionally, sequentially over blocks.
    pub fn launch(
        &mut self,
        module: &Module,
        dims: LaunchDims,
        params: &[u8],
    ) -> Result<(), LaunchError> {
        self.walk(module, dims, params, 1)
    }

    /// Run the kernel functionally, blocks distributed over host threads.
    /// A fault reports the same block as [`Gpu::launch`]. Blocks share
    /// global memory without synchronization, as on a GPU: a kernel whose
    /// blocks write disjoint words (every kernel in this workspace) computes
    /// what [`Gpu::launch`] computes, and a racy one leaves one of the racing
    /// values in each word.
    pub fn launch_parallel(
        &mut self,
        module: &Module,
        dims: LaunchDims,
        params: &[u8],
    ) -> Result<(), LaunchError> {
        self.walk(module, dims, params, 0)
    }

    /// The grid walk under both `launch*` methods: [`claim_walk`] over the
    /// blocks in linear-index order ([`grid_coord`]), each run to
    /// completion with [`run_block`]. A fault reports the lowest-indexed
    /// failing block, the one a sequential walk stops at.
    fn walk(
        &mut self,
        module: &Module,
        dims: LaunchDims,
        params: &[u8],
        workers: usize,
    ) -> Result<(), LaunchError> {
        self.validate(module, &dims)?;
        let cbank = ConstBank::new(dims.block, dims.grid, params);
        let mem = &self.mem;
        claim_walk(
            dims.num_blocks(),
            workers,
            || (),
            |(), i| {
                let ctaid = grid_coord(dims, i);
                run_block(module, mem, &cbank, ctaid, dims.block, None, None)
            },
        )
        .map(drop)
        .map_err(LaunchError::Exec)
    }
}

/// The one parallel walk, under the functional launchers and the device
/// model's SM shards: `workers` threads (`0` leaves the count to the host's
/// available parallelism; never more than `n`, and the caller's thread
/// alone when that comes to fewer than two) each claim the next index below
/// `n` from one atomic counter and run `work(&mut state, i)` on it, with a
/// `state` of their own from `init`. Every worker's state comes back, in no
/// particular order.
///
/// An error ends the walk above its index: an index is skipped only once a
/// lower one has failed. Indices are claimed in ascending order, so every
/// index below the lowest failing one runs (and succeeds), the lowest
/// failing one runs too, and its error is the one returned: the index a
/// sequential walk stops at. The counters publish no data (results come
/// back through `join`), so `Relaxed` suffices; a stale read of the failed
/// bound only runs an index that is then discarded.
pub(crate) fn claim_walk<S: Send, E: Send>(
    n: u64,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, u64) -> Result<(), E> + Sync,
) -> Result<Vec<S>, E> {
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |w| w.get()),
        w => w,
    };
    let workers = (workers as u64).min(n);
    let next = AtomicU64::new(0);
    let failed = AtomicU64::new(u64::MAX);
    let worker = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || i > failed.load(Ordering::Relaxed) {
                return (state, None);
            }
            if let Err(e) = work(&mut state, i) {
                failed.fetch_min(i, Ordering::Relaxed);
                return (state, Some((i, e)));
            }
        }
    };
    let outcomes: Vec<_> = if workers < 2 {
        vec![worker()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("walk worker panicked"))
                .collect()
        })
    };
    let (states, errors): (Vec<S>, Vec<_>) = outcomes.into_iter().unzip();
    match errors.into_iter().flatten().min_by_key(|&(i, _)| i) {
        Some((_, e)) => Err(e),
        None => Ok(states),
    }
}

/// Run one thread block to completion (cooperative warp scheduling with
/// barrier support); `on_trace`, when given, sees every executed
/// instruction's [`MemTrace`] (the one-wave model's L2 warm-up). Every
/// instruction runs in full unless `table` gives the [`Effects`] of each PC
/// (the warm-up block's timing slice).
pub(crate) fn run_block(
    module: &Module,
    global: &GlobalMemory,
    cbank: &ConstBank,
    ctaid: [u32; 3],
    block_dim: [u32; 3],
    mut on_trace: Option<&mut dyn FnMut(&MemTrace)>,
    table: Option<&[InstDesc]>,
) -> Result<(), ExecError> {
    let tpb = block_dim[0] * block_dim[1] * block_dim[2];
    let num_warps = tpb.div_ceil(WARP_SIZE);
    let mut smem = vec![0u8; module.info.smem_bytes as usize];
    let mut warps: Vec<Warp> = (0..num_warps)
        .map(|w| {
            let base = w * WARP_SIZE;
            let lanes = (tpb - base).min(WARP_SIZE);
            Warp::new(module.info.num_regs.max(1), base, lanes)
        })
        .collect();
    let mut at_barrier = vec![false; num_warps as usize];
    let mut steps: u64 = 0;
    let mut trace = MemTrace::default();

    loop {
        let mut all_done = true;
        for w in 0..num_warps as usize {
            if warps[w].exited || at_barrier[w] {
                all_done &= warps[w].exited;
                continue;
            }
            all_done = false;
            // Run this warp until it blocks or exits.
            loop {
                let mut env = ExecEnv {
                    global,
                    smem: &mut smem,
                    cbank,
                    ctaid,
                    block_dim,
                };
                let effects = table
                    .and_then(|t| t.get(warps[w].current_ctx()?.pc as usize))
                    .map_or(Effects::All, |d| d.effects);
                let event = step(
                    &mut warps[w],
                    module.insts.as_slice(),
                    &mut env,
                    w as u32,
                    &mut trace,
                    effects,
                )?;
                if let Some(on_trace) = on_trace.as_deref_mut() {
                    on_trace(&trace);
                }
                steps += 1;
                if steps > STEP_LIMIT {
                    return Err(ExecError {
                        ctaid,
                        warp: w as u32,
                        pc: warps[w].current_ctx().map_or(0, |c| c.pc),
                        inst: "<step limit>".into(),
                        msg: format!(
                            "block exceeded {STEP_LIMIT} instruction steps (infinite loop?)"
                        ),
                    });
                }
                match event {
                    StepEvent::Executed => {}
                    StepEvent::Barrier => {
                        at_barrier[w] = true;
                        break;
                    }
                    StepEvent::Exited => break,
                }
            }
        }
        if all_done {
            return Ok(());
        }
        // Release the barrier when every non-exited warp has arrived
        // (exited warps do not participate in barriers, as on Volta+).
        let waiting = at_barrier.iter().filter(|&&b| b).count();
        let live = warps.iter().filter(|w| !w.exited).count();
        if live > 0 && waiting == live {
            at_barrier.iter_mut().for_each(|b| *b = false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::memory::ParamBuilder;
    use sass::assemble;

    /// y[i] = a*x[i] + y[i] over one block.
    fn axpy_module() -> Module {
        assemble(
            r#"
.kernel axpy
.params 24
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];      // x lo
    --:-:-:Y:6  MOV R11, c[0x0][0x164];      // x hi
    --:-:-:Y:6  MOV R12, c[0x0][0x168];      // y lo
    --:-:-:Y:6  MOV R13, c[0x0][0x16c];      // y hi
    --:-:-:Y:6  MOV R14, c[0x0][0x170];      // a (f32)
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x4, R10;
    --:-:-:Y:6  IMAD.WIDE.U32 R4, R0, 0x4, R12;
    --:-:0:-:2  LDG.E R6, [R2];
    --:-:1:-:2  LDG.E R7, [R4];
    03:-:-:Y:4  FFMA R8, R6, R14, R7;
    --:-:-:Y:2  STG.E [R4], R8;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap()
    }

    #[test]
    fn axpy_single_block() {
        let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 20);
        let n = 64usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| 100.0 + i as f32).collect();
        let xp = gpu.alloc_upload_f32(&x);
        let yp = gpu.alloc_upload_f32(&y);
        let params = ParamBuilder::new()
            .push_ptr(xp)
            .push_ptr(yp)
            .push_f32(3.0)
            .build();
        gpu.launch(&axpy_module(), LaunchDims::linear(1, n as u32), &params)
            .unwrap();
        let out = gpu.mem.download_f32(yp, n).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32 + 100.0 + i as f32, "i={i}");
        }
    }

    /// Block-level reduction through shared memory with barriers:
    /// out[ctaid] = sum of x[ctaid*64 .. ctaid*64+64).
    fn reduce_module() -> Module {
        assemble(
            r#"
.kernel reduce64
.smem 256
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  MOV R12, c[0x0][0x168];
    --:-:-:Y:6  MOV R13, c[0x0][0x16c];
    // idx = ctaid*64 + tid
    --:-:-:Y:6  IMAD R2, R1, 0x40, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R2, 0x4, R10;
    --:-:0:-:2  LDG.E R6, [R2];
    // smem[tid*4] = v
    --:-:-:Y:6  SHF.L.U32 R7, R0, 0x2, RZ;
01:1:-:Y:2  STS [R7], R6;
    3f:-:-:Y:1  BAR.SYNC 0x0;
    // tid 0 sums all 64.
    --:-:-:Y:6  ISETP.NE.AND P0, PT, R0, 0, PT;
    --:-:-:Y:5  @P0 BRA `(DONE);
    --:-:-:Y:6  MOV R8, 0x0;
    --:-:-:Y:6  MOV R9, 0x0;
LOOP:
    --:-:0:-:2  LDS R5, [R9];
01:-:-:Y:6  FADD R8, R8, R5;
    --:-:-:Y:6  IADD3 R9, R9, 0x4, RZ;
    --:-:-:Y:6  ISETP.LT.U32.AND P1, PT, R9, 0x100, PT;
    --:-:-:Y:5  @P1 BRA `(LOOP);
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R1, 0x4, R12;
    --:-:-:Y:2  STG.E [R2], R8;
DONE:
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap()
    }

    #[test]
    fn block_reduction_with_barrier() {
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 20);
        let blocks = 4u32;
        let n = blocks as usize * 64;
        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let xp = gpu.alloc_upload_f32(&x);
        let op = gpu.alloc(blocks as u64 * 4);
        let params = ParamBuilder::new().push_ptr(xp).push_ptr(op).build();
        gpu.launch(&reduce_module(), LaunchDims::linear(blocks, 64), &params)
            .unwrap();
        let out = gpu.mem.download_f32(op, blocks as usize).unwrap();
        for b in 0..blocks as usize {
            let want: f32 = x[b * 64..(b + 1) * 64].iter().sum();
            assert_eq!(out[b], want, "block {b}");
        }
    }

    #[test]
    fn parallel_launch_matches_sequential() {
        let mut gpu1 = Gpu::new(DeviceSpec::v100(), 1 << 22);
        let mut gpu2 = Gpu::new(DeviceSpec::v100(), 1 << 22);
        let blocks = 64u32;
        let n = blocks as usize * 64;
        let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        for (gpu, par) in [(&mut gpu1, false), (&mut gpu2, true)] {
            let xp = gpu.alloc_upload_f32(&x);
            let op = gpu.alloc(blocks as u64 * 4);
            let params = ParamBuilder::new().push_ptr(xp).push_ptr(op).build();
            let m = reduce_module();
            let dims = LaunchDims::linear(blocks, 64);
            if par {
                gpu.launch_parallel(&m, dims, &params).unwrap();
            } else {
                gpu.launch(&m, dims, &params).unwrap();
            }
        }
        // Same allocation order → same addresses.
        let a = gpu1
            .mem
            .download_f32(
                0x1000_0000 + ((n * 4).div_ceil(256) * 256) as u64,
                blocks as usize,
            )
            .unwrap();
        let b = gpu2
            .mem
            .download_f32(
                0x1000_0000 + ((n * 4).div_ceil(256) * 256) as u64,
                blocks as usize,
            )
            .unwrap();
        assert_eq!(a, b);
    }

    /// Every block stores its `ctaid.x` to one word: a racy kernel. The
    /// parallel walk runs it without error and leaves one stored value.
    #[test]
    fn racy_blocks_leave_one_stored_value() {
        let m = assemble(
            r#"
.kernel racy
.params 8
    --:-:-:Y:1  S2R R0, SR_CTAID.X;
    --:-:-:Y:6  MOV R2, c[0x0][0x160];
    --:-:-:Y:6  MOV R3, c[0x0][0x164];
    --:-:-:Y:2  STG.E [R2], R0;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        let blocks = 256;
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
        let out = gpu.alloc(4);
        let params = ParamBuilder::new().push_ptr(out).build();
        let dims = LaunchDims::linear(blocks, 64);
        for workers in [0, 2, 4] {
            gpu.mem.write_u32(out, u32::MAX).unwrap();
            match workers {
                0 => gpu.launch_parallel(&m, dims, &params),
                n => gpu.walk(&m, dims, &params, n),
            }
            .unwrap();
            let v = gpu.mem.read_u32(out).unwrap();
            assert!(v < blocks, "{workers} workers left {v:#x}");
        }
    }

    #[test]
    fn launch_rejects_register_hogs() {
        let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 16);
        let m = assemble("MOV R254, 0x1;\nEXIT;").unwrap();
        let err = gpu.launch(&m, LaunchDims::linear(1, 32), &[]).unwrap_err();
        assert!(
            matches!(err, LaunchError::TooManyRegisters { used: 255, .. }),
            "{err}"
        );
    }

    #[test]
    fn launch_rejects_oversized_smem() {
        let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 16);
        let m = assemble(".smem 0x18000\nEXIT;").unwrap(); // 96 KiB > Turing 64 KiB
        assert!(matches!(
            gpu.launch(&m, LaunchDims::linear(1, 32), &[]),
            Err(LaunchError::TooMuchSharedMem { .. })
        ));
        // But fine on V100.
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
        gpu.launch(&m, LaunchDims::linear(1, 32), &[]).unwrap();
    }

    #[test]
    fn exited_warps_do_not_gate_barriers() {
        // Warp 0 exits before the barrier; warp 1 must still pass it
        // (on Volta+, exited threads do not participate in BAR.SYNC).
        let m = assemble(
            r#"
.kernel early_exit
.params 8
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;
    --:-:-:Y:5  @P0 EXIT;
    --:-:-:Y:1  BAR.SYNC 0x0;
    --:-:-:Y:6  MOV R2, c[0x0][0x160];
    --:-:-:Y:6  MOV R3, c[0x0][0x164];
    --:-:-:Y:6  MOV R4, 0x2a;
    --:-:-:Y:2  STG.E [R2], R4;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
        let out = gpu.alloc(4);
        let params = ParamBuilder::new().push_ptr(out).build();
        gpu.launch(&m, LaunchDims::linear(1, 64), &params).unwrap();
        assert_eq!(gpu.mem.read_u32(out).unwrap(), 0x2a);
    }
}
