//! The timing slice (`gpusim::slice`) changes no timing number.
//!
//! A default timing run executes only the instructions whose data can reach
//! a memory address, a guard or a branch; a strict-writeback run executes
//! every instruction. On every tracked kernel family, both devices and both
//! models, the two must agree on the whole `KernelTiming`, counters and
//! stall profile included (its `Debug` rendering round-trips every f64
//! bit). A pointer chase, whose addresses are its loaded data, must keep
//! its loads.

use gpusim::slice::timing_slice;
use gpusim::{DeviceSpec, Effects, Gpu, LaunchDims, Model, ParamBuilder, TimingOptions};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{Buffers, FusedConfig, FusedKernel};
use sass::isa::Op;
use tensor::XorShiftRng;

/// One launch: a module, its buffer layout and the parameters over it.
struct Case {
    name: &'static str,
    module: sass::Module,
    dims: LaunchDims,
    buffers: Buffers,
    params: Vec<u8>,
    region: Option<(u32, u32)>,
}

fn fused(name: &'static str, cfg: FusedConfig) -> Case {
    let kern = FusedKernel::emit(cfg);
    let buffers = kern.buffers();
    let a = buffers.addrs();
    Case {
        name,
        dims: kern.launch_dims(),
        params: kern.params(a[0], a[1], a[2]),
        region: Some(kern.region),
        module: kern.module,
        buffers,
    }
}

fn gemm(name: &'static str, cfg: GemmConfig) -> Case {
    let kern = GemmKernel::emit(cfg);
    let buffers = kern.buffers();
    let a = buffers.addrs();
    Case {
        name,
        dims: kern.launch_dims(),
        params: kern.params(a[0], a[1], a[2]),
        region: Some(kern.region),
        module: kern.module,
        buffers,
    }
}

/// Small instances of every kernel family a measurement runs.
fn cases() -> Vec<Case> {
    let (c, k) = (32, 64);
    let fx_buffers = filter_transform::buffers(c, k);
    let a = fx_buffers.addrs();
    vec![
        fused("ours", FusedConfig::ours(c, 4, 4, 32, k)),
        fused("cudnn_like", FusedConfig::cudnn_like(c, 4, 4, 32, k)),
        Case {
            name: "filter_transform",
            module: emit_filter_transform(c, k),
            dims: filter_transform::launch_dims(c, k),
            params: filter_transform::params(a[0], a[1]),
            buffers: fx_buffers,
            region: None,
        },
        gemm("gemm", GemmConfig::new(64, 256, 72)),
        gemm("batched_gemm", GemmConfig::new(64, 128, 32).batched(4)),
    ]
}

#[test]
fn default_run_times_like_strict_writeback() {
    for case in cases() {
        for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
            for model in [Model::Device, Model::OneWave] {
                let run = |strict_writeback| {
                    let (mut gpu, _) = case.buffers.alloc(dev.clone());
                    let opts = TimingOptions {
                        region: case.region,
                        strict_writeback,
                        profile: true,
                        counters: true,
                        ..Default::default()
                    };
                    let (t, _) = gpusim::simulate(
                        &mut gpu,
                        &case.module,
                        case.dims,
                        &case.params,
                        model,
                        opts,
                    )
                    .unwrap();
                    format!("{t:?}")
                };
                assert_eq!(
                    run(false),
                    run(true),
                    "{} on {} under {model:?}",
                    case.name,
                    dev.name
                );
            }
        }
    }
}

/// No tracked kernel needs the data of any load or store, and most of its
/// arithmetic only feeds them: the slice skips at least two thirds of it
/// (between 75% and 82% of each kernel's data instructions when this
/// test was written).
#[test]
fn tracked_kernels_need_no_memory_data() {
    for case in cases() {
        let slice = timing_slice(&case.module.insts);
        let (mut data, mut skipped) = (0, 0);
        for (inst, effects) in case.module.insts.iter().zip(slice) {
            match inst.op {
                Op::Ld { .. } | Op::St { .. } => {
                    assert_eq!(effects, Effects::NoData, "{}: {inst:?}", case.name)
                }
                Op::Bra { .. } | Op::Exit | Op::BarSync => {}
                _ => {
                    data += 1;
                    skipped += (effects == Effects::NoData) as usize;
                }
            }
        }
        assert!(
            3 * skipped > 2 * data,
            "{}: {skipped} of {data} data instructions skipped",
            case.name
        );
    }
}

/// One warp follows a chain of 32-bit byte addresses through a random
/// cyclic permutation, one element per 32 B sector: `LDG R4, [R4]` per hop,
/// so every hop's address is the previous hop's loaded data.
#[test]
fn pointer_chase_keeps_its_loads() {
    const ELEMS: u32 = 256;
    let chase = sass::assemble(
        r#"
.kernel chase
.params 16
    --:-:-:Y:6  MOV R4, c[0x0][0x160];
    --:-:-:Y:6  MOV R5, c[0x0][0x164];
    --:-:-:Y:6  MOV R20, c[0x0][0x168];
LOOP:
    01:-:0:-:2  LDG.E R4, [R4];
    --:-:-:Y:4  IADD3 R20, R20, -1, RZ;
    --:-:-:Y:4  ISETP.GT.AND P0, PT, R20, 0, PT;
    --:-:-:Y:5  @P0 BRA `(LOOP);
    01:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    // Sattolo's shuffle: one cycle through every element, so `ELEMS` hops
    // from any start visit each element, hence each sector, once.
    let mut rng = XorShiftRng::new(7);
    let mut next: Vec<u32> = (0..ELEMS).collect();
    for i in (1..ELEMS as usize).rev() {
        let j = rng.gen_index(i);
        next.swap(i, j);
    }
    let run = |strict_writeback| {
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 20);
        let base = gpu.alloc(ELEMS as u64 * 32);
        assert!(base + ELEMS as u64 * 32 <= u32::MAX as u64);
        for (i, &j) in next.iter().enumerate() {
            let at = base + i as u64 * 32;
            gpu.mem
                .write_u32(at, (base + j as u64 * 32) as u32)
                .unwrap();
        }
        let params = ParamBuilder::new().push_ptr(base).push_u32(ELEMS).build();
        let opts = TimingOptions {
            strict_writeback,
            counters: true,
            ..Default::default()
        };
        let dims = LaunchDims::linear(1, 32);
        gpusim::simulate(&mut gpu, &chase, dims, &params, Model::Device, opts)
            .unwrap()
            .0
    };
    let t = run(false);
    let c = t.counters.as_ref().unwrap();
    // Every hop reads a sector no earlier hop touched: it misses the L1 and
    // the cold L2 alike.
    assert_eq!(c.global_accesses, ELEMS as u64, "{c:?}");
    assert_eq!(c.global_sectors, ELEMS as u64, "{c:?}");
    assert_eq!(c.l1_sector_hits, 0, "{c:?}");
    assert_eq!(c.l2_sector_misses, ELEMS as u64, "{c:?}");
    assert_eq!(format!("{t:?}"), format!("{:?}", run(true)));
}
