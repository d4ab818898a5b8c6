//! Integration of the assembler toolchain with the simulator: text source →
//! module → cubin bytes → reload → execute, plus the generated-kernel path
//! (emitter → disassembly → reassembly → identical execution), and the
//! `assembler_demo` example.

use winograd_gpu::gpusim::{DeviceSpec, Gpu, LaunchDims, ParamBuilder};
use winograd_gpu::kernels::{FusedConfig, FusedKernel};
use winograd_gpu::sass::{assemble, disassemble, Module};

#[path = "../examples/assembler_demo.rs"]
mod assembler_demo;

/// The `assembler_demo` example asserts its own cubin round trip and
/// functional launch, in milliseconds, so it runs here rather than only in
/// `ci.sh`'s examples stage.
#[test]
fn assembler_demo_example_runs() {
    assembler_demo::main();
}

#[test]
fn text_to_cubin_to_execution() {
    let src = r#"
.kernel scale
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R4, c[0x0][0x160];
    --:-:-:Y:6  MOV R5, c[0x0][0x164];
    --:-:-:Y:6  IMAD R0, R1, 0x40, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x4, R4;
    --:-:0:-:2  LDG.E R6, [R2];
    01:-:-:Y:4  FMUL R6, R6, 3.0;
    --:-:-:Y:2  STG.E [R2], R6;
    --:-:-:Y:5  EXIT;
"#;
    let module = assemble(src).unwrap();
    let bytes = module.to_cubin();
    let reloaded = Module::from_cubin(&bytes).unwrap();
    assert_eq!(reloaded, module);

    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 20);
    let data: Vec<f32> = (0..256).map(|i| i as f32).collect();
    let p = gpu.alloc_upload_f32(&data);
    let params = ParamBuilder::new().push_ptr(p).build();
    gpu.launch(&reloaded, LaunchDims::linear(4, 64), &params)
        .unwrap();
    let out = gpu.mem.download_f32(p, 256).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 3.0 * i as f32);
    }
}

/// The flagship kernel survives disassembly + reassembly bit-exactly and
/// still produces correct results — the full TuringAs-style workflow over
/// ~2000 generated instructions.
#[test]
fn fused_kernel_survives_text_round_trip() {
    let cfg = FusedConfig::ours(8, 6, 6, 32, 64);
    let kern = FusedKernel::emit(cfg);
    let text = disassemble(&kern.module.insts);
    let re = assemble(&text).unwrap_or_else(|e| panic!("reassembly failed: {e}"));
    assert_eq!(re.insts.len(), kern.module.insts.len());
    assert_eq!(re.insts, kern.module.insts);

    // Execute the reassembled module (metadata comes from the original).
    let module = Module {
        info: kern.module.info.clone(),
        insts: re.insts,
    };
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 26);
    let n_in = 8 * 6 * 6 * 32;
    let input: Vec<f32> = (0..n_in)
        .map(|i| ((i * 37) % 13) as f32 / 7.0 - 0.5)
        .collect();
    let d_in = gpu.alloc_upload_f32(&input);
    let tf: Vec<f32> = (0..8 * 16 * 64)
        .map(|i| ((i * 41) % 11) as f32 / 5.0 - 1.0)
        .collect();
    let d_tf = gpu.alloc_upload_f32(&tf);
    let d_out = gpu.alloc(64 * 6 * 6 * 32 * 4);
    let params = kern.params(d_in, d_tf, d_out);

    gpu.launch(&module, kern.launch_dims(), &params).unwrap();
    let a = gpu.mem.download_f32(d_out, 64 * 6 * 6 * 32).unwrap();

    // Same launch with the originally emitted module must agree bit-exactly.
    let mut gpu2 = Gpu::new(DeviceSpec::v100(), 1 << 26);
    let d_in2 = gpu2.alloc_upload_f32(&input);
    let d_tf2 = gpu2.alloc_upload_f32(&tf);
    let d_out2 = gpu2.alloc(64 * 6 * 6 * 32 * 4);
    let params2 = kern.params(d_in2, d_tf2, d_out2);
    gpu2.launch(&kern.module, kern.launch_dims(), &params2)
        .unwrap();
    let b = gpu2.mem.download_f32(d_out2, 64 * 6 * 6 * 32).unwrap();
    assert_eq!(a, b);
}

/// The cubin container rejects tampered bytes rather than misexecuting.
#[test]
fn cubin_is_validated_on_load() {
    let kern = FusedKernel::emit(FusedConfig::ours(8, 4, 4, 32, 64));
    let mut bytes = kern.module.to_cubin();
    bytes[0] ^= 0xff;
    assert!(Module::from_cubin(&bytes).is_err());
}
