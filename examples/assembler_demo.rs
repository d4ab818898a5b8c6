//! TuringAs-style assembler demo: write a kernel in SASS text, assemble it,
//! inspect the 128-bit encodings and the round-tripped disassembly, then
//! load and run the "cubin" on the simulator.
//!
//! ```sh
//! cargo run --release --example assembler_demo
//! ```

use winograd_gpu::gpusim::{DeviceSpec, Gpu, LaunchDims, ParamBuilder};
use winograd_gpu::sass::{assemble, disassemble, encode, Module};

/// y[i] = a·x[i] + y[i], one block, with the control-code machinery the
/// paper documents: wait barriers on the loads, stall counts on the FFMA,
/// and an operand-reuse flag.
const AXPY: &str = r#"
.kernel axpy
.params 24
.def idx   R0
.def xptr  R2
.def yptr  R4

    --:-:-:Y:1   S2R idx, SR_TID.X;
    --:-:-:Y:6   MOV R10, c[0x0][0x160];      // &x lo
    --:-:-:Y:6   MOV R11, c[0x0][0x164];      // &x hi
    --:-:-:Y:6   MOV R12, c[0x0][0x168];      // &y lo
    --:-:-:Y:6   MOV R13, c[0x0][0x16c];      // &y hi
    --:-:-:Y:6   MOV R14, c[0x0][0x170];      // a
    --:-:-:Y:6   IMAD.WIDE.U32 xptr, idx, 0x4, R10;
    --:-:-:Y:6   IMAD.WIDE.U32 yptr, idx, 0x4, R12;
    --:-:0:-:2   LDG.E R6, [xptr];            // sets wait barrier 0
    --:-:1:-:2   LDG.E R7, [yptr];            // sets wait barrier 1
    03:-:-:Y:4   FFMA R8, R6, R14.reuse, R7;  // waits on barriers 0|1
    --:-:-:Y:2   STG.E [yptr], R8;
    --:-:-:Y:5   EXIT;
"#;

pub fn main() {
    // Assemble.
    let module = assemble(AXPY).expect("assembly failed");
    println!(
        "assembled `{}`: {} instructions, {} registers/thread, {} B params\n",
        module.info.name,
        module.insts.len(),
        module.info.num_regs,
        module.info.param_bytes
    );

    // Show the 128-bit encodings (Figure 6 layout) next to the disassembly.
    println!("{:>32}  disassembly", "encoding (hex)");
    for inst in &module.insts {
        let word = encode(inst);
        println!(
            "{word:032x}  {}",
            winograd_gpu::sass::disasm::inst_text(inst)
        );
    }

    // Serialize to the cubin container and reload — the path a real
    // assembler user would take.
    let cubin = module.to_cubin();
    println!("\ncubin container: {} bytes", cubin.len());
    let reloaded = Module::from_cubin(&cubin).expect("cubin round-trip");
    assert_eq!(reloaded, module);

    // Round-trip through text as well.
    let text = disassemble(&module.insts);
    let reassembled = assemble(&text).expect("reassembly");
    assert_eq!(reassembled.insts, module.insts);
    println!("text round-trip: OK");

    // Run it.
    let n = 256u32;
    let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 20);
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| 1000.0 + i as f32).collect();
    let xp = gpu.alloc_upload_f32(&x);
    let yp = gpu.alloc_upload_f32(&y);
    let params = ParamBuilder::new()
        .push_ptr(xp)
        .push_ptr(yp)
        .push_f32(2.5)
        .build();
    gpu.launch(&reloaded, LaunchDims::linear(1, n), &params)
        .expect("launch");
    let out = gpu.mem.download_f32(yp, n as usize).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 2.5 * i as f32 + 1000.0 + i as f32);
    }
    println!("axpy on the simulator: OK (y[10] = {})", out[10]);
}
