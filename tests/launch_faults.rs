//! A faulting grid reports the same fault under every functional launcher.
//!
//! `Gpu::launch_parallel` runs blocks on several host threads, so later
//! blocks may fault before earlier ones finish. It must still report the
//! block that `Gpu::launch` stops at: the lowest-indexed failing block.

use winograd_gpu::gpusim::{DeviceSpec, ExecError, Gpu, LaunchDims, LaunchError};
use winograd_gpu::sass::assemble;

/// Block `b` spins `b · 1024` iterations, then every block from 3 on loads
/// from address 0, which no allocation covers. The spin makes block 3 the
/// first to fault by index but not by host time: a later block can reach
/// its load while block 3 still spins.
const SPIN_THEN_FAULT: &str = r#"
.kernel spin_then_fault
    --:-:-:Y:1  S2R R0, SR_CTAID.X;
    --:-:-:Y:6  SHF.L.U32 R1, R0, 0xa, RZ;
SPIN:
    --:-:-:Y:6  ISETP.EQ.AND P0, PT, R1, 0, PT;
    --:-:-:Y:5  @P0 BRA `(FAULT);
    --:-:-:Y:6  IADD3 R1, R1, -1, RZ;
    --:-:-:Y:5  BRA `(SPIN);
FAULT:
    --:-:-:Y:6  ISETP.LT.U32.AND P1, PT, R0, 0x3, PT;
    --:-:-:Y:5  @P1 EXIT;
    --:-:-:Y:6  MOV R2, 0x0;
    --:-:-:Y:6  MOV R3, 0x0;
    --:-:0:-:2  LDG.E R4, [R2];
    --:-:-:Y:5  EXIT;
"#;

fn fault(parallel: bool) -> ExecError {
    let module = assemble(SPIN_THEN_FAULT).unwrap();
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
    let dims = LaunchDims::linear(64, 32);
    let result = if parallel {
        gpu.launch_parallel(&module, dims, &[])
    } else {
        gpu.launch(&module, dims, &[])
    };
    match result {
        Err(LaunchError::Exec(e)) => e,
        other => panic!("expected an execution fault, got {other:?}"),
    }
}

#[test]
fn launch_parallel_reports_the_sequential_fault() {
    let want = fault(false);
    assert_eq!(want.ctaid, [3, 0, 0], "the first faulting block");
    for run in 0..20 {
        let got = fault(true);
        assert_eq!(
            (got.ctaid, got.pc),
            (want.ctaid, want.pc),
            "run {run}: launch_parallel reported {got}, launch {want}"
        );
    }
}
