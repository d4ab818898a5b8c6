//! Table 7: kernel parameters and the occupancy consequences (§7.1).

use gpusim::DeviceSpec;

/// The Table 7 parameter set of one fused Winograd kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    pub name: &'static str,
    pub bk: u32,
    pub bn: u32,
    pub bc: u32,
    pub threads_per_block: u32,
    pub smem_per_block: u32,
    pub regs_per_thread: u32,
}

impl KernelParams {
    pub fn regs_per_block(&self) -> u32 {
        self.regs_per_thread * self.threads_per_block
    }

    /// Resident blocks per SM on `dev`.
    pub fn blocks_per_sm(&self, dev: &DeviceSpec) -> u32 {
        dev.blocks_per_sm(
            self.threads_per_block,
            self.regs_per_thread,
            self.smem_per_block,
        )
    }
}

/// Our kernel's parameters (Table 7, left column).
pub const OURS: KernelParams = KernelParams {
    name: "Ours",
    bk: 64,
    bn: 32,
    bc: 8,
    threads_per_block: 256,
    smem_per_block: 48 * 1024,
    regs_per_thread: 253,
};

/// cuDNN 7.6.1's fused Winograd parameters (Table 7, right column).
pub const CUDNN: KernelParams = KernelParams {
    name: "cuDNN",
    bk: 32,
    bn: 32,
    bc: 8,
    threads_per_block: 256,
    smem_per_block: 48 * 1024,
    regs_per_thread: 126,
};

/// Both kernels of Table 7.
pub fn kernel_table() -> [KernelParams; 2] {
    [OURS, CUDNN]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_register_totals() {
        assert_eq!(OURS.regs_per_block(), 64768);
        assert_eq!(CUDNN.regs_per_block(), 32256);
    }

    #[test]
    fn section71_occupancy_asymmetry() {
        // §7.1: "Each SM can hold 2 thread blocks [of cuDNN's kernel] on
        // V100 but only 1 on RTX2070" — ours is register-bound to 1
        // everywhere.
        let v100 = DeviceSpec::v100();
        let t2070 = DeviceSpec::rtx2070();
        assert_eq!(CUDNN.blocks_per_sm(&v100), 2);
        assert_eq!(CUDNN.blocks_per_sm(&t2070), 1);
        assert_eq!(OURS.blocks_per_sm(&v100), 1);
        assert_eq!(OURS.blocks_per_sm(&t2070), 1);
    }
}
