//! Device-buffer layouts: the buffers a launch reads and writes, their sizes,
//! and the order they are allocated in. A fresh arena hands out addresses in
//! that order, so a layout fixes every pointer — and with it a launch's
//! parameter bytes — before anything is allocated. Each emitter states its
//! own layout next to its `params` builder.

use gpusim::{DevPtr, DeviceSpec, GlobalMemory, Gpu};

/// Buffer sizes in bytes, in allocation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Buffers(pub Vec<u64>);

impl Buffers {
    /// The address each buffer gets in a fresh arena.
    pub fn addrs(&self) -> Vec<DevPtr> {
        GlobalMemory::fresh_addrs(&self.0)
    }

    /// A GPU whose arena holds the layout (with headroom for alignment),
    /// with every buffer allocated; returns the buffers' addresses, which
    /// are [`Buffers::addrs`].
    pub fn alloc(&self, device: DeviceSpec) -> (Gpu, Vec<DevPtr>) {
        let bytes = self.0.iter().sum::<u64>() + (1 << 20);
        let capacity = (bytes + bytes / 2 + (1 << 24)).next_power_of_two();
        let mut gpu = Gpu::new(device, capacity as usize);
        let ptrs = self.0.iter().map(|&b| gpu.alloc(b)).collect();
        (gpu, ptrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_addresses_match_allocation() {
        let layout = Buffers(vec![100, 4096, 1, 300]);
        let (_, ptrs) = layout.alloc(DeviceSpec::v100());
        assert_eq!(ptrs, layout.addrs());
        assert!(ptrs.windows(2).all(|w| w[1] > w[0] && w[1] % 256 == 0));
    }
}
