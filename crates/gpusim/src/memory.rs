//! Global-memory arena, constant bank and kernel-parameter layout.

/// A device pointer: a byte address into the global-memory arena.
pub type DevPtr = u64;

/// Flat global-memory arena with a bump allocator.
///
/// Addresses start at a nonzero base so that a null pointer dereference in a
/// kernel faults instead of silently reading buffer 0.
#[derive(Debug)]
pub struct GlobalMemory {
    base: u64,
    data: Vec<u8>,
    next: u64,
}

/// Alignment of all allocations (matches cudaMalloc's 256-byte contract).
const ALLOC_ALIGN: u64 = 256;
const BASE_ADDR: u64 = 0x1000_0000;

impl GlobalMemory {
    /// Arena with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        GlobalMemory {
            base: BASE_ADDR,
            data: vec![0u8; capacity],
            next: BASE_ADDR,
        }
    }

    /// Allocate `bytes`, zero-initialized, 256-byte aligned.
    pub fn alloc(&mut self, bytes: u64) -> DevPtr {
        let ptr = self.next;
        let end = ptr + bytes;
        assert!(
            (end - self.base) as usize <= self.data.len(),
            "device OOM: arena {} bytes, requested up to {}",
            self.data.len(),
            end - self.base,
        );
        self.next = end.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        ptr
    }

    /// The addresses successive [`GlobalMemory::alloc`] calls of `sizes`
    /// return on a fresh arena. Pure: a caller can know a buffer layout's
    /// pointers (and so a launch's parameter bytes) without allocating it.
    pub fn fresh_addrs(sizes: &[u64]) -> Vec<DevPtr> {
        let mut next = BASE_ADDR;
        sizes
            .iter()
            .map(|&bytes| {
                let ptr = next;
                next = (ptr + bytes).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
                ptr
            })
            .collect()
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.next - self.base
    }

    fn index(&self, addr: u64, len: usize) -> Result<usize, MemError> {
        if addr < self.base {
            return Err(MemError::OutOfBounds { addr, len });
        }
        let off = (addr - self.base) as usize;
        if off + len > self.data.len() {
            return Err(MemError::OutOfBounds { addr, len });
        }
        Ok(off)
    }

    /// Read `len` bytes at `addr`.
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.index(addr, len)?;
        Ok(&self.data[off..off + len])
    }

    /// Write bytes at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let off = self.index(addr, bytes.len())?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// The bytes `[lo, end)` as one mutable window, if the arena holds
    /// them all: a warp access checks its span once, then moves each lane's
    /// chunk within the window.
    pub fn window_mut(&mut self, lo: u64, end: u64) -> Option<&mut [u8]> {
        let start = lo.checked_sub(self.base)? as usize;
        let end = end.checked_sub(self.base)? as usize;
        self.data.get_mut(start..end)
    }

    /// Read one 32-bit word.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        Ok(u32::from_le_bytes(self.read(addr, 4)?.try_into().unwrap()))
    }

    /// Write one 32-bit word.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Upload an `f32` slice to `addr`.
    pub fn upload_f32(&mut self, addr: u64, data: &[f32]) -> Result<(), MemError> {
        let off = self.index(addr, data.len() * 4)?;
        for (i, &v) in data.iter().enumerate() {
            self.data[off + i * 4..off + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Download `len` `f32`s from `addr`.
    pub fn download_f32(&self, addr: u64, len: usize) -> Result<Vec<f32>, MemError> {
        let off = self.index(addr, len * 4)?;
        Ok((0..len)
            .map(|i| {
                f32::from_le_bytes(self.data[off + i * 4..off + i * 4 + 4].try_into().unwrap())
            })
            .collect())
    }

    /// Zero a byte range.
    pub fn memset_zero(&mut self, addr: u64, len: usize) -> Result<(), MemError> {
        let off = self.index(addr, len)?;
        self.data[off..off + len].fill(0);
        Ok(())
    }
}

/// Memory access errors, reported with the faulting address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    OutOfBounds { addr: u64, len: usize },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(f, "out-of-bounds access: {len} bytes at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Kernel parameter area and launch dimensions, mapped into constant bank 0
/// with the real CUDA ABI layout: launch dims in the low words, parameters
/// from byte `0x160` (§5.1.2: "Parameters passed to CUDA kernels are stored
/// in constant memory").
#[derive(Clone, Debug, Default)]
pub struct ConstBank {
    bytes: Vec<u8>,
}

/// Byte offset of the first kernel parameter in constant bank 0.
pub const PARAM_BASE: u16 = 0x160;

impl ConstBank {
    /// Build the bank from launch dims and the raw parameter bytes.
    pub fn new(block_dim: [u32; 3], grid_dim: [u32; 3], params: &[u8]) -> Self {
        let mut bytes = vec![0u8; PARAM_BASE as usize + params.len()];
        for (i, v) in block_dim.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        for (i, v) in grid_dim.iter().enumerate() {
            bytes[12 + i * 4..16 + i * 4].copy_from_slice(&v.to_le_bytes());
        }
        bytes[PARAM_BASE as usize..].copy_from_slice(params);
        ConstBank { bytes }
    }

    /// Read a 32-bit word at byte offset `off` (out-of-range reads are 0,
    /// like real constant memory's zero-fill behaviour for unwritten slots).
    pub fn read_u32(&self, off: u16) -> u32 {
        let off = off as usize;
        if off + 4 <= self.bytes.len() {
            u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
        } else {
            0
        }
    }
}

/// Helper to build a kernel parameter blob (u32s and 64-bit pointers with
/// natural alignment, like the CUDA driver packs them).
#[derive(Clone, Debug, Default)]
pub struct ParamBuilder {
    bytes: Vec<u8>,
}

impl ParamBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a 4-byte value.
    pub fn push_u32(mut self, v: u32) -> Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a 4-byte float.
    pub fn push_f32(self, v: f32) -> Self {
        self.push_u32(v.to_bits())
    }

    /// Append an 8-byte pointer, aligning to 8 first.
    pub fn push_ptr(mut self, p: DevPtr) -> Self {
        while !self.bytes.len().is_multiple_of(8) {
            self.bytes.push(0);
        }
        self.bytes.extend_from_slice(&p.to_le_bytes());
        self
    }

    pub fn build(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + 100);
        assert_eq!(m.used(), (b - a) + 256);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn alloc_oom_panics() {
        let mut m = GlobalMemory::new(1024);
        let _ = m.alloc(2048);
    }

    #[test]
    fn f32_round_trip() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64);
        let data = vec![1.0, -2.5, 3.25, f32::MIN_POSITIVE];
        m.upload_f32(p, &data).unwrap();
        assert_eq!(m.download_f32(p, 4).unwrap(), data);
    }

    #[test]
    fn oob_reads_fault() {
        let m = GlobalMemory::new(4096);
        assert!(m.read_u32(0).is_err(), "null deref must fault");
        assert!(m.read_u32(BASE_ADDR + 4096).is_err());
        let mut m = GlobalMemory::new(4096);
        assert!(m.write_u32(0x10, 1).is_err());
    }

    #[test]
    fn const_bank_layout() {
        let params = ParamBuilder::new()
            .push_u32(7)
            .push_ptr(0xdead_beef_0000)
            .push_f32(1.5)
            .build();
        // u32 at 0, pad to 8, ptr at 8..16, f32 at 16.
        assert_eq!(params.len(), 20);
        let cb = ConstBank::new([256, 1, 1], [10, 20, 30], &params);
        assert_eq!(cb.read_u32(0x0), 256);
        assert_eq!(cb.read_u32(0xc), 10);
        assert_eq!(cb.read_u32(0x14), 30);
        assert_eq!(cb.read_u32(PARAM_BASE), 7);
        assert_eq!(cb.read_u32(PARAM_BASE + 8), 0xbeef_0000);
        assert_eq!(cb.read_u32(PARAM_BASE + 12), 0xdead);
        assert_eq!(f32::from_bits(cb.read_u32(PARAM_BASE + 16)), 1.5);
        // Past the end reads zero.
        assert_eq!(cb.read_u32(0x400), 0);
    }

    #[test]
    fn memset_zero_works() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(16);
        m.upload_f32(p, &[1.0; 4]).unwrap();
        m.memset_zero(p, 16).unwrap();
        assert_eq!(m.download_f32(p, 4).unwrap(), vec![0.0; 4]);
    }
}
