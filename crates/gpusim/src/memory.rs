//! Global-memory arena, constant bank and kernel-parameter layout.
//!
//! The arena is one array of `AtomicU32` words. Kernels share it as a
//! `&GlobalMemory` and move words with relaxed atomic loads and stores
//! (plain moves on x86-64), so blocks on different host threads share it
//! soundly: disjoint writes see what a sequential walk sees, and a racy
//! kernel leaves one of the racing values, never a data race. `Relaxed`
//! suffices because the host reads results only after the walk joins its
//! threads, which orders every store before the read. The host's uploads
//! and downloads take `&mut self` and copy plain words. An access of `w`
//! bytes must sit at a multiple of `w`, as on the hardware, or it faults
//! with [`MemError::Misaligned`] before any bounds check.

use std::sync::atomic::{AtomicU32, Ordering};

/// A device pointer: a byte address into the global-memory arena.
pub type DevPtr = u64;

/// Flat global-memory arena of 32-bit words with a bump allocator.
///
/// Addresses start at a nonzero base so that a null pointer dereference in a
/// kernel faults instead of silently reading buffer 0.
#[derive(Debug)]
pub struct GlobalMemory {
    base: u64,
    words: Box<[AtomicU32]>,
    next: u64,
}

/// Alignment of all allocations (matches cudaMalloc's 256-byte contract).
const ALLOC_ALIGN: u64 = 256;
const BASE_ADDR: u64 = 0x1000_0000;

impl GlobalMemory {
    /// Arena with the given capacity in bytes, rounded up to whole words.
    /// The words come zeroed from the allocator, so capacity that no kernel
    /// or upload touches never becomes resident memory.
    pub fn new(capacity: usize) -> Self {
        let words = Box::<[AtomicU32]>::new_zeroed_slice(capacity.div_ceil(4));
        // SAFETY: `AtomicU32` has the in-memory representation of `u32`,
        // and all-zero bytes are a valid `u32`.
        #[allow(unsafe_code)]
        let words = unsafe { words.assume_init() };
        GlobalMemory {
            base: BASE_ADDR,
            words,
            next: BASE_ADDR,
        }
    }

    /// Capacity in bytes.
    fn capacity(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Allocate `bytes`, zero-initialized, 256-byte aligned.
    pub fn alloc(&mut self, bytes: u64) -> DevPtr {
        let ptr = self.next;
        let end = ptr + bytes;
        assert!(
            end - self.base <= self.capacity(),
            "device OOM: arena {} bytes, requested up to {}",
            self.capacity(),
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

    /// The word index of `len` bytes at `addr`, an address that must be a
    /// multiple of `align` (a power of two, at least 4): the alignment
    /// fault comes first, then the bounds check.
    fn index(&self, addr: u64, len: usize, align: u64) -> Result<usize, MemError> {
        if !addr.is_multiple_of(align) {
            return Err(MemError::Misaligned { addr, len });
        }
        match addr.checked_sub(self.base) {
            Some(off) if off.saturating_add(len as u64) <= self.capacity() => Ok(off as usize / 4),
            _ => Err(MemError::OutOfBounds { addr, len }),
        }
    }

    /// The fault, if any, of one lane's `width`-byte access at `addr`.
    pub(crate) fn check(&self, addr: u64, width: usize) -> Result<(), MemError> {
        self.index(addr, width, width as u64).map(drop)
    }

    /// The words of `[lo, end)` as one window, if the arena holds them all
    /// (`lo` and `end` multiples of 4): a warp access checks its span once,
    /// then moves each lane's words within the window.
    pub(crate) fn window(&self, lo: u64, end: u64) -> Option<&[AtomicU32]> {
        let start = lo.checked_sub(self.base)? / 4;
        let end = end.checked_sub(self.base)? / 4;
        self.words.get(start as usize..end as usize)
    }

    /// Read one 32-bit word.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        Ok(self.words[self.index(addr, 4, 4)?].load(Ordering::Relaxed))
    }

    /// Write one 32-bit word.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        let i = self.index(addr, 4, 4)?;
        *self.words[i].get_mut() = v;
        Ok(())
    }

    /// Upload an `f32` slice to `addr`.
    pub fn upload_f32(&mut self, addr: u64, data: &[f32]) -> Result<(), MemError> {
        let i = self.index(addr, data.len() * 4, 4)?;
        for (word, v) in self.words[i..i + data.len()].iter_mut().zip(data) {
            *word.get_mut() = v.to_bits();
        }
        Ok(())
    }

    /// Download `len` `f32`s from `addr`.
    pub fn download_f32(&mut self, addr: u64, len: usize) -> Result<Vec<f32>, MemError> {
        let i = self.index(addr, len * 4, 4)?;
        Ok(self.words[i..i + len]
            .iter_mut()
            .map(|word| f32::from_bits(*word.get_mut()))
            .collect())
    }
}

/// Memory access errors, reported with the faulting address: bytes outside
/// the arena, or an address that is not a multiple of the access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    OutOfBounds { addr: u64, len: usize },
    Misaligned { addr: u64, len: usize },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(f, "out-of-bounds access: {len} bytes at {addr:#x}")
            }
            MemError::Misaligned { addr, len } => {
                write!(f, "misaligned address: {len} bytes at {addr:#x}")
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
        assert_eq!(m.next - m.base, (b - a) + 256);
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
    fn misaligned_access_faults_before_bounds() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(16);
        let err = m.read_u32(p + 2).unwrap_err();
        assert_eq!(
            err,
            MemError::Misaligned {
                addr: p + 2,
                len: 4
            }
        );
        assert!(err.to_string().starts_with("misaligned address"), "{err}");
        assert!(matches!(
            m.write_u32(1, 0),
            Err(MemError::Misaligned { .. })
        ));
        assert!(m.check(p + 8, 8).is_ok());
        assert!(
            m.check(p + 8, 16).is_err(),
            "16 B accesses need 16 B alignment"
        );
        assert!(matches!(
            m.check(BASE_ADDR + 4096, 16),
            Err(MemError::OutOfBounds { .. })
        ));
    }
}
