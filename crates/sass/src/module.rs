//! Assembled kernel modules — our equivalent of the `.cubin` files TuringAs
//! produces, loadable by the `gpusim` runtime.

use crate::encode::{decode, encode, DecodeError};
use crate::isa::Instruction;

/// Metadata for one kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel entry name.
    pub name: String,
    /// Registers per thread the kernel requires (highest index used + 1).
    /// Must be ≤ 253 for a launch to be accepted (§5.2.1, footnote 7).
    pub num_regs: u16,
    /// Static shared memory per block, bytes.
    pub smem_bytes: u32,
    /// Kernel parameter area size, bytes (placed at `c[0x0][0x160]`).
    pub param_bytes: u32,
}

/// An assembled kernel: metadata plus its instruction stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    pub info: KernelInfo,
    pub insts: Vec<Instruction>,
}

/// Highest register index referenced (sources or destinations), ignoring RZ.
pub fn max_reg_used(insts: &[Instruction]) -> Option<u8> {
    let mut max: Option<u8> = None;
    let mut bump = |r: crate::reg::Reg| {
        if !r.is_rz() {
            max = Some(max.map_or(r.0, |m| m.max(r.0)));
        }
    };
    for inst in insts {
        if let Some((d, n)) = inst.op.dst_regs() {
            for i in 0..n {
                bump(d.offset(i));
            }
        }
        for (_, r) in inst.op.src_regs() {
            bump(r);
        }
    }
    max
}

impl Module {
    /// Build a module, deriving `num_regs` from the instruction stream.
    pub fn new(
        name: impl Into<String>,
        smem_bytes: u32,
        param_bytes: u32,
        insts: Vec<Instruction>,
    ) -> Self {
        let num_regs = max_reg_used(&insts).map_or(0, |m| m as u16 + 1);
        Module {
            info: KernelInfo {
                name: name.into(),
                num_regs,
                smem_bytes,
                param_bytes,
            },
            insts,
        }
    }

    /// This module's kernel (name, shared memory, parameter block) over
    /// another instruction stream, e.g. a schedule-tuner candidate;
    /// `num_regs` is derived afresh.
    pub fn with_insts(&self, insts: Vec<Instruction>) -> Module {
        let info = &self.info;
        Module::new(&info.name, info.smem_bytes, info.param_bytes, insts)
    }

    /// Serialize to our binary container format.
    ///
    /// Layout: magic `b"WCUB"`, u16 version, u16 name length, name bytes,
    /// u16 num_regs, u32 smem, u32 params, u32 inst count, then 16 bytes per
    /// instruction (little-endian u128).
    pub fn to_cubin(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32 + self.insts.len() * 16);
        v.extend_from_slice(b"WCUB");
        v.extend_from_slice(&1u16.to_le_bytes());
        let name = self.info.name.as_bytes();
        v.extend_from_slice(&(name.len() as u16).to_le_bytes());
        v.extend_from_slice(name);
        v.extend_from_slice(&self.info.num_regs.to_le_bytes());
        v.extend_from_slice(&self.info.smem_bytes.to_le_bytes());
        v.extend_from_slice(&self.info.param_bytes.to_le_bytes());
        v.extend_from_slice(&(self.insts.len() as u32).to_le_bytes());
        for inst in &self.insts {
            v.extend_from_slice(&encode(inst).to_le_bytes());
        }
        v
    }

    /// Deserialize from the binary container format. The header's
    /// `num_regs` must cover every register the code names (declaring more
    /// is legal: it only lowers occupancy).
    pub fn from_cubin(bytes: &[u8]) -> Result<Module, ModuleError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], ModuleError> {
            if *pos + n > bytes.len() {
                return Err(ModuleError::Truncated);
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != b"WCUB" {
            return Err(ModuleError::BadMagic);
        }
        let version = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
        if version != 1 {
            return Err(ModuleError::BadVersion(version));
        }
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| ModuleError::BadName)?;
        let num_regs = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
        let smem_bytes = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let param_bytes = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        // Check the code is there before sizing a vector by the header.
        let code = take(
            &mut pos,
            count.checked_mul(16).ok_or(ModuleError::Truncated)?,
        )?;
        let insts = code
            .chunks_exact(16)
            .map(|w| decode(u128::from_le_bytes(w.try_into().unwrap())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ModuleError::Decode)?;
        let needed = max_reg_used(&insts).map_or(0, |m| m as u16 + 1);
        if num_regs < needed {
            return Err(ModuleError::TooFewRegisters {
                declared: num_regs,
                needed,
            });
        }
        Ok(Module {
            info: KernelInfo {
                name,
                num_regs,
                smem_bytes,
                param_bytes,
            },
            insts,
        })
    }
}

/// Errors deserializing a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuleError {
    BadMagic,
    BadVersion(u16),
    BadName,
    Truncated,
    Decode(DecodeError),
    /// The header declares fewer registers than the code names.
    TooFewRegisters {
        declared: u16,
        needed: u16,
    },
}

impl std::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModuleError::BadMagic => write!(f, "bad magic"),
            ModuleError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ModuleError::BadName => write!(f, "kernel name is not UTF-8"),
            ModuleError::Truncated => write!(f, "truncated module"),
            ModuleError::Decode(e) => write!(f, "instruction decode: {e}"),
            ModuleError::TooFewRegisters { declared, needed } => write!(
                f,
                "header declares {declared} registers, code needs {needed}"
            ),
        }
    }
}

impl std::error::Error for ModuleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::build::*;
    use crate::isa::{MemWidth, Op};
    use crate::reg::Reg;

    fn sample() -> Module {
        Module::new(
            "axpy",
            1024,
            24,
            vec![
                Instruction::new(s2r(Reg(0), crate::isa::SpecialReg::TidX)),
                Instruction::new(ldg(MemWidth::B32, Reg(4), Reg(2), 0)),
                Instruction::new(ffma(Reg(6), Reg(4), Reg(5), Reg(6))),
                Instruction::new(Op::Exit),
            ],
        )
    }

    #[test]
    fn num_regs_derived() {
        let m = sample();
        assert_eq!(m.info.num_regs, 7);
    }

    #[test]
    fn cubin_round_trip() {
        let m = sample();
        let bytes = m.to_cubin();
        let back = Module::from_cubin(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Module::from_cubin(b"nope"), Err(ModuleError::BadMagic));
        let mut bytes = sample().to_cubin();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Module::from_cubin(&bytes), Err(ModuleError::Truncated));
    }

    /// Byte offset of `num_regs` in a cubin of `sample()` ("axpy").
    const NUM_REGS_AT: usize = 8 + 4;

    #[test]
    fn rejects_under_declared_registers() {
        let mut m = sample();
        m.insts.push(Instruction::new(mov(Reg(100), 1u32)));
        let mut bytes = m.to_cubin();
        bytes[NUM_REGS_AT..NUM_REGS_AT + 2].copy_from_slice(&4u16.to_le_bytes());
        assert_eq!(
            Module::from_cubin(&bytes),
            Err(ModuleError::TooFewRegisters {
                declared: 4,
                needed: 101
            })
        );
        // Declaring more than the code needs only lowers occupancy.
        bytes[NUM_REGS_AT..NUM_REGS_AT + 2].copy_from_slice(&200u16.to_le_bytes());
        assert_eq!(Module::from_cubin(&bytes).unwrap().info.num_regs, 200);
    }

    #[test]
    fn huge_instruction_count_is_truncated_not_allocated() {
        // A 30-byte cubin whose header claims 2^32 - 1 instructions.
        let mut bytes = Module::new("huge", 0, 0, vec![]).to_cubin();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(bytes.len(), 30);
        assert_eq!(Module::from_cubin(&bytes), Err(ModuleError::Truncated));
    }

    #[test]
    fn empty_module_round_trips() {
        let m = Module::new("empty", 0, 0, vec![]);
        assert_eq!(m.info.num_regs, 0);
        assert_eq!(Module::from_cubin(&m.to_cubin()).unwrap(), m);
    }
}
