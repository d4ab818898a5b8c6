//! Register and predicate-register names.

/// A regular 32-bit register `R0`–`R254`, or the zero register `RZ` (255).
///
/// Volta/Turing expose 255 architectural registers per thread; `RZ` reads as
/// zero and discards writes (§5.1.2 of the paper). The paper notes that in
/// practice kernels must stay below 253 registers for the hardware to accept
/// the encoding — the simulator's occupancy calculator enforces the same
/// limit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The zero register.
pub const RZ: Reg = Reg(255);

impl Reg {
    /// True for the zero register.
    #[inline]
    pub fn is_rz(self) -> bool {
        self.0 == 255
    }

    /// The `i`-th register of a vector operand starting at `self`
    /// (e.g. `LDG.128 R4` writes `R4..R7`). Saturates at `R254`; a vector
    /// operand that would run past the register file is invalid and is
    /// rejected by the launch-time checks in `gpusim`.
    #[inline]
    pub fn offset(self, i: u8) -> Reg {
        if self.is_rz() {
            RZ
        } else {
            Reg((self.0 as u16 + i as u16).min(254) as u8)
        }
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_rz() {
            write!(f, "RZ")
        } else {
            write!(f, "R{}", self.0)
        }
    }
}

impl std::fmt::Debug for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

/// A predicate register `P0`–`P6`, or the true predicate `PT` (7).
///
/// Each thread has 7 one-bit predicate registers (§5.2.1); `PT` always reads
/// true and discards writes. The scarcity of predicate registers is exactly
/// why the paper needs `P2R`/`R2P` packing for the 16 zero-padding masks
/// (§3.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

/// The always-true predicate.
pub const PT: Pred = Pred(7);

impl Pred {
    /// True for the constant-true predicate.
    #[inline]
    pub fn is_pt(self) -> bool {
        self.0 == 7
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_pt() {
            write!(f, "PT")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl std::fmt::Debug for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rz_formats_and_banks() {
        assert_eq!(RZ.to_string(), "RZ");
        assert_eq!(Reg(0).to_string(), "R0");
        assert_eq!(Reg(254).to_string(), "R254");
    }

    #[test]
    fn vector_offsets() {
        assert_eq!(Reg(4).offset(3), Reg(7));
        assert_eq!(RZ.offset(3), RZ);
    }

    #[test]
    fn pt_formats() {
        assert_eq!(PT.to_string(), "PT");
        assert_eq!(Pred(0).to_string(), "P0");
        assert!(PT.is_pt());
        assert!(!Pred(6).is_pt());
    }
}
