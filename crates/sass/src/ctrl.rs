//! Per-instruction control codes.
//!
//! On Volta/Turing every 128-bit instruction embeds scheduling information
//! that the hardware obeys blindly — it is the compiler's (or assembler
//! programmer's) job to prevent data hazards (§5.1.4 of the paper):
//!
//! * **stall** — number of cycles to wait before the same warp may issue its
//!   next instruction (covers fixed-latency producers like `FFMA`);
//! * **yield flag** — when *set*, the warp scheduler prefers to keep issuing
//!   from the current warp; when *clear*, it prefers to switch to another
//!   warp, which costs one extra cycle and disables the register reuse cache.
//!   §6.1 shows tuning this bit alone is worth ~10% throughput;
//! * **write barrier** — scoreboard index (0–5) that a variable-latency
//!   instruction (e.g. `LDG`) signals when its *result* is ready;
//! * **read barrier** — scoreboard index signalled when the instruction's
//!   *source operands* have been consumed (protects against WAR on the
//!   registers a store reads);
//! * **wait mask** — 6-bit mask of scoreboards this instruction must wait on
//!   before issuing;
//! * **reuse flags** — 4 bits marking source operand slots whose register
//!   value is latched in the operand-reuse cache, avoiding a register-bank
//!   access (and bank conflict) if the next instruction reads the same
//!   register in the same slot.
//!
//! The text syntax mirrors maxas/TuringAs: `WW:R:W:Y:S` where `WW` is the
//! hex wait mask (`--` for none), `R`/`W` are read/write barrier indices
//! (`-` for none), `Y` or `-` for the yield flag, and `S` the stall count,
//! e.g. `01:-:2:Y:4`.

/// Scheduling control attached to every instruction. See module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ctrl {
    /// Cycles before the same warp may issue again (0–15).
    pub stall: u8,
    /// Yield flag: `true` = prefer to stay on this warp.
    pub yield_flag: bool,
    /// Scoreboard signalled when this instruction's result lands (0–5).
    pub write_bar: Option<u8>,
    /// Scoreboard signalled when this instruction's sources are read (0–5).
    pub read_bar: Option<u8>,
    /// Mask of scoreboards (bits 0–5) to wait on before issue.
    pub wait_mask: u8,
    /// Operand-slot reuse flags (bits 0–3).
    pub reuse: u8,
}

impl Ctrl {
    /// Default control: stall 1, yield set, no barriers.
    ///
    /// Yield defaults to *set* because §6.1 shows the "Natural" strategy
    /// (never clearing the bit) is the fastest; emitters opt in to clearing.
    pub fn new() -> Self {
        Ctrl {
            stall: 1,
            yield_flag: true,
            write_bar: None,
            read_bar: None,
            wait_mask: 0,
            reuse: 0,
        }
    }

    /// Control with just a stall count.
    pub fn stall(n: u8) -> Self {
        Ctrl {
            stall: n,
            ..Ctrl::new()
        }
    }

    /// Builder: set stall.
    pub fn with_stall(mut self, n: u8) -> Self {
        assert!(n < 16, "stall count must be 0-15");
        self.stall = n;
        self
    }

    /// Builder: set write scoreboard.
    pub fn with_write_bar(mut self, b: u8) -> Self {
        assert!(b < 6, "scoreboard index must be 0-5");
        self.write_bar = Some(b);
        self
    }

    /// Builder: set read scoreboard.
    pub fn with_read_bar(mut self, b: u8) -> Self {
        assert!(b < 6, "scoreboard index must be 0-5");
        self.read_bar = Some(b);
        self
    }

    /// Builder: wait on a raw mask.
    pub fn with_wait_mask(mut self, m: u8) -> Self {
        assert!(m < 64, "wait mask must fit in 6 bits");
        self.wait_mask = m;
        self
    }

    /// Builder: mark source slot `i` (0–3) for operand reuse.
    pub fn reuse_slot(mut self, i: u8) -> Self {
        assert!(i < 4, "reuse slot must be 0-3");
        self.reuse |= 1 << i;
        self
    }

    /// Render in the maxas-style `WW:R:W:Y:S` text form.
    pub fn to_text(&self) -> String {
        let wait = if self.wait_mask == 0 {
            "--".to_string()
        } else {
            format!("{:02x}", self.wait_mask)
        };
        let rb = self.read_bar.map_or("-".to_string(), |b| b.to_string());
        let wb = self.write_bar.map_or("-".to_string(), |b| b.to_string());
        let y = if self.yield_flag { "Y" } else { "-" };
        format!("{wait}:{rb}:{wb}:{y}:{}", self.stall)
    }

    /// Parse the maxas-style text form. Returns `None` on malformed input.
    pub fn from_text(s: &str) -> Option<Ctrl> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 5 {
            return None;
        }
        let wait_mask = if parts[0] == "--" {
            0
        } else {
            u8::from_str_radix(parts[0], 16).ok().filter(|&m| m < 64)?
        };
        let parse_bar = |p: &str| -> Option<Option<u8>> {
            if p == "-" {
                Some(None)
            } else {
                p.parse::<u8>().ok().filter(|&b| b < 6).map(Some)
            }
        };
        let read_bar = parse_bar(parts[1])?;
        let write_bar = parse_bar(parts[2])?;
        let yield_flag = match parts[3] {
            "Y" | "y" => true,
            "-" => false,
            _ => return None,
        };
        let stall = parts[4].parse::<u8>().ok().filter(|&s| s < 16)?;
        // Reuse flags are attached to operands in the text syntax (`.reuse`),
        // not to the control prefix, so they start at zero here.
        Some(Ctrl {
            stall,
            yield_flag,
            write_bar,
            read_bar,
            wait_mask,
            reuse: 0,
        })
    }
}

impl Default for Ctrl {
    fn default() -> Self {
        Ctrl::new()
    }
}

impl std::fmt::Display for Ctrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let c = Ctrl {
            yield_flag: false,
            ..Ctrl::new()
                .with_stall(4)
                .with_write_bar(2)
                .with_read_bar(0)
                .with_wait_mask(1 << 1 | 1 << 5)
        };
        let t = c.to_text();
        assert_eq!(t, "22:0:2:-:4");
        assert_eq!(Ctrl::from_text(&t).unwrap(), c);
    }

    #[test]
    fn default_text() {
        assert_eq!(Ctrl::new().to_text(), "--:-:-:Y:1");
        assert_eq!(Ctrl::from_text("--:-:-:Y:1").unwrap(), Ctrl::new());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Ctrl::from_text("--:-:-:Y").is_none());
        assert!(Ctrl::from_text("--:-:-:Z:1").is_none());
        assert!(Ctrl::from_text("--:9:-:Y:1").is_none());
        assert!(Ctrl::from_text("--:-:-:Y:16").is_none());
        assert!(Ctrl::from_text("7f:-:-:Y:1").is_none());
    }

    #[test]
    #[should_panic(expected = "stall count")]
    fn stall_bounds_checked() {
        let _ = Ctrl::new().with_stall(16);
    }

    #[test]
    fn wait_mask_accumulates() {
        // Each scoreboard waited on is one bit of the mask.
        let c = Ctrl::new().with_wait_mask(1 << 0 | 1 << 3);
        assert_eq!(c.to_text(), "09:-:-:Y:1");
        assert_eq!(Ctrl::from_text("09:-:-:Y:1").unwrap().wait_mask, 0b1001);
    }

    #[test]
    fn reuse_slots() {
        let c = Ctrl::new().reuse_slot(1).reuse_slot(2);
        assert_eq!(c.reuse, 0b0110);
    }
}
