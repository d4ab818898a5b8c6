//! The standalone filter-transform (FX) kernel (§4.1).
//!
//! Computes `F̂ = G F Gᵀ` for every `(c, k)` filter tile, reading the
//! `(C, 3, 3, K)` filter array and writing the `(C, 4, 4, K)` transformed
//! array. With `k` innermost in both layouts, a warp processes 32
//! consecutive `k` and every global access is fully coalesced.
//!
//! Each 1-D stage uses 4 float instructions per column/row by factoring the
//! `1/2` rows of `G` through FFMA — 12 + 16 = 28 float instructions per
//! tile, matching the paper's count for the FTF step (§2.1).

use gpusim::{DevPtr, LaunchDims, ParamBuilder};
use sass::ctrl::Ctrl;
use sass::isa::{build, MemWidth, Op, SrcB};
use sass::reg::{Reg, RZ};
use sass::Module;

use crate::buffers::Buffers;
use crate::emit::Emitter;

/// Emit the filter-transform kernel for fixed `(C, K)`.
///
/// Launch with [`launch_dims`] (the emitter requires `C·K` to be a multiple
/// of 256, which holds for every layer in Table 1) and [`params`].
pub fn emit_filter_transform(c_dim: u32, k_dim: u32) -> Module {
    assert_eq!(
        (c_dim * k_dim) % 256,
        0,
        "filter transform requires C*K to be a multiple of 256"
    );
    let mut e = Emitter::new();

    // Registers:
    //   R0  tid, R1 ctaid, R2:R3 input ptr, R4:R5 output ptr
    //   R6  global (c,k) linear index, R7 scratch
    //   R8..R16   f (3×3 input tile)
    //   R20..R31  G·f (4×3)
    //   R32..R47  (G·f)·Gᵀ (4×4 output tile)
    let f = |r: usize, s: usize| Reg(8 + (r * 3 + s) as u8);
    let gf = |r: usize, s: usize| Reg(20 + (r * 3 + s) as u8);
    let out = |r: usize, s: usize| Reg(32 + (r * 4 + s) as u8);

    e.op(build::s2r(Reg(0), sass::isa::SpecialReg::TidX));
    e.op(build::s2r(Reg(1), sass::isa::SpecialReg::CtaidX));
    e.load_param_ptr(Reg(2), 0);
    e.load_param_ptr(Reg(4), 8);
    // linear = ctaid*256 + tid; c = linear / K, k = linear % K.
    e.op(build::imad(Reg(6), Reg(1), 256u32, Reg(0)));
    e.div_rem_const(Reg(48), Reg(49), Reg(6), k_dim, Reg(7));
    // in  += (c*9*K + k)*4 ; out += (c*16*K + k)*4
    e.op(build::imad(Reg(50), Reg(48), 9 * k_dim, Reg(49)));
    e.op(build::imad_wide(Reg(2), Reg(50), 4u32, Reg(2)));
    e.op(build::imad(Reg(51), Reg(48), 16 * k_dim, Reg(49)));
    e.op(build::imad_wide(Reg(4), Reg(51), 4u32, Reg(4)));

    // Load the 9 filter elements; offsets are (r*3+s)*K*4.
    for r in 0..3 {
        for s in 0..3 {
            let off = ((r * 3 + s) as u32 * k_dim * 4) as i32;
            e.opc(
                build::ldg(MemWidth::B32, f(r, s), Reg(2), off),
                Ctrl::new().with_write_bar(0).with_stall(1),
            );
        }
    }

    // Columns: Gf[.][s] from f[.][s] — 4 float ops per column.
    // gf0 = f0; gf1 = 0.5(f0+f1+f2); gf2 = 0.5(f0-f1+f2); gf3 = f2.
    let half = SrcB::imm_f32(0.5);
    let neg_half = SrcB::imm_f32(-0.5);
    for s in 0..3 {
        let ctrl = if s == 0 {
            Ctrl::new().with_wait_mask(0b1).with_stall(4)
        } else {
            Ctrl::new().with_stall(4)
        };
        // t = f0 + f2 (into gf0 temporarily is wrong — gf0 = f0; use R7).
        e.opc(build::fadd(Reg(7), f(0, s), f(2, s)), ctrl);
        e.op(build::fmul(Reg(7), Reg(7), half)); // t = 0.5(f0+f2)
        e.op(Op::Ffma {
            d: gf(1, s),
            a: f(1, s),
            b: half,
            c: Reg(7),
            neg_b: false,
            neg_c: false,
        });
        e.op(Op::Ffma {
            d: gf(2, s),
            a: f(1, s),
            b: neg_half,
            c: Reg(7),
            neg_b: false,
            neg_c: false,
        });
        e.op(build::mov(gf(0, s), f(0, s)));
        e.op(build::mov(gf(3, s), f(2, s)));
    }

    // Rows: out[r][.] from gf[r][.] — 4 float ops per row.
    for r in 0..4 {
        e.opc(
            build::fadd(Reg(7), gf(r, 0), gf(r, 2)),
            Ctrl::new().with_stall(4),
        );
        e.op(build::fmul(Reg(7), Reg(7), half));
        e.op(Op::Ffma {
            d: out(r, 1),
            a: gf(r, 1),
            b: half,
            c: Reg(7),
            neg_b: false,
            neg_c: false,
        });
        e.op(Op::Ffma {
            d: out(r, 2),
            a: gf(r, 1),
            b: neg_half,
            c: Reg(7),
            neg_b: false,
            neg_c: false,
        });
        e.op(build::mov(out(r, 0), gf(r, 0)));
        e.op(build::mov(out(r, 3), gf(r, 2)));
    }

    // Store the 16 transformed elements at offsets e*K*4.
    for el in 0..16 {
        let (r, s) = (el / 4, el % 4);
        let off = (el as u32 * k_dim * 4) as i32;
        let ctrl = if el == 0 {
            Ctrl::new().with_stall(4)
        } else {
            Ctrl::new().with_stall(1)
        };
        e.opc(build::stg(MemWidth::B32, Reg(4), off, out(r, s)), ctrl);
    }
    e.opc(Op::Exit, Ctrl::new().with_stall(5));

    let _ = RZ;
    e.build("winograd_filter_transform", 0, 16)
}

/// Launch geometry: one thread per `(c, k)` pair, `C·K / 256` blocks of 256.
pub fn launch_dims(c_dim: u32, k_dim: u32) -> LaunchDims {
    LaunchDims::linear(c_dim * k_dim / 256, 256)
}

/// Parameter blob: the CRSK filter pointer, then the transformed-filter
/// (`C×4×4×K`) output pointer.
pub fn params(filter_in: DevPtr, filter_out: DevPtr) -> Vec<u8> {
    ParamBuilder::new()
        .push_ptr(filter_in)
        .push_ptr(filter_out)
        .build()
}

/// Device buffers `[CRSK filter, transformed filter]`, f32.
pub fn buffers(c_dim: u32, k_dim: u32) -> Buffers {
    let (c, k) = (u64::from(c_dim), u64::from(k_dim));
    Buffers(vec![c * 9 * k * 4, c * 16 * k * 4])
}

/// Host-side helper: transformed-filter element count for `(C, K)`.
pub fn transformed_filter_len(c_dim: u32, k_dim: u32) -> usize {
    (c_dim * 16 * k_dim) as usize
}

/// Output-tile extent of the transform this kernel computes: `F(2×2,3×3)`
/// maps each 3×3 filter tile to a 4×4 transformed tile.
pub const TRANSFORM_TILE: u32 = 4;

/// Content address of a hoisted transformed filter: a pure function of the
/// transform tile extent, the `(C, K)` shape, and the exact bit patterns of
/// the CRSK filter data. The network runtime's transform cache keys on this,
/// so changing any filter byte — or switching to a different transform tile
/// — invalidates the cached `F̂` rather than silently reusing it.
pub fn transform_cache_key(c_dim: u32, k_dim: u32, tile: u32, filter: &[f32]) -> gpusim::Digest {
    assert_eq!(
        filter.len(),
        (c_dim * 9 * k_dim) as usize,
        "filter must be the CRSK array for (C, K)"
    );
    let mut d = gpusim::Digest::new();
    d.u32(tile).u32(c_dim).u32(k_dim);
    for &v in filter {
        d.u32(v.to_bits());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{Gpu, Model};
    use tensor::XorShiftRng;

    /// Host reference: G f Gᵀ for one 3×3 tile.
    fn host_gfgt(f: &[f32; 9]) -> [f32; 16] {
        let g: [[f32; 3]; 4] = [
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.5],
            [0.5, -0.5, 0.5],
            [0.0, 0.0, 1.0],
        ];
        let mut gf = [[0.0f32; 3]; 4];
        for i in 0..4 {
            for j in 0..3 {
                for k in 0..3 {
                    gf[i][j] += g[i][k] * f[k * 3 + j];
                }
            }
        }
        let mut out = [0.0f32; 16];
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..3 {
                    out[i * 4 + j] += gf[i][k] * g[j][k];
                }
            }
        }
        out
    }

    #[test]
    fn transforms_match_host_reference() {
        let (c_dim, k_dim) = (4u32, 64u32);
        let m = emit_filter_transform(c_dim, k_dim);
        assert!(m.info.num_regs <= 64, "regs {}", m.info.num_regs);
        let mut rng = XorShiftRng::new(77);
        // CRSK layout: [(c,r,s,k)] = idx ((c*3+r)*3+s)*K + k.
        let n_in = (c_dim * 9 * k_dim) as usize;
        let filt: Vec<f32> = (0..n_in).map(|_| rng.gen_range(-1.0, 1.0)).collect();
        let mut gpu = Gpu::new(gpusim::DeviceSpec::v100(), 1 << 24);
        let fin = gpu.alloc_upload_f32(&filt);
        let fout = gpu.alloc(transformed_filter_len(c_dim, k_dim) as u64 * 4);
        gpu.launch(&m, launch_dims(c_dim, k_dim), &params(fin, fout))
            .unwrap();
        let got = gpu
            .mem
            .download_f32(fout, transformed_filter_len(c_dim, k_dim))
            .unwrap();
        for c in 0..c_dim as usize {
            for k in (0..k_dim as usize).step_by(17) {
                let mut tile = [0.0f32; 9];
                for e in 0..9 {
                    tile[e] = filt[(c * 9 + e) * k_dim as usize + k];
                }
                let want = host_gfgt(&tile);
                for e in 0..16 {
                    let g = got[(c * 16 + e) * k_dim as usize + k];
                    assert!(
                        (g - want[e]).abs() < 1e-5,
                        "c={c} k={k} e={e}: {g} vs {}",
                        want[e]
                    );
                }
            }
        }
    }

    #[test]
    fn timing_run_is_memory_bound() {
        // The FTF step is memory-bound per the paper's roofline (Fig. 2).
        let (c_dim, k_dim) = (256u32, 256u32);
        let m = emit_filter_transform(c_dim, k_dim);
        let (mut gpu, b) = buffers(c_dim, k_dim).alloc(gpusim::DeviceSpec::v100());
        let t = gpusim::simulate(
            &mut gpu,
            &m,
            launch_dims(c_dim, k_dim),
            &params(b[0], b[1]),
            Model::OneWave,
            gpusim::TimingOptions::default(),
        )
        .unwrap()
        .0;
        // FP32 utilization should be low; traffic should be ≥ in+out bytes.
        assert!(t.sol_pct < 50.0, "sol {}", t.sol_pct);
        let min_bytes = ((c_dim * 9 + c_dim * 16) * k_dim) as u64 * 4;
        assert!(t.dram_bytes >= min_bytes, "{} < {min_bytes}", t.dram_bytes);
    }

    #[test]
    #[should_panic(expected = "multiple of 256")]
    fn rejects_ragged_shapes() {
        let _ = emit_filter_transform(3, 100);
    }

    #[test]
    fn cache_key_tracks_contents_shape_and_tile() {
        let (c_dim, k_dim) = (2u32, 8u32);
        let filt: Vec<f32> = (0..(c_dim * 9 * k_dim) as usize)
            .map(|i| i as f32 * 0.25)
            .collect();
        let base = transform_cache_key(c_dim, k_dim, TRANSFORM_TILE, &filt).hex();
        // Deterministic.
        assert_eq!(
            base,
            transform_cache_key(c_dim, k_dim, TRANSFORM_TILE, &filt).hex()
        );
        // Any filter bit moves the key — including sign-of-zero flips that
        // compare equal as floats.
        let mut flipped = filt.clone();
        flipped[0] = -0.0;
        assert_ne!(
            base,
            transform_cache_key(c_dim, k_dim, TRANSFORM_TILE, &flipped).hex()
        );
        // Tile extent moves the key.
        assert_ne!(
            base,
            transform_cache_key(c_dim, k_dim, TRANSFORM_TILE + 2, &filt).hex()
        );
        // Shape moves the key even over identical bytes (C/K swap).
        assert_ne!(
            base,
            transform_cache_key(k_dim, c_dim, TRANSFORM_TILE, &filt).hex()
        );
    }
}
