//! `traffic` — the open-loop synthetic request generator.
//!
//! The serving engine is exercised open-loop: requests arrive on a schedule
//! the server cannot push back on (the millions-of-users regime the ROADMAP
//! names), so queueing delay under bursts is *measured*, not hidden by
//! client back-pressure.
//!
//! Arrivals follow a two-state **Markov-modulated Poisson process** (MMPP-2):
//! the stream alternates between a *normal* and a *burst* state, each with
//! exponentially distributed dwell time, and within a state inter-arrival
//! gaps are exponential at that state's rate. The burst-state rate is
//! [`TrafficConfig::burst_factor`] times the normal rate, and the two rates
//! are normalized so the long-run mean equals [`TrafficConfig::rate_rps`]
//! regardless of burstiness — raising `burst_factor` redistributes the same
//! offered load into heavier clumps rather than adding load.
//!
//! Each request asks for one inference of one image through one ResNet
//! 3×3 layer ([`ShapeClass`]); the class is drawn from a weighted mix
//! (default: Table 1's Conv2–Conv5 weighted by their ResNet-50 block
//! multiplicities 3/4/6/3).
//!
//! **Invariants.** Generation is a pure function of the config: it uses only
//! the workspace's deterministic [`XorShiftRng`] and integer-nanosecond
//! arithmetic for timestamps, so the same seed yields the same byte stream
//! of requests on every host and under every `--jobs` setting. Arrivals are
//! returned sorted (they are generated in time order) and ids are dense
//! `0..len`.

use tensor::XorShiftRng;

/// One convolution shape class requests can ask for: a ResNet 3×3 layer
/// (`H = W = hw`, `C = K` for Table 1 layers, but `k` is independent here)
/// plus its weight in the traffic mix.
#[derive(Clone, Debug)]
pub struct ShapeClass {
    /// Display name, e.g. `"Conv2"`.
    pub name: String,
    /// Input/output spatial size (`H = W`).
    pub hw: u32,
    /// Input channels `C` (must satisfy the fused kernel's `C % 8 == 0`).
    pub c: u32,
    /// Output channels `K` (must satisfy `K % 64 == 0` for the `bk = 64`
    /// fused kernel).
    pub k: u32,
    /// Relative weight in the traffic mix (need not be normalized).
    pub weight: f64,
}

impl ShapeClass {
    /// The paper's Table 1 layers weighted by their ResNet-50 block
    /// multiplicities (3/4/6/3) — the default serving mix.
    pub fn resnet_mix() -> Vec<ShapeClass> {
        let weights = [3.0, 4.0, 6.0, 3.0];
        wino_core::resnet::RESNET_LAYERS
            .iter()
            .zip(weights)
            .map(|(l, weight)| ShapeClass {
                name: l.name.to_string(),
                hw: l.hw as u32,
                c: l.c as u32,
                k: l.c as u32,
                weight,
            })
            .collect()
    }

    /// A scaled-down two-class mix for smoke tests: same code paths
    /// (distinct shapes, both fused-eligible), two orders of magnitude less
    /// simulation work per probe.
    pub fn smoke_mix() -> Vec<ShapeClass> {
        vec![
            ShapeClass {
                name: "SmokeA".into(),
                hw: 8,
                c: 32,
                k: 64,
                weight: 2.0,
            },
            ShapeClass {
                name: "SmokeB".into(),
                hw: 8,
                c: 64,
                k: 64,
                weight: 1.0,
            },
        ]
    }

    /// The [`wino_core::ConvProblem`] this class poses at batch size `n`.
    pub fn problem(&self, n: u32) -> wino_core::ConvProblem {
        wino_core::ConvProblem::resnet3x3(
            n as usize,
            self.c as usize,
            self.hw as usize,
            self.k as usize,
        )
    }
}

/// Open-loop traffic parameters. All times are integer nanoseconds of
/// *simulated* time.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// RNG seed; the whole arrival stream is a pure function of this.
    pub seed: u64,
    /// Arrival window length: requests arrive in `[0, duration_ns)`.
    pub duration_ns: u64,
    /// Long-run mean request rate, requests per (simulated) second.
    pub rate_rps: f64,
    /// Burst-state rate multiplier (≥ 1.0; 1.0 disables bursts).
    pub burst_factor: f64,
    /// Long-run fraction of time spent in the burst state, in `(0, 1)`.
    pub burst_fraction: f64,
    /// Mean dwell time of one burst, nanoseconds.
    pub mean_burst_ns: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 2020,
            duration_ns: 1_000_000_000,
            rate_rps: 20_000.0,
            burst_factor: 4.0,
            burst_fraction: 0.1,
            mean_burst_ns: 2_000_000,
        }
    }
}

/// One inference request: one image through one [`ShapeClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Dense id in arrival order, `0..stream.len()`.
    pub id: u64,
    /// Index into the class list the stream was generated against.
    pub class: usize,
    /// Arrival timestamp, nanoseconds of simulated time.
    pub arrival_ns: u64,
}

/// Uniform f64 in `(0, 1]` — never 0, so `ln` is always finite.
fn uniform_01(rng: &mut XorShiftRng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential sample with the given mean, in nanoseconds (≥ 1).
fn exp_ns(rng: &mut XorShiftRng, mean_ns: f64) -> u64 {
    let t = -uniform_01(rng).ln() * mean_ns;
    (t as u64).max(1)
}

/// Generate the arrival stream for `classes` under `cfg`. Sorted by
/// `arrival_ns` (ties keep generation order); deterministic in `cfg.seed`.
pub fn generate(cfg: &TrafficConfig, classes: &[ShapeClass]) -> Vec<Request> {
    assert!(
        !classes.is_empty(),
        "traffic needs at least one shape class"
    );
    assert!(cfg.rate_rps > 0.0, "rate must be positive");
    assert!(cfg.burst_factor >= 1.0, "burst factor must be >= 1");
    assert!(
        cfg.burst_fraction > 0.0 && cfg.burst_fraction < 1.0,
        "burst fraction must be in (0, 1)"
    );
    let mut rng = XorShiftRng::new(cfg.seed);

    // Normalize the two state rates so the long-run mean is `rate_rps`:
    // mean = (1 - f)·r_normal + f·burst_factor·r_normal.
    let f = cfg.burst_fraction;
    let r_normal = cfg.rate_rps / (1.0 - f + f * cfg.burst_factor);
    let r_burst = r_normal * cfg.burst_factor;
    let mean_normal_ns = cfg.mean_burst_ns as f64 * (1.0 - f) / f;
    let mean_burst_ns = cfg.mean_burst_ns as f64;

    let cum: Vec<f64> = classes
        .iter()
        .scan(0.0, |acc, c| {
            assert!(c.weight > 0.0, "class weights must be positive");
            *acc += c.weight;
            Some(*acc)
        })
        .collect();
    let total_w = *cum.last().unwrap();

    let mut out = Vec::new();
    let mut now: u64 = 0;
    let mut in_burst = false;
    // End of the current MMPP state's dwell time.
    let mut state_end = exp_ns(&mut rng, mean_normal_ns);
    while now < cfg.duration_ns {
        let rate = if in_burst { r_burst } else { r_normal };
        let gap = exp_ns(&mut rng, 1e9 / rate);
        let mut next = now.saturating_add(gap);
        // Cross state boundaries before admitting the arrival: the gap is
        // re-drawn at the new state's rate from the boundary (memorylessness
        // makes the re-draw exact, not an approximation).
        while next > state_end {
            now = state_end;
            in_burst = !in_burst;
            let mean = if in_burst {
                mean_burst_ns
            } else {
                mean_normal_ns
            };
            state_end = state_end.saturating_add(exp_ns(&mut rng, mean));
            let rate = if in_burst { r_burst } else { r_normal };
            next = now.saturating_add(exp_ns(&mut rng, 1e9 / rate));
        }
        now = next;
        if now >= cfg.duration_ns {
            break;
        }
        let u = uniform_01(&mut rng) * total_w;
        let class = cum.partition_point(|&c| c < u).min(classes.len() - 1);
        out.push(Request {
            id: out.len() as u64,
            class,
            arrival_ns: now,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ShapeClass> {
        ShapeClass::resnet_mix()
    }

    #[test]
    fn deterministic_and_sorted() {
        let cfg = TrafficConfig::default();
        let a = generate(&cfg, &classes());
        let b = generate(&cfg, &classes());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        let other = generate(
            &TrafficConfig {
                seed: 7,
                ..cfg.clone()
            },
            &classes(),
        );
        assert_ne!(a, other);
    }

    #[test]
    fn mean_rate_is_close_regardless_of_burstiness() {
        for burst in [1.0, 4.0, 16.0] {
            let cfg = TrafficConfig {
                duration_ns: 4_000_000_000,
                rate_rps: 10_000.0,
                burst_factor: burst,
                ..Default::default()
            };
            let n = generate(&cfg, &classes()).len() as f64;
            let want = cfg.rate_rps * cfg.duration_ns as f64 / 1e9;
            assert!(
                (n - want).abs() / want < 0.10,
                "burst={burst}: {n} arrivals, wanted ≈{want}"
            );
        }
    }

    #[test]
    fn burstiness_raises_dispersion() {
        // Index of dispersion of counts in fixed bins: Poisson ≈ 1, MMPP > 1.
        let iod = |burst: f64| {
            let cfg = TrafficConfig {
                duration_ns: 4_000_000_000,
                rate_rps: 20_000.0,
                burst_factor: burst,
                ..Default::default()
            };
            let reqs = generate(&cfg, &classes());
            let bin_ns = 1_000_000u64;
            let bins = (cfg.duration_ns / bin_ns) as usize;
            let mut counts = vec![0f64; bins];
            for r in &reqs {
                counts[(r.arrival_ns / bin_ns) as usize % bins] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / bins as f64;
            var / mean
        };
        let calm = iod(1.0);
        let bursty = iod(8.0);
        assert!(calm < 2.0, "Poisson dispersion ≈ 1, got {calm}");
        assert!(bursty > 2.0 * calm, "bursty {bursty} vs calm {calm}");
    }

    #[test]
    fn mix_follows_weights() {
        let cfg = TrafficConfig {
            duration_ns: 2_000_000_000,
            ..Default::default()
        };
        let reqs = generate(&cfg, &classes());
        let mut counts = [0usize; 4];
        for r in &reqs {
            counts[r.class] += 1;
        }
        // Conv4 (weight 6) must dominate Conv2/Conv5 (weight 3).
        assert!(counts[2] > counts[0] && counts[2] > counts[3]);
        let frac = counts[2] as f64 / reqs.len() as f64;
        assert!((frac - 6.0 / 16.0).abs() < 0.05, "Conv4 fraction {frac}");
    }
}
