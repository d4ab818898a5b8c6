//! Figure 8: main-loop throughput under different LDG scheduling strategies
//! (RTX 2070), by fig7's program. Paper: LDG8 (one LDG per 8 FFMAs) beats
//! cuDNN's LDG2 by up to 1.24×.

use bench::report::{check_args, REPORT_FLAGS, SWEEP_FLAGS};
use kernels::LdgStrategy;

#[path = "fig7.rs"]
#[allow(dead_code)]
mod fig7;

fn main() {
    check_args("fig8", &[REPORT_FLAGS, SWEEP_FLAGS]);
    fig7::run(&fig7::Knob {
        fig: "Figure 8",
        experiment: "fig8",
        title: "LDG interleave",
        paper: "LDG8 up to 1.24x over LDG2",
        field: "ldg",
        settings: [
            ("ldg2", "LDG2", |c| c.ldg = LdgStrategy::Ldg2),
            ("ldg4", "LDG4", |c| c.ldg = LdgStrategy::Ldg4),
            ("ldg8", "LDG8", |c| c.ldg = LdgStrategy::Ldg8),
        ],
        over: &[0],
    });
}
