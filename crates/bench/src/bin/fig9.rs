//! Figure 9: main-loop throughput under different STS scheduling strategies
//! (RTX 2070), by fig7's program. Paper: STS6 is ~2% over STS2.

use bench::report::{check_args, REPORT_FLAGS, SWEEP_FLAGS};
use kernels::StsStrategy;

#[path = "fig7.rs"]
#[allow(dead_code)]
mod fig7;

fn main() {
    check_args("fig9", &[REPORT_FLAGS, SWEEP_FLAGS]);
    fig7::run(&fig7::Knob {
        fig: "Figure 9",
        experiment: "fig9",
        title: "STS interleave",
        paper: "STS6 ~2% over STS2",
        field: "sts",
        settings: [
            ("sts2", "STS2", |c| c.sts = StsStrategy::Sts2),
            ("sts4", "STS4", |c| c.sts = StsStrategy::Sts4),
            ("sts6", "STS6", |c| c.sts = StsStrategy::Sts6),
        ],
        over: &[0],
    });
}
