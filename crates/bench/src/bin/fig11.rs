//! Figure 11: Speed-of-Light on V100 (see fig10).

use bench::report::{check_args, REPORT_FLAGS, SWEEP_FLAGS};
use gpusim::DeviceSpec;

#[path = "fig10.rs"]
#[allow(dead_code)]
mod fig10;

fn main() {
    check_args("fig11", &[REPORT_FLAGS, SWEEP_FLAGS]);
    fig10::run(
        DeviceSpec::v100(),
        "Figure 11",
        "V100",
        "fig11",
        "total ~75-95%",
    );
}
