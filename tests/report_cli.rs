//! Output contract of the `report` binary's `machines` experiment: Table 1
//! and the Figure 6/8 hardware-cost lines (`fetchmech::cost`). They are
//! closed-form, so the text is pinned byte for byte.

use std::process::Command;

const MACHINES: &str = "\
Table 1: machine models
  P14: 4-issue, window 16, 32KB I-cache (16B blocks), 2F/2FP/2BR, spec 2
  P18: 8-issue, window 24, 64KB I-cache (32B blocks), 4F/4FP/4BR, spec 4
  P112: 12-issue, window 32, 128KB I-cache (64B blocks), 6F/6FP/6BR, spec 6

Figure 6/8 hardware costs (per machine's instructions-per-block):
  P14 (k = 4):
    interchange switch: 256 transmission gates, 0 muxes, 0 latches, delay 2..2
    valid select: 0 transmission gates, 27 muxes, 0 latches, delay 4..4
    collapsing buffer (shifter): 224 transmission gates, 0 muxes, 256 latches, delay 1..2
    collapsing buffer (crossbar): 0 transmission gates, 8 muxes, 0 latches, delay 1..1
  P18 (k = 8):
    interchange switch: 512 transmission gates, 0 muxes, 0 latches, delay 2..2
    valid select: 0 transmission gates, 51 muxes, 0 latches, delay 4..4
    collapsing buffer (shifter): 480 transmission gates, 0 muxes, 512 latches, delay 1..3
    collapsing buffer (crossbar): 0 transmission gates, 16 muxes, 0 latches, delay 1..1
  P112 (k = 16):
    interchange switch: 1024 transmission gates, 0 muxes, 0 latches, delay 2..2
    valid select: 0 transmission gates, 99 muxes, 0 latches, delay 4..4
    collapsing buffer (shifter): 992 transmission gates, 0 muxes, 1024 latches, delay 1..4
    collapsing buffer (crossbar): 0 transmission gates, 32 muxes, 0 latches, delay 1..1

";

#[test]
fn machines_prints_table1_and_hardware_costs() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--quick", "machines"])
        .output()
        .expect("failed to spawn report");
    assert!(out.status.success(), "report exited with {}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stdout), MACHINES);
}
