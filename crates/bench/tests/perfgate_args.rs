//! `perfgate` rejects a flag its table does not list before it measures
//! anything.

use std::process::Command;

#[test]
fn perfgate_rejects_unknown_flags_before_measuring() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SIM.json");
    let output = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(["--check", baseline, "--bogus"])
        .output()
        .expect("run perfgate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success());
    assert!(
        output.stdout.is_empty(),
        "perfgate measured before rejecting"
    );
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(stderr.contains("--tolerance"), "{stderr}");
}
