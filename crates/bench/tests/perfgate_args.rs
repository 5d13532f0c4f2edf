//! `perfgate` takes `--record [FILE]` alone: every flag of the timed gate
//! it once had is rejected as unknown before anything runs.

use std::process::Command;

#[test]
fn perfgate_rejects_unknown_flags_before_measuring() {
    let gone = [
        ["--check", "BENCH_DIGESTS.json"],
        ["--compare", "BENCH_DIGESTS.json"],
        ["--min-ratio", "lu=1.5"],
        ["--tolerance", "0.25"],
        ["--against", "BENCH_DIGESTS.json"],
        ["--format", "json"],
        ["--mode", "quick"],
    ];
    for [flag, value] in gone {
        let output = Command::new(env!("CARGO_BIN_EXE_perfgate"))
            .args(["--record", "unwritten.json", flag, value])
            .output()
            .expect("run perfgate");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "perfgate ran before rejecting {flag}"
        );
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}
