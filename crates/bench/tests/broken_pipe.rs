//! A reader that closes `gen-figures`' or `perfgate`'s stdout early
//! (`gen-figures … | head -1`) ends the program quietly: no panic, no
//! backtrace, not exit status 101.
//!
//! Each binary's stdout is a pipe whose read end is closed before the
//! program starts, so its first write fails with `EPIPE` however little
//! it prints.

use std::process::{Command, Output};

fn run_into_closed_pipe(program: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(program)
        .args(args)
        .stdout(writer)
        .output()
        .expect("run the binary")
}

fn assert_quiet_end(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(output.status.success(), "stderr: {stderr}");
}

#[test]
fn closed_stdout_ends_gen_figures_quietly() {
    let output = run_into_closed_pipe(env!("CARGO_BIN_EXE_gen-figures"), &["--table", "A1"]);
    assert_quiet_end(&output);
}

#[test]
fn closed_stdout_ends_perfgate_quietly() {
    let file = std::env::temp_dir().join(format!("perfgate-pipe-{}.json", std::process::id()));
    let output = run_into_closed_pipe(
        env!("CARGO_BIN_EXE_perfgate"),
        &["--record", file.to_str().expect("a UTF-8 temp path")],
    );
    let _ = std::fs::remove_file(&file);
    assert_quiet_end(&output);
}
