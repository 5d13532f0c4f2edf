//! A reader that closes `refrint-cli`'s stdout early (`… | head -c 20`)
//! ends the program quietly: no panic, no backtrace, not exit status 101.
//! The `obs` span export is over a megabyte, far more than a pipe buffers,
//! so the binary is still writing when the pipe closes.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_obs_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_refrint-cli"))
        .args(["obs", "--app", "lu", "--refs", "600", "--cores", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start refrint-cli obs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 20];
    stdout.read_exact(&mut head).expect("read the first bytes");
    assert!(head.starts_with(b"{"), "obs prints JSON: {head:?}");
    drop(stdout);

    let output = child.wait_with_output().expect("wait for refrint-cli");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(output.status.success(), "stderr: {stderr}");
}
