//! Every command of `refrint-cli` and `serve-client` rejects a flag its
//! table does not list before it does anything else: the real binaries
//! exit non-zero, print nothing on stdout, name the bad flag and list the
//! valid ones on stderr, and bind, connect, write and simulate nothing.

use std::net::TcpListener;
use std::process::{Command as Process, Stdio};
use std::time::{Duration, Instant};

use refrint_cli::args::{Program, REFRINT_CLI, SERVE_CLIENT};

fn strings(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

/// Runs one case and checks the rejection. A child still alive after 10 s
/// is killed and fails the test, so a command that falls through to
/// `serve` cannot hang the suite.
fn assert_rejected(bin: &str, program: &Program, line: &str, bad: &str) {
    let args = strings(line);
    let mut child = Process::new(bin)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start the binary");
    let started = Instant::now();
    while child.try_wait().expect("poll the child").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            child.wait().ok();
            panic!("`{line}` still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let output = child.wait_with_output().expect("collect the output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "`{line}` exited 0");
    assert!(output.stdout.is_empty(), "`{line}` printed on stdout");
    assert!(
        stderr.contains(bad),
        "`{line}` does not name {bad}: {stderr}"
    );
    let (command, _) = program.split(&args).expect("the case names a command");
    for flag in program.global.iter().chain(command.all_flags()) {
        let listed = stderr.contains(flag.name);
        assert!(listed, "`{line}` does not list {}: {stderr}", flag.name);
    }
}

#[test]
fn refrint_cli_rejects_bad_flags_before_any_side_effect() {
    let bin = env!("CARGO_BIN_EXE_refrint-cli");
    let out = std::env::temp_dir().join(format!("refrint-rejects-{}.rft", std::process::id()));
    let out = out.to_str().expect("utf-8 path");
    for command in REFRINT_CLI.commands {
        // Enough of each command's own arguments that it would act if the
        // bad flag were ignored.
        let head = match command.name {
            "run" | "obs" => "--app lu".to_owned(),
            "trace record" => format!("--app lu --out {out}"),
            "trace replay" | "trace info" => format!("--trace {out}"),
            "serve" => "--addr 127.0.0.1:0".to_owned(),
            _ => String::new(),
        };
        let line = format!("{} {head} --bogus-flag 7", command.name);
        assert_rejected(bin, &REFRINT_CLI, &line, "--bogus-flag");
    }
    assert_rejected(bin, &REFRINT_CLI, "run --app lu --policy", "--policy");
    assert_rejected(
        bin,
        &REFRINT_CLI,
        "run --app lu --seed 1 --seed 2",
        "--seed",
    );
    assert!(
        !std::path::Path::new(out).exists(),
        "trace record wrote {out}"
    );
}

#[test]
fn serve_client_rejects_bad_flags_before_connecting() {
    let bin = env!("CARGO_BIN_EXE_serve-client");
    // Nobody accepts on this listener: a connection attempt would queue.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    listener
        .set_nonblocking(true)
        .expect("non-blocking listener");
    let addr = listener.local_addr().expect("bound address");
    for command in SERVE_CLIENT.commands {
        let head = match command.name {
            "run" => "--app lu",
            "job" => "--id j1",
            "trace" => "j1",
            _ => "",
        };
        let line = format!("--addr {addr} {} {head} --bogus-flag 7", command.name);
        assert_rejected(bin, &SERVE_CLIENT, &line, "--bogus-flag");
    }
    let pending = listener.accept();
    assert!(pending.is_err(), "serve-client connected: {pending:?}");
}
