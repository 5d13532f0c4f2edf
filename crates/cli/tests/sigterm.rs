//! `refrint-cli serve` ends cleanly on SIGTERM: the real binary, idle in a
//! blocking `accept`, must drain and exit 0 promptly. The handler is
//! installed with `signal()`, which restarts the interrupted `accept`, so
//! this only passes if the handler actively wakes the accept loop.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use refrint_serve::client;

extern "C" {
    fn kill(pid: i32, signum: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Kills the server if the test fails before it exits on its own.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_an_idle_server_and_exits_zero() {
    let mut server = Reap(
        Command::new(env!("CARGO_BIN_EXE_refrint-cli"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .env("REFRINT_LOG", "info")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("start refrint-cli serve"),
    );
    let stderr = server.0.stderr.take().expect("piped stderr");
    let (lines, log) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = lines.send(line);
        }
    });

    // The banner names the bound port; the server is idle once /healthz
    // has answered.
    let banner = log
        .recv_timeout(Duration::from_secs(10))
        .expect("the server prints its address");
    let addr: SocketAddr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in `{banner}`"));
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    // Give the accept loop time to go back into `accept`. A signal that
    // lands before that is seen by the loop's own flag check and would not
    // exercise the wake.
    std::thread::sleep(Duration::from_millis(200));

    let pid = i32::try_from(server.0.id()).expect("pid fits in pid_t");
    // SAFETY: `kill` only sends a signal to the child started above.
    #[allow(unsafe_code)]
    let sent = unsafe { kill(pid, SIGTERM) };
    assert_eq!(sent, 0, "kill(SIGTERM) failed");
    let signalled = Instant::now();
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll the child") {
            break status;
        }
        assert!(
            signalled.elapsed() < Duration::from_secs(5),
            "refrint-cli serve did not exit within 5 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "exit status {status}");
    reader.join().expect("stderr reader");
    let log: Vec<String> = log.try_iter().collect();
    assert!(
        log.iter().any(|line| line.contains("event=drain_done")),
        "no drain_done in the log: {log:?}"
    );
}
