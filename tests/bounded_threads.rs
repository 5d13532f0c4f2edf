//! Bounded threads: a server owns exactly its worker pool and its accept
//! thread, and `shutdown()` joins every one of them. Only the
//! process-wide SIGTERM waker, installed once and never joined, outlives
//! the servers.
//!
//! Kept in its own file so it runs as a single-test binary: no other test
//! can have a server running while the thread list is read.

#![cfg(target_os = "linux")]

use std::time::Duration;

use refrint_serve::coordinator::CoordinatorOptions;
use refrint_serve::{RunningServer, Server, ServerOptions};

fn start(options: ServerOptions) -> RunningServer {
    Server::bind("127.0.0.1:0", options)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the accept loop")
}

/// The names (`comm`, truncated by the kernel to 15 bytes) of this
/// process's threads that start with `refrint-`.
fn refrint_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| name.starts_with("refrint-"))
        .collect();
    names.sort();
    names
}

#[test]
fn shut_down_servers_leave_only_the_sigterm_waker() {
    refrint_serve::install_sigterm_handler();

    let plain = start(ServerOptions::default());
    let backend = start(ServerOptions::default());
    let coordinator = start(ServerOptions {
        coordinator: Some(CoordinatorOptions {
            backends: vec![backend.addr().to_string()],
            ..CoordinatorOptions::default()
        }),
        ..ServerOptions::default()
    });
    coordinator.shutdown();
    backend.shutdown();
    plain.shutdown();

    // A joined thread can still be listed for the few microseconds the
    // kernel takes to reap it; a few 1 ms re-reads cover that and nothing
    // that sleeps on its own schedule.
    let expected = vec!["refrint-sigterm".to_owned()];
    let mut threads = refrint_threads();
    for _ in 0..5 {
        if threads == expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        threads = refrint_threads();
    }
    assert_eq!(
        threads, expected,
        "every server thread must be joined by shutdown()"
    );
}
