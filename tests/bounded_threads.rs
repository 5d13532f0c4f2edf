//! Bounded threads: a server owns its worker pool, its accept thread and
//! a connection handler pool of at most `max_connections` threads, grown
//! only when no handler is idle, and `shutdown()` joins every one of
//! them. Only the process-wide SIGTERM waker, installed once and never
//! joined, outlives the servers. Every thread of the process is counted,
//! named or not.
//!
//! Kept in its own file so it runs as a single-test binary: no other test
//! can have a server running while the thread list is read.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use refrint_serve::coordinator::CoordinatorOptions;
use refrint_serve::{client, RunningServer, Server, ServerOptions};

fn start(options: ServerOptions) -> RunningServer {
    Server::bind("127.0.0.1:0", options)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the accept loop")
}

/// Every thread of this process as `tid name`, the name being `comm`
/// (truncated by the kernel to 15 bytes), sorted.
fn threads() -> Vec<String> {
    let mut threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some(format!(
                "{} {}",
                task.file_name().to_string_lossy(),
                comm.trim_end()
            ))
        })
        .collect();
    threads.sort();
    threads
}

/// How many of this process's threads are connection handlers.
fn handler_threads() -> usize {
    threads()
        .iter()
        .filter(|t| t.contains(" refrint-conn-"))
        .count()
}

/// Re-reads the thread list until `done` holds or `within` passes, and
/// returns the last reading.
fn settle(within: Duration, done: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + within;
    let mut seen = threads();
    while !done(&seen) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        seen = threads();
    }
    seen
}

#[test]
fn shut_down_servers_leave_only_the_sigterm_waker() {
    refrint_serve::install_sigterm_handler();
    let baseline = threads();

    // Sequential fresh connections reuse the most recently idle handler:
    // one serves, at most one more finishes its previous connection.
    let plain = start(ServerOptions::default());
    for _ in 0..200 {
        let health = client::get(plain.addr(), "/healthz").expect("GET /healthz");
        assert_eq!(health.status, 200);
    }
    let handlers = handler_threads();
    assert!(
        (1..=2).contains(&handlers),
        "200 sequential requests left {handlers} handler threads"
    );

    let backend = start(ServerOptions::default());
    let coordinator = start(ServerOptions {
        coordinator: Some(CoordinatorOptions {
            backends: vec![backend.addr().to_string()],
            ..CoordinatorOptions::default()
        }),
        ..ServerOptions::default()
    });

    // Six silent connections against a cap of 2: two are admitted and
    // each holds a handler, the other four are refused by the accept
    // thread, which starts no thread for them.
    let read_timeout = Duration::from_secs(60);
    let capped = start(ServerOptions {
        max_connections: 2,
        read_timeout,
        ..ServerOptions::default()
    });
    let before = threads().len();
    let mut most = before;
    let mut holders = Vec::new();
    for _ in 0..6 {
        holders.push(TcpStream::connect(capped.addr()).expect("connect a silent client"));
        most = most.max(threads().len());
    }
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline {
        most = most.max(threads().len());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        most,
        before + 2,
        "six connections against a cap of 2 must grow the pool to exactly 2 threads"
    );

    // Shutdown joins handlers blocked reading a silent client once the
    // 5 s grace period ends, without waiting out the read timeout.
    let began = Instant::now();
    capped.shutdown();
    let took = began.elapsed();
    assert!(
        took < Duration::from_secs(8),
        "shutdown with silent clients took {took:?} (read timeout {read_timeout:?})"
    );
    drop(holders);

    coordinator.shutdown();
    backend.shutdown();
    plain.shutdown();

    // A joined thread can still be listed for the few microseconds the
    // kernel takes to reap it; a few 1 ms re-reads cover that and nothing
    // that sleeps on its own schedule.
    let left = settle(Duration::from_millis(5), |t| t == baseline.as_slice());
    assert_eq!(
        left, baseline,
        "every server thread must be joined by shutdown()"
    );
    assert!(
        left.iter().any(|t| t.ends_with(" refrint-sigterm")),
        "the SIGTERM waker outlives the servers: {left:?}"
    );
}
