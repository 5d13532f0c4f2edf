//! In-process servers and the HTTP calls made to them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use refrint_serve::client;
use refrint_serve::coordinator::CoordinatorOptions;
use refrint_serve::{RunningServer, Server, ServerOptions};

/// Binds an ephemeral local port, starts the server on background threads
/// and returns once `GET /healthz` has answered 200.
pub fn spawn(options: ServerOptions) -> Result<RunningServer, String> {
    let server = Server::bind("127.0.0.1:0", options)
        .and_then(Server::spawn)
        .map_err(|e| format!("starting a server: {e}"))?;
    wait_healthy(server.addr())?;
    Ok(server)
}

/// Polls `/healthz` every 2 ms, the first time 2 ms after the spawn, as a
/// client that starts a server and then checks on it would (10 s at most).
/// Polling from the first microsecond instead would race the accept loop's
/// first poll and make set-up time jump between two values.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let start = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(2));
        match client::get(addr, "/healthz") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if start.elapsed() > Duration::from_secs(10) => {
                return Err(format!("{addr} did not become healthy"))
            }
            _ => {}
        }
    }
}

/// A plain server with `workers` simulation workers and a result cache of
/// `cache` entries.
pub fn server_options(workers: usize, cache: usize) -> ServerOptions {
    ServerOptions {
        workers,
        cache_capacity: cache,
        ..ServerOptions::default()
    }
}

/// Backends with one worker and a one-entry result cache each, and a
/// coordinator with a one-entry cache in front of them.
pub struct Fleet {
    pub coordinator: RunningServer,
    pub backends: Vec<RunningServer>,
}

impl Fleet {
    pub fn spawn(backends: usize) -> Result<Fleet, String> {
        let backends = (0..backends)
            .map(|_| spawn(server_options(1, 1)))
            .collect::<Result<Vec<_>, _>>()?;
        let coordinator = spawn(ServerOptions {
            coordinator: Some(CoordinatorOptions {
                backends: backends.iter().map(|b| b.addr().to_string()).collect(),
                ..CoordinatorOptions::default()
            }),
            ..server_options(1, 1)
        })?;
        Ok(Fleet {
            coordinator,
            backends,
        })
    }

    /// Stops the coordinator first, then every backend, waiting for each.
    pub fn shutdown(self) {
        self.coordinator.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// A `POST` timed in phases, over a fresh connection as
/// `refrint_serve::client` makes it.
#[derive(Debug)]
pub struct Timed {
    pub status: u16,
    pub cache: Option<String>,
    pub body: Vec<u8>,
    /// The connect, and the time from the start of the send to the first
    /// response byte, when the caller timed them.
    pub phases: Option<(Duration, Duration)>,
    /// From the start of the connect to the last byte read.
    pub total: Duration,
}

pub fn timed_post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<Timed> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = start.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let sent = Instant::now();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::with_capacity(8192);
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let ttfb = sent.elapsed();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let total = start.elapsed();

    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let cache = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("x-refrint-cache")
            .then(|| value.trim().to_owned())
    });
    Ok(Timed {
        status,
        cache,
        body: raw[split + 4..].to_vec(),
        phases: Some((connect, ttfb)),
        total,
    })
}
