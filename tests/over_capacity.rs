//! The over-capacity path: with every connection slot held by a silent
//! client, the accept thread answers each further connection with a
//! complete `503 over_capacity` at once, and service resumes as soon as
//! the silent clients' read timeout frees their slots.
//!
//! Kept in its own file so it runs as a single-test binary: the refusals
//! must all land inside one short read timeout, which a host busy with
//! other tests' simulations could stretch.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use refrint_serve::{client, Server, ServerOptions};

/// Sends `POST /run` with `body` written 2 ms after the head, and reads
/// the whole reply.
fn post_with_late_body(addr: SocketAddr, body: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let head = format!(
        "POST /run HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    std::thread::sleep(Duration::from_millis(2));
    stream.write_all(body)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    Ok(String::from_utf8_lossy(&reply).into_owned())
}

#[test]
fn beyond_the_connection_cap_the_accept_thread_answers_503_until_slots_free() {
    let read_timeout = Duration::from_millis(200);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            max_connections: 2,
            read_timeout,
            ..ServerOptions::default()
        },
    )
    .expect("bind an ephemeral port")
    .spawn()
    .expect("spawn the accept loop");
    let addr = server.addr();

    // Two clients that connect and send nothing take both slots; the
    // listener accepts in arrival order, so they are admitted first.
    let holders: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect a silent client"))
        .collect();

    // Each request's body follows its head after a pause, so it reaches
    // the server after the 503 does: a refused socket closed with request
    // bytes unread, or closed before they arrive, resets the connection,
    // which can destroy the 503 before it is read.
    let body = b"{\"app\": \"lu\", \"refs\": 400, \"cores\": 2}";
    for i in 0..20 {
        let began = Instant::now();
        let reply = post_with_late_body(addr, body)
            .unwrap_or_else(|e| panic!("request {i}: no complete response ({e})"));
        let took = began.elapsed();
        assert!(
            reply.starts_with("HTTP/1.1 503 ") && reply.contains("\"over_capacity\""),
            "request {i}: {reply}"
        );
        assert!(
            took < read_timeout / 4,
            "request {i}: the 503 took {took:?}, so the accept thread waited on a client"
        );
    }

    // The silent clients' reads time out (408), freeing their slots and
    // handlers: a normal request is served again without any client
    // closing.
    let deadline = Instant::now() + Duration::from_secs(10);
    let served = loop {
        let reply = client::post(addr, "/run", body).expect("a complete response");
        if reply.status == 200 || Instant::now() > deadline {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(served.status, 200, "{}", served.body_str());

    drop(holders);
    server.shutdown();
}
