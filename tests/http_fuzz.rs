//! HTTP front-end robustness: seeded single-byte mutations and truncations
//! at every offset of valid `POST /run`, `POST /sweep` and `GET /jobs/<id>`
//! requests must always be answered — with a typed 4xx/5xx JSON error, or
//! a 200 when the flip is benign — never with a dropped connection (a
//! panicked handler) and never by hanging. The server must still be
//! healthy afterwards.
//!
//! Each case is sent on a fresh connection that is half-closed after the
//! request, so a truncated request ends in EOF rather than the server's
//! read timeout.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use refrint_engine::json::{parse, Value};
use refrint_engine::rng::DeterministicRng;
use refrint_serve::{client, Server, ServerOptions};

/// A case that takes longer than this to answer counts as a hang.
const CASE_DEADLINE: Duration = Duration::from_secs(5);

/// Sends `raw` on a fresh connection, half-closes it and returns the
/// status code and body of the answer.
fn exchange(addr: SocketAddr, raw: &[u8], what: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect_timeout(&addr, CASE_DEADLINE)
        .unwrap_or_else(|e| panic!("{what}: connect failed: {e}"));
    stream.set_read_timeout(Some(CASE_DEADLINE)).unwrap();
    stream.set_write_timeout(Some(CASE_DEADLINE)).unwrap();
    // The server may answer (and stop reading) before the whole request
    // is written, e.g. on an oversized Content-Length; the answer counts.
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .unwrap_or_else(|e| panic!("{what}: no complete answer (hang?): {e}"));
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| {
            panic!(
                "{what}: no response head (handler panicked?): {:?}",
                String::from_utf8_lossy(&response)
            )
        });
    let head = String::from_utf8_lossy(&response[..head_end]).into_owned();
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("{what}: bad status line in {head:?}"));
    (status, response[head_end + 4..].to_vec())
}

/// Asserts the answer contract for one case.
fn assert_answered(addr: SocketAddr, raw: &[u8], what: &str) {
    let (status, body) = exchange(addr, raw, what);
    let text = String::from_utf8_lossy(&body);
    let doc = parse(text.trim_end())
        .unwrap_or_else(|e| panic!("{what}: {status} body {text:?} is not JSON: {e}"));
    match status {
        200 => {}
        400..=599 => {
            let error = doc.get("error");
            let kind = error.and_then(|e| e.get("kind")).and_then(Value::as_str);
            let reason = error.and_then(|e| e.get("reason")).and_then(Value::as_str);
            assert!(
                kind.is_some_and(|k| !k.is_empty()) && reason.is_some(),
                "{what}: {status} without a typed error body: {text}"
            );
        }
        other => panic!("{what}: unexpected status {other}: {text}"),
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Truncations at every length, then the seeded value, its complement
/// and the all-zeros and all-ones bytes at every offset.
fn fuzz_request(addr: SocketAddr, original: &[u8], name: &str, seed: u64) {
    let (status, _) = exchange(addr, original, name);
    assert_eq!(status, 200, "the untouched {name} request succeeds");
    for len in 0..original.len() {
        assert_answered(
            addr,
            &original[..len],
            &format!("{name} truncated to {len} bytes"),
        );
    }
    let mut rng = DeterministicRng::from_seed(seed);
    for offset in 0..original.len() {
        let seeded = (rng.below(255) + 1) as u8; // non-zero: guarantees a change XOR-wise
        for value in [original[offset] ^ seeded, 0x00, 0xFF] {
            if value == original[offset] {
                continue;
            }
            let mut mutated = original.to_vec();
            mutated[offset] = value;
            assert_answered(
                addr,
                &mutated,
                &format!("{name} byte {offset} set to {value:#04x}"),
            );
        }
    }
}

#[test]
fn mutated_and_truncated_requests_get_typed_answers() {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default())
        .and_then(Server::spawn)
        .expect("start a server");
    let addr = server.addr();

    let run = post(
        "/run",
        "{\"app\":\"lu\",\"refs\":100,\"cores\":2,\"seed\":7}",
    );
    fuzz_request(addr, &run, "POST /run", 0x4801);

    let sweep = post(
        "/sweep",
        "{\"apps\":[\"lu\"],\"policies\":[\"R.WB(4,4)\"],\"retentions_us\":[50],\
         \"refs\":100,\"cores\":2}",
    );
    fuzz_request(addr, &sweep, "POST /sweep", 0x4802);

    let submitted = client::post(addr, "/run", b"{\"app\":\"fft\",\"refs\":100,\"cores\":2}")
        .expect("submit a job to poll");
    let id = submitted
        .header("X-Refrint-Job")
        .expect("a job id")
        .to_owned();
    let poll = format!("GET /jobs/{id} HTTP/1.1\r\nHost: fuzz\r\n\r\n").into_bytes();
    fuzz_request(addr, &poll, "GET /jobs/<id>", 0x4803);

    let health = client::get(addr, "/healthz").expect("healthz after fuzzing");
    assert_eq!(health.status, 200, "{}", health.body_str());
    server.shutdown();
}
