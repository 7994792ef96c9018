//! Persistent-connection contract of `rsg-serve`'s public listener:
//! a kept-alive socket serves many requests with the same answers a
//! fresh connection gets, pipelined requests are answered in order,
//! the connection closes exactly when HTTP says it must, a per-request
//! deadline still bounds request 2 of a connection, and a kept-alive
//! client, busy or idle, never holds a worker that a queued connection
//! or a drain needs — but gives it up only when no other worker is
//! free — and load shedding recovers for clients that keep their
//! sockets open.
//!
//! Every assertion reads what a client sees on the wire; none reads
//! process-global counters. Waits are bounded by socket read timeouts
//! and channel timeouts well under the server's 5 s idle budget, so a
//! test that passes cannot have waited the idle timer out.

use rsg::serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const SPEC_BODY: &str = "{\"characteristics\": {\"size\": 200, \"ccr\": 0.2, \
                         \"parallelism\": 0.6, \"density\": 0.5, \
                         \"regularity\": 0.7, \"mean_comp\": 30}}";

/// Socket read timeout for every client here: long enough for any
/// answer, short enough that waiting out the 5 s idle budget fails.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

fn server(cfg: ServeConfig) -> Server {
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let registry = ModelRegistry::load(&models).expect("shipped models/ directory loads");
    Server::spawn(
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..cfg
        },
        registry,
    )
    .expect("server boots")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    s
}

fn request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: ka\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One response as the client saw it.
#[derive(Debug)]
struct Reply {
    status: u16,
    /// The `Connection` header's value.
    connection: String,
    body: String,
}

/// Reads exactly one `Content-Length`-framed response off `s`; bytes
/// past it stay in `buf` for the next call.
fn read_reply(s: &mut TcpStream, buf: &mut Vec<u8>) -> Reply {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = s.read(&mut chunk).expect("response head");
        assert!(n > 0, "connection closed before a response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let header = |name: &str| {
        head.split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let status = head.split(' ').nth(1).and_then(|v| v.parse().ok()).unwrap();
    let length: usize = header("content-length").parse().unwrap();
    while buf.len() < head_end + length {
        let n = s.read(&mut chunk).expect("response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + length].to_vec()).unwrap();
    buf.drain(..head_end + length);
    Reply {
        status,
        connection: header("connection"),
        body,
    }
}

/// Asserts the server closes `s` (EOF) within the read timeout.
fn assert_closed(s: &mut TcpStream) {
    let mut rest = Vec::new();
    let n = s
        .read_to_end(&mut rest)
        .expect("EOF before the read timeout");
    assert_eq!(
        n,
        0,
        "unexpected bytes: {:?}",
        String::from_utf8_lossy(&rest)
    );
}

/// A `/spec` answer minus its `meta` block (which carries wall times).
fn answer(body: &str) -> &str {
    body.split_once("\"meta\"").map_or(body, |(a, _)| a)
}

/// The answer a fresh, closed-after-use connection gets.
fn fresh_answer(addr: SocketAddr, body: &str) -> String {
    let mut s = connect(addr);
    let raw = format!(
        "POST /spec HTTP/1.1\r\nHost: ka\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).unwrap();
    let reply = read_reply(&mut s, &mut Vec::new());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.connection, "close");
    assert_closed(&mut s);
    reply.body
}

#[test]
fn fifty_specs_on_one_socket_match_fresh_connection_answers() {
    let server = server(ServeConfig::default());
    let bodies: Vec<String> = [60, 200, 900]
        .iter()
        .map(|size| SPEC_BODY.replace("\"size\": 200", &format!("\"size\": {size}")))
        .collect();
    let want: Vec<String> = bodies
        .iter()
        .map(|b| fresh_answer(server.addr(), b))
        .collect();
    let mut s = connect(server.addr());
    let mut buf = Vec::new();
    for i in 0..50 {
        let k = i % bodies.len();
        s.write_all(request("POST", "/spec", &bodies[k]).as_bytes())
            .unwrap();
        let reply = read_reply(&mut s, &mut buf);
        assert_eq!(reply.status, 200, "request {i}: {}", reply.body);
        assert_eq!(reply.connection, "keep-alive", "request {i}");
        assert_eq!(answer(&reply.body), answer(&want[k]), "request {i}");
    }
    assert!(buf.is_empty(), "stray bytes after the last response");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = server(ServeConfig::default());
    let mut s = connect(server.addr());
    let both = request("GET", "/healthz", "") + &request("POST", "/spec", SPEC_BODY);
    s.write_all(both.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let first = read_reply(&mut s, &mut buf);
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"status\": \"ok\""), "{}", first.body);
    let second = read_reply(&mut s, &mut buf);
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.contains("\"rc_size\""), "{}", second.body);
    assert_eq!(second.connection, "keep-alive");
}

#[test]
fn connection_close_and_http_1_0_get_eof_after_the_response() {
    let server = server(ServeConfig::default());
    for raw in [
        "GET /healthz HTTP/1.1\r\nHost: ka\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: ka\r\nConnection: TE, Close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\nHost: ka\r\n\r\n",
    ] {
        let mut s = connect(server.addr());
        s.write_all(raw.as_bytes()).unwrap();
        let reply = read_reply(&mut s, &mut Vec::new());
        assert_eq!(reply.status, 200, "{raw:?}: {}", reply.body);
        assert_eq!(reply.connection, "close", "{raw:?}");
        assert_closed(&mut s);
    }
}

#[test]
fn a_malformed_second_request_gets_400_and_a_close() {
    let server = server(ServeConfig::default());
    let mut s = connect(server.addr());
    let mut buf = Vec::new();
    s.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_reply(&mut s, &mut buf).status, 200);
    s.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let reply = read_reply(&mut s, &mut buf);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_eq!(reply.connection, "close");
    assert_closed(&mut s);
}

#[test]
fn a_slow_drip_on_request_two_is_a_408() {
    // Request 2's budget is stamped at its first byte: the connection
    // idles past one budget first, yet the drip is answered 408 (cut
    // off one budget after it starts), not 504 (spent before it began).
    let server = server(ServeConfig {
        workers: 1,
        default_deadline_s: 0.5,
        ..ServeConfig::default()
    });
    let mut s = connect(server.addr());
    let mut buf = Vec::new();
    s.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_reply(&mut s, &mut buf).status, 200);
    std::thread::sleep(Duration::from_millis(700));
    // Drip one byte per 150 ms until the server answers (at most 3 s):
    // the request never completes, so only its budget can end it.
    s.write_all(b"GET /healthz HT").unwrap();
    s.set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    for _ in 0..20 {
        if s.peek(&mut [0u8; 1]).is_ok() || s.write_all(b"T").is_err() {
            break;
        }
    }
    s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let reply = read_reply(&mut s, &mut buf);
    assert_eq!(reply.status, 408, "{}", reply.body);
    assert_eq!(reply.connection, "close");
    assert_closed(&mut s);
}

#[test]
fn an_idle_kept_alive_client_yields_its_worker_to_a_queued_one() {
    let server = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // Client A takes the only worker and goes quiet on an open socket.
    let mut a = connect(server.addr());
    a.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let reply = read_reply(&mut a, &mut Vec::new());
    assert_eq!(
        (reply.status, reply.connection.as_str()),
        (200, "keep-alive")
    );
    // Client B is answered within its read timeout — far under the
    // idle budget A would otherwise hold the worker for.
    let mut b = connect(server.addr());
    b.write_all(request("POST", "/spec", SPEC_BODY).as_bytes())
        .unwrap();
    let reply = read_reply(&mut b, &mut Vec::new());
    assert_eq!(reply.status, 200, "{}", reply.body);
    // A's idle connection was closed to make room.
    assert_closed(&mut a);
}

#[test]
fn a_free_worker_takes_a_new_connection_without_closing_a_kept_alive_one() {
    let server = server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // Client A holds one worker on an idle open socket; the other
    // worker is free.
    let mut a = connect(server.addr());
    let mut a_buf = Vec::new();
    a.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_reply(&mut a, &mut a_buf).status, 200);
    for _ in 0..5 {
        let mut b = connect(server.addr());
        b.write_all(request("POST", "/spec", SPEC_BODY).as_bytes())
            .unwrap();
        let reply = read_reply(&mut b, &mut Vec::new());
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    // The free worker took every new connection: A's socket is still
    // open and served.
    a.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let reply = read_reply(&mut a, &mut a_buf);
    assert_eq!(
        (reply.status, reply.connection.as_str()),
        (200, "keep-alive")
    );
}

#[test]
fn shedding_recovers_for_requests_on_an_open_socket() {
    let server = server(ServeConfig {
        brownout_at_s: 0.5,
        shed_at_s: 1.0,
        ..ServeConfig::default()
    });
    let mut s = connect(server.addr());
    let mut buf = Vec::new();
    s.write_all(request("POST", "/spec", SPEC_BODY).as_bytes())
        .unwrap();
    assert_eq!(read_reply(&mut s, &mut buf).status, 200);
    // A surge is over: the smoothed queue wait sits far past the shed
    // threshold, and from here on every request reuses this socket.
    for _ in 0..64 {
        server.context().shed().observe_queue_wait(10.0);
    }
    let mut statuses = Vec::new();
    for _ in 0..60 {
        s.write_all(request("POST", "/spec", SPEC_BODY).as_bytes())
            .unwrap();
        let reply = read_reply(&mut s, &mut buf);
        assert_eq!(reply.connection, "keep-alive", "{}", reply.body);
        statuses.push(reply.status);
        if reply.status == 200 {
            break;
        }
    }
    assert_eq!(statuses[0], 503, "the surge sheds first: {statuses:?}");
    // Each request on the open socket is a zero-wait sample: 10 s
    // decays under the 1 s threshold within 18 requests.
    assert_eq!(
        statuses.last(),
        Some(&200),
        "still shedding after {} requests on an open socket",
        statuses.len()
    );
    s.write_all(request("GET", "/readyz", "").as_bytes())
        .unwrap();
    let reply = read_reply(&mut s, &mut buf);
    assert_eq!(reply.status, 200, "{}", reply.body);
}

/// Sets its flag when dropped, panics included.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_busy_kept_alive_client_yields_its_worker_after_a_response() {
    let server = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let b_done = AtomicBool::new(false);
    let (a_serving, a_served) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        // Client A sends back to back, never idle for a read slice, and
        // reconnects whenever the server closes on it.
        let a = scope.spawn(|| {
            let mut replies = 0;
            while !b_done.load(Ordering::SeqCst) && replies < 100_000 {
                let mut s = connect(addr);
                let mut buf = Vec::new();
                loop {
                    s.write_all(request("GET", "/healthz", "").as_bytes())
                        .unwrap();
                    let reply = read_reply(&mut s, &mut buf);
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    replies += 1;
                    if replies == 1 {
                        a_serving.send(()).unwrap();
                    }
                    if reply.connection == "close" || b_done.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        });
        // Once A holds the only worker, client B is answered within its
        // read timeout although A never pauses: A's next response
        // announces the close.
        a_served
            .recv_timeout(READ_TIMEOUT)
            .expect("client A served");
        let stop_a = SetOnDrop(&b_done);
        let mut b = connect(addr);
        b.write_all(request("POST", "/spec", SPEC_BODY).as_bytes())
            .unwrap();
        let reply = read_reply(&mut b, &mut Vec::new());
        assert_eq!(reply.status, 200, "{}", reply.body);
        drop(stop_a);
        a.join().unwrap();
    });
}

#[test]
fn drain_with_an_idle_kept_alive_connection_exits_promptly() {
    let server = server(ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        ..ServeConfig::default()
    });
    let mut idle = connect(server.addr());
    idle.write_all(request("GET", "/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_reply(&mut idle, &mut Vec::new()).status, 200);

    let mut admin = connect(server.admin_addr().unwrap());
    admin
        .write_all(request("POST", "/admin/drain", "").as_bytes())
        .unwrap();
    let reply = read_reply(&mut admin, &mut Vec::new());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.connection, "close");

    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(READ_TIMEOUT)
        .expect("join() returned while a kept-alive connection sat idle");
    assert_closed(&mut idle);
}
