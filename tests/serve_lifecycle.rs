//! Lifecycle contract for `rsg-serve`: hot reload under fire, rollback
//! on a corrupt model directory, readiness reporting, and graceful
//! drain.
//!
//! The headline test keeps **8 concurrent `/spec` clients** in a
//! closed loop while **10 consecutive `/admin/reload` cycles** land —
//! one of them pointed at a deliberately corrupt model directory that
//! must fail validation and roll back. The contract: not a single
//! client request fails or hangs, and the generation counter accounts
//! for exactly the successful swaps.

use rsg::obs::json::Json;
use rsg::serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Characteristics-only request: exercises predict + render without
/// DAG parsing, so the closed loop turns over quickly.
const SPEC_BODY: &str = "{\"characteristics\": {\"size\": 200, \"ccr\": 0.2, \
                         \"parallelism\": 0.6, \"density\": 0.5, \
                         \"regularity\": 0.7, \"mean_comp\": 30}}";

fn tiny_size_model() -> rsg::prelude::ThresholdedSizeModel {
    use rsg::prelude::*;
    let tables = rsg::core::observation::measure(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &[0.001],
        0,
    );
    ThresholdedSizeModel::fit(&tables)
}

/// A valid model directory and a corrupt sibling (payload tampered, so
/// the envelope-verified store must reject it).
fn model_dirs() -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join("rsg-serve-lifecycle");
    let _ = std::fs::remove_dir_all(&base);
    let good = base.join("good");
    let bad = base.join("bad");
    std::fs::create_dir_all(&good).unwrap();
    std::fs::create_dir_all(&bad).unwrap();
    let model = tiny_size_model();
    rsg::core::store::write_atomic(
        &good.join("size_model.tsv"),
        rsg::core::persist::SIZE_MODEL_KIND,
        &model.to_tsv(),
    )
    .unwrap();
    // The corrupt copy starts from the valid envelope, then flips
    // payload bytes so the checksum no longer matches.
    let mut text = std::fs::read_to_string(good.join("size_model.tsv")).unwrap();
    text.push_str("tampered trailing line\n");
    std::fs::write(bad.join("size_model.tsv"), text).unwrap();
    (good, bad)
}

/// One strict request: connect, send, read to EOF under a timeout.
/// Anything but a 200 with a body is an error string.
fn spec_request(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "POST /spec HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{SPEC_BODY}",
        SPEC_BODY.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    if raw.starts_with("HTTP/1.1 200") && raw.contains("\r\n\r\n") {
        Ok(())
    } else {
        Err(format!("bad reply: {:?}", raw.lines().next().unwrap_or("")))
    }
}

/// Like [`raw_request`] but returns errors instead of panicking —
/// for use inside thread scopes where a panic would strand the
/// sibling client loops.
fn raw_request_checked(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no status line in {raw:?}"))?;
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn ten_reloads_under_eight_clients_with_one_rollback_drop_nothing() {
    let (good, bad) = model_dirs();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admin_addr: Some("127.0.0.1:0".to_string()),
        workers: 4,
        // Shedding off: this test saturates the queue on purpose and
        // the contract here is "every request succeeds", not "the
        // server protects itself" (that contract has its own tests).
        brownout_at_s: 0.0,
        shed_at_s: 0.0,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::load(&good).expect("good models load");
    let server = Server::spawn(&cfg, registry).expect("server boots");
    let addr = server.addr();
    let admin = server.admin_addr().expect("admin listener configured");

    // Ready before any traffic, at generation 1.
    let (status, ready) = raw_request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{ready}");

    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let cycle_errors = std::thread::scope(|scope| {
        for client in 0..8 {
            let (stop, completed, failures) = (&stop, &completed, &failures);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match spec_request(addr) {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => failures
                            .lock()
                            .unwrap()
                            .push(format!("client {client}: {e}")),
                    }
                }
            });
        }

        // 10 consecutive reload cycles; cycle 6 is the corrupt one and
        // must be refused with a 500 while generation N keeps serving.
        // Collected (not asserted) inside the scope: a panic here would
        // leave the client loops spinning on `stop` forever.
        let mut cycle_errors = Vec::new();
        for cycle in 0..10 {
            let (dir, want) = if cycle == 6 {
                (&bad, 500)
            } else {
                (&good, 200)
            };
            let body = format!(
                "{{\"dir\": \"{}\"}}",
                dir.display().to_string().replace('\\', "/")
            );
            eprintln!("cycle {cycle}: reload from {}", dir.display());
            match raw_request_checked(admin, "POST", "/admin/reload", &body) {
                Ok((status, reply)) if status == want => {
                    if status == 500 && !reply.contains("kept serving") {
                        cycle_errors.push(format!("cycle {cycle}: rollback reply {reply}"));
                    }
                }
                Ok((status, reply)) => {
                    cycle_errors.push(format!("cycle {cycle}: got {status}, want {want}: {reply}"));
                }
                Err(e) => cycle_errors.push(format!("cycle {cycle}: {e}")),
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        stop.store(true, Ordering::SeqCst);
        cycle_errors
    });

    assert!(
        cycle_errors.is_empty(),
        "reload cycles misbehaved: {cycle_errors:?}"
    );
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "dropped client requests: {failures:?}");
    let completed = completed.load(Ordering::SeqCst);
    assert!(
        completed >= 8,
        "expected sustained client traffic, saw only {completed} requests"
    );

    // Generation accounting: 9 successful swaps on top of generation 1,
    // exactly one rejected reload.
    let (status, metrics) = raw_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&metrics).unwrap();
    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    assert_eq!(counter("serve.reload.ok"), 9.0, "{metrics}");
    assert_eq!(counter("serve.reload.failed"), 1.0, "{metrics}");
    let lifecycle = m.get("lifecycle").expect("lifecycle block");
    assert_eq!(
        lifecycle.get("generation").and_then(Json::as_f64),
        Some(10.0),
        "{metrics}"
    );

    // Drain: acknowledged, then the daemon refuses new work and the
    // whole process tree exits by itself — join() returning *is* the
    // assertion that drain reaches the acceptor and the workers.
    let (status, reply) = raw_request(admin, "POST", "/admin/drain", "");
    assert_eq!(status, 200, "{reply}");
    server.join();

    // Post-exit: the listener is really gone.
    assert!(
        TcpStream::connect(addr).is_err() || spec_request(addr).is_err(),
        "socket still serving after drain"
    );
}

#[test]
fn readyz_flips_to_503_under_shed_while_healthz_stays_200() {
    let (good, _) = model_dirs_in("rsg-serve-lifecycle-readyz");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    let registry = ModelRegistry::load(&good).expect("models load");
    let mut server = Server::spawn(&cfg, registry).expect("server boots");
    let addr = server.addr();

    let (status, _) = raw_request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);

    // Push the smoothed queue wait far over the shed threshold. The
    // probes must now disagree over the wire: liveness yes (the
    // process is fine), readiness no (it is refusing model work) —
    // and model endpoints are refused with an adaptive Retry-After.
    for _ in 0..64 {
        server.context().shed().observe_queue_wait(30.0);
    }
    let (live, _) = raw_request(addr, "GET", "/healthz", "");
    assert_eq!(live, 200);
    let (ready, body) = raw_request(addr, "GET", "/readyz", "");
    assert_eq!(ready, 503, "{body}");
    assert!(body.contains("shed"), "{body}");
    let err = spec_request(addr).expect_err("model work must be shed");
    assert!(err.contains("503"), "{err}");

    server.shutdown();
}

/// Like [`model_dirs`] but namespaced, so parallel tests don't race on
/// the same temp directory.
fn model_dirs_in(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(tag);
    let _ = std::fs::remove_dir_all(&base);
    let good = base.join("good");
    std::fs::create_dir_all(&good).unwrap();
    let model = tiny_size_model();
    rsg::core::store::write_atomic(
        &good.join("size_model.tsv"),
        rsg::core::persist::SIZE_MODEL_KIND,
        &model.to_tsv(),
    )
    .unwrap();
    (good, base)
}
