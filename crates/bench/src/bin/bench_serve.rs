//! Closed-loop load generator for `rsg-serve`.
//!
//! Boots an in-process server (ephemeral port, models trained inline
//! on the tiny observation grid so the run needs no files), then
//! drives it with N concurrent closed-loop clients — each client
//! holds exactly one request in flight: connect, POST `/spec` with
//! `Connection: close`, read the full response to EOF, repeat. It
//! measures the connection-per-request path on purpose; the server
//! keeps connections alive for clients that do not ask to close. Per-request wall latencies are recorded
//! client-side and reduced to exact (sorted-sample) percentiles, so
//! `p999` is a real observation, not a histogram bracket.
//!
//! Writes `BENCH_serve.json` with requests/s and p50/p99/p999 per
//! concurrency level. Pass `--quick` for the CI-scale run (fewer
//! requests, smaller levels); both modes sweep at least three levels.
//!
//! `--chaos` switches to the seeded socket-level fault-injection
//! harness ([`rsg_bench::chaostcp`]) instead of the load sweep:
//!
//! ```text
//! bench_serve --chaos [--seed N] [--deadline-s S]
//!             [--target HOST:PORT]          # external daemon (CI)
//!             [--admin HOST:PORT]           # reload-under-load cycle
//!             [--reload-dir DIR] [--drain]  # …with these models; then drain
//! ```
//!
//! Without `--target` it boots an in-process daemon. With `--admin`
//! it also runs (a) a reload-under-load cycle when `--reload-dir` is
//! given — concurrent `/spec` clients must see zero failures across
//! repeated `/admin/reload`s, including a deliberately bad model dir
//! that must roll back — and (b) the delta-stream fault scenarios
//! against `/admin/platform`: corrupt record, duplicate flood,
//! out-of-order burst, and deltas landing mid-reload, after which the
//! daemon must still be alive and fully convergent. With `--drain` it
//! finishes by draining the daemon. Exits nonzero on any contract
//! violation, which is what the CI chaos-smoke step keys off.

use rsg_bench::report::Table;
use rsg_core::curve::CurveConfig;
use rsg_core::heurmodel::HeuristicPredictionModel;
use rsg_core::observation::{measure, ObservationGrid};
use rsg_core::ThresholdedSizeModel;
use rsg_sched::HeuristicKind;
use rsg_serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The request every client sends: characteristics-only, so the
/// server exercises the full predict-and-render path without DAG
/// parsing dominating.
const BODY: &str = "{\"characteristics\": {\"size\": 200, \"ccr\": 0.2, \"parallelism\": 0.6, \
                    \"density\": 0.5, \"regularity\": 0.7, \"mean_comp\": 30}}";

struct Level {
    clients: usize,
    requests: usize,
    elapsed_s: f64,
    latencies_ms: Vec<f64>,
}

impl Level {
    fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed_s.max(1e-9)
    }

    /// Exact sample percentile (nearest-rank) over the sorted set.
    fn percentile_ms(&self, q: f64) -> f64 {
        let n = self.latencies_ms.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_ms[rank - 1]
    }
}

fn one_request(addr: SocketAddr) -> f64 {
    let started = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "POST /spec HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        BODY.len(),
        BODY
    )
    .expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    assert!(
        reply.starts_with("HTTP/1.1 200"),
        "non-200 under load: {}",
        reply.lines().next().unwrap_or("")
    );
    started.elapsed().as_secs_f64() * 1e3
}

fn run_level(addr: SocketAddr, clients: usize, requests: usize) -> Level {
    let per_client = requests / clients;
    let started = Instant::now();
    let lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|_| one_request(addr))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut latencies_ms = lat;
    latencies_ms.sort_by(f64::total_cmp);
    Level {
        clients,
        requests: clients * per_client,
        elapsed_s,
        latencies_ms,
    }
}

/// One `/spec` request that tolerates nothing: any non-200, short
/// read, or connect failure is returned as an error string.
fn checked_request(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "POST /spec HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        BODY.len(),
        BODY
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    s.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if reply.starts_with("HTTP/1.1 200") {
        Ok(())
    } else {
        Err(format!(
            "non-200: {}",
            reply.lines().next().unwrap_or("<empty>")
        ))
    }
}

/// POST to the admin surface; returns the status line.
fn admin_post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    admin_post_full(addr, path, body).map(|(status, _)| status)
}

/// POST to the admin surface; returns (status line, body).
fn admin_post_full(addr: SocketAddr, path: &str, body: &str) -> Result<(String, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect admin: {e}"))?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    s.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let status = reply.lines().next().unwrap_or("").to_string();
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// One price-change delta batch body (cheap: dirties no sweep cells,
/// so the scenarios stress the delta pipeline, not the kernel).
fn price_batch(seqs: &[u64]) -> String {
    let deltas: Vec<String> = seqs
        .iter()
        .map(|s| {
            format!(
                "{{\"seq\": {s}, \"delta\": \"price\\t0.{:02}\"}}",
                10 + s % 80
            )
        })
        .collect();
    format!("{{\"deltas\": [{}]}}", deltas.join(", "))
}

/// Delta-stream fault scenarios against a live daemon's
/// `/admin/platform`: a corrupt record (422, nothing applied), a
/// duplicate flood (idempotent), an out-of-order burst (parked then
/// drained), and deltas landing during `/admin/reload`s. The daemon
/// must stay alive and end fully convergent (lag 0). Assumes a fresh
/// daemon (delta sequence starts at 1). Returns violations.
fn delta_scenarios(addr: SocketAddr, admin: SocketAddr, reload_dir: Option<&str>) -> Vec<String> {
    let mut violations = Vec::new();
    fn check(
        violations: &mut Vec<String>,
        name: &str,
        got: Result<(String, String), String>,
        want: &str,
        body_has: &str,
    ) {
        match got {
            Ok((status, body)) if status.starts_with(want) && body.contains(body_has) => {}
            Ok((status, body)) => violations.push(format!(
                "{name}: got '{status}' body '{}', want '{want}' containing '{body_has}'",
                body.chars().take(200).collect::<String>()
            )),
            Err(e) => violations.push(format!("{name}: {e}")),
        }
    }

    // Corrupt record: refused wholesale, nothing applied.
    check(
        &mut violations,
        "corrupt-record",
        admin_post_full(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 1, \"delta\": \"price\\tNaN\"}]}",
        ),
        "HTTP/1.1 422",
        "DELTA",
    );

    // Duplicate flood: the same two records, many times over.
    check(
        &mut violations,
        "duplicate-flood-first",
        admin_post_full(admin, "/admin/platform", &price_batch(&[1, 2])),
        "HTTP/1.1 200",
        "\"applied\": 2",
    );
    for i in 0..10 {
        check(
            &mut violations,
            &format!("duplicate-flood-{i}"),
            admin_post_full(admin, "/admin/platform", &price_batch(&[1, 2])),
            "HTTP/1.1 200",
            "\"duplicates\": 2",
        );
    }

    // Out-of-order burst: 5 and 4 park, 3 drains the chain.
    check(
        &mut violations,
        "out-of-order-park",
        admin_post_full(admin, "/admin/platform", &price_batch(&[5, 4])),
        "HTTP/1.1 200",
        "\"parked\": 2",
    );
    check(
        &mut violations,
        "out-of-order-drain",
        admin_post_full(admin, "/admin/platform", &price_batch(&[3])),
        "HTTP/1.1 200",
        "\"resynced\": true",
    );

    // Deltas during reloads: both admin verbs interleaved must all
    // succeed, and the stream must stay contiguous.
    std::thread::scope(|scope| {
        let reloads = scope.spawn(|| {
            let mut local = Vec::new();
            if let Some(dir) = reload_dir {
                for i in 0..3 {
                    match admin_post(admin, "/admin/reload", &format!("{{\"dir\": \"{dir}\"}}")) {
                        Ok(status) if status.starts_with("HTTP/1.1 200") => {}
                        other => local.push(format!("delta-during-reload reload {i}: {other:?}")),
                    }
                }
            }
            local
        });
        for seq in 6..=10u64 {
            check(
                &mut violations,
                &format!("delta-during-reload-seq{seq}"),
                admin_post_full(admin, "/admin/platform", &price_batch(&[seq])),
                "HTTP/1.1 200",
                "\"applied\": 1",
            );
        }
        violations.extend(reloads.join().expect("reload thread"));
    });

    // Convergent and alive: lag 0 on the final stamp, /readyz green.
    check(
        &mut violations,
        "final-convergence",
        admin_post_full(admin, "/admin/platform", "{\"audit\": {\"sample\": 4}}"),
        "HTTP/1.1 200",
        "\"lag\": 0",
    );
    check(
        &mut violations,
        "final-audit-clean",
        admin_post_full(admin, "/admin/platform", "{\"audit\": {\"sample\": 4}}"),
        "HTTP/1.1 200",
        "\"divergent\": 0",
    );
    if let Err(e) = checked_request(addr) {
        violations.push(format!("daemon dead after delta scenarios: {e}"));
    }
    violations
}

/// Reload-under-load: concurrent `/spec` clients while `cycles`
/// reloads land (one of them a deliberately bad directory that must
/// roll back). Returns the list of violations.
fn reload_under_load(
    addr: SocketAddr,
    admin: SocketAddr,
    reload_dir: &str,
    cycles: usize,
) -> Vec<String> {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let failures = std::sync::Mutex::new(Vec::<String>::new());
    std::thread::scope(|scope| {
        for client in 0..4 {
            let stop = &stop;
            let failures = &failures;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    if let Err(e) = checked_request(addr) {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("client {client}: {e}"));
                    }
                }
            });
        }
        for cycle in 0..cycles {
            // Every third cycle aims at a bad directory: the reload
            // must fail with a 500 and the clients must never notice.
            let (dir, want) = if cycle % 3 == 2 {
                ("/nonexistent/rsg-chaos-models", "HTTP/1.1 500")
            } else {
                (reload_dir, "HTTP/1.1 200")
            };
            match admin_post(admin, "/admin/reload", &format!("{{\"dir\": \"{dir}\"}}")) {
                Ok(status) if status.starts_with(want) => {}
                Ok(status) => failures.lock().unwrap().push(format!(
                    "reload cycle {cycle}: got '{status}', want '{want}'"
                )),
                Err(e) => failures
                    .lock()
                    .unwrap()
                    .push(format!("reload cycle {cycle}: {e}")),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    failures.into_inner().unwrap()
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The `--chaos` entry point; returns the process exit code.
fn chaos_main() -> i32 {
    let seed = arg_value("--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FF_EE00);
    let deadline_s = arg_value("--deadline-s")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(2.0);
    let target = arg_value("--target");
    let admin = arg_value("--admin");
    let reload_dir = arg_value("--reload-dir");
    let drain = std::env::args().any(|a| a == "--drain");

    // Either drive an external daemon (CI) or boot one in-process.
    let mut local: Option<Server> = None;
    let addr: SocketAddr = match &target {
        Some(t) => t.parse().expect("bad --target address"),
        None => {
            eprintln!("bench_serve --chaos: training models (tiny grid)…");
            let tables = measure(
                &ObservationGrid::tiny(),
                &CurveConfig::default(),
                &rsg_core::THRESHOLD_LADDER,
                0,
            );
            let registry = ModelRegistry::from_models(
                ThresholdedSizeModel::fit(&tables),
                HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
            );
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                default_deadline_s: deadline_s,
                ..ServeConfig::default()
            };
            let server = Server::spawn(&cfg, registry).expect("spawn server");
            let a = server.addr();
            local = Some(server);
            a
        }
    };

    let chaos_cfg = rsg_bench::chaostcp::ChaosConfig {
        seed,
        deadline_hint_s: deadline_s,
        read_timeout_s: 15.0,
        connections_per_fault: 3,
    };
    eprintln!("bench_serve --chaos: seed {seed}, target {addr}, deadline hint {deadline_s}s");
    let report = match rsg_bench::chaostcp::run_chaos(addr, &chaos_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_serve --chaos: {e}");
            return 1;
        }
    };
    eprint!("{}", report.render());
    let mut failed = !report.passed();

    if let Some(admin) = &admin {
        let admin: SocketAddr = admin.parse().expect("bad --admin address");
        if let Some(dir) = &reload_dir {
            eprintln!("bench_serve --chaos: reload-under-load cycle against {admin}…");
            let violations = reload_under_load(addr, admin, dir, 6);
            if violations.is_empty() {
                eprintln!("  ok   reload-under-load       6 cycle(s), zero dropped requests");
            } else {
                failed = true;
                eprintln!("  FAIL reload-under-load");
                for v in &violations {
                    eprintln!("       - {v}");
                }
            }
        }
        eprintln!("bench_serve --chaos: delta-stream scenarios against {admin}…");
        let violations = delta_scenarios(addr, admin, reload_dir.as_deref());
        if violations.is_empty() {
            eprintln!(
                "  ok   delta-stream           corrupt / duplicate-flood / out-of-order / \
                 reload-interleave, convergent"
            );
        } else {
            failed = true;
            eprintln!("  FAIL delta-stream");
            for v in &violations {
                eprintln!("       - {v}");
            }
        }
        if drain {
            match admin_post(admin, "/admin/drain", "") {
                Ok(status) if status.starts_with("HTTP/1.1 200") => {
                    eprintln!("  ok   drain acknowledged");
                }
                other => {
                    failed = true;
                    eprintln!("  FAIL drain: {other:?}");
                }
            }
        }
    }

    if let Some(mut server) = local {
        server.shutdown();
    }
    if failed {
        eprintln!("bench_serve --chaos: FAILED (seed {seed})");
        1
    } else {
        eprintln!("bench_serve --chaos: passed (seed {seed})");
        0
    }
}

fn main() {
    if std::env::args().any(|a| a == "--chaos") {
        std::process::exit(chaos_main());
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let (levels, per_level): (&[usize], usize) = if quick {
        (&[1, 2, 4], 60)
    } else {
        (&[1, 4, 16], 480)
    };

    eprintln!("bench_serve: training models (tiny grid)…");
    let tables = measure(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &rsg_core::THRESHOLD_LADDER,
        0,
    );
    let registry = ModelRegistry::from_models(
        ThresholdedSizeModel::fit(&tables),
        HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
    );
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut server = Server::spawn(&cfg, registry).expect("spawn server");
    let addr = server.addr();

    let mut table = Table::new(vec![
        "clients", "requests", "req/s", "p50 ms", "p99 ms", "p999 ms",
    ]);
    let mut results: Vec<Level> = Vec::new();
    for &clients in levels {
        // A short warmup level fills the platform/model caches so the
        // measured window sees steady state.
        let _ = run_level(addr, clients, clients * 4);
        let level = run_level(addr, clients, per_level.max(clients));
        table.row(vec![
            level.clients.to_string(),
            level.requests.to_string(),
            format!("{:.0}", level.requests_per_s()),
            format!("{:.2}", level.percentile_ms(0.50)),
            format!("{:.2}", level.percentile_ms(0.99)),
            format!("{:.2}", level.percentile_ms(0.999)),
        ]);
        results.push(level);
    }
    server.shutdown();

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"rsg-serve closed-loop load\",\n");
    j.push_str("  \"schema\": \"rsg-bench-serve/v1\",\n");
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    j.push_str("  \"endpoint\": \"/spec\",\n");
    j.push_str(&format!(
        "  \"server\": {{\"workers\": {}, \"queue_depth\": {}, \"default_deadline_s\": {}}},\n",
        cfg.workers, cfg.queue_depth, cfg.default_deadline_s
    ));
    j.push_str("  \"levels\": [\n");
    for (i, l) in results.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"elapsed_s\": {:.3}, \
             \"requests_per_s\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"max_ms\": {:.3}}}{}\n",
            l.clients,
            l.requests,
            l.elapsed_s,
            l.requests_per_s(),
            l.percentile_ms(0.50),
            l.percentile_ms(0.99),
            l.percentile_ms(0.999),
            l.latencies_ms.last().copied().unwrap_or(0.0),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &j).expect("failed to write BENCH_serve.json");

    table.print("rsg-serve closed-loop load");
    eprintln!(
        "bench_serve: wrote BENCH_serve.json ({} levels{})",
        results.len(),
        if quick { ", quick mode" } else { "" }
    );
}
