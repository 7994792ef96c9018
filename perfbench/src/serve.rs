//! The serve workloads, run against a child `rsg serve --models models`
//! process with its default configuration (only the listen addresses
//! are chosen, so ports never collide):
//!
//! * `spec-light` — a closed loop of 2 client connections posting
//!   characteristics-only `/spec` bodies. The handler is cheap, so
//!   connect, accept, the hand-off to a worker and HTTP framing
//!   dominate.
//! * `spec-dag-live` — one closed-loop client posting full-DAG `/spec`
//!   bodies (one in four negotiating) beside one open-loop producer
//!   posting delta batches to `/admin/platform` on a fixed schedule,
//!   one batch in four aimed at the clusters the sweep cells use.
//!
//! Every answer is checked against the in-process answer to the same
//! body, computed before the timed window (answers do not depend on
//! deltas: negotiation binds against the static serving platform).

use crate::client::{Client, Reply};
use crate::inputs::{self, batch_body};
use crate::replay::{self, spec_request};
use crate::trace::Tracer;
use crate::{cpu_seconds, mean, peak_rss_mb, percentile, Opts, Outcome};
use rsg_obs::json::Json;
use rsg_platform::delta::PlatformDelta;
use rsg_serve::{Deadline, ModelRegistry, ServerContext};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct generated bodies per workload (cycled in order).
const LIGHT_BODIES: usize = 512;
const DAG_BODIES: usize = 128;
/// Delta batches per second the producer schedules.
const DELTA_RATE: f64 = 4.0;

/// A spawned daemon; dropped means killed and reaped.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    admin: SocketAddr,
}

impl Daemon {
    fn spawn(rsg: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(rsg)
            .args(["serve", "--models", "models"])
            .args(["--addr", "127.0.0.1:0", "--admin-addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", rsg.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (mut addr, mut admin) = (None, None);
        let mut line = String::new();
        while addr.is_none() || admin.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("rsg serve exited before announcing its addresses".into());
            }
            let parse = |l: &str| -> Option<SocketAddr> {
                l.split("http://")
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            };
            if line.starts_with("rsg-serve listening on") {
                addr = parse(&line);
            } else if line.starts_with("admin surface on") {
                admin = parse(&line);
            }
        }
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr: addr.expect("checked"),
            admin: admin.expect("checked"),
        })
    }

    fn wait_ready(&self) -> Result<(), String> {
        let until = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(r) = Client::new(self.addr).request("GET", "/readyz", "") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() > until {
                return Err("daemon not ready after 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The answer fields every `/spec` 200 must reproduce exactly.
#[derive(PartialEq, Debug)]
struct Answer {
    fields: Vec<Option<Json>>,
}

const ANSWER_FIELDS: [&str; 4] = ["summary", "rc_size", "renderings", "negotiation"];

impl Answer {
    fn of(body: &str) -> Option<Answer> {
        let v = Json::parse(body).ok()?;
        Some(Answer {
            fields: ANSWER_FIELDS.iter().map(|k| v.get(k).cloned()).collect(),
        })
    }
}

/// The expected answer to one body: its exact bytes up to `"meta"`
/// (a fast path — the same code formats both) and the parsed fields.
struct Expected {
    prefix: String,
    answer: Answer,
    /// `negotiation.attempts` and `negotiation.bound`, when negotiated.
    negotiation: Option<(u64, bool)>,
}

fn answer_prefix(body: &str) -> &str {
    body.find(", \"meta\": ").map_or(body, |i| &body[..i])
}

fn expected(ctx: &ServerContext, bodies: &[String]) -> Result<Vec<Expected>, String> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let resp = rsg_serve::handlers::handle(ctx, &spec_request(b), &Deadline::start(30.0));
            if resp.status != 200 {
                return Err(format!(
                    "in-process answer to body {i} is {}: {}",
                    resp.status, resp.body
                ));
            }
            let answer = Answer::of(&resp.body).ok_or("in-process answer is not JSON")?;
            let negotiation = answer.fields[3].as_ref().map(|n| {
                (
                    n.get("attempts").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    matches!(n.get("bound"), Some(Json::Bool(true))),
                )
            });
            Ok(Expected {
                prefix: answer_prefix(&resp.body).to_string(),
                answer,
                negotiation,
            })
        })
        .collect()
}

/// Why a `/spec` exchange failed, or `None` when it is correct.
fn check_spec(reply: &Reply, want: &Expected) -> Option<String> {
    if reply.status != 200 {
        let first = reply.body.chars().take(160).collect::<String>();
        return Some(format!("status {}: {first}", reply.status));
    }
    if answer_prefix(&reply.body) == want.prefix {
        return None;
    }
    match Answer::of(&reply.body) {
        Some(a) if a == want.answer => None,
        Some(_) => Some("answer differs from the in-process answer".into()),
        None => Some("answer is not JSON".into()),
    }
}

/// `meta.staleness.applied_seq` of an answer.
fn applied_seq(body: &str) -> Option<u64> {
    let meta = body.rfind("\"meta\": ")?;
    let rest = &body[meta..];
    let at = rest.find("\"applied_seq\": ")? + "\"applied_seq\": ".len();
    let digits: String = rest[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// What one closed-loop client saw in the window.
#[derive(Default)]
struct Reads {
    /// `(completion time since the window opened, latency)` of every
    /// correct answer, seconds and milliseconds.
    answers: Vec<(f64, f64)>,
    attempted: u64,
    ok: u64,
    failures: Vec<String>,
    rejected: u64,
    connects: u64,
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    t0: Instant,
    bodies: &[String],
    want: &[Expected],
    start_at: usize,
    step: usize,
    end: Instant,
    check_seq: bool,
) -> Reads {
    let mut client = Client::new(addr);
    let mut r = Reads::default();
    let mut last_seq = 0u64;
    let mut k = start_at;
    while Instant::now() < end {
        let i = k % bodies.len();
        k += step;
        r.attempted += 1;
        match client.request("POST", "/spec", &bodies[i]) {
            Ok(reply) => {
                if matches!(reply.status, 503 | 504) {
                    r.rejected += 1;
                }
                let mut bad = check_spec(&reply, &want[i]);
                if check_seq && bad.is_none() {
                    match applied_seq(&reply.body) {
                        Some(s) if s >= last_seq => last_seq = s,
                        Some(s) => {
                            bad = Some(format!("applied_seq went back from {last_seq} to {s}"))
                        }
                        None => bad = Some("answer carries no meta.staleness.applied_seq".into()),
                    }
                }
                match bad {
                    None => {
                        r.ok += 1;
                        r.answers
                            .push((t0.elapsed().as_secs_f64(), reply.latency_s * 1e3));
                    }
                    Some(why) => r.failures.push(format!("/spec body {i}: {why}")),
                }
            }
            Err(e) => r.failures.push(format!("/spec body {i}: {e}")),
        }
        if r.failures.len() >= 1000 {
            break; // the daemon is gone or broken; the run has failed
        }
    }
    r.connects = client.connects;
    r
}

/// What the open-loop delta producer saw.
#[derive(Default)]
struct Writes {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    recomputed: u64,
    last_seq: u64,
    sent: usize,
}

/// Posts `batches[k]` at `t0 + k / DELTA_RATE` until the window ends,
/// timing each from its scheduled send time, not its actual one.
fn open_loop(
    admin: SocketAddr,
    batches: &[Vec<(u64, PlatformDelta)>],
    t0: Instant,
    end: Instant,
) -> Writes {
    let mut client = Client::new(admin);
    let mut w = Writes::default();
    for (k, batch) in batches.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(k as f64 / DELTA_RATE);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        w.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        w.attempted += 1;
        w.sent = k + 1;
        let want_seq = batch.last().map_or(0, |b| b.0);
        match client.request("POST", "/admin/platform", &batch_body(batch)) {
            Ok(reply) => {
                let done_ms = due.elapsed().as_secs_f64() * 1e3;
                match check_batch(&reply, batch.len(), want_seq) {
                    Ok(recomputed) => {
                        w.recomputed += recomputed;
                        w.last_seq = want_seq;
                        w.latencies_ms.push(done_ms);
                    }
                    Err(why) => w.failures.push(format!("delta batch {k}: {why}")),
                }
            }
            Err(e) => w.failures.push(format!("delta batch {k}: {e}")),
        }
    }
    w
}

/// Checks an `/admin/platform` answer: every record applied, nothing
/// parked or refused, no lag; returns the cells recomputed.
fn check_batch(reply: &Reply, records: usize, want_seq: u64) -> Result<u64, String> {
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let v = Json::parse(&reply.body).map_err(|e| format!("not JSON: {e}"))?;
    let n = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    let st = |k: &str| {
        v.get("staleness")
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };
    if n("applied") != records as f64 || n("parked") != 0.0 || n("rejected") != 0.0 {
        return Err(format!("not applied cleanly: {}", reply.body));
    }
    if st("applied_seq") != want_seq as f64 || st("lag") != 0.0 {
        return Err(format!("staleness after apply: {}", reply.body));
    }
    if let Some(a) = v.get("auto_audit") {
        if a.get("divergent").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("auto audit found divergence: {}", reply.body));
        }
    }
    Ok(n("recomputed").max(0.0) as u64)
}

/// `/metrics` counters and histogram `(count, sum_s)` pairs.
struct Scrape {
    counters: BTreeMap<String, f64>,
    hists: BTreeMap<String, (f64, f64)>,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = Client::new(addr).request("GET", "/metrics", "")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    let v = Json::parse(&reply.body).map_err(|e| format!("/metrics: {e}"))?;
    let mut counters = BTreeMap::new();
    for (k, c) in v.get("counters").and_then(Json::as_object).unwrap_or(&[]) {
        counters.insert(k.clone(), c.as_f64().unwrap_or(0.0));
    }
    let mut hists = BTreeMap::new();
    for (k, h) in v.get("histograms").and_then(Json::as_object).unwrap_or(&[]) {
        let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        let mean = h.get("mean_s").and_then(Json::as_f64).unwrap_or(0.0);
        hists.insert(k.clone(), (count, mean * count));
    }
    Ok(Scrape { counters, hists })
}

impl Scrape {
    fn counter_diff(&self, before: &Scrape, k: &str) -> f64 {
        self.counters.get(k).unwrap_or(&0.0) - before.counters.get(k).unwrap_or(&0.0)
    }

    /// Window mean of a histogram, ms.
    fn mean_ms(&self, before: &Scrape, k: &str) -> f64 {
        let (c1, s1) = self.hists.get(k).copied().unwrap_or((0.0, 0.0));
        let (c0, s0) = before.hists.get(k).copied().unwrap_or((0.0, 0.0));
        if c1 > c0 {
            (s1 - s0) / (c1 - c0) * 1e3
        } else {
            0.0
        }
    }
}

/// One set-up: spawn, wait for `/readyz`, and warm up by sending every
/// distinct body once — so every lazily built structure (the
/// negotiation platform, say) exists and nothing is cold when the
/// window opens — and, live, posting the first delta batch, which pays
/// the push tracker's initial sweep.
fn set_up(
    opts: &Opts,
    bodies: &[String],
    want: &[Expected],
    live: bool,
) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&opts.rsg)?;
    daemon.wait_ready()?;
    // The warm-up uses the window's clients, so the machine is as busy
    // as it will be: a lone client leaves a vCPU idle, and waking it
    // costs a hypervisor round trip that made set-up times bimodal.
    let clients = if live { 1 } else { 2 };
    std::thread::scope(|s| {
        let warm = |c: usize| -> Result<(), String> {
            let mut client = Client::new(daemon.addr);
            for i in (c..bodies.len()).step_by(clients) {
                let reply = client
                    .request("POST", "/spec", &bodies[i])
                    .map_err(|e| format!("warm-up /spec: {e}"))?;
                if let Some(why) = check_spec(&reply, &want[i]) {
                    return Err(format!("warm-up /spec body {i}: {why}"));
                }
            }
            Ok(())
        };
        let others: Vec<_> = (1..clients).map(|c| s.spawn(move || warm(c))).collect();
        let mine = warm(0);
        others
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .chain([mine])
            .collect::<Result<(), String>>()
    })?;
    if live {
        let warm = inputs::warmup_batch();
        let reply = Client::new(daemon.admin)
            .request("POST", "/admin/platform", &batch_body(&warm))
            .map_err(|e| format!("warm-up delta: {e}"))?;
        check_batch(&reply, warm.len(), 1).map_err(|e| format!("warm-up delta: {e}"))?;
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let live = opts.workload == "spec-dag-live";
    let prep = Instant::now();
    let registry = ModelRegistry::load(Path::new("models")).map_err(|e| format!("models: {e}"))?;
    let generator = rsg_core::specgen::SpecGenerator::new(
        registry.size_model.clone(),
        registry.heuristic_model.clone(),
    );
    let ctx = ServerContext::new(registry, 30.0);
    let bodies = if live {
        inputs::dag_bodies(opts.seed, DAG_BODIES)
    } else {
        inputs::light_bodies(opts.seed, LIGHT_BODIES)
    };
    let want = expected(&ctx, &bodies)?;
    let batches = if live {
        inputs::delta_batches(opts.seed, (opts.seconds * DELTA_RATE).ceil() as usize + 4)
    } else {
        Vec::new()
    };

    eprintln!(
        "perfbench: {} bodies, expected answers and {} delta batches built in {:.2} s",
        bodies.len(),
        batches.len(),
        prep.elapsed().as_secs_f64()
    );
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let (d, s) = set_up(opts, &bodies, &want, live)?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let before = scrape(daemon.addr)?;
    let cpu_before = cpu_seconds(&daemon.pid());
    let t0 = Instant::now();
    let end = t0 + opts.window();
    let (reads, writes) = std::thread::scope(|s| {
        if live {
            let w = s.spawn(|| open_loop(daemon.admin, &batches, t0, end));
            let r = closed_loop(daemon.addr, t0, &bodies, &want, 0, 1, end, true);
            (vec![r], Some(w.join().expect("delta producer")))
        } else {
            let other = s.spawn(|| closed_loop(daemon.addr, t0, &bodies, &want, 1, 2, end, false));
            let r = closed_loop(daemon.addr, t0, &bodies, &want, 0, 2, end, false);
            (vec![r, other.join().expect("client")], None)
        }
    });
    let cpu_s = cpu_seconds(&daemon.pid())
        .zip(cpu_before)
        .map_or(0.0, |(a, b)| a - b);
    let after = scrape(daemon.addr)?;

    let answers: Vec<(f64, f64)> = reads
        .iter()
        .flat_map(|r| r.answers.iter().copied())
        .collect();
    let attempted: u64 = reads.iter().map(|r| r.attempted).sum();
    let ok: u64 = reads.iter().map(|r| r.ok).sum();
    let connects: u64 = reads.iter().map(|r| r.connects).sum();
    let rejected: u64 = reads.iter().map(|r| r.rejected).sum();
    out.attempted = attempted;
    for f in reads.iter().flat_map(|r| r.failures.iter()) {
        out.violation(f.clone());
    }

    // The server's own counts must match the client's.
    let spec_seen = after.counter_diff(&before, "serve.requests.spec");
    if spec_seen != attempted as f64 {
        out.violation(format!(
            "server counted {spec_seen} /spec requests, client sent {attempted}"
        ));
    }
    let accepted = after.counter_diff(&before, "serve.accepted");
    if accepted != (connects + 1) as f64 {
        out.violation(format!(
            "server accepted {accepted} connections, client made {connects} (+1 scrape)"
        ));
    }

    if let Some(w) = &writes {
        out.attempted += w.attempted;
        for f in &w.failures {
            out.violation(f.clone());
        }
        // Final audit: every cell checked from scratch, nothing lagging.
        out.attempted += 1;
        let body = format!(
            "{{\"audit\": {{\"sample\": 1000, \"salt\": {}}}}}",
            opts.seed % 1_000_000
        );
        match Client::new(daemon.admin).request("POST", "/admin/platform", &body) {
            Ok(r) => {
                let v = Json::parse(&r.body).ok();
                let get = |a: &str, b: &str| {
                    v.as_ref()
                        .and_then(|v| v.get(a))
                        .and_then(|x| x.get(b))
                        .and_then(Json::as_f64)
                };
                if r.status != 200
                    || get("audit", "divergent") != Some(0.0)
                    || get("staleness", "lag") != Some(0.0)
                    || get("staleness", "applied_seq") != Some(w.last_seq.max(1) as f64)
                {
                    out.violation(format!("final audit: {} {}", r.status, r.body));
                }
            }
            Err(e) => out.violation(format!("final audit: {e}")),
        }
    }
    let rss = peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    drop(daemon);

    let n = answers.len();
    let (p50, p90, rps) = by_pass(&answers, bodies.len());
    let client_mean = mean(&answers.iter().map(|a| a.1).collect::<Vec<f64>>());
    if !opts.trace {
        out.put("setup_s", percentile(&mut setups, 0.5), "s", SETUPS);
        out.put("op_p50_ms", p50, "ms", n);
        out.put("cpu_ms_per_op", cpu_s * 1e3 / n.max(1) as f64, "ms", n);
        out.put("peak_rss_mb", rss, "MB", 1);
    }
    out.detail("spec_rps", rps, "1/s", n);
    out.detail("spec_p50_ms", p50, "ms", n);
    out.detail("spec_p90_ms", p90, "ms", n);

    let layer = |out: &mut Outcome, name: &'static str, v: f64, unit: &'static str, n: usize| {
        if opts.trace {
            out.put(name, v, unit, n);
        } else {
            out.detail(name, v, unit, n);
        }
    };
    let request_ms = after.mean_ms(&before, "serve.latency.request");
    let handler_ms = after.mean_ms(&before, "serve.latency.handler");
    layer(
        &mut out,
        "serve.connects_per_req",
        connects as f64 / attempted.max(1) as f64,
        "1",
        attempted as usize,
    );
    layer(
        &mut out,
        "serve.queue_wait_ms",
        after.mean_ms(&before, "serve.latency.queue_wait"),
        "ms",
        n,
    );
    layer(&mut out, "serve.handler_ms", handler_ms, "ms", n);
    layer(&mut out, "serve.request_ms", request_ms, "ms", n);
    layer(
        &mut out,
        "serve.outside_ms",
        client_mean - request_ms,
        "ms",
        n,
    );
    layer(
        &mut out,
        "serve.transport_share",
        1.0 - handler_ms / client_mean.max(1e-12),
        "1",
        n,
    );
    layer(
        &mut out,
        "serve.rejected",
        rejected as f64,
        "count",
        attempted as usize,
    );

    let mut pushed: Vec<Vec<(u64, PlatformDelta)>> = Vec::new();
    if let Some(w) = &writes {
        let mut dl = w.latencies_ms.clone();
        let mut late = w.late_ms.clone();
        let k = dl.len();
        let (d50, d90) = (percentile(&mut dl, 0.5), percentile(&mut dl, 0.9));
        out.detail("delta_p50_ms", d50, "ms", k);
        out.detail("delta_p90_ms", d90, "ms", k);
        layer(&mut out, "delta.p50_ms", d50, "ms", k);
        layer(&mut out, "delta.p90_ms", d90, "ms", k);
        layer(
            &mut out,
            "delta.gen_late_ms",
            percentile(&mut late, 1.0),
            "ms",
            late.len(),
        );
        layer(
            &mut out,
            "push.cells_recomputed",
            w.recomputed as f64,
            "count",
            k,
        );
        pushed.push(inputs::warmup_batch());
        pushed.extend(batches.iter().take(w.sent).cloned());
    }
    eprintln!(
        "perfbench: {}: {ok}/{attempted} answers ({rps:.1}/s), p50 {p50:.3} ms, \
         p90 {p90:.3} ms, server request mean {request_ms:.3} ms, {connects} connects, set-up {:.3} s",
        opts.workload,
        percentile(&mut setups, 0.5)
    );

    if opts.trace {
        traced(
            opts,
            &ctx,
            &generator,
            &bodies,
            &want,
            &pushed,
            writes.as_ref(),
            &mut out,
        );
    }
    Ok(out)
}

/// Latency p50, p90 and answers per second of a window, each the median
/// over the window's passes of that pass's value. A pass is one run
/// through the body pool (`pool` consecutive answers), so every pass
/// carries the same mix of bodies; CPU time stolen from the machine by
/// other tenants arrives in bursts, and a burst spoils a few passes
/// rather than the run's figures.
fn by_pass(answers: &[(f64, f64)], pool: usize) -> (f64, f64, f64) {
    let mut done: Vec<(f64, f64)> = answers.to_vec();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_end = 0.0;
    // A window too short for one whole pass is reported as one pass.
    for pass in done.chunks_exact(pool.min(done.len()).max(1)) {
        let end = pass[pass.len() - 1].0;
        rate.push(pass.len() as f64 / (end - prev_end).max(1e-9));
        prev_end = end;
        let mut lat: Vec<f64> = pass.iter().map(|a| a.1).collect();
        p50.push(percentile(&mut lat, 0.5));
        p90.push(percentile(&mut lat, 0.9));
    }
    (
        percentile(&mut p50, 0.5),
        percentile(&mut p90, 0.5),
        percentile(&mut rate, 0.5),
    )
}

/// The traced half of a serve run: replays the same bodies (and delta
/// stream) in-process through each layer, with and without spans.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    ctx: &ServerContext,
    generator: &rsg_core::specgen::SpecGenerator,
    bodies: &[String],
    want: &[Expected],
    pushed: &[Vec<(u64, PlatformDelta)>],
    writes: Option<&Writes>,
    out: &mut Outcome,
) {
    let platform = inputs::serving_platform();
    // Enough passes over the bodies for about a second of replay, so
    // per-layer means and the tracing overhead rest on more than noise.
    let probe = Instant::now();
    let _ = replay::replay_spec(ctx, generator, &platform, bodies, &mut Tracer::new(false));
    let passes = (1.0 / probe.elapsed().as_secs_f64())
        .ceil()
        .clamp(1.0, 64.0) as usize;
    let run = |tr: &mut Tracer| -> (f64, replay::SpecCounts) {
        let started = Instant::now();
        let mut counts = replay::SpecCounts::default();
        for _ in 0..passes {
            counts = replay::replay_spec(ctx, generator, &platform, bodies, tr);
        }
        (started.elapsed().as_secs_f64(), counts)
    };
    let mut off = Tracer::new(false);
    let (mut untraced_s, _) = run(&mut off);
    let mut off_push = Tracer::new(false);
    let push_untraced = Instant::now();
    if writes.is_some() {
        let _ = replay::replay_push(platform.clone(), pushed, &mut off_push);
    }
    untraced_s += push_untraced.elapsed().as_secs_f64();

    // The traced passes also switch on the program's own counters,
    // which is how scheduling work inside `alternatives` and the push
    // engine's recompute is counted; their cost is tracing overhead.
    rsg_obs::enable(true);
    let sched_before = sched_counts();
    let mut tr = Tracer::new(true);
    let (mut traced_s, counts) = run(&mut tr);
    let mut ptr = Tracer::new(true);
    let push_traced = Instant::now();
    let push = writes.map(|_| replay::replay_push(platform.clone(), pushed, &mut ptr));
    traced_s += push_traced.elapsed().as_secs_f64();
    let sched_after = sched_counts();
    rsg_obs::enable(false);

    let selfs = tr.self_times();
    let nb = bodies.len();
    let per_req = |k: &str| selfs.get(k).map_or(0.0, |v| v.0) * 1e3 / (nb * passes) as f64;
    let layers = [
        ("obs.json_parse", "obs.json_parse_ms"),
        ("analyze.lint", "analyze.lint_ms"),
        ("dag.parse", "dag.parse_ms"),
        ("dag.stats", "dag.stats_ms"),
        ("core.specgen", "core.specgen_ms"),
        ("select.render", "select.render_ms"),
        ("select.find", "select.find_ms"),
        ("core.alternative", "core.alternative_ms"),
        ("core.negotiate", "core.negotiate_ms"),
    ];
    let mut staged = 0.0;
    for (span, metric) in layers {
        staged += per_req(span);
        out.put(metric, per_req(span), "ms", nb);
    }
    let handle_ms = per_req("serve.handle");
    out.put("serve.handle_ms", handle_ms, "ms", nb);
    out.put("handlers.unattributed_ms", handle_ms - staged, "ms", nb);
    // Lint + parse share of the handler on non-negotiated requests.
    let plain: Vec<usize> = (0..nb).filter(|&i| want[i].negotiation.is_none()).collect();
    let mut by_id: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    for (name, id, secs) in tr.spans() {
        *by_id.entry((name, id)).or_insert(0.0) += secs;
    }
    let sum_over = |name: &str| -> f64 {
        plain
            .iter()
            .map(|&i| by_id.get(&(name, i as u64)).copied().unwrap_or(0.0))
            .sum()
    };
    let plain_handle = sum_over("serve.handle");
    out.put(
        "handlers.lint_parse_share",
        (sum_over("analyze.lint") + sum_over("dag.parse")) / plain_handle.max(1e-12),
        "1",
        plain.len(),
    );
    let bound: u64 = want
        .iter()
        .filter_map(|w| w.negotiation)
        .filter(|n| n.1)
        .count() as u64;
    let attempts: u64 = want.iter().filter_map(|w| w.negotiation).map(|n| n.0).sum();
    if counts.attempts != attempts || counts.bound != bound {
        out.violation(format!(
            "staged replay negotiated {} attempts / {} bound, the handler {attempts} / {bound}",
            counts.attempts, counts.bound
        ));
    }
    out.put(
        "select.attempts_per_bind",
        attempts as f64 / bound.max(1) as f64,
        "1",
        bound as usize,
    );
    out.put(
        "sched.evaluations",
        sched_after.0 - sched_before.0,
        "count",
        nb,
    );
    out.put("sched.evaluate_s", sched_after.1 - sched_before.1, "s", nb);
    out.put(
        "sched.us_per_evaluation",
        (sched_after.1 - sched_before.1) * 1e6 / (sched_after.0 - sched_before.0).max(1.0),
        "us",
        nb,
    );

    if let (Some(w), Some(p)) = (writes, push) {
        if !p.converged {
            out.violation(
                "push replay: incremental tables differ from a from-scratch sweep".into(),
            );
        }
        // Same stream, same engine: the daemon must have recomputed
        // exactly the cells the replay did (warm-up batch excluded).
        let replayed: u64 = p.recomputed.iter().skip(1).sum();
        if replayed != w.recomputed {
            out.violation(format!(
                "daemon recomputed {} cells, the in-process replay {replayed}",
                w.recomputed
            ));
        }
        let mut apply = p.apply_ms.clone();
        let k = apply.len();
        out.put("push.apply_p50_ms", percentile(&mut apply, 0.5), "ms", k);
        out.put("push.apply_p90_ms", percentile(&mut apply, 0.9), "ms", k);
        let batches = pushed.len().saturating_sub(1).max(1);
        out.put(
            "push.recompute_ratio",
            w.recomputed as f64 / (batches * p.cells) as f64,
            "1",
            batches,
        );
        out.put("push.full_resweep_ms", p.full_resweep_ms, "ms", 1);
        let pselfs = ptr.self_times();
        let lint = pselfs.get("analyze.delta_lint").map_or(0.0, |v| v.0);
        out.put(
            "analyze.delta_lint_ms",
            lint * 1e3 / k.max(1) as f64,
            "ms",
            k,
        );
        ptr.write_out(&format!("{}-push-{}.tsv", opts.workload, opts.seed));
    }
    out.put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "1", 1);
    tr.write_out(&format!("{}-{}.tsv", opts.workload, opts.seed));
    eprintln!(
        "perfbench: {} traced: handle {handle_ms:.4} ms/request, stages {staged:.4} ms, \
         unattributed {:.4} ms; replay {traced_s:.3} s traced / {untraced_s:.3} s untraced",
        opts.workload,
        handle_ms - staged
    );
}

/// `(schedules evaluated, seconds spent scheduling)` from the
/// scheduler's own counters, summed over heuristics.
fn sched_counts() -> (f64, f64) {
    let r = rsg_obs::RunReport::capture();
    let evals = r
        .counters
        .iter()
        .find(|(n, _)| n == "sched.schedules_evaluated")
        .map_or(0.0, |c| c.1 as f64);
    let secs = r
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("sched.wall."))
        .map(|h| h.sum_ns as f64 / 1e9)
        .sum();
    (evals, secs)
}
