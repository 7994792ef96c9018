//! The serving loop: acceptor, bounded admission queue, worker pool,
//! and the loopback-only admin surface.
//!
//! One acceptor thread stamps each accepted connection with a
//! [`Deadline`] and pushes it onto a bounded queue
//! (`std::sync::mpsc::sync_channel`), counting it in a backlog gauge
//! (queued connections minus workers free to take them). When the
//! queue is full — or the process is draining — the acceptor answers
//! a canned 503 with `Retry-After` itself — admission control happens
//! *before* a worker is tied up. Workers pull
//! connections off the shared queue, re-check the deadline (a request
//! may have spent its whole budget queued), parse under that deadline
//! (so a slowloris drip gets a 408, not a held worker), handle,
//! respond and feed the shed EWMAs.
//!
//! Public connections are persistent (HTTP/1.1 keep-alive): a worker
//! serves one connection's requests in a loop, each under its own
//! deadline — the first stamped at accept, the rest at their first
//! byte. It closes the connection when the client asks to, when
//! framing is lost (any read error or a caught panic), when the server
//! is draining or stopping or a queued connection has no free worker
//! (checked after every response and every read slice while the
//! connection sits idle), or when the idle budget is spent. Only one
//! worker yields per such connection: it claims the yield by
//! decrementing the backlog gauge. A kept-alive client, busy or idle,
//! therefore never holds a worker that queued work needs, but a new
//! connection can wait up to one read slice (20 ms) when idle
//! kept-alive clients hold every worker. Per-connection accounting
//! (`serve.accepted`, the lifecycle's admit/finish pair, the queue-wait
//! histogram) is separate from per-request accounting (request
//! latency, status classes, service time, panic isolation, and the
//! shed state's queue-wait average, which a request on a reused
//! connection feeds with its true queue wait of zero).
//!
//! The optional admin listener binds a **loopback-only** address and
//! speaks two verbs: `POST /admin/reload` (hot model swap with
//! rollback) and `POST /admin/drain` (stop admissions, finish what is
//! in flight, then exit through the same cooperative shutdown the stop
//! flag drives). It answers one request per connection, on its single
//! thread. Shutdown is cooperative: flip the stop flag, then poke the
//! listeners with a self-connection so `accept()` returns.

use crate::deadline::Deadline;
use crate::handlers::{self, ServerContext};
use crate::http::{
    fill, read_request, read_request_buffered, write_response, HttpError, HttpRequest,
};
use crate::registry::ModelRegistry;
use rsg_obs::{Counter, TimingHistogram};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

static ACCEPTED: Counter = Counter::new("serve.accepted");
static ACCEPT_ERRORS: Counter = Counter::new("serve.accept_errors");
static WORKER_PANICS: Counter = Counter::new("serve.panics");
static REJECTED_QUEUE_FULL: Counter = Counter::new("serve.rejected.queue_full");
static REJECTED_DRAINING: Counter = Counter::new("serve.rejected.draining");
static RESP_OK: Counter = Counter::new("serve.responses.ok");
static RESP_CLIENT_ERROR: Counter = Counter::new("serve.responses.client_error");
static RESP_SERVER_ERROR: Counter = Counter::new("serve.responses.server_error");
static QUEUE_WAIT: TimingHistogram = TimingHistogram::new("serve.latency.queue_wait");
static REQUEST_LATENCY: TimingHistogram = TimingHistogram::new("serve.latency.request");
static KEEPALIVE_REUSED: Counter = Counter::new("serve.keepalive.reused");
static KEEPALIVE_YIELDED: Counter = Counter::new("serve.keepalive.yielded");

/// Largest accepted admin request body (a reload body is one short
/// path; anything bigger is hostile).
const ADMIN_MAX_BODY: usize = 64 * 1024;

/// How long a kept-alive connection may sit idle between requests
/// before its worker closes it, seconds.
const KEEPALIVE_IDLE_S: f64 = 5.0;

/// Read-timeout slice on public connections: how often a worker blocked
/// on a read looks up to check the request deadline, the idle budget,
/// the admission queue and the drain flag.
const READ_SLICE: Duration = Duration::from_millis(20);

/// Tunables for a serving process. The defaults match what
/// `rsg serve` uses when the flags are omitted; `docs/OPERATIONS.md`
/// documents how to pick them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` picks an
    /// ephemeral port (used by tests and the benchmark).
    pub addr: String,
    /// Admin listen address (`/admin/reload`, `/admin/drain`). Must
    /// resolve to a loopback IP; `None` disables the admin surface
    /// entirely (the PR 7 behavior).
    pub admin_addr: Option<String>,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission queue depth; connections beyond this are answered
    /// with an immediate 503.
    pub queue_depth: usize,
    /// Default per-request wall budget when a body carries no
    /// `deadline_s`, measured from connection accept for a connection's
    /// first request and from the first byte for each later one.
    pub default_deadline_s: f64,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Smoothed queue wait (seconds) at which the brownout level
    /// disables expensive extras. `0` disables brownout.
    pub brownout_at_s: f64,
    /// Smoothed queue wait (seconds) at which model endpoints are shed
    /// with 503 + adaptive `Retry-After`. `0` disables shedding.
    pub shed_at_s: f64,
    /// Staleness bound (seconds): once a delta-sequence gap has been
    /// open longer than this, `/readyz` answers 503 (answers keep
    /// flowing, flagged via `meta.staleness`). `None` disables the
    /// readiness flip.
    pub max_staleness_s: Option<f64>,
    /// Durable delta journal path for `/admin/platform` batches;
    /// replayed on boot. `None` keeps platform tracking memory-only.
    pub delta_journal: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            admin_addr: None,
            workers: 4,
            queue_depth: 64,
            default_deadline_s: 30.0,
            max_body_bytes: 1 << 20,
            brownout_at_s: handlers::DEFAULT_BROWNOUT_AT_S,
            shed_at_s: handlers::DEFAULT_SHED_AT_S,
            max_staleness_s: None,
            delta_journal: None,
        }
    }
}

/// A running server: the acceptor plus its worker pool, and the admin
/// listener when one is configured.
pub struct Server {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    ctx: Arc<ServerContext>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket(s), spawns the pool, and returns
    /// immediately. Enables `rsg-obs` recording so the `serve.*`
    /// metrics behind `/metrics` are live. Fails if `admin_addr` is
    /// set and does not resolve to a loopback IP — the admin surface
    /// must never be reachable off-host.
    pub fn spawn(cfg: &ServeConfig, registry: ModelRegistry) -> io::Result<Server> {
        rsg_obs::enable(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut ctx = ServerContext::with_shedding(
            registry,
            cfg.default_deadline_s,
            cfg.brownout_at_s,
            cfg.shed_at_s,
        );
        ctx.configure_push(cfg.max_staleness_s, cfg.delta_journal.clone());
        let ctx = Arc::new(ctx);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, Deadline)>(cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let pool = Arc::new(Pool {
            ctx: Arc::clone(&ctx),
            stop: Arc::clone(&stop),
            backlog: AtomicIsize::new(0),
            max_body: cfg.max_body_bytes,
            default_deadline_s: cfg.default_deadline_s,
        });

        let mut workers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let pool = Arc::clone(&pool);
            workers.push(std::thread::spawn(move || worker_loop(&rx, &pool)));
        }

        let acceptor = std::thread::spawn(move || accept_loop(&listener, &tx, &pool));

        let (admin_addr, admin) = match &cfg.admin_addr {
            Some(spec) => {
                let admin_listener = TcpListener::bind(spec)?;
                let bound = admin_listener.local_addr()?;
                if !bound.ip().is_loopback() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("admin address {bound} is not loopback; refusing to expose admin endpoints"),
                    ));
                }
                let stop = Arc::clone(&stop);
                let ctx = Arc::clone(&ctx);
                // In-flight requests are bounded by their own deadlines;
                // the drain waits that out plus write slack, then stops
                // regardless so a wedged worker cannot pin the process.
                let drain_wait = Duration::from_secs_f64(cfg.default_deadline_s.max(1.0) + 5.0);
                let handle = std::thread::spawn(move || {
                    admin_loop(&admin_listener, &ctx, &stop, addr, drain_wait);
                });
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };

        Ok(Server {
            addr,
            admin_addr,
            ctx,
            stop,
            acceptor: Some(acceptor),
            admin,
            workers,
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when the admin surface is enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The shared serving context (lifecycle, model store, shed state).
    pub fn context(&self) -> &Arc<ServerContext> {
        &self.ctx
    }

    /// Stops accepting, drains the pool, and joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the listeners out of `accept()` with throwaway
        // connections; ignore failure (they may already be gone).
        let _ = TcpStream::connect(self.addr);
        if let Some(admin) = self.admin_addr {
            let _ = TcpStream::connect(admin);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.admin.take() {
            let _ = h.join();
        }
        // The acceptor dropped `tx` on exit, so workers see the
        // channel close once the queue drains.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until the server is shut down from another thread, a
    /// drain completes, or the process dies. Used by the `rsg serve`
    /// CLI foreground path.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.admin.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the acceptor and the workers share besides the queue itself.
struct Pool {
    ctx: Arc<ServerContext>,
    stop: Arc<AtomicBool>,
    /// Queued connections minus workers free to take them. The
    /// acceptor counts up before it enqueues; a worker counts down when
    /// it goes back to the queue, or when it claims a yield (see
    /// [`Pool::must_yield`]) while the gauge is positive.
    backlog: AtomicIsize,
    max_body: usize,
    default_deadline_s: f64,
}

impl Pool {
    /// Whether a kept-alive connection must give up its worker now:
    /// the server is draining or stopping, or a queued connection has
    /// no free worker. In the last case this worker claims that
    /// connection — it decrements the backlog, so exactly one worker
    /// yields per such connection — and sets `claimed`, meaning it is
    /// already counted free. Counts each yield in
    /// `serve.keepalive.yielded`.
    fn must_yield(&self, claimed: &mut bool) -> bool {
        let yields = if self.stop.load(Ordering::SeqCst) || self.ctx.lifecycle().draining() {
            true
        } else {
            *claimed = self
                .backlog
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                    (b > 0).then(|| b - 1)
                })
                .is_ok();
            *claimed
        };
        if yields {
            KEEPALIVE_YIELDED.incr();
        }
        yields
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<(TcpStream, Deadline)>, pool: &Pool) {
    let ctx = &pool.ctx;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if pool.stop.load(Ordering::SeqCst) {
                return;
            }
            // Persistent accept errors (EMFILE under fd exhaustion is
            // the classic) must not turn the acceptor into a hot
            // busy-loop: count them and back off briefly.
            ACCEPT_ERRORS.incr();
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if pool.stop.load(Ordering::SeqCst) {
            return;
        }
        ACCEPTED.incr();
        // Draining: refuse admission before the request touches the
        // queue, so the pending count can only fall and the drain
        // terminates.
        if ctx.lifecycle().draining() {
            REJECTED_DRAINING.incr();
            RESP_SERVER_ERROR.incr();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = write_response(&mut stream, &handlers::draining_response(), false);
            continue;
        }
        let deadline = Deadline::start(pool.default_deadline_s);
        ctx.lifecycle().admit();
        pool.backlog.fetch_add(1, Ordering::SeqCst);
        match tx.try_send((stream, deadline)) {
            Ok(()) => {}
            Err(TrySendError::Full((mut stream, _))) => {
                pool.backlog.fetch_sub(1, Ordering::SeqCst);
                ctx.lifecycle().retract();
                REJECTED_QUEUE_FULL.incr();
                RESP_SERVER_ERROR.incr();
                // This write happens on the acceptor thread; a client
                // with a zero receive window must not be able to stall
                // all admission, so bound it.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = write_response(&mut stream, &handlers::overload_response(), false);
            }
            Err(TrySendError::Disconnected(_)) => {
                pool.backlog.fetch_sub(1, Ordering::SeqCst);
                ctx.lifecycle().retract();
                return;
            }
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<(TcpStream, Deadline)>>, pool: &Pool) {
    // Whether this worker already counted itself free in the backlog
    // gauge, by claiming a yield on its last connection.
    let mut claimed = false;
    loop {
        if !claimed {
            pool.backlog.fetch_sub(1, Ordering::SeqCst);
        }
        // Hold the lock only for the dequeue itself.
        let next = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok((mut stream, accepted)) = next else {
            return; // channel closed: shutdown
        };
        let wait_s = accepted.elapsed_s();
        QUEUE_WAIT.record_secs(wait_s);
        pool.ctx.shed().observe_queue_wait(wait_s);
        claimed = serve_connection(pool, &mut stream, accepted, wait_s);
        // Exactly one finish per dequeued connection — however many
        // requests it carried, and whether they were served, shed,
        // timed out or panicked — so `pending == 0` really means
        // drained. It precedes the close, so a client that has seen
        // EOF also sees the count settled.
        pool.ctx.lifecycle().finish();
        drop(stream);
    }
}

/// Serves requests on one connection until it must close: the client
/// asked to, framing was lost, the worker must yield
/// ([`Pool::must_yield`]), or the connection went idle (see
/// [`await_request`]). The first request's deadline is the accept
/// stamp, so it covers queue wait; each later one is stamped when its
/// first byte arrives. Returns whether the worker claimed a yield to
/// the backlog, and so already counts itself free.
fn serve_connection(pool: &Pool, stream: &mut TcpStream, accepted: Deadline, wait_s: f64) -> bool {
    // One write per response, and no Nagle delay on a reused socket.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_write_timeout(Some(Duration::from_secs_f64(
        pool.default_deadline_s.max(1.0),
    )));
    let mut buf = Vec::new();
    let (mut deadline, mut wait_s) = (accepted, wait_s);
    let mut claimed = false;
    loop {
        // A panic in handler code (fed attacker-controlled input) must
        // not kill the worker: catch it, answer 500, keep serving.
        // `AssertUnwindSafe` is fine here because the connection is
        // closed right after and the shared context is immutable.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_request(pool, stream, &mut buf, &deadline, &mut claimed)
        }));
        let keep_alive = outcome.unwrap_or_else(|_| {
            WORKER_PANICS.incr();
            RESP_SERVER_ERROR.incr();
            let _ = write_response(stream, &handlers::panic_response(), false);
            false
        });
        pool.ctx
            .shed()
            .observe_service(deadline.elapsed_s() - wait_s);
        REQUEST_LATENCY.record_secs(deadline.elapsed_s());
        if !keep_alive {
            return claimed;
        }
        pool.ctx.lifecycle().idle_begin();
        let next = await_request(pool, stream, &mut buf, &mut claimed);
        pool.ctx.lifecycle().idle_end();
        let Some(next) = next else {
            return claimed;
        };
        KEEPALIVE_REUSED.incr();
        // A request on a reused connection waited in no queue. Feeding
        // that zero keeps the shed average one sample per request, so
        // it decays once a surge is over even while clients keep their
        // sockets open.
        pool.ctx.shed().observe_queue_wait(0.0);
        (deadline, wait_s) = (next, 0.0);
    }
}

/// Reads, handles and answers one request; returns whether the
/// connection stays open for another.
fn serve_request(
    pool: &Pool,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: &Deadline,
    claimed: &mut bool,
) -> bool {
    // A request that spent its entire default budget queued is shed
    // here, before any parsing work.
    if deadline.expired() {
        RESP_SERVER_ERROR.incr();
        let _ = write_response(stream, &handlers::queue_deadline_response(deadline), false);
        return false;
    }
    let (resp, keep_alive) = match read_within(stream, buf, pool.max_body, deadline) {
        Ok((req, close)) => {
            let resp = handlers::handle(&pool.ctx, &req, deadline);
            (resp, !close && !pool.must_yield(claimed))
        }
        Err(HttpError::Io(_)) => {
            // The client went away; nothing useful to write.
            RESP_CLIENT_ERROR.incr();
            return false;
        }
        // Framing is lost: answer, then close.
        Err(e) => (handlers::bad_request_response(&e), false),
    };
    match resp.status {
        200..=399 => RESP_OK.incr(),
        400..=499 => RESP_CLIENT_ERROR.incr(),
        _ => RESP_SERVER_ERROR.incr(),
    }
    write_response(stream, &resp, keep_alive).is_ok() && keep_alive
}

/// Reads one request under the connection's short read slices: a slice
/// that passes without a byte is retried while `deadline` is live. The
/// deadline check between reads bounds the *total* read time, so a
/// slowloris drip gets a 408 when the budget runs out even if every
/// individual byte arrives "in time".
fn read_within(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max_body: usize,
    deadline: &Deadline,
) -> Result<(HttpRequest, bool), HttpError> {
    loop {
        match read_request_buffered(stream, buf, max_body, Some(deadline)) {
            Err(HttpError::Timeout) if !deadline.expired() => {}
            done => return done,
        }
    }
}

/// Waits on a kept-alive connection for the first byte of its next
/// request and returns that request's deadline, stamped on arrival
/// (at once when a pipelined request is already buffered). Returns
/// `None`, meaning close, when the client hangs up, the connection has
/// idled for [`KEEPALIVE_IDLE_S`], or — checked after every read slice
/// — the worker must yield ([`Pool::must_yield`]).
fn await_request(
    pool: &Pool,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    claimed: &mut bool,
) -> Option<Deadline> {
    let idle = Deadline::start(KEEPALIVE_IDLE_S);
    while buf.is_empty() {
        match fill(stream, buf) {
            Err(HttpError::Timeout) if pool.must_yield(claimed) => return None,
            Err(HttpError::Timeout) if !idle.expired() => {}
            // Hung up (a zero-byte read), failed, or idle too long.
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
    }
    Some(Deadline::start(pool.default_deadline_s))
}

/// The admin surface: one thread, loopback only, two verbs. A drain
/// request is acknowledged first; then this thread waits for the
/// pending count to hit zero (bounded by `drain_wait`) and flips the
/// same stop flag [`Server::shutdown`] uses, so a drained process
/// exits through the ordinary cooperative path.
fn admin_loop(
    listener: &TcpListener,
    ctx: &ServerContext,
    stop: &AtomicBool,
    main_addr: SocketAddr,
    drain_wait: Duration,
) {
    loop {
        let Ok((mut stream, peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            ACCEPT_ERRORS.incr();
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Belt and braces on top of the loopback bind: a connection
        // that somehow arrives from off-host is dropped unanswered.
        if !peer.ip().is_loopback() {
            continue;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let resp = match read_request(&mut stream, ADMIN_MAX_BODY) {
            Ok(req) => handlers::handle_admin(ctx, &req),
            Err(HttpError::Io(_)) => continue,
            Err(e) => handlers::bad_request_response(&e),
        };
        let _ = write_response(&mut stream, &resp, false);
        drop(stream);
        if ctx.lifecycle().draining() {
            // The acceptor is already refusing admissions; once the
            // in-flight work is gone (or the bounded wait expires),
            // stop the process cleanly.
            ctx.lifecycle().await_drained(drain_wait);
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(main_addr);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_core::curve::CurveConfig;
    use rsg_core::heurmodel::HeuristicPredictionModel;
    use rsg_core::observation::{measure, ObservationGrid};
    use rsg_core::ThresholdedSizeModel;
    use rsg_sched::HeuristicKind;
    use std::io::{Read, Write};

    fn test_registry() -> ModelRegistry {
        let tables = measure(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &rsg_core::THRESHOLD_LADDER,
            0,
        );
        ModelRegistry::from_models(
            ThresholdedSizeModel::fit(&tables),
            HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        read_reply(&mut s)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        read_reply(&mut s)
    }

    fn read_reply(s: &mut TcpStream) -> (u16, String) {
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split(' ')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn boots_serves_healthz_and_shuts_down() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::spawn(&cfg, test_registry()).unwrap();
        let (status, body) = get(server.addr(), "/healthz");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn a_handler_panic_answers_500_and_the_worker_survives() {
        // One worker: if the panic killed it, the follow-up request
        // would hang with nothing draining the queue.
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(
            s,
            "POST /__test/panic HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_reply(&mut s);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");
        // The lone worker is still alive and serving.
        let (status, _) = get(server.addr(), "/healthz");
        assert_eq!(status, 200);
        // And the panic path kept the lifecycle accounting balanced.
        assert_eq!(server.context().lifecycle().pending(), 0);
    }

    #[test]
    fn spec_roundtrip_over_a_real_socket() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let body = "{\"characteristics\": {\"size\": 100, \"ccr\": 0.2, \"parallelism\": 0.6, \
                    \"density\": 0.5, \"regularity\": 0.7, \"mean_comp\": 25}}";
        let (status, reply) = post(server.addr(), "/spec", body);
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"rc_size\""), "{reply}");
    }

    #[test]
    fn platform_deltas_flow_and_staleness_gates_readiness() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: Some("127.0.0.1:0".to_string()),
            workers: 2,
            max_staleness_s: Some(0.05),
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let admin = server.admin_addr().expect("admin listener");

        // A bad delta batch is refused wholesale with DELTA00x
        // diagnostics and no state change.
        let (status, reply) = post(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 1, \"delta\": \"clock-drift\\t0\\tNaN\"}]}",
        );
        assert_eq!(status, 422, "{reply}");
        assert!(reply.contains("DELTA005"), "{reply}");

        // A clean contiguous batch applies.
        let (status, reply) = post(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 1, \"delta\": \"price\\t0.25\"}]}",
        );
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"applied\": 1"), "{reply}");
        assert!(reply.contains("\"lag\": 0"), "{reply}");

        // A gapped batch parks; answers keep flowing with the stamp,
        // and once the gap outlives the bound, /readyz flips 503.
        let (status, reply) = post(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 3, \"delta\": \"price\\t0.30\"}]}",
        );
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"parked\": 1"), "{reply}");
        std::thread::sleep(std::time::Duration::from_millis(120));
        let (status, reply) = get(server.addr(), "/readyz");
        assert_eq!(status, 503, "{reply}");
        assert!(reply.contains("\"stale\": true"), "{reply}");
        let body = "{\"characteristics\": {\"size\": 100, \"ccr\": 0.2, \"parallelism\": 0.6, \
                    \"density\": 0.5, \"regularity\": 0.7, \"mean_comp\": 25}}";
        let (status, reply) = post(server.addr(), "/spec", body);
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"staleness\""), "{reply}");
        assert!(reply.contains("\"lag\": 2"), "{reply}");

        // Filling the gap restores readiness and the push.* counters
        // show up on /metrics.
        let (status, reply) = post(
            admin,
            "/admin/platform",
            "{\"deltas\": [{\"seq\": 2, \"delta\": \"price\\t0.28\"}]}",
        );
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"resynced\": true"), "{reply}");
        let (status, reply) = get(server.addr(), "/readyz");
        assert_eq!(status, 200, "{reply}");
        let (status, reply) = get(server.addr(), "/metrics");
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("push.deltas_applied"), "{reply}");
    }

    #[test]
    fn slow_header_drip_is_a_408_not_a_hang() {
        // A short default deadline so the test is quick; the drip
        // keeps each single read under the socket timeout, so only the
        // deadline re-check inside the reader can catch it.
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            default_deadline_s: 1.0,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(s, "GET /healthz HT").unwrap();
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(250));
            if write!(s, "T").is_err() {
                break; // server already gave up on us — also fine
            }
        }
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
        assert!(
            raw.starts_with("HTTP/1.1 408") || raw.is_empty(),
            "expected 408 or a clean close, got: {raw}"
        );
        // The lone worker survived and is serving again.
        let (status, _) = get(server.addr(), "/healthz");
        assert_eq!(status, 200);
    }

    #[test]
    fn admin_surface_reloads_and_refuses_non_loopback_bind() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: Some("127.0.0.1:0".to_string()),
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let admin = server.admin_addr().expect("admin surface bound");
        // Admin endpoints do not exist on the public port…
        let (status, _) = post(server.addr(), "/admin/drain", "");
        assert_eq!(status, 404);
        // …and a failed reload on the admin port keeps generation 1.
        let (status, body) = post(admin, "/admin/reload", "{\"dir\": \"/nonexistent\"}");
        assert_eq!(status, 500, "{body}");
        assert_eq!(server.context().store().generation(), 1);
        // A non-loopback admin bind is refused outright.
        let bad = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: Some("0.0.0.0:0".to_string()),
            ..ServeConfig::default()
        };
        assert!(Server::spawn(&bad, test_registry()).is_err());
    }

    #[test]
    fn drain_refuses_new_work_finishes_in_flight_and_exits() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: Some("127.0.0.1:0".to_string()),
            workers: 2,
            default_deadline_s: 5.0,
            ..ServeConfig::default()
        };
        let server = Server::spawn(&cfg, test_registry()).unwrap();
        let admin = server.admin_addr().unwrap();
        let addr = server.addr();
        let (status, body) = post(admin, "/admin/drain", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"draining\": true"), "{body}");
        // New work is refused with a 503 while the drain completes
        // (the acceptor may also already be gone — both are clean).
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(
                s,
                "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            );
            let mut raw = String::new();
            let _ = s.read_to_string(&mut raw);
            assert!(
                raw.is_empty() || raw.starts_with("HTTP/1.1 503"),
                "got: {raw}"
            );
        }
        // The whole server exits by itself — join() returns.
        server.join();
    }

    #[test]
    fn one_kept_alive_worker_yields_per_uncovered_connection() {
        let ctx = ServerContext::with_shedding(test_registry(), 30.0, 0.0, 0.0);
        let pool = Pool {
            ctx: Arc::new(ctx),
            stop: Arc::new(AtomicBool::new(false)),
            backlog: AtomicIsize::new(0),
            max_body: 1024,
            default_deadline_s: 30.0,
        };
        // Both workers hold kept-alive connections; one connection is
        // queued with no free worker: exactly one of them yields.
        pool.backlog.store(1, Ordering::SeqCst);
        let (mut a, mut b) = (false, false);
        assert!(pool.must_yield(&mut a));
        assert!(!pool.must_yield(&mut b), "second yield for one connection");
        assert!(a && !b);
        assert_eq!(pool.backlog.load(Ordering::SeqCst), 0);
        // A queued connection a free worker is about to take (the
        // gauge is not positive) makes nobody yield.
        pool.backlog.store(-1, Ordering::SeqCst);
        pool.backlog.fetch_add(1, Ordering::SeqCst);
        assert!(!pool.must_yield(&mut b));
        // A drain closes every kept-alive connection, claiming nothing.
        pool.ctx.lifecycle().begin_drain();
        assert!(pool.must_yield(&mut b));
        assert!(pool.must_yield(&mut b));
        assert!(!b);
        assert_eq!(pool.backlog.load(Ordering::SeqCst), 0);
    }
}
