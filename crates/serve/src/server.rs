//! The daemon: accept loop, routing, and shutdown semantics.
//!
//! Thread-per-connection over `std::net::TcpListener` with keep-alive, a
//! concurrent-connection cap (excess connections are shed with 503 at the
//! accept loop), and two shutdown modes:
//!
//! * [`ServerHandle::shutdown`] — graceful: stop accepting, drain
//!   in-flight requests, write a final checkpoint for every fitted shard;
//! * [`ServerHandle::kill`] — SIGKILL-equivalent for tests: stop
//!   accepting and drop all in-memory state with **no** final checkpoint,
//!   so recovery exercises only the interval checkpoints a real crash
//!   would leave behind.
//!
//! Either way [`Server::run`] closes the connections still open and
//! returns only once every connection thread it started has ended, so no
//! request touches the shards or the store after it returns.
//!
//! An ingest is answered at its [`Shard::ack`](crate::Shard::ack). The
//! connection thread writes the reply, then runs the shard's
//! [`Shard::settle`](crate::Shard::settle) (the due checkpoint) before it
//! reads that connection's next request, even when the write failed. Both
//! stops join the connection threads, so no settle is lost. With a healthy
//! WAL the reply waits for the frame only; without one, the ack has
//! already written the checkpoint.
//!
//! ## Routes
//!
//! | Route | Method | Body / reply |
//! |---|---|---|
//! | `/healthz` | GET | daemon liveness + shard counts |
//! | `/metrics` | GET | Prometheus text (linalg + core + `serve.*`) |
//! | `/v1/tenants` | GET | sorted tenant ids |
//! | `/v1/{t}/ingest` | POST | CSV batch (`text/csv`) → [`IngestReply`] |
//! | `/v1/{t}/health` | GET | [`imrdmd::HealthSnapshot`] |
//! | `/v1/{t}/spectrum` | GET | `Vec<SpectrumPoint>` |
//! | `/v1/{t}/forecast?h=N` | GET | forecast matrix |
//! | `/v1/{t}/reconstruct?t0=&t1=` | GET | reconstruction matrix |
//! | `/v1/{t}/archive?tier=` | GET | seekable mode archive (`application/octet-stream`) |
//! | `/v1/{t}/status` | GET | [`ShardStatus`](crate::shard::ShardStatus) |
//!
//! CSV ingest bodies are the `write_snapshots_csv` wire format: floats in
//! shortest round-trip form and NaN gaps as empty fields, so a batch
//! survives the HTTP hop bitwise and the shard's state stays bitwise-equal
//! to an in-process model fed the same matrices. The header's first step
//! is checked against the shard clock, so a re-delivered batch gets 409.
//! It is the only ingest format; the `Content-Type` header is not read.

use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hpc_linalg::Mat;
use hpc_telemetry::read_snapshots_csv;
use imrdmd::archive::{encode_archive, QuantTier};
use imrdmd::wal::Durability;
use imrdmd::{mode_spectrum, GapPolicy, IMrDmdConfig};
use serde::Serialize;

use crate::error::ServeError;
use crate::http::{read_request, HttpLimits, Request, Response};
use crate::manager::{lock_shard, ShardCell, ShardManager};
use crate::obs;
use crate::shard::IngestReply;

/// Everything the daemon needs to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Model config every shard fits with.
    pub model: IMrDmdConfig,
    /// Gap policy every shard repairs with.
    pub policy: GapPolicy,
    /// Per-shard checkpoint directory (shared, shard-namespaced files);
    /// `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N absorbed batches per shard.
    pub checkpoint_every: usize,
    /// Keep-last-K checkpoint retention per shard (0 = unlimited).
    pub keep_checkpoints: usize,
    /// WAL fsync cadence; [`Durability::None`] disables the WAL.
    pub durability: Durability,
    /// HTTP parser caps.
    pub limits: HttpLimits,
    /// Socket read timeout (slow-loris cutoff).
    pub read_timeout: Duration,
    /// Cap on resident shards.
    pub max_tenants: usize,
    /// Cap on concurrently open connections; excess get 503.
    pub max_connections: usize,
    /// Fleet-wide in-flight ingest budget; excess get 503 + `Retry-After`.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            model: IMrDmdConfig::default(),
            policy: GapPolicy::Interpolate,
            checkpoint_dir: None,
            checkpoint_every: 1,
            keep_checkpoints: 3,
            durability: Durability::Interval,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(5),
            max_tenants: 4096,
            max_connections: 128,
            max_inflight: 256,
        }
    }
}

#[derive(Debug)]
struct ServerState {
    manager: ShardManager,
    addr: SocketAddr,
    stop: AtomicBool,
    final_checkpoint: AtomicBool,
    open_conns: AtomicUsize,
    /// A second handle on each open connection's socket, by connection
    /// number, for closing it on stop; its thread removes it on the way out.
    live: Mutex<BTreeMap<u64, TcpStream>>,
}

impl ServerState {
    fn live(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        self.live.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks; grab a
/// [`Server::handle`] first to stop it from another thread.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The daemon's bound address (real port even when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    fn poke(&self) {
        // Wake the blocking accept() so it observes the stop flag.
        let _ = TcpStream::connect(self.state.addr);
    }

    /// Graceful shutdown: drain connections, then write a final
    /// checkpoint for every fitted shard.
    pub fn shutdown(&self) {
        self.state.final_checkpoint.store(true, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        self.poke();
    }

    /// SIGKILL-equivalent stop: no drain, no final checkpoint. Recovery
    /// after this sees exactly what a crashed process would have left:
    /// the interval checkpoints.
    pub fn kill(&self) {
        self.state.final_checkpoint.store(false, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        self.poke();
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// restores any shards checkpointed into the configured directory.
    /// Returns the server plus `(restored, corrupt)` shard counts.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<(Server, usize, usize)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let manager = ShardManager::new(cfg);
        let (restored, corrupt) = manager.restore();
        let state = Arc::new(ServerState {
            manager,
            addr: local,
            stop: AtomicBool::new(false),
            final_checkpoint: AtomicBool::new(true),
            open_conns: AtomicUsize::new(0),
            live: Mutex::new(BTreeMap::new()),
        });
        Ok((Server { listener, state }, restored, corrupt))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle for stopping the daemon from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] or [`ServerHandle::kill`],
    /// then closes the connections still open and waits for their threads.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_id = 0u64;
        for conn in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.state.open_conns.load(Ordering::SeqCst)
                >= self.state.manager.config().max_connections
            {
                obs::CONNECTIONS_REJECTED.inc();
                let mut s = stream;
                let _ = Response::error(503, "connection limit reached")
                    .with_retry_after(Some(1))
                    .write_to(&mut s);
                continue;
            }
            self.state.open_conns.fetch_add(1, Ordering::SeqCst);
            let id = next_id;
            next_id += 1;
            if let Ok(peer) = stream.try_clone() {
                self.state.live().insert(id, peer);
            }
            workers.retain(|w| !w.is_finished());
            let state = self.state.clone();
            workers.push(std::thread::spawn(move || {
                handle_connection(stream, &state);
                // Dropping the last handle closes the socket.
                state.live().remove(&id);
                state.open_conns.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        if self.state.final_checkpoint.load(Ordering::SeqCst) {
            // Drain in-flight requests (bounded) so the final checkpoints
            // see every acknowledged batch.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while self.state.open_conns.load(Ordering::SeqCst) > 0
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Close what is still open (every connection, after a kill): a
        // thread blocked on its socket wakes and ends, one inside a request
        // finishes it first.
        for peer in self.state.live().values() {
            let _ = peer.shutdown(Shutdown::Both);
        }
        for worker in workers {
            let _ = worker.join();
        }
        if self.state.final_checkpoint.load(Ordering::SeqCst) {
            self.state.manager.checkpoint_all();
        }
        Ok(())
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let cfg = state.manager.config();
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        match read_request(&mut stream, &cfg.limits) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let mut unsettled = None;
                let mut resp = route(state, &req, &mut unsettled);
                resp.close |= req.wants_close();
                let written = resp.write_to(&mut stream);
                // The ack is out (or lost): its due checkpoint is written
                // before this connection's next request is read.
                if let Some(cell) = unsettled {
                    lock_shard(&cell).settle();
                }
                if written.is_err() || resp.close {
                    break;
                }
            }
            Err(e) => {
                obs::PROTOCOL_ERRORS.inc();
                if e.peer_reachable() {
                    let _ = Response::from_http_error(&e).write_to(&mut stream);
                }
                break;
            }
        }
    }
}

/// Serialises any reply document, degrading to 500 if encoding fails.
fn json_response<T: Serialize>(v: &T) -> Response {
    match serde_json::to_string(v) {
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("response encoding failed: {e}")),
    }
}

/// Answers one request. An acked ingest leaves its shard in `unsettled`,
/// for the caller to [`Shard::settle`](crate::Shard::settle) once the reply
/// is written.
fn route(state: &ServerState, req: &Request, unsettled: &mut Option<ShardCell>) -> Response {
    obs::REQUESTS.inc();
    obs::BYTES_IN.add(req.body.len() as u64);
    let _span = obs::REQUEST_NS.span();
    let resp = match dispatch(state, req, unsettled) {
        Ok(r) => r,
        Err(e) => Response::error(e.status(), &e.to_string()).with_retry_after(e.retry_after()),
    };
    obs::count_status(resp.status);
    resp
}

fn dispatch(
    state: &ServerState,
    req: &Request,
    unsettled: &mut Option<ShardCell>,
) -> Result<Response, ServeError> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => {
            let tenants = state.manager.tenants();
            Ok(Response::json(
                200,
                format!("{{\"status\":\"ok\",\"shards\":{}}}", tenants.len()),
            ))
        }
        ("GET", ["metrics"]) => {
            // Refresh shard gauges from a snapshot of the handles (brief map
            // read lock), then format — a slow scrape never stalls ingest.
            state.manager.refresh_gauges();
            Ok(Response::text(200, obs::fleet_snapshot().to_prometheus()))
        }
        ("GET", ["v1", "tenants"]) => Ok(json_response(&state.manager.tenants())),
        ("POST", ["v1", tenant, "ingest"]) => ingest(state, tenant, req, unsettled),
        ("GET", ["v1", tenant, "health"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let health = lock_shard(&cell).health()?;
            Ok(json_response(&health))
        }
        ("GET", ["v1", tenant, "spectrum"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let spectrum = shard.with_model(|m| mode_spectrum(m.nodes()))?;
            Ok(json_response(&spectrum))
        }
        ("GET", ["v1", tenant, "forecast"]) => {
            let h = parse_query_usize(req, "h")?.unwrap_or(16);
            if h == 0 || h > 65_536 {
                return Err(ServeError::BadQuery(format!(
                    "forecast horizon h={h} out of range [1, 65536]"
                )));
            }
            let cell = state.manager.existing_shard(tenant)?;
            let forecast = lock_shard(&cell).with_model(|m| m.forecast(h))?;
            Ok(json_response(&forecast))
        }
        ("GET", ["v1", tenant, "reconstruct"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let t0 = parse_query_usize(req, "t0")?;
            let t1 = parse_query_usize(req, "t1")?;
            let recon: Result<Mat, ServeError> = shard.with_model(|m| match (t0, t1) {
                (None, None) => Ok(m.reconstruct()),
                (a, b) => {
                    let (a, b) = (a.unwrap_or(0), b.unwrap_or(m.n_steps()));
                    if a >= b || b > m.n_steps() {
                        return Err(ServeError::BadQuery(format!(
                            "reconstruct range [{a}, {b}) outside [0, {})",
                            m.n_steps()
                        )));
                    }
                    Ok(m.reconstruct_range(a, b))
                }
            })?;
            Ok(json_response(&recon?))
        }
        ("GET", ["v1", tenant, "archive"]) => {
            // A point-in-time snapshot of the shard as the seekable archive
            // wire format — the exact bytes `imrdmd-cli replay` consumes.
            let tier = match req.query_param("tier") {
                None => QuantTier::Q16,
                Some(v) => QuantTier::parse(v).ok_or_else(|| {
                    ServeError::BadQuery(format!("`tier={v}` is not f64, f32, or q16"))
                })?,
            };
            let cell = state.manager.existing_shard(tenant)?;
            let shard = lock_shard(&cell);
            let mut body = Vec::new();
            // Encoding into a `Vec` cannot fail.
            #[allow(clippy::expect_used)]
            shard
                .with_model(|m| encode_archive(m, tier, &mut body))?
                .expect("a Vec sink is infallible");
            Ok(Response {
                status: 200,
                content_type: "application/octet-stream",
                body,
                close: false,
                retry_after: None,
            })
        }
        ("GET", ["v1", tenant, "status"]) => {
            let cell = state.manager.existing_shard(tenant)?;
            let status = lock_shard(&cell).status();
            Ok(json_response(&status))
        }
        (_, ["healthz" | "metrics"]) | (_, ["v1", "tenants"]) => Ok(Response::error(
            405,
            &format!("method {} not allowed here", req.method),
        )),
        (
            _,
            ["v1", _, "ingest" | "health" | "spectrum" | "forecast" | "reconstruct" | "archive" | "status"],
        ) => Ok(Response::error(
            405,
            &format!("method {} not allowed here", req.method),
        )),
        _ => Ok(Response::error(404, &format!("no route for {}", req.path))),
    }
}

fn parse_query_usize(req: &Request, name: &str) -> Result<Option<usize>, ServeError> {
    match req.query_param(name) {
        None => Ok(None),
        Some(v) => v.parse::<usize>().map(Some).map_err(|_| {
            ServeError::BadQuery(format!("`{name}={v}` is not a non-negative integer"))
        }),
    }
}

fn ingest(
    state: &ServerState,
    tenant: &str,
    req: &Request,
    unsettled: &mut Option<ShardCell>,
) -> Result<Response, ServeError> {
    // Admission first: a shed request must cost nothing — no body parse,
    // no shard creation — and frees its slot the moment this frame exits.
    let _permit = state.manager.admit_ingest()?;
    let (batch, first_step) = parse_batch(req)?;
    let cell = state.manager.shard_or_create(tenant)?;
    let reply: IngestReply = lock_shard(&cell).ack(&batch, Some(first_step))?;
    *unsettled = Some(cell);
    Ok(json_response(&reply))
}

/// Decodes an ingest body: the CSV snapshot format, whose first-step
/// header the shard validates for ordering.
fn parse_batch(req: &Request) -> Result<(Mat, usize), ServeError> {
    if req.body.is_empty() {
        return Err(ServeError::BadBody("empty body".into()));
    }
    read_snapshots_csv(&req.body[..]).map_err(|e| ServeError::BadBody(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Sends one request on a keep-alive connection and reads its reply by
    /// `Content-Length`, leaving the connection open: `(status, body)`.
    fn exchange(conn: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(body).unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            conn.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut reply = vec![0u8; len];
        conn.read_exact(&mut reply).unwrap();
        (status, reply)
    }

    /// The newest checkpoint's steps for tenant `t0` in `dir`.
    fn newest_checkpoint(dir: &std::path::Path) -> Option<u64> {
        imrdmd::checkpoint::shard_checkpoint_history(dir, "t0")
            .unwrap()
            .first()
            .map(|c| c.0)
    }

    /// A daemon storing into a fresh directory under the default
    /// durability (a WAL at `interval`, a checkpoint every batch), with one
    /// keep-alive client connection.
    struct Durable {
        dir: PathBuf,
        handle: ServerHandle,
        worker: JoinHandle<std::io::Result<()>>,
        conn: TcpStream,
        scenario: hpc_telemetry::Scenario,
    }

    impl Durable {
        fn start(name: &str) -> Durable {
            let dir =
                std::env::temp_dir().join(format!("imrdmd-server-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = ServeConfig {
                checkpoint_dir: Some(dir.clone()),
                ..ServeConfig::default()
            };
            let (server, _, _) = Server::bind("127.0.0.1:0", cfg).unwrap();
            let (handle, addr) = (server.handle(), server.local_addr());
            Durable {
                dir,
                handle,
                worker: std::thread::spawn(move || server.run()),
                conn: TcpStream::connect(addr).unwrap(),
                scenario: hpc_telemetry::Scenario::sc_log(hpc_telemetry::theta().scaled(4), 300, 3),
            }
        }

        /// Posts the 100-step batch from step `lo` for tenant `t0` and
        /// returns the reply's step count.
        fn ingest(&mut self, lo: usize) -> u64 {
            let mut body = Vec::new();
            let batch = self.scenario.generate(lo, lo + 100);
            hpc_telemetry::write_snapshots_csv(&mut body, &batch, lo).unwrap();
            let (status, reply) = exchange(&mut self.conn, "POST", "/v1/t0/ingest", &body);
            let reply = String::from_utf8(reply).unwrap();
            assert_eq!(status, 200, "{reply}");
            serde_json::from_str::<IngestReply>(&reply).unwrap().steps as u64
        }

        /// Stops the daemon and returns the newest checkpoint it left. A
        /// kill lands with the client connection still open; a shutdown
        /// closes it first, so the drain does not wait out its read timeout.
        fn stop(self, kill: bool) -> Option<u64> {
            if kill {
                self.handle.kill();
            } else {
                let _ = self.conn.shutdown(Shutdown::Both);
                self.handle.shutdown();
            }
            self.worker.join().unwrap().unwrap();
            let newest = newest_checkpoint(&self.dir);
            let _ = std::fs::remove_dir_all(&self.dir);
            newest
        }
    }

    /// The reply to an ingest may go out before its checkpoint, but the
    /// next request on that connection is served only once the checkpoint
    /// of the acked steps is on disk.
    #[test]
    fn next_request_waits_for_the_ingest_checkpoint() {
        let mut daemon = Durable::start("settle");
        for lo in [0, 100, 200] {
            let steps = daemon.ingest(lo);
            assert_eq!(exchange(&mut daemon.conn, "GET", "/healthz", b"").0, 200);
            assert_eq!(
                newest_checkpoint(&daemon.dir),
                Some(steps),
                "after step {lo}"
            );
        }
        daemon.stop(false);
    }

    /// A kill that lands right after an ingest reply, with no further
    /// request on the connection, still leaves that batch's checkpoint on
    /// disk: the connection thread settles before it ends, and the kill
    /// joins it.
    #[test]
    fn kill_right_after_an_ingest_reply_keeps_its_checkpoint() {
        let mut daemon = Durable::start("kill-settle");
        daemon.ingest(0);
        let steps = daemon.ingest(100);
        assert_eq!(daemon.stop(true), Some(steps));
    }

    /// A kill closes an idle keep-alive connection at once instead of
    /// leaving its thread blocked until the read timeout: once `run`
    /// returns no connection thread is left and the client sees the
    /// connection closed.
    #[test]
    fn kill_closes_open_connections_and_joins_their_threads() {
        let cfg = ServeConfig {
            read_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        };
        let (server, _, _) = Server::bind("127.0.0.1:0", cfg).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let state = server.state.clone();
        let worker = std::thread::spawn(move || server.run());

        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = [0u8; 12];
        idle.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"HTTP/1.1 200");
        while state.live().is_empty() {
            std::thread::yield_now();
        }

        let killed = std::time::Instant::now();
        handle.kill();
        worker.join().unwrap().unwrap();
        assert!(killed.elapsed() < Duration::from_secs(10));
        // Only this test and the handle still hold the state: every
        // connection thread has ended and dropped its share.
        assert_eq!(Arc::strong_count(&state), 2);
        assert_eq!(state.open_conns.load(Ordering::SeqCst), 0);
        assert!(state.live().is_empty());
        let mut rest = Vec::new();
        idle.read_to_end(&mut rest)
            .expect("the connection is closed, not left open until the read timeout");
    }

    /// A kill that lands while a cold-start fit is running returns only
    /// after that request has finished with the shard.
    #[test]
    fn kill_waits_for_the_request_in_flight() {
        let (server, _, _) = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let state = server.state.clone();
        let worker = std::thread::spawn(move || server.run());

        let batch = Mat::from_fn(16, 512, |i, j| {
            let f = 0.01 * (i + 1) as f64;
            (f * j as f64).sin() + 0.1 * i as f64
        });
        let mut body = Vec::new();
        hpc_telemetry::write_snapshots_csv(&mut body, &batch, 0).unwrap();
        let mut request = format!(
            "POST /v1/t0/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(&body);
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&request).unwrap();
        // The shard exists once the batch is parsed; its fit is under way.
        while state.manager.tenants().is_empty() {
            std::thread::yield_now();
        }

        handle.kill();
        worker.join().unwrap().unwrap();
        assert_eq!(Arc::strong_count(&state), 2);
        assert_eq!(state.open_conns.load(Ordering::SeqCst), 0);
    }
}
