//! End-to-end tests for the `imrdmd-serve` daemon: a multi-tenant fleet of
//! fault-corrupted telemetry streams driven over real TCP, with every
//! response checked bitwise against an in-process I-mrDMD oracle fed the
//! same batches. Also covers crash recovery (kill-and-resume from interval
//! checkpoints) and torn-checkpoint degradation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use imrdmd_serve::{HttpLimits, ServeConfig, Server, ServerHandle};
use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::write_snapshots_csv;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn model_cfg(dt: f64, n_threads: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 4,
            max_cycles: 2,
            rank: RankSelection::Svht,
            n_threads,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

fn serve_cfg(dt: f64, n_threads: usize, checkpoint_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        model: model_cfg(dt, n_threads),
        policy: GapPolicy::Interpolate,
        checkpoint_dir,
        checkpoint_every: 1,
        limits: HttpLimits::default(),
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    worker: std::thread::JoinHandle<std::io::Result<()>>,
    restored: usize,
    corrupt: usize,
}

fn start(cfg: ServeConfig) -> Daemon {
    let (server, restored, corrupt) = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let worker = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        handle,
        worker,
        restored,
        corrupt,
    }
}

impl Daemon {
    fn shutdown(self) {
        self.handle.shutdown();
        self.worker.join().unwrap().unwrap();
    }

    fn kill(self) {
        self.handle.kill();
        self.worker.join().unwrap().unwrap();
    }
}

/// One request over a fresh connection; returns `(status, body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body).unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, None, b"")
}

/// Binary-safe GET for octet-stream replies: `(status, body_bytes)`.
fn get_bytes(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header/body split");
    let head = String::from_utf8_lossy(&raw[..split]);
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, raw[split + 4..].to_vec())
}

fn post_csv(addr: SocketAddr, tenant: &str, batch: &Mat, first_step: usize) -> (u16, String) {
    let mut body = Vec::new();
    write_snapshots_csv(&mut body, batch, first_step).unwrap();
    request(
        addr,
        "POST",
        &format!("/v1/{tenant}/ingest"),
        Some("text/csv"),
        &body,
    )
}

fn same_bits(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One labelled delivery: `(redelivery, first_step, batch)`.
///
/// Models a real at-least-once collector: every fresh batch carries its true
/// stream position, and a fault-injected duplicate (which `FaultInjector`
/// emits back to back, bitwise-identical) is re-sent under its **original**
/// label — exactly what a restarted collector replaying its buffer does.
/// The server must 409 those instead of absorbing the window twice.
type Delivery = (bool, usize, Mat);

fn deliveries(batches: &[Mat]) -> Vec<Delivery> {
    let mut out: Vec<Delivery> = Vec::new();
    let mut pos = 0usize;
    for b in batches {
        let dup = out
            .iter()
            .rev()
            .find(|(is_dup, _, _)| !is_dup)
            .is_some_and(|(_, s, prev)| same_bits(prev, b) && s + prev.cols() == pos);
        if dup {
            let (_, s, _) = *out.iter().rev().find(|(is_dup, _, _)| !is_dup).unwrap();
            out.push((true, s, b.clone()));
        } else {
            out.push((false, pos, b.clone()));
            pos += b.cols();
        }
    }
    out
}

/// The in-process reference: the exact cold-start + `try_partial_fit`
/// sequence the daemon's shard runs, fed the same labelled deliveries with
/// the same duplicate-rejection rule.
struct Oracle {
    cfg: IMrDmdConfig,
    policy: GapPolicy,
    model: Option<IMrDmd>,
    guard: Option<IngestGuard>,
}

impl Oracle {
    fn new(cfg: IMrDmdConfig, policy: GapPolicy) -> Oracle {
        Oracle {
            cfg,
            policy,
            model: None,
            guard: None,
        }
    }

    fn ingest(&mut self, first_step: usize, batch: &Mat) {
        let steps = self.model.as_ref().map_or(0, |m| m.n_steps());
        if first_step != steps {
            return; // duplicate window: the daemon answers 409 and absorbs nothing
        }
        match &mut self.model {
            None => {
                let mut guard = IngestGuard::new(self.policy, batch.rows());
                let (clean, _) = guard.repair(batch).unwrap();
                self.model = Some(IMrDmd::fit(clean.as_ref().unwrap_or(batch), &self.cfg));
                self.guard = Some(guard);
            }
            Some(model) => {
                let guard = self.guard.as_mut().unwrap();
                model.try_partial_fit(batch, guard).unwrap();
            }
        }
    }

    fn model(&self) -> &IMrDmd {
        self.model.as_ref().unwrap()
    }
}

fn oracle_for(driver: &FleetDriver, k: usize, cfg: &IMrDmdConfig, upto: Option<usize>) -> Oracle {
    let mut oracle = Oracle::new(*cfg, GapPolicy::Interpolate);
    let dels = deliveries(&driver.tenant_batches(k));
    let n = upto.unwrap_or(dels.len());
    for (_, first, batch) in &dels[..n] {
        oracle.ingest(*first, batch);
    }
    oracle
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-serve-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// The acceptance e2e: eight tenants stream fault-corrupted telemetry
/// (NaN runs, dropped samples, sensor dropout, duplicated batches) into the
/// daemon concurrently; every tenant's health and spectrum responses are
/// **bitwise** equal (string equality on the serde JSON) to an in-process
/// oracle fed the same batches.
#[test]
fn eight_faulty_tenants_match_in_process_oracle_bitwise() {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 8,
        nodes_per_tenant: 4,
        steps: 240,
        chunk: 60,
        base_seed: 77,
        faults: Some(FaultConfig {
            duplicate_prob: 0.4,
            ..FaultConfig::default()
        }),
    });
    let cfg = model_cfg(driver.dt(), 2);
    let daemon = start(serve_cfg(driver.dt(), 2, None));
    let addr = daemon.addr;
    let names = driver.tenant_names();

    // The duplicate-rejection path must actually be exercised somewhere in
    // the fleet (seeds are fixed, so this is deterministic).
    let fleet_dups: usize = (0..names.len())
        .map(|k| {
            deliveries(&driver.tenant_batches(k))
                .iter()
                .filter(|(d, _, _)| *d)
                .count()
        })
        .sum();
    assert!(
        fleet_dups > 0,
        "duplicate_prob=0.4 across the fleet should duplicate at least one batch"
    );

    // One client thread per tenant, all hammering the daemon at once.
    let mut clients = Vec::new();
    for (k, name) in names.iter().enumerate() {
        let dels = deliveries(&driver.tenant_batches(k));
        let name = name.clone();
        clients.push(std::thread::spawn(move || {
            for (is_dup, first, batch) in &dels {
                let (status, body) = post_csv(addr, &name, batch, *first);
                if *is_dup {
                    assert_eq!(status, 409, "tenant {name}: duplicate not refused: {body}");
                } else {
                    assert_eq!(status, 200, "tenant {name}: ingest failed: {body}");
                }
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    for (k, name) in names.iter().enumerate() {
        let oracle = oracle_for(&driver, k, &cfg, None);
        let model = oracle.model();

        let (s, health) = get(addr, &format!("/v1/{name}/health"));
        assert_eq!(s, 200);
        assert_eq!(
            health,
            json(&model.health()),
            "tenant {name}: health diverged"
        );

        let (s, spectrum) = get(addr, &format!("/v1/{name}/spectrum"));
        assert_eq!(s, 200);
        assert_eq!(
            spectrum,
            json(&mode_spectrum(model.nodes())),
            "tenant {name}: spectrum diverged"
        );

        let (s, forecast) = get(addr, &format!("/v1/{name}/forecast?h=8"));
        assert_eq!(s, 200);
        assert_eq!(
            forecast,
            json(&model.forecast(8)),
            "tenant {name}: forecast diverged"
        );

        let (s, status) = get(addr, &format!("/v1/{name}/status"));
        assert_eq!(s, 200);
        assert!(
            status.contains(&format!("\"steps\":{}", model.n_steps())),
            "tenant {name}: status steps diverged: {status}"
        );
    }

    let (s, tenants) = get(addr, "/v1/tenants");
    assert_eq!(s, 200);
    assert_eq!(tenants, json(&names));

    let (s, body) = get(addr, "/healthz");
    assert_eq!(s, 200);
    assert!(body.contains("\"shards\":8"), "{body}");

    let (s, metrics) = get(addr, "/metrics");
    assert_eq!(s, 200);
    for series in [
        "# TYPE serve_requests counter",
        "serve_ingest_batches",
        "serve_request_ns_bucket{le=",
        "serve_ingest_ns_sum",
        "serve_shards 8",
    ] {
        assert!(metrics.contains(series), "missing `{series}` in /metrics");
    }

    daemon.shutdown();
}

/// The daemon's promise of bitwise determinism: the same fleet served with
/// the worker pool at 1, 2, and 4 threads — and with the natural request
/// interleaving of concurrent clients differing run to run — must produce
/// byte-identical health, spectrum, and reconstruction responses.
#[test]
fn responses_identical_across_thread_counts_and_interleavings() {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 4,
        nodes_per_tenant: 3,
        steps: 180,
        chunk: 45,
        base_seed: 101,
        faults: Some(FaultConfig {
            duplicate_prob: 0.3,
            ..FaultConfig::default()
        }),
    });
    let names = driver.tenant_names();

    let mut runs: Vec<Vec<(String, String, String)>> = Vec::new();
    for n_threads in [1usize, 2, 4] {
        let daemon = start(serve_cfg(driver.dt(), n_threads, None));
        let addr = daemon.addr;

        let mut clients = Vec::new();
        for (k, name) in names.iter().enumerate() {
            let dels = deliveries(&driver.tenant_batches(k));
            let name = name.clone();
            clients.push(std::thread::spawn(move || {
                for (_, first, batch) in &dels {
                    post_csv(addr, &name, batch, *first);
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }

        let responses = names
            .iter()
            .map(|name| {
                let (s, health) = get(addr, &format!("/v1/{name}/health"));
                assert_eq!(s, 200, "{health}");
                let (s, spectrum) = get(addr, &format!("/v1/{name}/spectrum"));
                assert_eq!(s, 200, "{spectrum}");
                let (s, recon) = get(addr, &format!("/v1/{name}/reconstruct"));
                assert_eq!(s, 200, "{recon}");
                (health, spectrum, recon)
            })
            .collect();
        runs.push(responses);
        daemon.shutdown();
    }

    assert_eq!(runs[0], runs[1], "1-thread vs 2-thread responses diverged");
    assert_eq!(runs[0], runs[2], "1-thread vs 4-thread responses diverged");
}

/// Crash recovery: kill the daemon (no drain, no final checkpoint) halfway
/// through every tenant's stream, restart from the interval checkpoints,
/// finish streaming — and every shard's reconstruction is bitwise-identical
/// to an uninterrupted in-process run.
#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted_run() {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 3,
        nodes_per_tenant: 4,
        steps: 240,
        chunk: 60,
        base_seed: 5,
        faults: Some(FaultConfig {
            duplicate_prob: 0.5,
            ..FaultConfig::default()
        }),
    });
    let cfg = model_cfg(driver.dt(), 2);
    let dir = scratch_dir("kill-resume");
    let names = driver.tenant_names();
    let splits: Vec<usize> = (0..names.len())
        .map(|k| {
            let n = deliveries(&driver.tenant_batches(k)).len();
            assert!(n >= 2, "need at least two deliveries to split");
            n / 2
        })
        .collect();

    // Phase 1: stream the first half, then pull the plug. checkpoint_every=1
    // means every acknowledged batch is already on disk when we do.
    let daemon = start(serve_cfg(driver.dt(), 2, Some(dir.clone())));
    let addr = daemon.addr;
    for (k, name) in names.iter().enumerate() {
        for (_, first, batch) in &deliveries(&driver.tenant_batches(k))[..splits[k]] {
            post_csv(addr, name, batch, *first);
        }
    }
    daemon.kill();

    // Phase 2: reboot from the checkpoints, confirm every shard resumed at
    // exactly the half-way clock, and finish the streams.
    let daemon = start(serve_cfg(driver.dt(), 2, Some(dir)));
    assert_eq!(
        (daemon.restored, daemon.corrupt),
        (names.len(), 0),
        "every shard must restore cleanly"
    );
    let addr = daemon.addr;
    for (k, name) in names.iter().enumerate() {
        let half = oracle_for(&driver, k, &cfg, Some(splits[k]));
        let (s, status) = get(addr, &format!("/v1/{name}/status"));
        assert_eq!(s, 200);
        assert!(
            status.contains(&format!("\"steps\":{}", half.model().n_steps())),
            "tenant {name} resumed at the wrong clock: {status}"
        );
        for (_, first, batch) in &deliveries(&driver.tenant_batches(k))[splits[k]..] {
            post_csv(addr, name, batch, *first);
        }
    }

    for (k, name) in names.iter().enumerate() {
        let oracle = oracle_for(&driver, k, &cfg, None);
        let (s, recon) = get(addr, &format!("/v1/{name}/reconstruct"));
        assert_eq!(s, 200);
        assert_eq!(
            recon,
            json(&oracle.model().reconstruct()),
            "tenant {name}: reconstruction diverged after kill-and-resume"
        );
        let (s, health) = get(addr, &format!("/v1/{name}/health"));
        assert_eq!(s, 200);
        assert_eq!(
            health,
            json(&oracle.model().health()),
            "tenant {name}: health diverged after kill-and-resume"
        );
    }
    daemon.shutdown();
}

/// A torn checkpoint file must degrade exactly one shard to `Corrupt`
/// (503 on its routes, cause visible in `/status`) while the rest of the
/// fleet boots and serves normally.
#[test]
fn torn_checkpoint_degrades_one_shard_not_the_fleet() {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 2,
        nodes_per_tenant: 4,
        steps: 120,
        chunk: 60,
        base_seed: 9,
        faults: None,
    });
    let dir = scratch_dir("torn-ckpt");
    let names = driver.tenant_names();

    let daemon = start(serve_cfg(driver.dt(), 1, Some(dir.clone())));
    let addr = daemon.addr;
    for (k, name) in names.iter().enumerate() {
        for (_, first, batch) in &deliveries(&driver.tenant_batches(k)) {
            let (s, body) = post_csv(addr, name, batch, *first);
            assert_eq!(s, 200, "{body}");
        }
    }
    daemon.shutdown();

    // Tear *every* checkpoint of tenant 0: flip bytes inside the payload
    // so the CRC check fails on restore. (A torn newest alone no longer
    // corrupts the shard — recovery falls back to the retained
    // predecessor and replays the WAL tail.) The WAL cannot rebuild from
    // step 0 either: it was truncated up to the oldest retained
    // checkpoint, so the shard is genuinely unrecoverable.
    let victim = &names[0];
    let history = imrdmd::prelude::shard_checkpoint_history(&dir, victim).unwrap();
    assert!(!history.is_empty(), "no checkpoint for {victim}");
    for (_, path) in &history {
        let mut raw = std::fs::read(path).unwrap();
        let n = raw.len();
        for b in &mut raw[n - 16..] {
            *b ^= 0xff;
        }
        std::fs::write(path, &raw).unwrap();
    }

    let daemon = start(serve_cfg(driver.dt(), 1, Some(dir)));
    assert_eq!((daemon.restored, daemon.corrupt), (1, 1));
    let addr = daemon.addr;

    let (s, body) = get(addr, &format!("/v1/{victim}/health"));
    assert_eq!(s, 503, "torn shard must refuse reads: {body}");
    assert!(body.contains("error"), "{body}");
    let (s, body) = get(addr, &format!("/v1/{victim}/status"));
    assert_eq!(s, 200, "status must stay readable for the operator");
    assert!(body.contains("Corrupt"), "{body}");
    assert!(body.contains("corrupt_cause"), "{body}");
    let batch = driver.tenant_batches(0).remove(0);
    let (s, body) = post_csv(addr, victim, &batch, 0);
    assert_eq!(s, 503, "torn shard must refuse writes: {body}");

    // The survivor serves; the daemon is alive and says so.
    let (s, body) = get(addr, &format!("/v1/{}/health", names[1]));
    assert_eq!(s, 200, "{body}");
    let (s, _) = get(addr, "/healthz");
    assert_eq!(s, 200);
    let (s, metrics) = get(addr, "/metrics");
    assert_eq!(s, 200);
    assert!(metrics.contains("serve_shards_corrupt 1"), "{metrics}");

    daemon.shutdown();
}
/// The `/archive` route serves the exact seekable-archive wire format: the
/// f64-tier bytes, written straight to a file, replay bitwise-equal to the
/// in-process oracle's reconstruction — no model JSON anywhere in the loop.
#[test]
fn archive_route_replays_bitwise_against_oracle() {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 1,
        nodes_per_tenant: 6,
        steps: 180,
        chunk: 60,
        base_seed: 31,
        faults: None,
    });
    let cfg = model_cfg(driver.dt(), 1);
    let daemon = start(serve_cfg(driver.dt(), 1, None));
    let addr = daemon.addr;
    let names = driver.tenant_names();
    let tenant = names[0].as_str();
    for (_, first, batch) in deliveries(&driver.tenant_batches(0)) {
        let (status, body) = post_csv(addr, tenant, &batch, first);
        assert_eq!(status, 200, "{body}");
    }
    let oracle = oracle_for(&driver, 0, &cfg, None);

    // f64 tier: persist the served bytes, open, replay a sub-range.
    let (status, bytes) = get_bytes(addr, &format!("/v1/{tenant}/archive?tier=f64"));
    assert_eq!(status, 200);
    let path = scratch_dir("archive_route").join("t.arch");
    std::fs::write(&path, &bytes).unwrap();
    let mut reader = ArchiveReader::open(&path).unwrap();
    assert_eq!(reader.info().n_steps, 180);
    let replayed = reader.replay(60, 180).unwrap();
    let expect = oracle.model().reconstruct_range(60, 180);
    assert!(
        same_bits(&replayed, &expect),
        "served archive must replay bitwise at f64"
    );

    // The default tier is q16 — materially smaller than f64 — and flag
    // abuse stays typed: bad tier 400, wrong method 405.
    let (status, q16) = get_bytes(addr, &format!("/v1/{tenant}/archive"));
    assert_eq!(status, 200);
    assert!(q16.len() < bytes.len(), "q16 must be smaller than f64");
    let (status, _) = get(addr, &format!("/v1/{tenant}/archive?tier=f16"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", &format!("/v1/{tenant}/archive"), None, b"");
    assert_eq!(status, 405);

    daemon.shutdown();
}
