//! `serve_scrape`: open-loop scrape traffic over real TCP to an in-process
//! `imrdmd_serve::Server` with the CLI's default durability (WAL at
//! `interval`, a checkpoint every batch, keep 3) in a fresh directory.
//!
//! 64 tenants (Theta-scaled racks from `FleetDriver`) are cold-started
//! untimed. The timed stream sends scrape-sized batches round-robin over
//! keep-alive connections at a fixed offered rate, with about one request
//! in ten a dashboard read. Every request is due at `t0 + i / rate` and is
//! timed from that due time, so a stall charges every request queued
//! behind it; how late the generator itself sent is reported separately.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpc_linalg::Mat;
use hpc_telemetry::{write_snapshots_csv, FleetDriver, FleetSpec};
use imrdmd::{GapPolicy, IMrDmd, IMrDmdConfig, IngestGuard, MrDmdConfig, RankSelection};
use imrdmd_serve::{HttpLimits, ServeConfig, Server, ServerHandle, ShardStatus};

use imrdmd::obs::MetricsSnapshot;

use crate::stats::{median, per_round, percentile, self_split, tail};
use crate::trace::{capture, ObsDelta, SpanLog};
use crate::{kernel_layers, op_latency, overhead, repeated_setup, Args, Report, SplitMix};

/// Tenants (daemon shards).
const TENANTS: usize = 64;
/// Theta nodes per tenant; four series each gives 16 sensor rows.
const NODES: usize = 4;
/// Snapshots per timed ingest: one scrape.
const SCRAPE: usize = 4;
/// Snapshots in each tenant's untimed cold-start batch.
const COLD: usize = 256;
/// One request in this many is a dashboard read.
const READ_EVERY: usize = 10;
/// Steps a `reconstruct` read covers, ending at the tenant's latest step.
const READ_WINDOW: usize = 64;
/// Offered load of the timed stream, in requests per second: about half
/// of [`SATURATION_RATE`].
pub const OFFERED_RATE: f64 = 140.0;
/// Closed-loop throughput of this workload on the two-core reference
/// machine (`--rate 0`), in requests per second.
pub const SATURATION_RATE: f64 = 280.0;
/// Inputs generated per second of a closed-loop run.
const CLOSED_LOOP_RATE: f64 = 2000.0;
/// Generator lateness (p99, ms) above which the schedule was not kept and
/// the latencies do not count.
const MAX_LAG_P99_MS: f64 = 25.0;
/// Tenants whose step count is checked after the stream.
const CHECKED_TENANTS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Latency figures are taken over this many consecutive slices of the
/// timed schedule (see `stats::low_slice`).
const SLICES: usize = 10;

/// The daemon's configuration: `imrdmd-cli serve --dt <dt>` defaults.
fn serve_config(dt: f64, dir: PathBuf) -> ServeConfig {
    ServeConfig {
        model: model_config(dt),
        policy: GapPolicy::Interpolate,
        checkpoint_dir: Some(dir),
        checkpoint_every: 1,
        keep_checkpoints: 3,
        limits: HttpLimits {
            max_body_bytes: 32 * 1024 * 1024,
            ..HttpLimits::default()
        },
        max_tenants: 4096,
        max_inflight: 256,
        ..ServeConfig::default()
    }
}

fn model_config(dt: f64) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 6,
            max_cycles: 2,
            rank: RankSelection::Svht,
            n_threads: 0,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

enum Op {
    Ingest { tenant: usize, batch: usize },
    Read { tenant: usize, path: String },
}

impl Op {
    fn tenant(&self) -> usize {
        match self {
            Op::Ingest { tenant, .. } | Op::Read { tenant, .. } => *tenant,
        }
    }
}

struct Inputs {
    dt: f64,
    names: Vec<String>,
    cold: Vec<Mat>,
    cold_bodies: Vec<Vec<u8>>,
    /// `batches[tenant][j]` and its CSV body.
    batches: Vec<Vec<Mat>>,
    bodies: Vec<Vec<Vec<u8>>>,
    ops: Vec<Op>,
}

fn csv(m: &Mat, first_step: usize) -> Vec<u8> {
    let mut body = Vec::new();
    write_snapshots_csv(&mut body, m, first_step).expect("CSV into memory");
    body
}

fn inputs(seed: u64, n_ops: usize) -> Inputs {
    let n_ingests = n_ops - n_ops / READ_EVERY;
    let per_tenant = n_ingests.div_ceil(TENANTS);
    let driver = FleetDriver::new(FleetSpec {
        tenants: TENANTS,
        nodes_per_tenant: NODES,
        steps: COLD + per_tenant * SCRAPE,
        chunk: SCRAPE,
        base_seed: seed.wrapping_mul(1000),
        faults: None,
    });
    let mut inp = Inputs {
        dt: driver.dt(),
        names: driver.tenant_names(),
        cold: Vec::new(),
        cold_bodies: Vec::new(),
        batches: Vec::new(),
        bodies: Vec::new(),
        ops: Vec::with_capacity(n_ops),
    };
    for k in 0..TENANTS {
        let mut chunks = driver.tenant_batches(k);
        let rest = chunks.split_off(COLD / SCRAPE);
        let rows = chunks[0].rows();
        let cold = Mat::from_fn(rows, COLD, |i, j| chunks[j / SCRAPE][(i, j % SCRAPE)]);
        inp.cold_bodies.push(csv(&cold, 0));
        inp.cold.push(cold);
        inp.bodies.push(
            rest.iter()
                .enumerate()
                .map(|(j, b)| csv(b, COLD + j * SCRAPE))
                .collect(),
        );
        inp.batches.push(rest);
    }
    let mut rng = SplitMix::new(seed, 0x5C8A);
    let mut sent = vec![0usize; TENANTS];
    let mut ingest = 0usize;
    for i in 0..n_ops {
        if i % READ_EVERY == READ_EVERY - 1 {
            let tenant = rng.below(TENANTS);
            let name = &inp.names[tenant];
            let now = COLD + sent[tenant] * SCRAPE;
            let path = if rng.below(2) == 0 {
                format!("/v1/{name}/spectrum")
            } else {
                format!("/v1/{name}/reconstruct?t0={}&t1={now}", now - READ_WINDOW)
            };
            inp.ops.push(Op::Read { tenant, path });
        } else {
            let tenant = ingest % TENANTS;
            inp.ops.push(Op::Ingest {
                tenant,
                batch: sent[tenant],
            });
            sent[tenant] += 1;
            ingest += 1;
        }
    }
    inp
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole reply: `(status, body)`.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.reader.get_mut().write_all(&msg)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            if line == "\r\n" {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut reply = vec![0u8; len];
        self.reader.read_exact(&mut reply)?;
        Ok((status, reply))
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    worker: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    fn boot(dt: f64, dir: PathBuf) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (server, _, _) = Server::bind("127.0.0.1:0", serve_config(dt, dir.clone()))
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            worker,
            dir,
        })
    }

    /// Stops the daemon (gracefully, or as a crash would) and removes its
    /// directory.
    fn stop(self, graceful: bool) {
        if graceful {
            self.handle.shutdown();
        } else {
            self.handle.kill();
        }
        let _ = self.worker.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generates the inputs, boots a daemon and cold-starts every tenant.
fn setup(seed: u64, n_ops: usize, dir: PathBuf) -> Result<(Inputs, Daemon), String> {
    let inp = inputs(seed, n_ops);
    let daemon = Daemon::boot(inp.dt, dir)?;
    let cold = (|| -> Result<(), String> {
        let mut conn = Conn::open(daemon.addr).map_err(|e| e.to_string())?;
        for (name, body) in inp.names.iter().zip(&inp.cold_bodies) {
            let (status, _) = conn
                .request("POST", &format!("/v1/{name}/ingest"), body)
                .map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("cold start of {name} returned {status}"));
            }
        }
        Ok(())
    })();
    match cold {
        Ok(()) => Ok((inp, daemon)),
        Err(e) => {
            daemon.stop(false);
            Err(e)
        }
    }
}

/// One request as the generator saw it; times in seconds since `t0`.
struct Sample {
    idx: usize,
    read: bool,
    tenant: usize,
    due: f64,
    send: f64,
    done: f64,
    status: u16,
}

/// One generator thread: its share of the schedule over one connection.
fn generate(
    addr: SocketAddr,
    inp: &Inputs,
    mine: &[usize],
    t0: Instant,
    rate: f64,
    seconds: f64,
    trace: bool,
) -> (Vec<Sample>, SpanLog) {
    let mut out = Vec::with_capacity(mine.len());
    let mut log = SpanLog::new(t0);
    let Ok(mut conn) = Conn::open(addr) else {
        return (out, log);
    };
    let rel = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    for &i in mine {
        let due = if rate > 0.0 { i as f64 / rate } else { 0.0 };
        let due_at = t0 + Duration::from_secs_f64(due);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let send_at = Instant::now();
        let op = &inp.ops[i];
        let (path, body, read) = match op {
            Op::Ingest { tenant, batch } => (
                format!("/v1/{}/ingest", inp.names[*tenant]),
                &inp.bodies[*tenant][*batch][..],
                false,
            ),
            Op::Read { path, .. } => (path.clone(), &[][..], true),
        };
        let status = conn
            .request(if read { "GET" } else { "POST" }, &path, body)
            .map_or(0, |(s, _)| s);
        let done_at = Instant::now();
        if trace && i % 2 == 0 {
            let name = if read { "client.read" } else { "client.ingest" };
            log.record(name, i as u64, send_at, done_at);
        }
        out.push(Sample {
            idx: i,
            read,
            tenant: op.tenant(),
            due,
            send: rel(send_at),
            done: rel(done_at),
            status,
        });
        if status == 0 || (rate == 0.0 && rel(done_at) >= seconds) {
            break;
        }
    }
    (out, log)
}

fn oracle_reconstruct(inp: &Inputs, tenant: usize, batches: usize) -> Option<String> {
    let cfg = model_config(inp.dt);
    let cold = &inp.cold[tenant];
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, cold.rows());
    let (clean, _) = guard.repair(cold).ok()?;
    let mut model = IMrDmd::fit(clean.as_ref().unwrap_or(cold), &cfg);
    for b in &inp.batches[tenant][..batches] {
        model.try_partial_fit(b, &mut guard).ok()?;
    }
    serde_json::to_string(&model.reconstruct()).ok()
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let rate = args.rate.unwrap_or(OFFERED_RATE);
    let per_s = if rate > 0.0 { rate } else { CLOSED_LOOP_RATE };
    let n_ops = ((per_s * args.seconds).round() as usize).max(READ_EVERY);
    let mut n_setup = 0;
    let (built, setup_s) = repeated_setup(
        SETUPS,
        || {
            n_setup += 1;
            setup(
                args.seed,
                n_ops,
                args.scratch.join(format!("daemon-{n_setup}")),
            )
        },
        |old| {
            if let Ok((_, d)) = old {
                d.stop(false);
            }
        },
    );
    let (inp, daemon) = built?;
    let mut report = Report::default();
    report.set("setup_s", setup_s);

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut shares: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (i, op) in inp.ops.iter().enumerate() {
        // Each tenant stays on one connection, which keeps its batches in
        // order — the daemon's only ordering requirement.
        shares[op.tenant() % threads].push(i);
    }

    // Obs captures at the quarter marks of the schedule as well as its ends:
    // checkpoint bytes per save, first quarter against last, is how the
    // per-request cost grows with stream age.
    let mut marks = vec![capture()];
    let t0 = Instant::now() + Duration::from_millis(20);
    let schedule_s = if rate > 0.0 {
        inp.ops.len() as f64 / rate
    } else {
        args.seconds
    };
    let results: Vec<(Vec<Sample>, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .map(|mine| {
                let inp = &inp;
                s.spawn(move || {
                    generate(daemon.addr, inp, mine, t0, rate, args.seconds, args.trace)
                })
            })
            .collect();
        for q in 1..4 {
            let at = t0 + Duration::from_secs_f64(schedule_s * q as f64 / 4.0);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            marks.push(capture());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    marks.push(capture());
    let mut obs = ObsDelta::default();
    obs.add(&marks[0], &marks[4]);
    let bytes_per_save = |a: &MetricsSnapshot, b: &MetricsSnapshot| {
        let mut d = ObsDelta::default();
        d.add(a, b);
        per_round(d.get("checkpoint.bytes"), d.get("checkpoint.saves"))
    };
    let state_growth = per_round(
        bytes_per_save(&marks[3], &marks[4]),
        bytes_per_save(&marks[0], &marks[1]),
    );

    let mut log = SpanLog::new(t0);
    let mut samples: Vec<Sample> = Vec::new();
    for (s, l) in results {
        samples.extend(s);
        log.absorb(l);
    }
    samples.sort_by_key(|s| s.idx);

    // Every request must succeed.
    let mut ok_ingests = vec![0usize; TENANTS];
    for s in &samples {
        report.attempted += 1;
        if s.status != 200 {
            report.failed += 1;
            eprintln!("request {} returned {}", s.idx, s.status);
        } else if !s.read {
            ok_ingests[s.tenant] += 1;
        }
    }

    // Afterwards each sampled tenant reports exactly the steps sent, and one
    // tenant's reconstruction is bitwise the in-process oracle's.
    let mut rng = SplitMix::new(args.seed, 0xC0DE);
    let mut conn = Conn::open(daemon.addr).map_err(|e| e.to_string())?;
    for k in rng.distinct(CHECKED_TENANTS, TENANTS) {
        let name = &inp.names[k];
        let steps = conn
            .request("GET", &format!("/v1/{name}/status"), b"")
            .ok()
            .and_then(|(_, body)| {
                serde_json::from_str::<ShardStatus>(std::str::from_utf8(&body).ok()?).ok()
            })
            .map(|st| st.steps);
        let want = COLD + ok_ingests[k] * SCRAPE;
        report.check(
            steps == Some(want),
            &format!("{name}: steps {steps:?}, sent {want}"),
        );
    }
    let k = rng.below(TENANTS);
    let served = conn
        .request("GET", &format!("/v1/{}/reconstruct", inp.names[k]), b"")
        .ok()
        .and_then(|(_, body)| String::from_utf8(body).ok());
    let expect = oracle_reconstruct(&inp, k, ok_ingests[k]);
    report.check(
        served.is_some() && served == expect,
        &format!(
            "{}: /reconstruct differs from the in-process oracle",
            inp.names[k]
        ),
    );
    drop(conn);
    daemon.stop(true);

    let ms = |s: &Sample| (s.done - s.due) * 1e3;
    let ingest_ms: Vec<f64> = samples.iter().filter(|s| !s.read).map(ms).collect();
    let read_ms: Vec<f64> = samples.iter().filter(|s| s.read).map(ms).collect();
    let window = samples.iter().map(|s| s.done).fold(0.0f64, f64::max);
    let ok: usize = ok_ingests.iter().sum();
    // Latency is the lower quartile over SLICES consecutive slices of the
    // schedule; each slice still holds hundreds of requests and their
    // queueing.
    op_latency(&mut report, &ingest_ms, SLICES);
    report.set("ops_per_s", per_round(ok as f64, window));
    report.set("op_age_ratio", state_growth);

    // How late the generator itself sent: past the due time, or past the
    // moment its connection came free, whichever was later.
    let mut lag_ms = Vec::with_capacity(samples.len());
    let mut free_at = vec![0.0f64; threads];
    for s in &samples {
        let slot = &mut free_at[s.tenant % threads];
        lag_ms.push((s.send - s.due.max(*slot)).max(0.0) * 1e3);
        *slot = s.done;
    }
    let lag_p99 = percentile(&lag_ms, 0.99).unwrap_or(0.0);
    if rate > 0.0 {
        report.check(
            lag_p99 <= MAX_LAG_P99_MS,
            &format!("generator lag p99 {lag_p99:.3} ms: the offered schedule was not kept"),
        );
    } else {
        eprintln!(
            "serve_scrape: closed loop, {:.1} requests/s",
            per_round(samples.len() as f64, window)
        );
    }

    if args.trace {
        let n_req = samples.len() as f64;
        let n_ing = ingest_ms.len() as f64;
        let client_ns: f64 = samples.iter().map(|s| (s.done - s.send) * 1e9).sum();
        let request_ns = obs.get("serve.request_ns");
        let ingest_ns = obs.get("serve.ingest_ns");
        let ms_per = |ns: f64, n: f64| per_round(ns, n) / 1e6;
        let inside = [
            obs.get("round.ns"),
            obs.get("wal.ns"),
            obs.get("checkpoint.ns"),
            obs.get("ingest.ns"),
        ];
        kernel_layers(&mut report, &obs, n_ing, ingest_ns);
        report.set(
            "serve.wire_ms",
            ms_per(self_split(client_ns, &[request_ns]).self_time, n_req),
        );
        report.set(
            "serve.route_ms",
            ms_per(self_split(request_ns, &[ingest_ns]).self_time, n_req),
        );
        report.set(
            "serve.gate_ms",
            ms_per(self_split(ingest_ns, &inside).self_time, n_ing),
        );
        report.set("serve.read_p50_ms", median(&read_ms).unwrap_or(0.0));
        report.set("serve.ingest_p99_ms", tail(&ingest_ms, 0.99));
        report.set(
            "serve.wave_size",
            per_round(obs.get("serve.ingest_batches"), obs.count("round.ns")),
        );
        report.set("serve.load_shed", obs.get("serve.load_shed"));
        report.set("loadgen.lag_p99_ms", lag_p99);
        report.set("core.wal_ms", ms_per(obs.get("wal.ns"), n_ing));
        report.set("core.wal.fsyncs", obs.get("wal.fsyncs"));
        report.set(
            "core.checkpoint_ms",
            ms_per(obs.get("checkpoint.ns"), n_ing),
        );
        report.set(
            "core.checkpoint.bytes_per_save",
            per_round(obs.get("checkpoint.bytes"), obs.get("checkpoint.saves")),
        );
        let parity = |even: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| !s.read && (s.idx % 2 == 0) == even)
                .map(ms)
                .collect()
        };
        overhead(
            &mut report,
            &parity(true),
            &parity(false),
            log.count("client.ingest"),
        );
        eprintln!("{}", log.summary());
    }
    eprintln!(
        "serve_scrape: {} requests at {rate} req/s offered (saturation {SATURATION_RATE}) over \
         {threads} connections, read p50 {:.3} ms, generator lag p99 {lag_p99:.3} ms, setup {setup_s:.3} s",
        samples.len(),
        median(&read_ms).unwrap_or(0.0),
    );
    Ok(report)
}
