//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_scrape|fleet_stream|paper_window> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed` before timing (that work is
//! `setup_s`), drives the program only through its public APIs for about
//! `--seconds`, checks the outputs, and prints one JSON object as the last
//! line of stdout: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set ([`E2E`]); with
//! `--trace 1` they are the per-layer breakdown ([`LAYERS`]) plus the
//! tracing overhead. A failed check counts as a failed operation and makes
//! the command exit 1. `perfbench/metrics.json` maps each metric to the
//! workload and end-to-end figure it explains. `BENCHMARK.json` lists
//! `serve_scrape` and `paper_window`; `fleet_stream` swings too much with a
//! shared host's neighbours to carry a regression bound and is run by hand.
//!
//! `--rate <req/s>` overrides the offered rate of `serve_scrape`; `--rate 0`
//! runs it closed-loop to measure the saturation rate.

mod fleet_stream;
mod paper_window;
mod serve_scrape;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use stats::{ns_to_ms, per_round, self_split};
use trace::ObsDelta;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one for
/// its own unit of work (an ingest request, a fleet round, a partial fit).
pub const E2E: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("op_age_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Times are per
/// operation of the workload unless the name says otherwise; a layer the
/// workload does not exercise reads 0. The operation's p90 leads the list:
/// on a shared host its run-to-run spread is too wide for a bound.
pub const LAYERS: [(&str, &str); 49] = [
    ("op_tail_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.route_ms", "ms"),
    ("serve.gate_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.ingest_p99_ms", "ms"),
    ("serve.wave_size", "count"),
    ("serve.load_shed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("core.wal_ms", "ms"),
    ("core.wal.fsyncs", "count"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoint.bytes_per_save", "B"),
    ("core.fit.faults", "count"),
    ("engine.ops_per_round", "count"),
    ("engine.root_advance_ratio", "ratio"),
    ("engine.other_ms", "ms"),
    ("imrdmd.other_ms", "ms"),
    ("imrdmd.state_bytes_growth", "ratio"),
    ("linalg.gemm.ms", "ms"),
    ("linalg.gemm.calls_per_round", "count"),
    ("linalg.gemm.gflop_per_s", "GFLOP/s"),
    ("linalg.gemm.busy_share", "ratio"),
    ("linalg.batch.groups_per_round", "count"),
    ("linalg.batch.ops_per_group", "count"),
    ("linalg.batch.bypass_per_round", "count"),
    ("linalg.pool.forks_per_round", "count"),
    ("linalg.isvd.update_ms", "ms"),
    ("linalg.svd.ms", "ms"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.escalations", "count"),
    ("linalg.eig.ms", "ms"),
    ("linalg.eig.calls", "count"),
    ("linalg.eig.escalations", "count"),
    ("linalg.qr.ms", "ms"),
    ("archive.write_ms", "ms"),
    ("archive.replay_ms", "ms"),
    ("archive.reconstruct_ms", "ms"),
    ("archive.decode_ms", "ms"),
    ("archive.blocks_read_ratio", "ratio"),
    ("archive.q16_ratio", "ratio"),
    ("archive.replay_mb_s", "MB/s"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
    ("trace.op_p50_ms", "ms"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// Command-line settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured region, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// `serve_scrape` offered-rate override (0 = closed loop).
    pub rate: Option<f64>,
    /// Scratch directory inside the working directory, removed on exit.
    pub scratch: PathBuf,
}

/// What a workload hands back: operation counts and every metric it
/// measured, by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Fills the kernel, round and engine rows of the per-layer breakdown from
/// an obs delta over `ops` operations whose spans total `op_ns`.
pub fn kernel_layers(r: &mut Report, d: &ObsDelta, ops: f64, op_ns: f64) {
    let ms_per_op = |ns: f64| ns_to_ms(per_round(ns, ops));
    let kernels = [
        d.get("gemm.ns"),
        d.get("svd.ns"),
        d.get("eig.ns"),
        d.get("qr.ns"),
        d.get("sketch.ns"),
    ];
    r.set("core.round_ms", ms_per_op(d.get("round.ns")));
    r.set("core.ingest_ms", ms_per_op(d.get("ingest.ns")));
    r.set("core.fit.faults", d.get("fit.faults"));
    r.set(
        "engine.other_ms",
        ms_per_op(self_split(d.get("round.ns"), &kernels).self_time),
    );
    r.set(
        "imrdmd.other_ms",
        ms_per_op(self_split(op_ns, &kernels).self_time),
    );
    r.set("linalg.gemm.ms", ms_per_op(d.get("gemm.ns")));
    r.set(
        "linalg.gemm.calls_per_round",
        per_round(d.get("gemm.calls"), ops),
    );
    r.set(
        "linalg.gemm.gflop_per_s",
        per_round(d.get("gemm.flops"), d.get("gemm.ns")),
    );
    r.set("linalg.gemm.busy_share", per_round(d.get("gemm.ns"), op_ns));
    r.set(
        "linalg.batch.groups_per_round",
        per_round(d.get("batch.groups"), ops),
    );
    r.set(
        "linalg.batch.ops_per_group",
        per_round(d.get("batch.ops_per_group"), d.count("batch.ops_per_group")),
    );
    r.set(
        "linalg.batch.bypass_per_round",
        per_round(d.get("batch.bypass"), ops),
    );
    r.set(
        "linalg.pool.forks_per_round",
        per_round(d.get("pool.forks"), ops),
    );
    r.set("linalg.isvd.update_ms", ms_per_op(d.get("isvd.update_ns")));
    r.set("linalg.svd.ms", ms_per_op(d.get("svd.ns")));
    r.set("linalg.svd.calls", per_round(d.get("svd.calls"), ops));
    r.set("linalg.svd.escalations", d.get("svd.escalations"));
    r.set("linalg.eig.ms", ms_per_op(d.get("eig.ns")));
    r.set("linalg.eig.calls", per_round(d.get("eig.calls"), ops));
    r.set("linalg.eig.escalations", d.get("eig.escalations"));
    r.set("linalg.qr.ms", ms_per_op(d.get("qr.ns")));
}

/// Sets `op_p50_ms` and `op_tail_ms` (p90) from per-operation milliseconds
/// in run order, each over `slices` consecutive slices by
/// [`stats::low_slice`], and returns the busy seconds of a slice picked the
/// same way, for a throughput figure.
pub fn op_latency(r: &mut Report, op_ms: &[f64], slices: usize) -> f64 {
    r.set(
        "op_p50_ms",
        stats::low_slice(op_ms, slices, stats::median).unwrap_or(0.0),
    );
    r.set(
        "op_tail_ms",
        stats::low_slice(op_ms, slices, |s| stats::percentile(s, 0.90)).unwrap_or(0.0),
    );
    stats::low_slice(op_ms, slices, |s| Some(s.iter().sum::<f64>() / 1e3)).unwrap_or(0.0)
}

/// Records the traced-versus-untraced comparison of a traced run.
pub fn overhead(r: &mut Report, traced: &[f64], untraced: &[f64], spans: usize) {
    let t = stats::median(traced).unwrap_or(0.0);
    let u = stats::median(untraced).unwrap_or(0.0);
    r.set("trace.ops", traced.len() as f64);
    r.set("trace.op_p50_ms", t);
    r.set("trace.untraced_op_p50_ms", u);
    r.set(
        "trace.overhead_pct",
        if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 },
    );
    r.set("trace.spans", spans as f64);
}

/// Runs `setup` `n` times, keeping the last result, and returns it with
/// the median set-up time in seconds. Each earlier result goes to `discard`
/// before the next set-up starts, outside the timing.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut kept: Option<T> = None;
    for _ in 0..n.max(1) {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&times).unwrap_or(0.0);
    (kept.expect("at least one set-up ran"), setup_s)
}

/// Deterministic 64-bit generator for the benchmark's own seeded choices
/// (which tenants and trees to check, which ranges to replay).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a per-purpose `stream` tag.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k.min(n));
        while out.len() < k.min(n) {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("--{name} must be a non-negative number"))
    };
    let workload = get("workload")?.to_string();
    if !["serve_scrape", "fleet_stream", "paper_window"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds = num("seconds")?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let rate = if flags.contains_key("rate") {
        Some(num("rate")?)
    } else {
        None
    };
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "rate"].contains(name) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let scratch = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rate,
        scratch,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "serve_scrape" => serve_scrape::run(&args),
        "fleet_stream" => fleet_stream::run(&args),
        _ => paper_window::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Some(parent) = args.scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report.set("peak_rss_mb", peak_rss_mb());

    let catalogue: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("{:<34} {value:>14.6} {unit}", name);
        if i > 0 {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
