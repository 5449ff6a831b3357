//! Argument parsing — hand-rolled `--flag value` pairs, no dependencies.

use crate::CliError;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate synthetic telemetry CSV.
    Synth {
        /// Nodes to simulate (one temperature channel each).
        nodes: usize,
        /// Snapshots to generate.
        steps: usize,
        /// Generator seed.
        seed: u64,
        /// Output CSV path.
        out: PathBuf,
    },
    /// Fit a fresh model from a snapshot CSV.
    Fit {
        /// Input snapshot CSV.
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Slow-mode cycles per window.
        max_cycles: usize,
        /// Worker threads (0 = auto, 1 = serial).
        threads: usize,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe (fixed
        /// default when omitted).
        sketch_seed: Option<u64>,
        /// Output model JSON path.
        model: PathBuf,
    },
    /// Stream a new snapshot CSV into an existing model.
    Update {
        /// Model JSON to update.
        model: PathBuf,
        /// New snapshots CSV.
        input: PathBuf,
        /// Where to write the updated model (defaults to `model`).
        model_out: Option<PathBuf>,
        /// Override the model's worker-thread knob (0 = auto, 1 = serial).
        threads: Option<usize>,
    },
    /// Spectrum + z-score analysis of a fitted model.
    Analyze {
        /// Model JSON.
        model: PathBuf,
        /// The telemetry CSV the model was fitted on (for baseline bands).
        input: PathBuf,
        /// Baseline band lower bound (raw units); quantile band if omitted.
        band_lo: Option<f64>,
        /// Baseline band upper bound.
        band_hi: Option<f64>,
    },
    /// Render a rack view SVG from a model + layout string.
    Render {
        /// Model JSON.
        model: PathBuf,
        /// The telemetry CSV (for baselines).
        input: PathBuf,
        /// Layout grammar string (Sec. III-B).
        layout: String,
        /// Output SVG path.
        out: PathBuf,
    },
    /// Print a model's tree summary and compression report.
    Info {
        /// Model JSON.
        model: PathBuf,
    },
    /// Print a model's numerical health: per-level node counts, coverage,
    /// solver statistics, and the last recorded solver error.
    Health {
        /// Model JSON.
        model: PathBuf,
    },
    /// Stream a snapshot CSV through the guarded ingest path in chunks,
    /// with periodic checkpointing and crash-resume.
    Stream {
        /// Input snapshot CSV (may contain NaN gaps as empty fields).
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Snapshots per ingest batch.
        chunk: usize,
        /// Tree depth.
        levels: usize,
        /// Worker threads (0 = auto, 1 = serial).
        threads: usize,
        /// Gap repair policy (`reject`, `hold`, `interpolate`, `mask`).
        gap_policy: String,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Persistent-store root; checkpoints go to `<store-dir>/checkpoints`.
        store_dir: Option<PathBuf>,
        /// Directory for periodic checkpoints (deprecated alias for
        /// `--store-dir`; still accepted, used verbatim).
        checkpoint_dir: Option<PathBuf>,
        /// Checkpoint every N chunks (default 1).
        checkpoint_every: usize,
        /// Resume from the newest checkpoint in the checkpoint directory
        /// instead of fitting from scratch.
        resume: bool,
        /// Emit a JSON-line metrics snapshot every N chunks (0 = off).
        metrics_every: usize,
        /// Output model JSON path.
        model: PathBuf,
    },
    /// Run the multi-tenant serving daemon (see `imrdmd-serve`).
    Serve {
        /// Listen address, e.g. `127.0.0.1:8080` or `0.0.0.0:9100`
        /// (`:0` binds an ephemeral port).
        addr: String,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Worker threads shared by all shards (0 = auto, 1 = serial).
        threads: usize,
        /// Gap repair policy (`reject`, `hold`, `interpolate`, `mask`).
        gap_policy: String,
        /// Root fit strategy (`exact` or `sketched`) for every tenant shard.
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Persistent-store root; per-shard checkpoints and WALs go to
        /// `<store-dir>/checkpoints`.
        store_dir: Option<PathBuf>,
        /// Shared checkpoint directory (deprecated alias for
        /// `--store-dir`; still accepted, used verbatim); enables
        /// crash recovery.
        checkpoint_dir: Option<PathBuf>,
        /// Checkpoint every N batches per shard (default 1).
        checkpoint_every: usize,
        /// Keep the newest K checkpoints per shard (default 3, 0 = all).
        keep_checkpoints: usize,
        /// WAL fsync cadence: `none`, `interval`, or `batch` (default
        /// `interval`).
        durability: String,
        /// Cap on ingest body size, in MiB (default 32).
        max_body_mb: usize,
        /// Cap on resident tenants (default 4096).
        max_tenants: usize,
        /// Fleet-wide in-flight ingest budget (default 256).
        max_inflight: usize,
    },
    /// Stream a snapshot CSV through a fit and print the final metrics
    /// snapshot (JSON or Prometheus text exposition).
    Metrics {
        /// Input snapshot CSV.
        input: PathBuf,
        /// Snapshot spacing in seconds.
        dt: f64,
        /// Tree depth.
        levels: usize,
        /// Snapshots per ingest batch.
        chunk: usize,
        /// Root fit strategy (`exact` or `sketched`).
        fit_strategy: String,
        /// Seed for the sketched strategy's randomized probe.
        sketch_seed: Option<u64>,
        /// Output format: `json` or `prom`.
        format: String,
    },
    /// Write a fitted model as a compressed, seekable mode archive.
    Archive {
        /// Model JSON to archive.
        model: PathBuf,
        /// Quantization tier: `f64` (bitwise), `f32`, or `q16`.
        tier: String,
        /// Output archive path (overrides `--store-dir`).
        out: Option<PathBuf>,
        /// Persistent-store root; the archive goes to
        /// `<store-dir>/archives/<model-stem>.<tier>.arch`.
        store_dir: Option<PathBuf>,
    },
    /// Reconstruct a time range from an archive alone.
    Replay {
        /// Archive file to replay (overrides `--store-dir`).
        archive: Option<PathBuf>,
        /// Persistent-store root; replays the newest archive under
        /// `<store-dir>/archives`.
        store_dir: Option<PathBuf>,
        /// First snapshot of the range (default 0).
        from: Option<usize>,
        /// One past the last snapshot (default: end of timeline).
        to: Option<usize>,
        /// Output CSV path (stdout summary only when omitted).
        out: Option<PathBuf>,
    },
}

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage: imrdmd-cli <synth|fit|update|analyze|render|info|health|stream|serve|metrics|archive|replay> [--flag value]...
  synth   --nodes N --steps T [--seed S] --out FILE.csv
  fit     --input FILE.csv --dt SECONDS [--levels L] [--max-cycles C] [--threads N]
          [--fit-strategy exact|sketched] [--sketch-seed S] --model FILE.json
  update  --model FILE.json --input FILE.csv [--model-out FILE.json] [--threads N]
  analyze --model FILE.json --input FILE.csv [--band-lo X --band-hi Y]
  render  --model FILE.json --input FILE.csv --layout \"SPEC\" --out FILE.svg
  info    --model FILE.json
  health  --model FILE.json
  stream  --input FILE.csv --dt SECONDS --model FILE.json [--chunk N] [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR | --checkpoint-dir DIR (deprecated)]
          [--checkpoint-every K] [--resume] [--metrics-every N]
  serve   --addr HOST:PORT --dt SECONDS [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR | --checkpoint-dir DIR (deprecated)]
          [--checkpoint-every K] [--keep-checkpoints K]
          [--durability none|interval|batch] [--max-body-mb M] [--max-tenants N]
          [--max-inflight N]
  metrics --input FILE.csv --dt SECONDS [--levels L] [--chunk N]
          [--fit-strategy exact|sketched] [--sketch-seed S] [--format json|prom]
  archive --model FILE.json [--tier f64|f32|q16] [--out FILE.arch] [--store-dir DIR]
  replay  --archive FILE.arch | --store-dir DIR
          [--from T0] [--to T1] [--out FILE.csv]";

/// Flags that take no value: their presence means `true`.
const BOOL_FLAGS: &[&str] = &["resume"];

/// The `--flag value` pairs of one invocation. Every lookup marks its
/// flag as read, so [`Flags::finish`] can reject the ones the subcommand
/// never asked for — a misspelled `--levles 3` is an error, not a
/// silent default.
struct Flags {
    values: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    fn opt(&self, name: &str) -> Option<String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name).cloned()
    }

    fn get(&self, name: &str) -> Result<String, CliError> {
        self.opt(name).ok_or_else(|| missing(name))
    }

    fn or(&self, name: &str, default: &str) -> String {
        self.opt(name).unwrap_or_else(|| default.to_string())
    }

    fn opt_num(&self, name: &str) -> Result<Option<f64>, CliError> {
        self.opt(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError(format!("--{name} must be a number")))
            })
            .transpose()
    }

    fn num(&self, name: &str) -> Result<f64, CliError> {
        self.opt_num(name)?.ok_or_else(|| missing(name))
    }

    fn opt_int<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.opt(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError(format!("--{name} must be an integer")))
            })
            .transpose()
    }

    fn int(&self, name: &str) -> Result<usize, CliError> {
        self.opt_int(name)?.ok_or_else(|| missing(name))
    }

    /// `cmd` once every flag given was read, else an error naming the
    /// first flag the subcommand does not take.
    fn finish(self, sub: &str, cmd: Command) -> Result<Command, CliError> {
        let read = self.read.into_inner();
        match self.values.keys().find(|k| !read.contains(*k)) {
            Some(flag) => Err(CliError(format!(
                "unknown flag --{flag} for `{sub}`\n{USAGE}"
            ))),
            None => Ok(cmd),
        }
    }
}

fn missing(name: &str) -> CliError {
    CliError(format!("missing required --{name}\n{USAGE}"))
}

/// Parses an argv slice (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError(USAGE.into()));
    };
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError(format!("expected a --flag, got `{flag}`")));
        };
        if BOOL_FLAGS.contains(&name) {
            values.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError(format!("flag --{name} needs a value")));
        };
        values.insert(name.to_string(), value.clone());
    }
    let f = Flags {
        values,
        read: RefCell::new(BTreeSet::new()),
    };
    let cmd = match sub.as_str() {
        "synth" => Command::Synth {
            nodes: f.int("nodes")?,
            steps: f.int("steps")?,
            seed: f.opt_int("seed")?.unwrap_or(42),
            out: f.get("out")?.into(),
        },
        "fit" => Command::Fit {
            input: f.get("input")?.into(),
            dt: f.num("dt")?,
            levels: f.opt_int("levels")?.unwrap_or(6),
            max_cycles: f.opt_int("max-cycles")?.unwrap_or(2),
            threads: f.opt_int("threads")?.unwrap_or(0),
            fit_strategy: f.or("fit-strategy", "exact"),
            sketch_seed: f.opt_int("sketch-seed")?,
            model: f.get("model")?.into(),
        },
        "update" => Command::Update {
            model: f.get("model")?.into(),
            input: f.get("input")?.into(),
            model_out: f.opt("model-out").map(PathBuf::from),
            threads: f.opt_int("threads")?,
        },
        "analyze" => Command::Analyze {
            model: f.get("model")?.into(),
            input: f.get("input")?.into(),
            band_lo: f.opt_num("band-lo")?,
            band_hi: f.opt_num("band-hi")?,
        },
        "render" => Command::Render {
            model: f.get("model")?.into(),
            input: f.get("input")?.into(),
            layout: f.get("layout")?,
            out: f.get("out")?.into(),
        },
        "info" => Command::Info {
            model: f.get("model")?.into(),
        },
        "health" => Command::Health {
            model: f.get("model")?.into(),
        },
        "stream" => Command::Stream {
            input: f.get("input")?.into(),
            dt: f.num("dt")?,
            chunk: f.opt_int("chunk")?.unwrap_or(64),
            levels: f.opt_int("levels")?.unwrap_or(6),
            threads: f.opt_int("threads")?.unwrap_or(0),
            gap_policy: f.or("gap-policy", "reject"),
            fit_strategy: f.or("fit-strategy", "exact"),
            sketch_seed: f.opt_int("sketch-seed")?,
            store_dir: f.opt("store-dir").map(PathBuf::from),
            checkpoint_dir: f.opt("checkpoint-dir").map(PathBuf::from),
            checkpoint_every: f.opt_int("checkpoint-every")?.unwrap_or(1),
            resume: f.opt("resume").is_some(),
            metrics_every: f.opt_int("metrics-every")?.unwrap_or(0),
            model: f.get("model")?.into(),
        },
        "serve" => Command::Serve {
            addr: f.get("addr")?,
            dt: f.num("dt")?,
            levels: f.opt_int("levels")?.unwrap_or(6),
            threads: f.opt_int("threads")?.unwrap_or(0),
            gap_policy: f.or("gap-policy", "interpolate"),
            fit_strategy: f.or("fit-strategy", "exact"),
            sketch_seed: f.opt_int("sketch-seed")?,
            store_dir: f.opt("store-dir").map(PathBuf::from),
            checkpoint_dir: f.opt("checkpoint-dir").map(PathBuf::from),
            checkpoint_every: f.opt_int("checkpoint-every")?.unwrap_or(1),
            keep_checkpoints: f.opt_int("keep-checkpoints")?.unwrap_or(3),
            durability: f.or("durability", "interval"),
            max_body_mb: f.opt_int("max-body-mb")?.unwrap_or(32),
            max_tenants: f.opt_int("max-tenants")?.unwrap_or(4096),
            max_inflight: f.opt_int("max-inflight")?.unwrap_or(256),
        },
        "metrics" => Command::Metrics {
            input: f.get("input")?.into(),
            dt: f.num("dt")?,
            levels: f.opt_int("levels")?.unwrap_or(6),
            chunk: f.opt_int("chunk")?.unwrap_or(64),
            fit_strategy: f.or("fit-strategy", "exact"),
            sketch_seed: f.opt_int("sketch-seed")?,
            format: f.or("format", "json"),
        },
        "archive" => Command::Archive {
            model: f.get("model")?.into(),
            tier: f.or("tier", "q16"),
            out: f.opt("out").map(PathBuf::from),
            store_dir: f.opt("store-dir").map(PathBuf::from),
        },
        "replay" => Command::Replay {
            archive: f.opt("archive").map(PathBuf::from),
            store_dir: f.opt("store-dir").map(PathBuf::from),
            from: f.opt_int("from")?,
            to: f.opt_int("to")?,
            out: f.opt("out").map(PathBuf::from),
        },
        other => return Err(CliError(format!("unknown subcommand `{other}`\n{USAGE}"))),
    };
    f.finish(sub, cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_fit() {
        let c = parse_args(&argv(
            "fit --input a.csv --dt 20 --levels 5 --threads 4 --model m.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Fit {
                input: "a.csv".into(),
                dt: 20.0,
                levels: 5,
                max_cycles: 2,
                threads: 4,
                fit_strategy: "exact".into(),
                sketch_seed: None,
                model: "m.json".into()
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let c = parse_args(&argv("synth --nodes 8 --steps 100 --out x.csv")).unwrap();
        assert_eq!(
            c,
            Command::Synth {
                nodes: 8,
                steps: 100,
                seed: 42,
                out: "x.csv".into()
            }
        );
        let c = parse_args(&argv("fit --input a.csv --dt 1 --model m.json")).unwrap();
        match c {
            Command::Fit {
                levels,
                max_cycles,
                threads,
                ..
            } => {
                assert_eq!(levels, 6);
                assert_eq!(max_cycles, 2);
                assert_eq!(threads, 0, "auto by default");
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_health() {
        let c = parse_args(&argv("health --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Health {
                model: "m.json".into()
            }
        );
        assert!(parse_args(&argv("health")).is_err());
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let e = parse_args(&argv("fit --input a.csv --dt 20")).unwrap_err();
        assert!(e.0.contains("--model"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(parse_args(&argv("frobnicate --x 1")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(parse_args(&argv("fit --input a.csv --dt abc --model m.json")).is_err());
        assert!(parse_args(&argv("synth --nodes x --steps 10 --out o.csv")).is_err());
    }

    #[test]
    fn update_optional_output() {
        let c = parse_args(&argv("update --model m.json --input b.csv")).unwrap();
        assert_eq!(
            c,
            Command::Update {
                model: "m.json".into(),
                input: "b.csv".into(),
                model_out: None,
                threads: None
            }
        );
        let c = parse_args(&argv(
            "update --model m.json --input b.csv --model-out n.json",
        ))
        .unwrap();
        match c {
            Command::Update { model_out, .. } => assert_eq!(model_out, Some("n.json".into())),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_stream_with_defaults() {
        let c = parse_args(&argv("stream --input a.csv --dt 20 --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Stream {
                input: "a.csv".into(),
                dt: 20.0,
                chunk: 64,
                levels: 6,
                threads: 0,
                gap_policy: "reject".into(),
                fit_strategy: "exact".into(),
                sketch_seed: None,
                store_dir: None,
                checkpoint_dir: None,
                checkpoint_every: 1,
                resume: false,
                metrics_every: 0,
                model: "m.json".into(),
            }
        );
    }

    #[test]
    fn parses_metrics_flags() {
        let c = parse_args(&argv("metrics --input a.csv --dt 20")).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                input: "a.csv".into(),
                dt: 20.0,
                levels: 6,
                chunk: 64,
                fit_strategy: "exact".into(),
                sketch_seed: None,
                format: "json".into(),
            }
        );
        let c = parse_args(&argv(
            "metrics --input a.csv --dt 20 --levels 4 --chunk 32 --format prom",
        ))
        .unwrap();
        match c {
            Command::Metrics {
                levels,
                chunk,
                format,
                ..
            } => {
                assert_eq!((levels, chunk), (4, 32));
                assert_eq!(format, "prom");
            }
            _ => panic!("wrong variant"),
        }
        assert!(parse_args(&argv("metrics --input a.csv")).is_err());
    }

    #[test]
    fn fit_strategy_flags_parse() {
        let c = parse_args(&argv(
            "fit --input a.csv --dt 1 --fit-strategy sketched --sketch-seed 7 --model m.json",
        ))
        .unwrap();
        match c {
            Command::Fit {
                fit_strategy,
                sketch_seed,
                ..
            } => {
                assert_eq!(fit_strategy, "sketched");
                assert_eq!(sketch_seed, Some(7));
            }
            _ => panic!("wrong variant"),
        }
        assert!(
            parse_args(&argv(
                "fit --input a.csv --dt 1 --sketch-seed x --model m.json"
            ))
            .is_err(),
            "--sketch-seed must be an integer"
        );
    }

    #[test]
    fn stream_metrics_every_parses() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --metrics-every 5",
        ))
        .unwrap();
        match c {
            Command::Stream { metrics_every, .. } => assert_eq!(metrics_every, 5),
            _ => panic!("wrong variant"),
        }
        assert!(parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --metrics-every x",
        ))
        .is_err());
    }

    #[test]
    fn stream_resume_is_a_bare_flag() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json \
             --gap-policy hold --checkpoint-dir ckpts --checkpoint-every 4 --resume",
        ))
        .unwrap();
        match c {
            Command::Stream {
                gap_policy,
                checkpoint_dir,
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(gap_policy, "hold");
                assert_eq!(checkpoint_dir, Some("ckpts".into()));
                assert_eq!(checkpoint_every, 4);
                assert!(resume);
            }
            _ => panic!("wrong variant"),
        }
        // --resume consumes no value: the next token is parsed as a flag.
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --resume --model m.json",
        ))
        .unwrap();
        match c {
            Command::Stream { resume, model, .. } => {
                assert!(resume);
                assert_eq!(model, PathBuf::from("m.json"));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                dt: 20.0,
                levels: 6,
                threads: 0,
                gap_policy: "interpolate".into(),
                fit_strategy: "exact".into(),
                sketch_seed: None,
                store_dir: None,
                checkpoint_dir: None,
                checkpoint_every: 1,
                keep_checkpoints: 3,
                durability: "interval".into(),
                max_body_mb: 32,
                max_tenants: 4096,
                max_inflight: 256,
            }
        );
        let c = parse_args(&argv(
            "serve --addr 0.0.0.0:9100 --dt 1 --levels 4 --threads 2 \
             --gap-policy hold --checkpoint-dir ck --checkpoint-every 8 \
             --keep-checkpoints 5 --durability batch \
             --max-body-mb 4 --max-tenants 64 --max-inflight 16",
        ))
        .unwrap();
        match c {
            Command::Serve {
                levels,
                threads,
                gap_policy,
                checkpoint_dir,
                checkpoint_every,
                keep_checkpoints,
                durability,
                max_body_mb,
                max_tenants,
                max_inflight,
                ..
            } => {
                assert_eq!((levels, threads), (4, 2));
                assert_eq!(gap_policy, "hold");
                assert_eq!(checkpoint_dir, Some("ck".into()));
                assert_eq!((checkpoint_every, max_body_mb, max_tenants), (8, 4, 64));
                assert_eq!((keep_checkpoints, max_inflight), (5, 16));
                assert_eq!(durability, "batch");
            }
            _ => panic!("wrong variant"),
        }
        assert!(
            parse_args(&argv("serve --dt 20")).is_err(),
            "--addr required"
        );
        assert!(
            parse_args(&argv("serve --addr 1.2.3.4:1")).is_err(),
            "--dt required"
        );
    }

    #[test]
    fn parses_archive_and_replay() {
        let c = parse_args(&argv("archive --model m.json")).unwrap();
        assert_eq!(
            c,
            Command::Archive {
                model: "m.json".into(),
                tier: "q16".into(),
                out: None,
                store_dir: None,
            }
        );
        let c = parse_args(&argv(
            "archive --model m.json --tier f64 --out m.arch --store-dir store",
        ))
        .unwrap();
        match c {
            Command::Archive {
                tier,
                out,
                store_dir,
                ..
            } => {
                assert_eq!(tier, "f64");
                assert_eq!(out, Some("m.arch".into()));
                assert_eq!(store_dir, Some("store".into()));
            }
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv(
            "replay --archive m.arch --from 100 --to 300 --out r.csv",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Replay {
                archive: Some("m.arch".into()),
                store_dir: None,
                from: Some(100),
                to: Some(300),
                out: Some("r.csv".into()),
            }
        );
        assert!(
            parse_args(&argv("replay --archive m.arch --from x")).is_err(),
            "--from must be an integer"
        );
    }

    #[test]
    fn store_dir_parses_on_stream_and_serve() {
        let c = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --store-dir store",
        ))
        .unwrap();
        match c {
            Command::Stream {
                store_dir,
                checkpoint_dir,
                ..
            } => {
                assert_eq!(store_dir, Some("store".into()));
                assert_eq!(checkpoint_dir, None);
            }
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20 --store-dir store")).unwrap();
        match c {
            Command::Serve { store_dir, .. } => assert_eq!(store_dir, Some("store".into())),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn misspelled_flags_are_rejected_by_name() {
        for cmd in [
            "fit --input a.csv --dt 20 --model m.json --levles 3",
            "stream --input a.csv --dt 20 --model m.json --levles 3",
            "serve --addr 127.0.0.1:0 --dt 20 --levles 3",
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert!(e.0.contains("unknown flag --levles"), "{cmd}: {e}");
        }
        // A flag another subcommand takes is still foreign here.
        let e = parse_args(&argv("fit --input a.csv --dt 20 --model m.json --resume")).unwrap_err();
        assert!(e.0.contains("unknown flag --resume for `fit`"), "{e}");
        let e = parse_args(&argv("info --model m.json --bogus-flag x")).unwrap_err();
        assert!(e.0.contains("unknown flag --bogus-flag"), "{e}");
    }

    #[test]
    fn analyze_band_flags() {
        let c = parse_args(&argv(
            "analyze --model m.json --input a.csv --band-lo 40 --band-hi 50",
        ))
        .unwrap();
        match c {
            Command::Analyze {
                band_lo, band_hi, ..
            } => {
                assert_eq!(band_lo, Some(40.0));
                assert_eq!(band_hi, Some(50.0));
            }
            _ => panic!("wrong variant"),
        }
    }
}
