//! Argument parsing — hand-rolled `--flag value` pairs, no dependencies.
//!
//! Every flag is read once, here, straight into the typed value the
//! library defines ([`IMrDmdConfig`], [`GapPolicy`], [`QuantTier`],
//! [`ServeConfig`], …), so a bad value fails at parse time and the
//! commands never see a string.

use crate::CliError;
use imrdmd::prelude::*;
use imrdmd_serve::{HttpLimits, ServeConfig};
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
        /// The model flags (`--dt`, `--levels`, `--max-cycles`,
        /// `--threads`, `--fit-strategy`, `--sketch-seed`).
        config: IMrDmdConfig,
        /// Output model file (a shard checkpoint).
        model: PathBuf,
    },
    /// Stream a new snapshot CSV into an existing model: one guarded round.
    Update {
        /// Model file to update.
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
        /// Model file (a shard checkpoint).
        model: PathBuf,
        /// The telemetry CSV the model was fitted on (for baseline bands).
        input: PathBuf,
        /// Baseline band `(lo, hi)` in raw units; quantile band if omitted.
        band: Option<(f64, f64)>,
    },
    /// Render a rack view SVG from a model + layout string.
    Render {
        /// Model file (a shard checkpoint).
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
        /// Model file (a shard checkpoint).
        model: PathBuf,
    },
    /// Print a model's numerical health: per-level node counts, coverage,
    /// solver statistics, and the last recorded solver error.
    Health {
        /// Model file (a shard checkpoint).
        model: PathBuf,
    },
    /// Stream a snapshot CSV through the guarded ingest path in chunks,
    /// with periodic checkpointing and crash-resume.
    Stream(StreamArgs),
    /// Run the multi-tenant serving daemon (see `imrdmd-serve`).
    Serve {
        /// Listen address, e.g. `127.0.0.1:8080` or `0.0.0.0:9100`
        /// (`:0` binds an ephemeral port).
        addr: String,
        /// The daemon configuration: [`ServeConfig::default`] with the
        /// given flags applied.
        config: ServeConfig,
    },
    /// Stream a snapshot CSV through a fit and print the final metrics
    /// snapshot (JSON or Prometheus text exposition).
    Metrics {
        /// Input snapshot CSV.
        input: PathBuf,
        /// The model flags (`--dt`, `--levels`, `--fit-strategy`,
        /// `--sketch-seed`).
        config: IMrDmdConfig,
        /// Snapshots per ingest batch.
        chunk: usize,
        /// Output format.
        format: MetricsFormat,
    },
    /// Write a fitted model as a compressed, seekable mode archive.
    Archive {
        /// Model file to archive.
        model: PathBuf,
        /// Quantization tier.
        tier: QuantTier,
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

/// The flags of `stream`.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamArgs {
    /// Input snapshot CSV (may contain NaN gaps as empty fields).
    pub input: PathBuf,
    /// The model flags (`--dt`, `--levels`, `--threads`, `--fit-strategy`,
    /// `--sketch-seed`).
    pub config: IMrDmdConfig,
    /// Snapshots per ingest batch.
    pub chunk: usize,
    /// Gap repair policy.
    pub policy: GapPolicy,
    /// Where checkpoints go: `<store-dir>/checkpoints`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N chunks.
    pub checkpoint_every: usize,
    /// Resume from the newest checkpoint in the checkpoint directory
    /// instead of fitting from scratch.
    pub resume: bool,
    /// Emit a JSON-line metrics snapshot every N chunks (0 = off).
    pub metrics_every: usize,
    /// Output model file (a shard checkpoint).
    pub model: PathBuf,
}

/// How `metrics` prints its snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One JSON document.
    Json,
    /// Prometheus text exposition.
    Prom,
}

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage: imrdmd-cli <synth|fit|update|analyze|render|info|health|stream|serve|metrics|archive|replay> [--flag value]...
  synth   --nodes N --steps T [--seed S] --out FILE.csv
  fit     --input FILE.csv --dt SECONDS [--levels L] [--max-cycles C] [--threads N]
          [--fit-strategy exact|sketched] [--sketch-seed S] --model MODEL
  update  --model MODEL --input FILE.csv [--model-out MODEL] [--threads N]
  analyze --model MODEL --input FILE.csv [--band-lo X --band-hi Y]
  render  --model MODEL --input FILE.csv --layout \"SPEC\" --out FILE.svg
  info    --model MODEL
  health  --model MODEL
  stream  --input FILE.csv --dt SECONDS --model MODEL [--chunk N] [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR] [--checkpoint-every K] [--resume] [--metrics-every N]
  serve   --addr HOST:PORT --dt SECONDS [--levels L] [--threads N]
          [--gap-policy reject|hold|interpolate|mask]
          [--fit-strategy exact|sketched] [--sketch-seed S]
          [--store-dir DIR] [--checkpoint-every K] [--keep-checkpoints K]
          [--durability none|interval|batch] [--max-body-mb M] [--max-tenants N]
          [--max-inflight N]
  metrics --input FILE.csv --dt SECONDS [--levels L] [--chunk N]
          [--fit-strategy exact|sketched] [--sketch-seed S] [--format json|prom]
  archive --model MODEL [--tier f64|f32|q16] [--out FILE.arch] [--store-dir DIR]
  replay  --archive FILE.arch | --store-dir DIR
          [--from T0] [--to T1] [--out FILE.csv]
MODEL is a shard checkpoint (model, gap guard, round count), as in DIR/checkpoints;
fit and update reject gaps like stream, whose --gap-policy can repair them.";

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

    /// `--name` through `parse`, or `default` when absent. A value `parse`
    /// rejects is ``unknown --name `value` `` followed by `expected`.
    fn choice<T>(
        &self,
        name: &str,
        default: T,
        parse: impl Fn(&str) -> Option<T>,
        expected: &str,
    ) -> Result<T, CliError> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => {
                parse(&v).ok_or_else(|| CliError(format!("unknown --{name} `{v}`{expected}")))
            }
        }
    }

    /// The model flags `fit`, `stream`, `serve` and `metrics` share —
    /// `--dt`, `--levels`, `--fit-strategy`, `--sketch-seed` — built and
    /// validated into the streaming configuration with the caller's
    /// `max_cycles` and `threads`. `sketched` uses the library's standard
    /// oversampling and power-iteration budget with a fixed default seed,
    /// so runs stay reproducible unless a seed is given explicitly.
    fn model(&self, max_cycles: usize, threads: usize) -> Result<IMrDmdConfig, CliError> {
        let dt = self.num("dt")?;
        if dt <= 0.0 {
            return Err(CliError("--dt must be positive".into()));
        }
        let levels: usize = self.opt_int("levels")?.unwrap_or(6);
        let seed = self.opt_int("sketch-seed")?;
        let strategy = self.choice(
            "fit-strategy",
            FitStrategy::Exact,
            |v| match v {
                "exact" => Some(FitStrategy::Exact),
                "sketched" => Some(FitStrategy::Sketched {
                    rank_oversample: 8,
                    power_iters: 2,
                    seed: seed.unwrap_or(hpc_linalg::DEFAULT_SKETCH_SEED),
                }),
                _ => None,
            },
            " (expected exact or sketched)",
        )?;
        let cfg = IMrDmdConfig {
            mr: MrDmdConfig {
                dt,
                max_levels: levels.max(1),
                max_cycles: max_cycles.max(1),
                rank: RankSelection::Svht,
                n_threads: threads,
                strategy,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// `--threads` (0 = auto, 1 = serial).
    fn threads(&self) -> Result<usize, CliError> {
        Ok(self.opt_int("threads")?.unwrap_or(0))
    }

    /// `--chunk`, the snapshots per ingest batch of `stream` and `metrics`.
    fn chunk(&self) -> Result<usize, CliError> {
        let chunk = self.opt_int("chunk")?.unwrap_or(64);
        if chunk < 2 {
            return Err(CliError("--chunk must be at least 2".into()));
        }
        Ok(chunk)
    }

    /// `--store-dir DIR` as the checkpoint directory `DIR/checkpoints`.
    fn checkpoint_dir(&self) -> Option<PathBuf> {
        self.opt("store-dir")
            .map(|dir| PathBuf::from(dir).join("checkpoints"))
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
    let Some((sub, rest)) = args.split_first() else {
        return Err(CliError(USAGE.into()));
    };
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = rest.iter();
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
            config: f.model(f.opt_int("max-cycles")?.unwrap_or(2), f.threads()?)?,
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
            band: match (f.opt_num("band-lo")?, f.opt_num("band-hi")?) {
                (None, None) => None,
                (Some(lo), Some(hi)) if lo <= hi => Some((lo, hi)),
                _ => {
                    return Err(CliError(
                        "--band-lo and --band-hi must be given together, lo ≤ hi".into(),
                    ))
                }
            },
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
        "stream" => {
            let checkpoint_dir = f.checkpoint_dir();
            let resume = f.opt("resume").is_some();
            if resume && checkpoint_dir.is_none() {
                return Err(CliError("--resume needs --store-dir".into()));
            }
            Command::Stream(StreamArgs {
                input: f.get("input")?.into(),
                config: f.model(2, f.threads()?)?,
                chunk: f.chunk()?,
                policy: f.choice("gap-policy", GapPolicy::Reject, GapPolicy::parse, "")?,
                checkpoint_dir,
                checkpoint_every: f.opt_int("checkpoint-every")?.unwrap_or(1),
                resume,
                metrics_every: f.opt_int("metrics-every")?.unwrap_or(0),
                model: f.get("model")?.into(),
            })
        }
        "serve" => {
            let d = ServeConfig::default();
            let max_body_bytes = match f.opt_int::<usize>("max-body-mb")? {
                None => d.limits.max_body_bytes,
                Some(0) => return Err(CliError("--max-body-mb must be at least 1".into())),
                Some(mb) => mb.saturating_mul(1024 * 1024),
            };
            Command::Serve {
                addr: f.get("addr")?,
                config: ServeConfig {
                    model: f.model(2, f.threads()?)?,
                    policy: f.choice("gap-policy", d.policy, GapPolicy::parse, "")?,
                    checkpoint_dir: f.checkpoint_dir(),
                    checkpoint_every: f.opt_int("checkpoint-every")?.unwrap_or(d.checkpoint_every),
                    keep_checkpoints: f.opt_int("keep-checkpoints")?.unwrap_or(d.keep_checkpoints),
                    durability: f.choice("durability", d.durability, Durability::parse, "")?,
                    limits: HttpLimits {
                        max_body_bytes,
                        ..d.limits
                    },
                    max_tenants: f.opt_int("max-tenants")?.unwrap_or(d.max_tenants),
                    max_inflight: f.opt_int("max-inflight")?.unwrap_or(d.max_inflight),
                    ..d
                },
            }
        }
        "metrics" => Command::Metrics {
            input: f.get("input")?.into(),
            config: f.model(2, 0)?,
            chunk: f.chunk()?,
            format: f.choice(
                "format",
                MetricsFormat::Json,
                |v| match v {
                    "json" => Some(MetricsFormat::Json),
                    "prom" => Some(MetricsFormat::Prom),
                    _ => None,
                },
                " (expected json or prom)",
            )?,
        },
        "archive" => Command::Archive {
            model: f.get("model")?.into(),
            tier: f.choice(
                "tier",
                QuantTier::Q16,
                QuantTier::parse,
                " (expected f64, f32, or q16)",
            )?,
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

    /// The streaming configuration of the model flags, as the library
    /// defaults fill in everything the CLI does not set.
    fn model_cfg(dt: f64, levels: usize, threads: usize, strategy: FitStrategy) -> IMrDmdConfig {
        IMrDmdConfig {
            mr: MrDmdConfig {
                dt,
                max_levels: levels,
                max_cycles: 2,
                rank: RankSelection::Svht,
                n_threads: threads,
                strategy,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        }
    }

    fn stream_args(cmd: &str) -> StreamArgs {
        match parse_args(&argv(cmd)).unwrap() {
            Command::Stream(s) => s,
            other => panic!("wrong variant: {other:?}"),
        }
    }

    fn serve_config(cmd: &str) -> ServeConfig {
        match parse_args(&argv(cmd)).unwrap() {
            Command::Serve { config, .. } => config,
            other => panic!("wrong variant: {other:?}"),
        }
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
                config: model_cfg(20.0, 5, 4, FitStrategy::Exact),
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
            Command::Fit { config, .. } => {
                assert_eq!(config.mr.max_levels, 6);
                assert_eq!(config.mr.max_cycles, 2);
                assert_eq!(config.mr.n_threads, 0, "auto by default");
            }
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv(
            "fit --input a.csv --dt 1 --max-cycles 3 --model m.json",
        ))
        .unwrap();
        match c {
            Command::Fit { config, .. } => assert_eq!(config.mr.max_cycles, 3),
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
    fn model_flags_are_checked_once_for_every_subcommand() {
        for cmd in [
            "fit --input a.csv --dt 0 --model m.json",
            "stream --input a.csv --dt -1 --model m.json",
            "serve --addr 127.0.0.1:0 --dt 0",
            "metrics --input a.csv --dt 0",
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert_eq!(e.0, "--dt must be positive", "{cmd}");
        }
        for cmd in [
            "stream --input a.csv --dt 20 --model m.json --chunk 1",
            "metrics --input a.csv --dt 20 --chunk 0",
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert_eq!(e.0, "--chunk must be at least 2", "{cmd}");
        }
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
            Command::Stream(StreamArgs {
                input: "a.csv".into(),
                config: model_cfg(20.0, 6, 0, FitStrategy::Exact),
                chunk: 64,
                policy: GapPolicy::Reject,
                checkpoint_dir: None,
                checkpoint_every: 1,
                resume: false,
                metrics_every: 0,
                model: "m.json".into(),
            })
        );
    }

    #[test]
    fn parses_metrics_flags() {
        let c = parse_args(&argv("metrics --input a.csv --dt 20")).unwrap();
        assert_eq!(
            c,
            Command::Metrics {
                input: "a.csv".into(),
                config: model_cfg(20.0, 6, 0, FitStrategy::Exact),
                chunk: 64,
                format: MetricsFormat::Json,
            }
        );
        let c = parse_args(&argv(
            "metrics --input a.csv --dt 20 --levels 4 --chunk 32 --format prom",
        ))
        .unwrap();
        match c {
            Command::Metrics {
                config,
                chunk,
                format,
                ..
            } => {
                assert_eq!((config.mr.max_levels, chunk), (4, 32));
                assert_eq!(format, MetricsFormat::Prom);
            }
            _ => panic!("wrong variant"),
        }
        assert!(parse_args(&argv("metrics --input a.csv")).is_err());
        let e = parse_args(&argv("metrics --input a.csv --dt 20 --threads 2")).unwrap_err();
        assert!(e.0.contains("unknown flag --threads for `metrics`"), "{e}");
    }

    #[test]
    fn fit_strategy_flags_parse() {
        let c = parse_args(&argv(
            "fit --input a.csv --dt 1 --fit-strategy sketched --sketch-seed 7 --model m.json",
        ))
        .unwrap();
        match c {
            Command::Fit { config, .. } => assert_eq!(
                config.mr.strategy,
                FitStrategy::Sketched {
                    rank_oversample: 8,
                    power_iters: 2,
                    seed: 7
                }
            ),
            _ => panic!("wrong variant"),
        }
        let c = parse_args(&argv(
            "fit --input a.csv --dt 1 --fit-strategy sketched --model m.json",
        ))
        .unwrap();
        match c {
            Command::Fit { config, .. } => assert_eq!(
                config.mr.strategy,
                FitStrategy::Sketched {
                    rank_oversample: 8,
                    power_iters: 2,
                    seed: hpc_linalg::DEFAULT_SKETCH_SEED
                },
                "a fixed default seed keeps sketched runs reproducible"
            ),
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
    fn enum_flags_reject_bad_values_with_their_messages() {
        for (cmd, msg) in [
            (
                "stream --input a.csv --dt 20 --model m.json --gap-policy frob",
                "unknown --gap-policy `frob`",
            ),
            (
                "serve --addr 127.0.0.1:0 --dt 20 --gap-policy frob",
                "unknown --gap-policy `frob`",
            ),
            (
                "fit --input a.csv --dt 20 --fit-strategy frob --model m.json",
                "unknown --fit-strategy `frob` (expected exact or sketched)",
            ),
            (
                "metrics --input a.csv --dt 20 --fit-strategy frob",
                "unknown --fit-strategy `frob` (expected exact or sketched)",
            ),
            (
                "serve --addr 127.0.0.1:0 --dt 20 --durability sometimes",
                "unknown --durability `sometimes`",
            ),
            (
                "archive --model m.json --tier f16",
                "unknown --tier `f16` (expected f64, f32, or q16)",
            ),
            (
                "metrics --input a.csv --dt 20 --format yaml",
                "unknown --format `yaml` (expected json or prom)",
            ),
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert_eq!(e.0, msg, "{cmd}");
        }
    }

    #[test]
    fn stream_metrics_every_parses() {
        let s = stream_args("stream --input a.csv --dt 20 --model m.json --metrics-every 5");
        assert_eq!(s.metrics_every, 5);
        assert!(parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --metrics-every x",
        ))
        .is_err());
    }

    #[test]
    fn stream_resume_is_a_bare_flag() {
        let s = stream_args(
            "stream --input a.csv --dt 20 --model m.json \
             --gap-policy hold --store-dir store --checkpoint-every 4 --resume",
        );
        assert_eq!(s.policy, GapPolicy::HoldLast);
        assert_eq!(s.checkpoint_dir, Some("store/checkpoints".into()));
        assert_eq!(s.checkpoint_every, 4);
        assert!(s.resume);
        // --resume consumes no value: the next token is parsed as a flag.
        let s = stream_args("stream --input a.csv --dt 20 --resume --store-dir s --model m.json");
        assert!(s.resume);
        assert_eq!(s.model, PathBuf::from("m.json"));
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20")).unwrap();
        let Command::Serve { addr, config } = c else {
            panic!("wrong variant");
        };
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(config.model, model_cfg(20.0, 6, 0, FitStrategy::Exact));
        assert_eq!(config.policy, GapPolicy::Interpolate);
        assert_eq!(config.checkpoint_dir, None);
        assert_eq!(config.checkpoint_every, 1);
        assert_eq!(config.keep_checkpoints, 3);
        assert_eq!(config.durability, Durability::Interval);
        assert_eq!(config.limits.max_body_bytes, 32 * 1024 * 1024);
        assert_eq!(config.max_tenants, 4096);
        assert_eq!(config.max_inflight, 256);
        let d = ServeConfig::default();
        assert_eq!(config.read_timeout, d.read_timeout);
        assert_eq!(config.max_connections, d.max_connections);

        let config = serve_config(
            "serve --addr 0.0.0.0:9100 --dt 1 --levels 4 --threads 2 \
             --gap-policy hold --store-dir ck --checkpoint-every 8 \
             --keep-checkpoints 5 --durability batch \
             --max-body-mb 4 --max-tenants 64 --max-inflight 16",
        );
        assert_eq!(config.model, model_cfg(1.0, 4, 2, FitStrategy::Exact));
        assert_eq!(config.policy, GapPolicy::HoldLast);
        assert_eq!(config.checkpoint_dir, Some("ck/checkpoints".into()));
        assert_eq!(
            (
                config.checkpoint_every,
                config.limits.max_body_bytes,
                config.max_tenants
            ),
            (8, 4 * 1024 * 1024, 64)
        );
        assert_eq!((config.keep_checkpoints, config.max_inflight), (5, 16));
        assert_eq!(config.durability, Durability::Batch);
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
                tier: QuantTier::Q16,
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
                assert_eq!(tier, QuantTier::F64);
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
        let s = stream_args("stream --input a.csv --dt 20 --model m.json --store-dir store");
        assert_eq!(s.checkpoint_dir, Some("store/checkpoints".into()));
        let config = serve_config("serve --addr 127.0.0.1:0 --dt 20 --store-dir store");
        assert_eq!(config.checkpoint_dir, Some("store/checkpoints".into()));
    }

    #[test]
    fn checkpoint_dir_is_not_a_flag() {
        for cmd in [
            "stream --input a.csv --dt 20 --model m.json --checkpoint-dir c",
            "serve --addr 127.0.0.1:0 --dt 20 --checkpoint-dir c",
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert!(e.0.contains("unknown flag --checkpoint-dir"), "{cmd}: {e}");
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
            Command::Analyze { band, .. } => assert_eq!(band, Some((40.0, 50.0))),
            _ => panic!("wrong variant"),
        }
        for cmd in [
            "analyze --model m.json --input a.csv --band-lo 40",
            "analyze --model m.json --input a.csv --band-lo 50 --band-hi 40",
        ] {
            let e = parse_args(&argv(cmd)).unwrap_err();
            assert!(
                e.0.contains("must be given together, lo ≤ hi"),
                "{cmd}: {e}"
            );
        }
    }
}
