//! Hand-rolled argument parsing (no external CLI dependency).

use std::fmt;
use surveyor::FailurePolicy;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
}

/// Everything `surveyor mine` / `surveyor run` takes.
#[derive(Debug, Clone, PartialEq)]
pub struct MineArgs {
    /// Preset name: `table2`, `cities`, or `longtail`.
    pub preset: String,
    /// Output JSON path (stdout when absent).
    pub out: Option<String>,
    /// Master seed.
    pub seed: u64,
    /// Occurrence threshold ρ.
    pub rho: u64,
    /// Corpus shards (at least 1; the parser rejects 0).
    pub shards: usize,
    /// Run-report destination: a JSON path, or `-` for a human table
    /// on stdout (no report when absent).
    pub report: Option<String>,
    /// Restrict mining to one author region (§2 region-specific mode).
    pub region: Option<String>,
    /// What to do when a shard exhausts its attempt budget
    /// (`--failure-policy`, with `--min-shard-coverage` as the floor of
    /// `degrade`).
    pub failure_policy: FailurePolicy,
    /// Seed for the fault-injection harness (`--chaos-seed`).
    pub chaos_seed: Option<u64>,
    /// Mine only shards `[0, N)` of the `--shards`-shard world and record
    /// incremental state (ingested ranges, replay queue) so the snapshot
    /// can later be extended with `surveyor update`.
    pub ingest_shards: Option<usize>,
}

impl MineArgs {
    /// Args for `preset` with every flag at its CLI default.
    pub fn new(preset: &str) -> Self {
        Self {
            preset: preset.to_owned(),
            out: None,
            seed: 2015,
            rho: 100,
            shards: 8,
            report: None,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
            ingest_shards: None,
        }
    }
}

/// Everything `surveyor update` takes.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateArgs {
    /// Base snapshot path (must carry incremental state).
    pub snapshot: String,
    /// Delta preset name (see `surveyor-corpus` `DELTA_PRESETS`).
    pub delta_preset: String,
    /// Updated snapshot output path.
    pub out: String,
    /// Master seed — must match the base snapshot's corpus.
    pub seed: u64,
    /// Restrict the delta to one author region (must match the base).
    pub region: Option<String>,
    /// What to do when a delta shard exhausts its attempt budget; the
    /// `degrade` floor is a fraction of the requested shards.
    pub failure_policy: FailurePolicy,
    /// Seed for the fault-injection harness.
    pub chaos_seed: Option<u64>,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Mine a preset world into a subjective knowledge base.
    Mine(MineArgs),
    /// Query the store a snapshot serves.
    Query {
        /// Snapshot input path.
        snapshot: String,
        /// Entity type name.
        type_name: String,
        /// Property surface form (e.g. `big` or `very big`).
        property: String,
        /// Return entities the property does *not* apply to.
        negative: bool,
        /// Maximum hits printed.
        limit: usize,
    },
    /// List the combinations a snapshot serves with their fitted
    /// parameters.
    Combos {
        /// Snapshot input path.
        snapshot: String,
    },
    /// Print sample documents from a preset corpus.
    Corpus {
        /// Preset name.
        preset: String,
        /// Master seed.
        seed: u64,
        /// Shard index.
        shard: usize,
        /// Documents printed.
        limit: usize,
    },
    /// Mine a preset and link a subjective property to an objective
    /// attribute (§9 future work).
    Link {
        /// Preset name (currently `cities`).
        preset: String,
        /// Attribute key (e.g. `population`).
        attribute: String,
        /// Master seed.
        seed: u64,
        /// Occurrence threshold ρ.
        rho: u64,
    },
    /// Mine a preset and save the whole mined world as a binary
    /// `surveyor-wire` snapshot (see FORMAT.md).
    Snapshot {
        /// Mining configuration (same flags as `mine`; its `out` field
        /// is unused — the snapshot path is `out` below).
        args: MineArgs,
        /// Snapshot output path (required).
        out: String,
        /// Also write the store JSON here (optional).
        store: Option<String>,
    },
    /// Ingest a delta corpus into an existing snapshot: re-extract only
    /// the new shards, merge evidence, re-decide only dirtied groups.
    Update(UpdateArgs),
    /// Load a binary snapshot and emit the store JSON without re-mining.
    Load {
        /// Snapshot input path.
        snapshot: String,
        /// Store JSON output path (stdout when absent).
        out: Option<String>,
    },
    /// Serve a binary snapshot over HTTP with the fault-hardened query
    /// server (deadlines, load shedding, hot reload).
    Serve {
        /// Snapshot input path.
        snapshot: String,
        /// Bind address (`host:port`; port 0 lets the OS pick).
        addr: String,
        /// Request worker threads.
        workers: usize,
        /// Bounded work-queue capacity (the load-shedding threshold).
        queue: usize,
        /// Per-request budget in milliseconds.
        budget_ms: u64,
        /// Enable the `/ctl/panic` and `/ctl/stall` fault-injection
        /// routes (tests and chaos benches only).
        debug_routes: bool,
    },
    /// Compare two binary snapshots section by section; exits 0 when
    /// identical, 1 when they differ.
    Diff {
        /// The older snapshot ("removed" means present only here).
        old: String,
        /// The newer snapshot ("added" means present only here).
        new: String,
        /// Output format.
        format: DiffFormat,
    },
}

/// Output format for `surveyor diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffFormat {
    /// Indented, truncated, human-readable report.
    #[default]
    Human,
    /// Machine-readable JSON with full key lists.
    Json,
}

impl std::str::FromStr for DiffFormat {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "human" => Ok(Self::Human),
            "json" => Ok(Self::Json),
            _ => Err(()),
        }
    }
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// Flag given without a value.
    MissingValue(String),
    /// Value failed to parse.
    BadValue(String, String),
    /// A required flag is absent.
    MissingFlag(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "missing subcommand\n{USAGE}"),
            Self::UnknownCommand(c) => write!(f, "unknown subcommand: {c}\n{USAGE}"),
            Self::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            Self::MissingValue(flag) => write!(f, "missing value for {flag}"),
            Self::BadValue(flag, v) => write!(f, "invalid value for {flag}: {v}"),
            Self::MissingFlag(flag) => write!(f, "required flag missing: {flag}"),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage:
  surveyor mine     --preset <table2|cities|longtail> [--out FILE] [--seed N] [--rho N] [--shards N] [--report FILE|-]
                    [--region NAME] [--failure-policy failfast|degrade] [--min-shard-coverage F] [--chaos-seed N]
                    [--ingest-shards N]
  surveyor run      [--preset NAME] [mine flags...]
  surveyor query    --snapshot FILE.swire --type NAME --property ADJ [--negative] [--limit N]
  surveyor combos   --snapshot FILE.swire
  surveyor corpus   --preset NAME [--seed N] [--shard N] [--limit N]
  surveyor link     --preset cities --attribute KEY [--seed N] [--rho N]
  surveyor snapshot --preset NAME --out FILE.swire [--store FILE] [mine flags...]
  surveyor update   --snapshot IN.swire --delta-preset NAME --out OUT.swire [--seed N] [--region NAME]
                    [--failure-policy failfast|degrade] [--min-shard-coverage F] [--chaos-seed N]
  surveyor load     --snapshot FILE.swire [--out FILE]
  surveyor serve    --snapshot FILE.swire [--addr HOST:PORT] [--workers N] [--queue N] [--budget-ms N] [--debug-routes]
  surveyor diff     --old FILE.swire --new FILE.swire [--format human|json]
global flags: --help | -h, --version | -V";

/// Simple flag scanner: collects `--flag value` pairs and boolean flags.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], booleans: &[&str]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(ParseError::UnknownFlag(arg.clone()));
            }
            if booleans.contains(&arg.as_str()) {
                pairs.push((arg.clone(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ParseError::MissingValue(arg.clone()))?;
                pairs.push((arg.clone(), Some(value.clone())));
            }
        }
        Ok(Self { pairs })
    }

    fn take(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| f == flag)
    }

    fn numeric<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ParseError> {
        match self.take(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError::BadValue(flag.to_owned(), v.to_owned())),
        }
    }

    /// [`numeric`](Self::numeric) for a count that must be at least 1.
    fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ParseError> {
        let n = self.numeric(flag, default)?;
        if n == T::from(0) {
            let v = self.take(flag).unwrap_or("0");
            return Err(ParseError::BadValue(flag.to_owned(), v.to_owned()));
        }
        Ok(n)
    }

    fn required(&self, flag: &'static str) -> Result<String, ParseError> {
        self.take(flag)
            .map(str::to_owned)
            .ok_or(ParseError::MissingFlag(flag))
    }

    fn validate_known(&self, known: &[&str]) -> Result<(), ParseError> {
        for (flag, _) in &self.pairs {
            if !known.contains(&flag.as_str()) {
                return Err(ParseError::UnknownFlag(flag.clone()));
            }
        }
        Ok(())
    }
}

/// Every flag the `mine` family accepts (shared by `mine`, `run`, and
/// `snapshot`).
const MINE_FLAGS: &[&str] = &[
    "--preset",
    "--out",
    "--seed",
    "--rho",
    "--shards",
    "--report",
    "--region",
    "--failure-policy",
    "--min-shard-coverage",
    "--chaos-seed",
    "--ingest-shards",
];

/// Parses the fault-tolerance flags shared by `mine` and `update`:
/// `(--failure-policy with --min-shard-coverage, --chaos-seed)`. The
/// coverage floor is range-checked even when the policy is `failfast`.
fn fault_flags_from(flags: &Flags) -> Result<(FailurePolicy, Option<u64>), ParseError> {
    let degrade = match flags.take("--failure-policy") {
        None | Some("failfast" | "fail-fast") => false,
        Some("degrade") => true,
        Some(v) => {
            return Err(ParseError::BadValue(
                "--failure-policy".to_owned(),
                v.to_owned(),
            ))
        }
    };
    let min_shard_coverage: f64 = flags.numeric("--min-shard-coverage", 0.9)?;
    if !(0.0..=1.0).contains(&min_shard_coverage) {
        return Err(ParseError::BadValue(
            "--min-shard-coverage".to_owned(),
            min_shard_coverage.to_string(),
        ));
    }
    let failure_policy = if degrade {
        FailurePolicy::Degrade { min_shard_coverage }
    } else {
        FailurePolicy::FailFast
    };
    let chaos_seed = match flags.take("--chaos-seed") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| ParseError::BadValue("--chaos-seed".to_owned(), v.to_owned()))?,
        ),
    };
    Ok((failure_policy, chaos_seed))
}

/// Builds [`MineArgs`] from already-validated flags. `preset` is resolved
/// by the caller (required for `mine`/`snapshot`, defaulted for `run`).
fn mine_args_from(flags: &Flags, preset: String) -> Result<MineArgs, ParseError> {
    let defaults = MineArgs::new(&preset);
    let (failure_policy, chaos_seed) = fault_flags_from(flags)?;
    let shards = flags.positive("--shards", defaults.shards)?;
    let ingest_shards = match flags.take("--ingest-shards") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| ParseError::BadValue("--ingest-shards".to_owned(), v.to_owned()))?;
            // The base must be a non-empty strict prefix of the world:
            // ingesting 0 shards mines nothing, and ingesting all of them
            // leaves no delta for `update` to add.
            if n == 0 || n > shards {
                return Err(ParseError::BadValue(
                    "--ingest-shards".to_owned(),
                    v.to_owned(),
                ));
            }
            Some(n)
        }
    };
    Ok(MineArgs {
        preset,
        out: flags.take("--out").map(str::to_owned),
        seed: flags.numeric("--seed", defaults.seed)?,
        rho: flags.numeric("--rho", defaults.rho)?,
        shards,
        report: flags.take("--report").map(str::to_owned),
        region: flags.take("--region").map(str::to_owned),
        failure_policy,
        chaos_seed,
        ingest_shards,
    })
}

impl Cli {
    /// Parses a full argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ParseError> {
        let (command, rest) = args.split_first().ok_or(ParseError::MissingCommand)?;
        let command = match command.as_str() {
            // `run` is `mine` with a defaulted preset — the spelling the
            // paper reproduction docs use for an observed end-to-end run.
            name @ ("mine" | "run") => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(MINE_FLAGS)?;
                let preset = if name == "run" {
                    flags.take("--preset").unwrap_or("table2").to_owned()
                } else {
                    flags.required("--preset")?
                };
                Command::Mine(mine_args_from(&flags, preset)?)
            }
            "snapshot" => {
                let flags = Flags::parse(rest, &[])?;
                let mut known = MINE_FLAGS.to_vec();
                known.push("--store");
                flags.validate_known(&known)?;
                let preset = flags.required("--preset")?;
                let out = flags.required("--out")?;
                let store = flags.take("--store").map(str::to_owned);
                let mut args = mine_args_from(&flags, preset)?;
                // `--out` names the snapshot, not a store JSON.
                args.out = None;
                Command::Snapshot { args, out, store }
            }
            "update" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&[
                    "--snapshot",
                    "--delta-preset",
                    "--out",
                    "--seed",
                    "--region",
                    "--failure-policy",
                    "--min-shard-coverage",
                    "--chaos-seed",
                ])?;
                let (failure_policy, chaos_seed) = fault_flags_from(&flags)?;
                Command::Update(UpdateArgs {
                    snapshot: flags.required("--snapshot")?,
                    delta_preset: flags.required("--delta-preset")?,
                    out: flags.required("--out")?,
                    seed: flags.numeric("--seed", 2015)?,
                    region: flags.take("--region").map(str::to_owned),
                    failure_policy,
                    chaos_seed,
                })
            }
            "load" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&["--snapshot", "--out"])?;
                Command::Load {
                    snapshot: flags.required("--snapshot")?,
                    out: flags.take("--out").map(str::to_owned),
                }
            }
            "serve" => {
                let flags = Flags::parse(rest, &["--debug-routes"])?;
                flags.validate_known(&[
                    "--snapshot",
                    "--addr",
                    "--workers",
                    "--queue",
                    "--budget-ms",
                    "--debug-routes",
                ])?;
                Command::Serve {
                    snapshot: flags.required("--snapshot")?,
                    addr: flags.take("--addr").unwrap_or("127.0.0.1:7387").to_owned(),
                    workers: flags.positive("--workers", 4)?,
                    queue: flags.positive("--queue", 64)?,
                    budget_ms: flags.positive("--budget-ms", 2_000)?,
                    debug_routes: flags.has("--debug-routes"),
                }
            }
            "diff" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&["--old", "--new", "--format"])?;
                let format = match flags.take("--format") {
                    None => DiffFormat::default(),
                    Some(v) => v
                        .parse()
                        .map_err(|()| ParseError::BadValue("--format".to_owned(), v.to_owned()))?,
                };
                Command::Diff {
                    old: flags.required("--old")?,
                    new: flags.required("--new")?,
                    format,
                }
            }
            "query" => {
                let flags = Flags::parse(rest, &["--negative"])?;
                flags.validate_known(&[
                    "--snapshot",
                    "--type",
                    "--property",
                    "--negative",
                    "--limit",
                ])?;
                Command::Query {
                    snapshot: flags.required("--snapshot")?,
                    type_name: flags.required("--type")?,
                    property: flags.required("--property")?,
                    negative: flags.has("--negative"),
                    limit: flags.positive("--limit", 10)?,
                }
            }
            "combos" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&["--snapshot"])?;
                Command::Combos {
                    snapshot: flags.required("--snapshot")?,
                }
            }
            "corpus" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&["--preset", "--seed", "--shard", "--limit"])?;
                Command::Corpus {
                    preset: flags.required("--preset")?,
                    seed: flags.numeric("--seed", 2015)?,
                    shard: flags.numeric("--shard", 0)?,
                    limit: flags.positive("--limit", 10)?,
                }
            }
            "link" => {
                let flags = Flags::parse(rest, &[])?;
                flags.validate_known(&["--preset", "--attribute", "--seed", "--rho"])?;
                Command::Link {
                    preset: flags.required("--preset")?,
                    attribute: flags.required("--attribute")?,
                    seed: flags.numeric("--seed", 2015)?,
                    rho: flags.numeric("--rho", 50)?,
                }
            }
            other => return Err(ParseError::UnknownCommand(other.to_owned())),
        };
        Ok(Self { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, ParseError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Cli::parse(&owned)
    }

    #[test]
    fn mine_with_defaults() {
        let cli = parse(&["mine", "--preset", "table2"]).unwrap();
        assert_eq!(cli.command, Command::Mine(MineArgs::new("table2")));
    }

    #[test]
    fn run_defaults_preset_and_takes_report() {
        let cli = parse(&["run", "--report", "out.json"]).unwrap();
        match cli.command {
            Command::Mine(args) => {
                assert_eq!(args.preset, "table2");
                assert_eq!(args.report.as_deref(), Some("out.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // `run` still honors an explicit preset; `mine` still requires one.
        let cli = parse(&["run", "--preset", "cities"]).unwrap();
        match cli.command {
            Command::Mine(args) => assert_eq!(args.preset, "cities"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse(&["mine"]), Err(ParseError::MissingFlag("--preset")));
    }

    #[test]
    fn mine_with_overrides() {
        let cli = parse(&[
            "mine", "--preset", "cities", "--out", "s.json", "--seed", "7", "--rho", "40",
            "--shards", "2",
        ])
        .unwrap();
        match cli.command {
            Command::Mine(args) => {
                assert_eq!(args.preset, "cities");
                assert_eq!(args.out.as_deref(), Some("s.json"));
                assert_eq!((args.seed, args.rho, args.shards), (7, 40, 2));
                assert_eq!(args.report, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mine_fault_tolerance_flags() {
        let cli = parse(&[
            "mine",
            "--preset",
            "table2",
            "--region",
            "west",
            "--failure-policy",
            "degrade",
            "--min-shard-coverage",
            "0.75",
            "--chaos-seed",
            "99",
        ])
        .unwrap();
        match cli.command {
            Command::Mine(args) => {
                assert_eq!(args.region.as_deref(), Some("west"));
                assert_eq!(
                    args.failure_policy,
                    FailurePolicy::Degrade {
                        min_shard_coverage: 0.75
                    }
                );
                assert_eq!(args.chaos_seed, Some(99));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Both spellings of fail-fast parse; junk does not.
        for spelling in ["failfast", "fail-fast"] {
            let cli = parse(&["mine", "--preset", "table2", "--failure-policy", spelling]);
            match cli.unwrap().command {
                Command::Mine(args) => {
                    assert_eq!(args.failure_policy, FailurePolicy::FailFast)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            parse(&["mine", "--preset", "table2", "--failure-policy", "shrug"]),
            Err(ParseError::BadValue(
                "--failure-policy".into(),
                "shrug".into()
            ))
        );
        assert_eq!(
            parse(&["mine", "--preset", "table2", "--min-shard-coverage", "1.5"]),
            Err(ParseError::BadValue(
                "--min-shard-coverage".into(),
                "1.5".into()
            ))
        );
    }

    #[test]
    fn query_requires_core_flags() {
        assert_eq!(
            parse(&["query", "--snapshot", "w.swire", "--type", "city"]),
            Err(ParseError::MissingFlag("--property"))
        );
        assert_eq!(
            parse(&["combos", "--store", "s.json"]),
            Err(ParseError::UnknownFlag("--store".into()))
        );
        let cli = parse(&[
            "query",
            "--snapshot",
            "w.swire",
            "--type",
            "city",
            "--property",
            "big",
            "--negative",
        ])
        .unwrap();
        match cli.command {
            Command::Query {
                negative, limit, ..
            } => {
                assert!(negative);
                assert_eq!(limit, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_informative() {
        assert_eq!(parse(&[]), Err(ParseError::MissingCommand));
        assert_eq!(
            parse(&["explode"]),
            Err(ParseError::UnknownCommand("explode".into()))
        );
        assert_eq!(
            parse(&["mine", "--preset", "table2", "--bogus", "1"]),
            Err(ParseError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(
            parse(&["mine", "--preset", "table2", "--seed"]),
            Err(ParseError::MissingValue("--seed".into()))
        );
        assert_eq!(
            parse(&["mine", "--preset", "table2", "--seed", "abc"]),
            Err(ParseError::BadValue("--seed".into(), "abc".into()))
        );
    }

    #[test]
    fn snapshot_requires_preset_and_out() {
        assert_eq!(
            parse(&["snapshot", "--out", "w.swire"]),
            Err(ParseError::MissingFlag("--preset"))
        );
        assert_eq!(
            parse(&["snapshot", "--preset", "table2"]),
            Err(ParseError::MissingFlag("--out"))
        );
        let cli = parse(&[
            "snapshot", "--preset", "cities", "--out", "w.swire", "--store", "s.json", "--seed",
            "7", "--rho", "40",
        ])
        .unwrap();
        match cli.command {
            Command::Snapshot { args, out, store } => {
                assert_eq!(out, "w.swire");
                assert_eq!(store.as_deref(), Some("s.json"));
                assert_eq!(args.preset, "cities");
                assert_eq!((args.seed, args.rho), (7, 40));
                // `--out` belongs to the snapshot, not the store JSON.
                assert_eq!(args.out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mine_ingest_shards_must_be_a_nonempty_prefix() {
        let cli = parse(&[
            "mine",
            "--preset",
            "table2",
            "--shards",
            "8",
            "--ingest-shards",
            "6",
        ])
        .unwrap();
        match cli.command {
            Command::Mine(args) => {
                assert_eq!(args.shards, 8);
                assert_eq!(args.ingest_shards, Some(6));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero shards and more-than-the-world are both rejected up front.
        for bad in ["0", "9"] {
            assert_eq!(
                parse(&["mine", "--preset", "table2", "--ingest-shards", bad]),
                Err(ParseError::BadValue("--ingest-shards".into(), bad.into())),
                "--ingest-shards {bad}"
            );
        }
        // Ingesting every shard is allowed for `mine` (a full run that
        // still records state), just not zero.
        let cli = parse(&["mine", "--preset", "table2", "--ingest-shards", "8"]).unwrap();
        match cli.command {
            Command::Mine(args) => assert_eq!(args.ingest_shards, Some(8)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_requires_snapshot_delta_preset_and_out() {
        assert_eq!(
            parse(&["update", "--delta-preset", "table2-tail", "--out", "b"]),
            Err(ParseError::MissingFlag("--snapshot"))
        );
        assert_eq!(
            parse(&["update", "--snapshot", "a.swire", "--out", "b.swire"]),
            Err(ParseError::MissingFlag("--delta-preset"))
        );
        assert_eq!(
            parse(&["update", "--snapshot", "a.swire", "--delta-preset", "x"]),
            Err(ParseError::MissingFlag("--out"))
        );
        let cli = parse(&[
            "update",
            "--snapshot",
            "a.swire",
            "--delta-preset",
            "table2-tail",
            "--out",
            "b.swire",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Update(UpdateArgs {
                snapshot: "a.swire".to_owned(),
                delta_preset: "table2-tail".to_owned(),
                out: "b.swire".to_owned(),
                seed: 2015,
                region: None,
                failure_policy: FailurePolicy::FailFast,
                chaos_seed: None,
            })
        );
    }

    #[test]
    fn update_overrides_and_warm_mode() {
        let cli = parse(&[
            "update",
            "--snapshot",
            "a.swire",
            "--delta-preset",
            "cities-tail",
            "--out",
            "b.swire",
            "--seed",
            "7",
            "--failure-policy",
            "degrade",
            "--min-shard-coverage",
            "0.5",
            "--chaos-seed",
            "99",
        ])
        .unwrap();
        match cli.command {
            Command::Update(args) => {
                assert_eq!(args.seed, 7);
                assert_eq!(
                    args.failure_policy,
                    FailurePolicy::Degrade {
                        min_shard_coverage: 0.5
                    }
                );
                assert_eq!(args.chaos_seed, Some(99));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&[
                "update",
                "--snapshot",
                "a",
                "--delta-preset",
                "x",
                "--out",
                "b",
                "--warm",
                "seeded",
            ]),
            Err(ParseError::UnknownFlag("--warm".into()))
        );
        assert_eq!(
            parse(&[
                "update",
                "--snapshot",
                "a",
                "--delta-preset",
                "x",
                "--out",
                "b",
                "--rho",
                "5",
            ]),
            Err(ParseError::UnknownFlag("--rho".into()))
        );
    }

    #[test]
    fn load_takes_snapshot_and_optional_out() {
        assert_eq!(parse(&["load"]), Err(ParseError::MissingFlag("--snapshot")));
        let cli = parse(&["load", "--snapshot", "w.swire", "--out", "s.json"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Load {
                snapshot: "w.swire".to_owned(),
                out: Some("s.json".to_owned()),
            }
        );
        assert_eq!(
            parse(&["load", "--snapshot", "w.swire", "--bogus", "1"]),
            Err(ParseError::UnknownFlag("--bogus".into()))
        );
    }

    #[test]
    fn serve_defaults_and_overrides() {
        assert_eq!(
            parse(&["serve"]),
            Err(ParseError::MissingFlag("--snapshot"))
        );
        let cli = parse(&["serve", "--snapshot", "w.swire"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                snapshot: "w.swire".to_owned(),
                addr: "127.0.0.1:7387".to_owned(),
                workers: 4,
                queue: 64,
                budget_ms: 2_000,
                debug_routes: false,
            }
        );
        let cli = parse(&[
            "serve",
            "--snapshot",
            "w.swire",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--budget-ms",
            "500",
            "--debug-routes",
        ])
        .unwrap();
        match cli.command {
            Command::Serve {
                workers,
                queue,
                budget_ms,
                debug_routes,
                ..
            } => {
                assert_eq!((workers, queue, budget_ms), (2, 8, 500));
                assert!(debug_routes);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_counts_are_rejected() {
        // Each flag counts something there must be at least one of: 0 is
        // a usage error, not a quiet 1.
        for (prefix, flag) in [
            (&["mine", "--preset", "cities"][..], "--shards"),
            (&["run"], "--shards"),
            (
                &["snapshot", "--preset", "cities", "--out", "w"],
                "--shards",
            ),
            (&["corpus", "--preset", "cities"], "--limit"),
            (
                &[
                    "query",
                    "--snapshot",
                    "w",
                    "--type",
                    "city",
                    "--property",
                    "big",
                ],
                "--limit",
            ),
            (&["serve", "--snapshot", "w"], "--workers"),
            (&["serve", "--snapshot", "w"], "--queue"),
            (&["serve", "--snapshot", "w"], "--budget-ms"),
        ] {
            let args = [prefix, &[flag, "0"]].concat();
            let expected = Err(ParseError::BadValue(flag.into(), "0".into()));
            assert_eq!(parse(&args), expected, "{args:?}");
        }
    }

    #[test]
    fn diff_requires_both_snapshots_and_validates_format() {
        assert_eq!(
            parse(&["diff", "--old", "a.swire"]),
            Err(ParseError::MissingFlag("--new"))
        );
        let cli = parse(&["diff", "--old", "a.swire", "--new", "b.swire"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Diff {
                old: "a.swire".to_owned(),
                new: "b.swire".to_owned(),
                format: DiffFormat::Human,
            }
        );
        let cli = parse(&[
            "diff", "--old", "a.swire", "--new", "b.swire", "--format", "json",
        ])
        .unwrap();
        match cli.command {
            Command::Diff { format, .. } => assert_eq!(format, DiffFormat::Json),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&["diff", "--old", "a", "--new", "b", "--format", "yaml"]),
            Err(ParseError::BadValue("--format".into(), "yaml".into()))
        );
        // The operands are flags: a bare path is refused, not guessed.
        assert_eq!(
            parse(&["diff", "old.swire", "new.swire"]),
            Err(ParseError::UnknownFlag("old.swire".into()))
        );
    }

    #[test]
    fn last_flag_occurrence_wins() {
        let cli = parse(&["mine", "--preset", "a", "--preset", "b"]).unwrap();
        match cli.command {
            Command::Mine(args) => assert_eq!(args.preset, "b"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
