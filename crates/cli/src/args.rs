//! The command line, said once: [`COMMANDS`] lists each subcommand with
//! the flags it reads and the function that runs it. [`parse`] checks an
//! invocation against that table, [`usage`] prints it, and `main` calls
//! the entry's `run` (no external CLI dependency).

use crate::commands;
use crate::error::CliError;
use crate::Outcome;
use std::str::FromStr;
use std::time::Duration;
use surveyor::FailurePolicy;
use surveyor_server::ServerConfig;
use Kind::{Defaulted, Optional, Required, Switch};

/// Everything `surveyor mine` / `surveyor run` takes.
#[derive(Debug, Clone, PartialEq)]
pub struct MineArgs {
    /// Preset name: `table2`, `cities`, or `longtail`.
    pub preset: String,
    /// `--out`: the store JSON for `mine` (stdout when absent), the
    /// snapshot for `snapshot`, which is handed it separately.
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
    /// Mine only shards `[0, N)` of the `--shards`-shard world. `snapshot`
    /// also records incremental state (ingested ranges, replay queue) so
    /// the snapshot can later be extended with `surveyor update`.
    pub ingest_shards: Option<usize>,
}

impl MineArgs {
    /// Args for `preset` with every flag at its `mine` default, read from
    /// [`COMMANDS`].
    #[expect(
        clippy::expect_used,
        reason = "the table's own defaults parse; `args::tests::mine_with_defaults` pins them"
    )]
    pub fn new(preset: &str) -> Self {
        let flags = Flags {
            table: MINE_FLAGS,
            given: vec![("--preset", Some(preset.to_owned()))],
        };
        Self::from_flags(&flags).expect("`mine`'s defaults parse")
    }

    /// The mining configuration `mine`, `run` or `snapshot` was given.
    pub fn from_flags(flags: &Flags) -> Result<Self, CliError> {
        let (failure_policy, chaos_seed) = fault_flags(flags)?;
        let shards = flags.count("--shards")?;
        let ingest_shards = flags.get("--ingest-shards")?;
        // The base must be a non-empty strict prefix of the world:
        // ingesting 0 shards mines nothing, and ingesting all of them
        // leaves no delta for `update` to add.
        if ingest_shards.is_some_and(|n| n == 0 || n > shards) {
            let given = flags.text("--ingest-shards").unwrap_or_default();
            return Err(bad_value("--ingest-shards", given));
        }
        Ok(Self {
            preset: flags.value("--preset")?,
            out: flags.get("--out")?,
            seed: flags.value("--seed")?,
            rho: flags.value("--rho")?,
            shards,
            report: flags.get("--report")?,
            region: flags.get("--region")?,
            failure_policy,
            chaos_seed,
            ingest_shards,
        })
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

impl UpdateArgs {
    /// The update `update` was given.
    pub fn from_flags(flags: &Flags) -> Result<Self, CliError> {
        let (failure_policy, chaos_seed) = fault_flags(flags)?;
        Ok(Self {
            snapshot: flags.value("--snapshot")?,
            delta_preset: flags.value("--delta-preset")?,
            out: flags.value("--out")?,
            seed: flags.value("--seed")?,
            region: flags.get("--region")?,
            failure_policy,
            chaos_seed,
        })
    }
}

/// Output format for `surveyor diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffFormat {
    /// Indented, truncated, human-readable report.
    Human,
    /// Machine-readable JSON with full key lists.
    Json,
}

impl FromStr for DiffFormat {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "human" => Ok(Self::Human),
            "json" => Ok(Self::Json),
            _ => Err(()),
        }
    }
}

/// What a flag takes; the `&str` in each variant with a value is the
/// usage text's name for it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// No value: the flag is given or not.
    Switch,
    /// A value every invocation must give.
    Required(&'static str),
    /// A value that is absent when the flag is not given.
    Optional(&'static str),
    /// A value, then the one the flag takes when not given.
    Defaulted(&'static str, &'static str),
}

/// A flag as typed (`--name`), and what it takes.
pub(crate) type Flag = (&'static str, Kind);

/// A subcommand: its name, the flags it reads, and what it runs.
#[derive(Debug)]
pub struct Command {
    /// The subcommand as typed.
    pub(crate) name: &'static str,
    /// Every flag it accepts; any other is refused.
    pub(crate) flags: &'static [Flag],
    /// Reads every typed value first, so a bad one is a usage error
    /// before any file is read or written, then does the work.
    pub run: fn(&Flags) -> Result<Outcome, CliError>,
}

const PRESETS: &str = "table2|cities|longtail";
const SNAPSHOT: Flag = ("--snapshot", Required("FILE.swire"));
const SEED: Flag = ("--seed", Defaulted("N", "2015"));
const RHO: Flag = ("--rho", Defaulted("N", "100"));
const SHARDS: Flag = ("--shards", Defaulted("N", "8"));
const REGION: Flag = ("--region", Optional("NAME"));
const FAILURE_POLICY: Flag = (
    "--failure-policy",
    Defaulted("failfast|degrade", "failfast"),
);
const MIN_SHARD_COVERAGE: Flag = ("--min-shard-coverage", Defaulted("F", "0.9"));
const CHAOS_SEED: Flag = ("--chaos-seed", Optional("N"));
const INGEST_SHARDS: Flag = ("--ingest-shards", Optional("N"));

/// `mine`'s flags; [`MineArgs::new`] reads its defaults from them.
const MINE_FLAGS: &[Flag] = &[
    ("--preset", Required(PRESETS)),
    ("--out", Optional("FILE")),
    SEED,
    RHO,
    SHARDS,
    ("--report", Optional("FILE|-")),
    REGION,
    FAILURE_POLICY,
    MIN_SHARD_COVERAGE,
    CHAOS_SEED,
    INGEST_SHARDS,
];

/// Every subcommand.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "mine",
        flags: MINE_FLAGS,
        run: mine,
    },
    // `mine` with a defaulted preset — the spelling the paper
    // reproduction docs use for an observed end-to-end run.
    Command {
        name: "run",
        flags: &[
            ("--preset", Defaulted(PRESETS, "table2")),
            ("--out", Optional("FILE")),
            SEED,
            RHO,
            SHARDS,
            ("--report", Optional("FILE|-")),
            REGION,
            FAILURE_POLICY,
            MIN_SHARD_COVERAGE,
            CHAOS_SEED,
            INGEST_SHARDS,
        ],
        run: mine,
    },
    Command {
        name: "query",
        flags: &[
            SNAPSHOT,
            ("--type", Required("NAME")),
            ("--property", Required("ADJ")),
            ("--negative", Switch),
            ("--limit", Defaulted("N", "10")),
        ],
        run: query,
    },
    Command {
        name: "combos",
        flags: &[SNAPSHOT],
        run: combos,
    },
    Command {
        name: "corpus",
        flags: &[
            ("--preset", Required(PRESETS)),
            SEED,
            ("--shard", Defaulted("N", "0")),
            ("--limit", Defaulted("N", "10")),
        ],
        run: corpus,
    },
    Command {
        name: "link",
        flags: &[
            ("--preset", Required("cities")),
            ("--attribute", Required("KEY")),
            SEED,
            ("--rho", Defaulted("N", "50")),
        ],
        run: link,
    },
    Command {
        name: "snapshot",
        flags: &[
            ("--preset", Required(PRESETS)),
            ("--out", Required("FILE.swire")),
            ("--store", Optional("FILE")),
            SEED,
            RHO,
            SHARDS,
            REGION,
            FAILURE_POLICY,
            MIN_SHARD_COVERAGE,
            CHAOS_SEED,
            INGEST_SHARDS,
        ],
        run: snapshot,
    },
    Command {
        name: "update",
        flags: &[
            ("--snapshot", Required("IN.swire")),
            ("--delta-preset", Required("NAME")),
            ("--out", Required("OUT.swire")),
            SEED,
            REGION,
            FAILURE_POLICY,
            MIN_SHARD_COVERAGE,
            CHAOS_SEED,
        ],
        run: update,
    },
    Command {
        name: "load",
        flags: &[SNAPSHOT, ("--out", Optional("FILE"))],
        run: load,
    },
    Command {
        name: "serve",
        flags: &[
            SNAPSHOT,
            ("--addr", Defaulted("HOST:PORT", "127.0.0.1:7387")),
            ("--workers", Defaulted("N", "4")),
            ("--queue", Defaulted("N", "64")),
            ("--budget-ms", Defaulted("N", "2000")),
            ("--debug-routes", Switch),
        ],
        run: serve,
    },
    Command {
        name: "diff",
        flags: &[
            ("--old", Required("FILE.swire")),
            ("--new", Required("FILE.swire")),
            ("--format", Defaulted("human|json", "human")),
        ],
        run: diff,
    },
];

/// The usage text's widest line.
const USAGE_WIDTH: usize = 100;

/// The usage text (what `surveyor --help` prints): one line per
/// subcommand, wrapped at `USAGE_WIDTH` columns, each optional flag
/// bracketed.
pub fn usage() -> String {
    let mut text = String::from("usage:");
    for command in COMMANDS {
        let head = format!("  surveyor {:<8}", command.name);
        let mut line = head.clone();
        for &(name, kind) in command.flags {
            let word = match kind {
                Switch => format!("[{name}]"),
                Required(value) => format!("{name} {value}"),
                Optional(value) | Defaulted(value, _) => format!("[{name} {value}]"),
            };
            if line.len() + 1 + word.len() > USAGE_WIDTH {
                text.push('\n');
                text.push_str(&line);
                line = " ".repeat(head.len());
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push('\n');
        text.push_str(&line);
    }
    text.push_str("\nglobal flags: --help | -h, --version | -V");
    text
}

fn bad_value(flag: &str, value: &str) -> CliError {
    CliError::Usage(format!("invalid value for {flag}: {value}"))
}

/// The table entry an invocation (without the program name) names, and
/// its flags checked against that entry.
pub fn parse(args: &[String]) -> Result<(&'static Command, Flags), CliError> {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage(format!("missing subcommand\n{}", usage())))?;
    let command = (COMMANDS.iter())
        .find(|command| command.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown subcommand: {name}\n{}", usage())))?;
    Ok((command, Flags::parse(command.flags, rest)?))
}

/// An invocation's flags, each one its subcommand reads, each value
/// present, every required flag given.
#[derive(Debug)]
pub struct Flags {
    table: &'static [Flag],
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    fn parse(table: &'static [Flag], args: &[String]) -> Result<Self, CliError> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let &(name, kind) = (table.iter())
                .find(|&&(name, _)| name == arg)
                .ok_or_else(|| CliError::Usage(format!("unknown flag: {arg}")))?;
            let value = match kind {
                Switch => None,
                _ => Some(
                    (args.next().cloned())
                        .ok_or_else(|| CliError::Usage(format!("missing value for {arg}")))?,
                ),
            };
            given.push((name, value));
        }
        let flags = Self { table, given };
        let mut required = table.iter().filter(|(_, kind)| matches!(kind, Required(_)));
        match required.find(|&&(name, _)| !flags.has(name)) {
            Some((name, _)) => Err(CliError::Usage(format!("required flag missing: {name}"))),
            None => Ok(flags),
        }
    }

    /// Whether `name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|&(given, _)| given == name)
    }

    /// The last value given for `name`, else its default.
    fn text(&self, name: &str) -> Option<&str> {
        let given = (self.given.iter().rev()).find(|&&(given, _)| given == name);
        match given {
            Some((_, value)) => value.as_deref(),
            None => self.table.iter().find_map(|&(flag, kind)| match kind {
                Defaulted(_, default) if flag == name => Some(default),
                _ => None,
            }),
        }
    }

    /// `name`'s value parsed, or `None` when it has none.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        (self.text(name))
            .map(|value| value.parse().map_err(|_| bad_value(name, value)))
            .transpose()
    }

    /// The parsed value of a required or defaulted flag.
    fn value<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.get(name)?
            .ok_or_else(|| CliError::Usage(format!("required flag missing: {name}")))
    }

    /// [`value`](Self::value) for a count that must be at least 1.
    fn count<T: FromStr + PartialEq + From<u8>>(&self, name: &str) -> Result<T, CliError> {
        let n = self.value(name)?;
        if n == T::from(0) {
            return Err(bad_value(name, self.text(name).unwrap_or("0")));
        }
        Ok(n)
    }
}

/// The fault-tolerance flags `mine` and `update` share: the failure
/// policy, with `--min-shard-coverage` as the floor of `degrade`, and the
/// chaos seed. The floor is range-checked even under `failfast`.
fn fault_flags(flags: &Flags) -> Result<(FailurePolicy, Option<u64>), CliError> {
    let degrade = match flags.value::<String>("--failure-policy")?.as_str() {
        "failfast" | "fail-fast" => false,
        "degrade" => true,
        other => return Err(bad_value("--failure-policy", other)),
    };
    let min_shard_coverage: f64 = flags.value("--min-shard-coverage")?;
    if !(0.0..=1.0).contains(&min_shard_coverage) {
        return Err(bad_value(
            "--min-shard-coverage",
            &min_shard_coverage.to_string(),
        ));
    }
    let failure_policy = if degrade {
        FailurePolicy::Degrade { min_shard_coverage }
    } else {
        FailurePolicy::FailFast
    };
    Ok((failure_policy, flags.get("--chaos-seed")?))
}

/// The server `serve`'s flags configure.
fn server_config(flags: &Flags) -> Result<ServerConfig, CliError> {
    Ok(ServerConfig {
        addr: flags.value("--addr")?,
        workers: flags.count("--workers")?,
        queue_capacity: flags.count("--queue")?,
        request_budget: Duration::from_millis(flags.count("--budget-ms")?),
        debug_routes: flags.has("--debug-routes"),
    })
}

fn mine(flags: &Flags) -> Result<Outcome, CliError> {
    commands::mine(&MineArgs::from_flags(flags)?).map(Outcome::ok)
}

fn query(flags: &Flags) -> Result<Outcome, CliError> {
    commands::query(
        &flags.value::<String>("--snapshot")?,
        &flags.value::<String>("--type")?,
        &flags.value::<String>("--property")?,
        flags.has("--negative"),
        flags.count("--limit")?,
    )
    .map(Outcome::ok)
}

fn combos(flags: &Flags) -> Result<Outcome, CliError> {
    commands::combos(&flags.value::<String>("--snapshot")?).map(Outcome::ok)
}

fn corpus(flags: &Flags) -> Result<Outcome, CliError> {
    commands::corpus(
        &flags.value::<String>("--preset")?,
        flags.value("--seed")?,
        flags.value("--shard")?,
        flags.count("--limit")?,
    )
    .map(Outcome::ok)
}

fn link(flags: &Flags) -> Result<Outcome, CliError> {
    commands::link(
        &flags.value::<String>("--preset")?,
        &flags.value::<String>("--attribute")?,
        flags.value("--seed")?,
        flags.value("--rho")?,
    )
    .map(Outcome::ok)
}

fn snapshot(flags: &Flags) -> Result<Outcome, CliError> {
    // `--out` names the snapshot; the store JSON goes to `--store`.
    commands::snapshot(
        &MineArgs::from_flags(flags)?,
        &flags.value::<String>("--out")?,
        flags.get::<String>("--store")?.as_deref(),
    )
    .map(Outcome::ok)
}

fn update(flags: &Flags) -> Result<Outcome, CliError> {
    commands::update(&UpdateArgs::from_flags(flags)?).map(Outcome::ok)
}

fn load(flags: &Flags) -> Result<Outcome, CliError> {
    commands::load(
        &flags.value::<String>("--snapshot")?,
        flags.get::<String>("--out")?.as_deref(),
    )
    .map(Outcome::ok)
}

fn serve(flags: &Flags) -> Result<Outcome, CliError> {
    let config = server_config(flags)?;
    commands::serve(&flags.value::<String>("--snapshot")?, config).map(Outcome::ok)
}

fn diff(flags: &Flags) -> Result<Outcome, CliError> {
    let (text, identical) = commands::diff(
        &flags.value::<String>("--old")?,
        &flags.value::<String>("--new")?,
        flags.value("--format")?,
    )?;
    Ok(Outcome {
        text,
        code: u8::from(!identical),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The flags of an invocation the parser accepts.
    fn flags(args: &[&str]) -> Result<Flags, CliError> {
        parse(&strings(args)).map(|(_, flags)| flags)
    }

    fn mine_args(args: &[&str]) -> Result<MineArgs, CliError> {
        MineArgs::from_flags(&flags(args)?)
    }

    fn update_args(args: &[&str]) -> Result<UpdateArgs, CliError> {
        UpdateArgs::from_flags(&flags(args)?)
    }

    /// Parses and runs an invocation, as `main` does. The refused ones
    /// below stop before any work.
    fn invoke(args: &[&str]) -> Result<Outcome, CliError> {
        parse(&strings(args)).and_then(|(command, flags)| (command.run)(&flags))
    }

    fn refusal(message: &str) -> Result<Outcome, CliError> {
        Err(CliError::Usage(message.to_owned()))
    }

    #[test]
    fn usage_lists_every_subcommand_with_its_own_flags() {
        assert_eq!(
            usage(),
            "usage:
  surveyor mine     --preset table2|cities|longtail [--out FILE] [--seed N] [--rho N] [--shards N]
                    [--report FILE|-] [--region NAME] [--failure-policy failfast|degrade]
                    [--min-shard-coverage F] [--chaos-seed N] [--ingest-shards N]
  surveyor run      [--preset table2|cities|longtail] [--out FILE] [--seed N] [--rho N] [--shards N]
                    [--report FILE|-] [--region NAME] [--failure-policy failfast|degrade]
                    [--min-shard-coverage F] [--chaos-seed N] [--ingest-shards N]
  surveyor query    --snapshot FILE.swire --type NAME --property ADJ [--negative] [--limit N]
  surveyor combos   --snapshot FILE.swire
  surveyor corpus   --preset table2|cities|longtail [--seed N] [--shard N] [--limit N]
  surveyor link     --preset cities --attribute KEY [--seed N] [--rho N]
  surveyor snapshot --preset table2|cities|longtail --out FILE.swire [--store FILE] [--seed N]
                    [--rho N] [--shards N] [--region NAME] [--failure-policy failfast|degrade]
                    [--min-shard-coverage F] [--chaos-seed N] [--ingest-shards N]
  surveyor update   --snapshot IN.swire --delta-preset NAME --out OUT.swire [--seed N]
                    [--region NAME] [--failure-policy failfast|degrade] [--min-shard-coverage F]
                    [--chaos-seed N]
  surveyor load     --snapshot FILE.swire [--out FILE]
  surveyor serve    --snapshot FILE.swire [--addr HOST:PORT] [--workers N] [--queue N]
                    [--budget-ms N] [--debug-routes]
  surveyor diff     --old FILE.swire --new FILE.swire [--format human|json]
global flags: --help | -h, --version | -V"
        );
    }

    #[test]
    fn mine_with_defaults() {
        let defaults = MineArgs {
            preset: "table2".to_owned(),
            out: None,
            seed: 2015,
            rho: 100,
            shards: 8,
            report: None,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
            ingest_shards: None,
        };
        assert_eq!(
            mine_args(&["mine", "--preset", "table2"]),
            Ok(defaults.clone())
        );
        assert_eq!(MineArgs::new("table2"), defaults);
    }

    #[test]
    fn run_defaults_preset_and_takes_report() {
        let args = mine_args(&["run", "--report", "out.json"]).unwrap();
        assert_eq!(args.preset, "table2");
        assert_eq!(args.report.as_deref(), Some("out.json"));
        // `run` still honors an explicit preset; `mine` still requires one.
        let args = mine_args(&["run", "--preset", "cities"]).unwrap();
        assert_eq!(args.preset, "cities");
        assert_eq!(
            invoke(&["mine"]),
            refusal("required flag missing: --preset")
        );
    }

    #[test]
    fn mine_with_overrides() {
        let args = mine_args(&[
            "mine", "--preset", "cities", "--out", "s.json", "--seed", "7", "--rho", "40",
            "--shards", "2",
        ])
        .unwrap();
        assert_eq!(args.preset, "cities");
        assert_eq!(args.out.as_deref(), Some("s.json"));
        assert_eq!((args.seed, args.rho, args.shards), (7, 40, 2));
        assert_eq!(args.report, None);
    }

    #[test]
    fn mine_fault_tolerance_flags() {
        let args = mine_args(&[
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
        assert_eq!(args.region.as_deref(), Some("west"));
        assert_eq!(
            args.failure_policy,
            FailurePolicy::Degrade {
                min_shard_coverage: 0.75
            }
        );
        assert_eq!(args.chaos_seed, Some(99));
        // Both spellings of fail-fast parse; junk does not.
        for spelling in ["failfast", "fail-fast"] {
            let args = mine_args(&["mine", "--preset", "table2", "--failure-policy", spelling]);
            assert_eq!(args.unwrap().failure_policy, FailurePolicy::FailFast);
        }
        assert_eq!(
            invoke(&["mine", "--preset", "table2", "--failure-policy", "shrug"]),
            refusal("invalid value for --failure-policy: shrug")
        );
        // The floor is range-checked under the default fail-fast policy.
        assert_eq!(
            invoke(&["mine", "--preset", "table2", "--min-shard-coverage", "1.5"]),
            refusal("invalid value for --min-shard-coverage: 1.5")
        );
    }

    #[test]
    fn query_requires_core_flags() {
        assert_eq!(
            invoke(&["query", "--snapshot", "w.swire", "--type", "city"]),
            refusal("required flag missing: --property")
        );
        assert_eq!(
            invoke(&["combos", "--store", "s.json"]),
            refusal("unknown flag: --store")
        );
        let flags = flags(&[
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
        assert!(flags.has("--negative"));
        assert_eq!(flags.count::<usize>("--limit"), Ok(10));
    }

    #[test]
    fn errors_are_informative() {
        assert_eq!(
            invoke(&[]),
            Err(CliError::Usage(format!("missing subcommand\n{}", usage())))
        );
        assert_eq!(
            invoke(&["explode"]),
            Err(CliError::Usage(format!(
                "unknown subcommand: explode\n{}",
                usage()
            )))
        );
        assert_eq!(
            invoke(&["mine", "--preset", "table2", "--bogus", "1"]),
            refusal("unknown flag: --bogus")
        );
        assert_eq!(
            invoke(&["mine", "--preset", "table2", "--seed"]),
            refusal("missing value for --seed")
        );
        assert_eq!(
            invoke(&["mine", "--preset", "table2", "--seed", "abc"]),
            refusal("invalid value for --seed: abc")
        );
    }

    #[test]
    fn snapshot_requires_preset_and_out() {
        assert_eq!(
            invoke(&["snapshot", "--out", "w.swire"]),
            refusal("required flag missing: --preset")
        );
        assert_eq!(
            invoke(&["snapshot", "--preset", "table2"]),
            refusal("required flag missing: --out")
        );
        // `snapshot` writes no run report, so it takes no `--report`.
        assert_eq!(
            invoke(&["snapshot", "--preset", "cities", "--out", "w.swire", "--report", "r.json",]),
            refusal("unknown flag: --report")
        );
        let flags = flags(&[
            "snapshot", "--preset", "cities", "--out", "w.swire", "--store", "s.json", "--seed",
            "7", "--rho", "40",
        ])
        .unwrap();
        assert_eq!(flags.value::<String>("--out"), Ok("w.swire".to_owned()));
        assert_eq!(
            flags.get::<String>("--store"),
            Ok(Some("s.json".to_owned()))
        );
        let args = MineArgs::from_flags(&flags).unwrap();
        assert_eq!(args.preset, "cities");
        assert_eq!((args.seed, args.rho), (7, 40));
    }

    #[test]
    fn mine_ingest_shards_must_be_a_nonempty_prefix() {
        let args = mine_args(&[
            "mine",
            "--preset",
            "table2",
            "--shards",
            "8",
            "--ingest-shards",
            "6",
        ])
        .unwrap();
        assert_eq!(args.shards, 8);
        assert_eq!(args.ingest_shards, Some(6));
        // Zero shards and more-than-the-world are both rejected up front.
        for bad in ["0", "9"] {
            assert_eq!(
                invoke(&["mine", "--preset", "table2", "--ingest-shards", bad]),
                refusal(&format!("invalid value for --ingest-shards: {bad}")),
                "--ingest-shards {bad}"
            );
        }
        // Ingesting every shard is allowed for `mine` (it mines the whole
        // prefix, which is the whole world), just not zero.
        let args = mine_args(&["mine", "--preset", "table2", "--ingest-shards", "8"]);
        assert_eq!(args.unwrap().ingest_shards, Some(8));
    }

    #[test]
    fn update_requires_snapshot_delta_preset_and_out() {
        assert_eq!(
            invoke(&["update", "--delta-preset", "table2-tail", "--out", "b"]),
            refusal("required flag missing: --snapshot")
        );
        assert_eq!(
            invoke(&["update", "--snapshot", "a.swire", "--out", "b.swire"]),
            refusal("required flag missing: --delta-preset")
        );
        assert_eq!(
            invoke(&["update", "--snapshot", "a.swire", "--delta-preset", "x"]),
            refusal("required flag missing: --out")
        );
        assert_eq!(
            update_args(&[
                "update",
                "--snapshot",
                "a.swire",
                "--delta-preset",
                "table2-tail",
                "--out",
                "b.swire",
            ]),
            Ok(UpdateArgs {
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
    fn update_takes_overrides_and_refuses_warm_and_rho() {
        let args = update_args(&[
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
        assert_eq!(args.seed, 7);
        assert_eq!(
            args.failure_policy,
            FailurePolicy::Degrade {
                min_shard_coverage: 0.5
            }
        );
        assert_eq!(args.chaos_seed, Some(99));
        let base = [
            "update",
            "--snapshot",
            "a",
            "--delta-preset",
            "x",
            "--out",
            "b",
        ];
        assert_eq!(
            invoke(&[&base[..], &["--warm", "seeded"]].concat()),
            refusal("unknown flag: --warm")
        );
        assert_eq!(
            invoke(&[&base[..], &["--rho", "5"]].concat()),
            refusal("unknown flag: --rho")
        );
    }

    #[test]
    fn load_takes_snapshot_and_optional_out() {
        assert_eq!(
            invoke(&["load"]),
            refusal("required flag missing: --snapshot")
        );
        let flags = flags(&["load", "--snapshot", "w.swire", "--out", "s.json"]).unwrap();
        assert_eq!(
            flags.value::<String>("--snapshot"),
            Ok("w.swire".to_owned())
        );
        assert_eq!(flags.get::<String>("--out"), Ok(Some("s.json".to_owned())));
        assert_eq!(
            invoke(&["load", "--snapshot", "w.swire", "--bogus", "1"]),
            refusal("unknown flag: --bogus")
        );
    }

    #[test]
    fn serve_defaults_and_overrides() {
        assert_eq!(
            invoke(&["serve"]),
            refusal("required flag missing: --snapshot")
        );
        let config = server_config(&flags(&["serve", "--snapshot", "w.swire"]).unwrap()).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7387");
        assert_eq!((config.workers, config.queue_capacity), (4, 64));
        assert_eq!(config.request_budget, Duration::from_millis(2_000));
        assert!(!config.debug_routes);
        let config = server_config(
            &flags(&[
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
            .unwrap(),
        )
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!((config.workers, config.queue_capacity), (2, 8));
        assert_eq!(config.request_budget, Duration::from_millis(500));
        assert!(config.debug_routes);
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
            let expected = refusal(&format!("invalid value for {flag}: 0"));
            assert_eq!(invoke(&args), expected, "{args:?}");
        }
    }

    #[test]
    fn diff_requires_both_snapshots_and_validates_format() {
        assert_eq!(
            invoke(&["diff", "--old", "a.swire"]),
            refusal("required flag missing: --new")
        );
        let flags_of =
            |args: &[&str]| flags(&[&["diff", "--old", "a", "--new", "b"], args].concat());
        let format = flags_of(&[]).unwrap().value::<DiffFormat>("--format");
        assert_eq!(format, Ok(DiffFormat::Human));
        let format = flags_of(&["--format", "json"]).unwrap().value("--format");
        assert_eq!(format, Ok(DiffFormat::Json));
        assert_eq!(
            invoke(&["diff", "--old", "a", "--new", "b", "--format", "yaml"]),
            refusal("invalid value for --format: yaml")
        );
        // The operands are flags: a bare path is refused, not guessed.
        assert_eq!(
            invoke(&["diff", "old.swire", "new.swire"]),
            refusal("unknown flag: old.swire")
        );
    }

    #[test]
    fn last_flag_occurrence_wins() {
        let args = mine_args(&["mine", "--preset", "a", "--preset", "b"]).unwrap();
        assert_eq!(args.preset, "b");
    }
}
