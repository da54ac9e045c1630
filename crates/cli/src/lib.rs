//! Command-line interface for the Surveyor subjective-property miner.
//!
//! The subcommands and their flags are listed once, in [`args::USAGE`]
//! (what `surveyor --help` prints).
//!
//! Argument parsing and command execution live here so they are unit
//! testable; `main.rs` is a thin shim. Failures map to exit codes via
//! [`CliError::exit_code`]: usage errors exit 2 (printed to stderr),
//! I/O errors exit 1, and invalid or corrupt data — including a snapshot
//! that fails validation — or a pipeline failing under its failure
//! policy exits 3. `diff` additionally exits 1 when the snapshots
//! differ, carried through [`Outcome::code`] rather than an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;

pub use args::{Cli, Command, DiffFormat, MineArgs, ParseError, UpdateArgs};
pub use error::CliError;

/// The result of a successful command: the text to print plus the
/// process exit code. Almost every command exits 0 on success; `diff`
/// exits 1 when the snapshots differ (mirroring `bench diff`), which is
/// a *finding*, not a failure — hence not a [`CliError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Text for stdout.
    pub text: String,
    /// Process exit code.
    pub code: u8,
}

impl Outcome {
    /// A success outcome (exit 0).
    pub fn ok(text: String) -> Self {
        Self { text, code: 0 }
    }
}

/// The version banner `--version` prints.
pub fn version_string() -> String {
    format!("surveyor {}", env!("CARGO_PKG_VERSION"))
}

/// Runs a parsed command, returning the text to print and exit code.
pub fn run(cli: &Cli) -> Result<Outcome, CliError> {
    match &cli.command {
        Command::Mine(args) => commands::mine(args).map(Outcome::ok),
        Command::Query {
            snapshot,
            type_name,
            property,
            negative,
            limit,
        } => commands::query(snapshot, type_name, property, *negative, *limit).map(Outcome::ok),
        Command::Combos { snapshot } => commands::combos(snapshot).map(Outcome::ok),
        Command::Corpus {
            preset,
            seed,
            shard,
            limit,
        } => commands::corpus(preset, *seed, *shard, *limit).map(Outcome::ok),
        Command::Link {
            preset,
            attribute,
            seed,
            rho,
        } => commands::link(preset, attribute, *seed, *rho).map(Outcome::ok),
        Command::Snapshot { args, out, store } => {
            commands::snapshot(args, out, store.as_deref()).map(Outcome::ok)
        }
        Command::Update(args) => commands::update(args).map(Outcome::ok),
        Command::Load { snapshot, out } => {
            commands::load(snapshot, out.as_deref()).map(Outcome::ok)
        }
        Command::Serve {
            snapshot,
            addr,
            workers,
            queue,
            budget_ms,
            debug_routes,
        } => commands::serve(snapshot, addr, *workers, *queue, *budget_ms, *debug_routes)
            .map(Outcome::ok),
        Command::Diff { old, new, format } => {
            let (text, identical) = commands::diff(old, new, *format)?;
            Ok(Outcome {
                text,
                code: u8::from(!identical),
            })
        }
    }
}
