//! Command-line interface for the Surveyor subjective-property miner.
//!
//! The subcommands, the flags each one reads and the function that runs
//! it are listed once, in [`args::COMMANDS`]; the parser, the usage text
//! `surveyor --help` prints and `main`'s dispatch are all read from it.
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

pub use args::{DiffFormat, MineArgs, UpdateArgs};
pub use error::CliError;

/// The result of a successful command: the text to print plus the
/// process exit code. Almost every command exits 0 on success; `diff`
/// exits 1 when the snapshots differ (as `cmp` and `diff(1)` do), which
/// is a *finding*, not a failure — hence not a [`CliError`].
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
