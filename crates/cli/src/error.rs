//! The CLI's error type: every failure a command can hit, with the
//! process exit code it maps to.

use std::fmt;
use surveyor::RunError;

/// Why a CLI command failed. [`exit_code`](Self::exit_code) follows the
/// sysexits-ish convention the scripts rely on: bad invocations exit 2,
/// I/O trouble exits 1, and invalid or corrupt data — a store that does
/// not parse, a snapshot that fails validation, or a pipeline that ran
/// but failed under its failure policy — exits 3. A chaos harness can
/// tell "you typed it wrong" from "the data or run went bad".
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// The invocation itself is wrong: an unknown subcommand or flag, a
    /// missing or malformed value, an unknown preset or region. Exits 2.
    Usage(String),
    /// The filesystem let us down (unreadable store, unwritable output).
    /// Exits 1.
    Io(String),
    /// An input file exists but does not parse or fails validation
    /// (mangled store JSON, corrupt binary snapshot). Exits 3.
    InvalidInput(String),
    /// The pipeline ran and failed under its failure policy. Exits 3.
    Run(RunError),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            Self::Usage(_) => 2,
            Self::Io(_) => 1,
            Self::InvalidInput(_) | Self::Run(_) => 3,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) | Self::Io(msg) | Self::InvalidInput(msg) => f.write_str(msg),
            Self::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        Self::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(CliError::Usage("bad".into()).exit_code(), 2);
        assert_eq!(CliError::Io("gone".into()).exit_code(), 1);
        // Corrupt data shares exit 3 with failed runs: both mean "your
        // invocation was fine, the data wasn't".
        assert_eq!(CliError::InvalidInput("mangled".into()).exit_code(), 3);
        let run = CliError::Run(RunError::CoverageBelowFloor {
            succeeded: 3,
            shard_count: 8,
            min_shard_coverage: 0.9,
            quarantined: vec![1, 2, 4, 5, 7],
        });
        assert_eq!(run.exit_code(), 3);
        assert!(run.to_string().contains("coverage"));
    }

    #[test]
    fn every_parse_error_is_a_usage_error() {
        // main.rs prints any error to stderr with its exit code; pin that
        // the parser refuses each malformed-invocation class with a usage
        // error (exit 2), not a panic or a silent default, including the
        // bare invocation with no arguments at all.
        let cases: Vec<(Vec<&str>, &str)> = vec![
            (vec![], "missing subcommand\n"),
            (vec!["explode"], "unknown subcommand: explode\n"),
            (vec!["mine", "--bogus", "1"], "unknown flag: --bogus"),
            (vec!["mine", "--preset"], "missing value for --preset"),
            (vec!["serve"], "required flag missing: --snapshot"),
            (vec!["diff", "--old", "a"], "required flag missing: --new"),
        ];
        for (args, want) in cases {
            let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            match crate::args::parse(&owned) {
                Err(e @ CliError::Usage(_)) => {
                    assert_eq!(e.exit_code(), 2, "args {args:?}");
                    assert!(e.to_string().starts_with(want), "args {args:?}: {e}");
                    // The usage text rides along on command-level errors
                    // so the stderr message is self-contained.
                    if want.ends_with('\n') {
                        assert!(e.to_string().ends_with(&crate::args::usage()), "{e}");
                    }
                }
                other => panic!("args {args:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn version_string_carries_the_crate_version() {
        let v = crate::version_string();
        assert!(v.starts_with("surveyor "), "{v}");
        assert_eq!(v, format!("surveyor {}", env!("CARGO_PKG_VERSION")));
    }

    #[test]
    fn diff_outcome_exit_codes() {
        use crate::Outcome;
        // `diff` maps identical → 0, differing → 1 through Outcome, so
        // the code rides success, not CliError.
        assert_eq!(Outcome::ok("same".into()).code, 0);
        let differs = Outcome {
            text: "differ".into(),
            code: 1,
        };
        assert_eq!(differs.code, 1);
    }
}
