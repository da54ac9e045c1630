//! `surveyor-lint` — the workspace static-analysis gate.
//!
//! ```text
//! surveyor-lint [--root DIR] [--config FILE] [--format human|json]
//!               [--json-out FILE] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings reported, 2 usage/config/IO error.
//! Files are scanned on one thread per available core, at most eight.
//! This file is the only place in the crate allowed to print.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use surveyor_lint::{lint_workspace, load_config, output, rules};

const USAGE: &str = "\
surveyor-lint: enforce Surveyor's determinism and panic-freedom invariants

USAGE:
    surveyor-lint [OPTIONS]

OPTIONS:
    --root DIR           Workspace root to scan (default: current directory)
    --config FILE        Config path (default: <root>/lint.toml)
    --format FMT         Output format: human (default) or json
    --json-out FILE      Additionally write the JSON report to FILE
    --list-rules         Print the rule table (severity, layer) and exit
    -h, --help           Show this help

EXIT CODES:
    0  no findings
    1  findings reported
    2  usage, config, or IO error";

#[derive(Debug, PartialEq)]
struct Options {
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    json_out: Option<PathBuf>,
    list_rules: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            root: PathBuf::from("."),
            config: None,
            format: Format::Human,
            json_out: None,
            list_rules: false,
        }
    }
}

#[derive(Debug, PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a value".to_owned())?);
            }
            "--config" => {
                opts.config = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--config needs a value".to_owned())?,
                ));
            }
            "--format" => {
                opts.format = match it
                    .next()
                    .ok_or_else(|| "--format needs a value".to_owned())?
                    .as_str()
                {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--json-out" => {
                opts.json_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--json-out needs a value".to_owned())?,
                ));
            }
            "--list-rules" => opts.list_rules = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn list_rules() {
    println!(
        "{:28} {:8} {:6} {:3}  SUMMARY",
        "RULE", "SEVERITY", "LAYER", "VER"
    );
    for rule in rules::RULES.iter().chain([&rules::UNUSED_ALLOW_DEF]) {
        println!(
            "{:28} {:8} {:6} {:3}  {}",
            rule.name,
            rule.severity.as_str(),
            rule.layer.as_str(),
            rule.version,
            rule.summary
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("surveyor-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }

    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| opts.root.join("lint.toml"));
    let config = match load_config(&config_path) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("surveyor-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let run = match lint_workspace(&opts.root, &config, workers) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("surveyor-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json_out {
        let json = output::render_json(&run.findings, run.files_scanned);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("surveyor-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match opts.format {
        Format::Human => println!("{}", output::render_human(&run.findings, run.files_scanned)),
        Format::Json => print!("{}", output::render_json(&run.findings, run.files_scanned)),
    }
    if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).expect("empty args parse");
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&[
            "--root",
            "ws",
            "--config",
            "custom.toml",
            "--format",
            "json",
            "--json-out",
            "report.json",
            "--list-rules",
        ])
        .expect("flags parse");
        assert_eq!(opts.root, PathBuf::from("ws"));
        assert_eq!(
            opts.config.as_deref(),
            Some(std::path::Path::new("custom.toml"))
        );
        assert_eq!(opts.format, Format::Json);
        assert_eq!(
            opts.json_out.as_deref(),
            Some(std::path::Path::new("report.json"))
        );
        assert!(opts.list_rules);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        assert!(parse(&["--fast"]).is_err());
        assert!(parse(&["extra"]).is_err());
        for removed in ["--workers", "--max-severity", "--cache", "--no-cache"] {
            assert!(parse(&[removed]).is_err(), "{removed} still parses");
        }
    }
}
