//! `repro` — regenerates every table and figure of *Mining Subjective
//! Properties on the Web* (SIGMOD 2015) from the synthetic snapshot.
//!
//! ```text
//! repro <experiment|all> [--seed N] [--shards N] [--threads N]
//!       [--rho N] [--json DIR]
//!
//! experiments: table1 table2 table3 table4 table5
//!              fig3 fig5 fig6 fig9 fig10 fig12 fig13
//!              ablations regions scale
//! (fig10 prints Figures 10 and 11; table3 prints Table 3 and Figure 12.)
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use surveyor_bench::experiments::{self, ReproConfig};

type Driver = fn(&ReproConfig) -> (String, serde_json::Value);

const EXPERIMENTS: &[(&str, Driver)] = &[
    ("table1", experiments::table1),
    ("table2", experiments::table2),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig3", experiments::fig3),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10_11),
    ("table3", experiments::table3_fig12),
    ("fig12", experiments::table3_fig12),
    ("table4", experiments::table4),
    ("table5", experiments::table5),
    ("fig13", experiments::fig13),
    ("ablations", experiments::ablations),
    ("regions", experiments::regions),
    ("scale", experiments::scale),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: repro <experiment|all> [--seed N] [--shards N] [--threads N] [--rho N] [--json DIR]\n\
         experiments: {} all",
        names.join(" ")
    )
}

/// A parsed command line: the experiments to run, their configuration,
/// and where to write their JSON artifacts.
#[derive(Debug)]
struct Invocation {
    selected: Vec<String>,
    config: ReproConfig,
    json_dir: Option<String>,
}

/// Parses the arguments after the program name. `Ok(None)` asks for the
/// usage text; `Err` carries the message to print before exiting nonzero.
fn parse(args: Vec<String>) -> Result<Option<Invocation>, String> {
    let mut invocation = Invocation {
        selected: Vec::new(),
        config: ReproConfig::default(),
        json_dir: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" | "--shards" | "--threads" | "--rho" | "--json" => {
                let value = it.next().ok_or(format!("missing value for {arg}"))?;
                if arg == "--json" {
                    invocation.json_dir = Some(value);
                    continue;
                }
                let v = value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid numeric value for {arg}: {value}"))?;
                let config = &mut invocation.config;
                match arg.as_str() {
                    "--seed" => config.seed = v,
                    "--rho" => config.rho = v,
                    // A run needs a shard and a thread; 0 is refused, not
                    // quietly read as 1.
                    "--shards" | "--threads" if v == 0 => {
                        return Err(format!("{arg} must be at least 1, got 0"))
                    }
                    "--shards" => config.shards = v as usize,
                    "--threads" => config.threads = v as usize,
                    _ => unreachable!(),
                }
            }
            "--help" | "-h" => return Ok(None),
            name => invocation.selected.push(name.to_owned()),
        }
    }
    if invocation.selected.is_empty() {
        return Err(usage());
    }
    Ok(Some(invocation))
}

fn main() -> ExitCode {
    let Invocation {
        selected,
        config,
        json_dir,
    } = match parse(std::env::args().skip(1).collect()) {
        Ok(Some(invocation)) => invocation,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let run_all = selected.iter().any(|s| s == "all");
    let to_run: Vec<(&str, Driver)> = if run_all {
        // table3 and fig12 share a driver; run it once.
        EXPERIMENTS
            .iter()
            .filter(|(n, _)| *n != "fig12")
            .copied()
            .collect()
    } else {
        let mut out = Vec::new();
        for name in &selected {
            match EXPERIMENTS.iter().find(|(n, _)| n == name) {
                Some(&(n, d)) => out.push((n, d)),
                None => {
                    eprintln!("unknown experiment: {name}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    for (name, driver) in to_run {
        let start = std::time::Instant::now();
        let (text, value) = driver(&config);
        println!("==================== {name} ====================");
        println!("{text}");
        println!(
            "[{name} completed in {:.2}s]\n",
            start.elapsed().as_secs_f64()
        );
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{name}.json");
            match surveyor_bench::write_artifact(&path, &value) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Option<Invocation>, String> {
        parse(args.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn zero_shards_or_threads_is_refused_by_name() {
        for flag in ["--shards", "--threads"] {
            let err = parse_strs(&["table1", flag, "0"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn counts_and_experiments_parse() {
        let invocation = parse_strs(&["fig5", "--shards", "3", "--threads", "2", "--seed", "9"])
            .unwrap()
            .unwrap();
        assert_eq!(invocation.selected, ["fig5"]);
        assert_eq!(
            (invocation.config.shards, invocation.config.threads),
            (3, 2)
        );
        assert_eq!(invocation.config.seed, 9);
        assert!(parse_strs(&["--help"]).unwrap().is_none());
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["table1", "--rho"]).is_err());
    }
}
