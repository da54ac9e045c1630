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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let mut selected: Vec<String> = Vec::new();
    let mut config = ReproConfig::default();
    let mut json_dir: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" | "--shards" | "--threads" | "--rho" | "--json" => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {arg}");
                    return ExitCode::FAILURE;
                };
                if arg == "--json" {
                    json_dir = Some(value);
                    continue;
                }
                let Ok(v) = value.parse::<u64>() else {
                    eprintln!("invalid numeric value for {arg}: {value}");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--seed" => config.seed = v,
                    "--shards" => config.shards = (v as usize).max(1),
                    "--threads" => config.threads = (v as usize).max(1),
                    "--rho" => config.rho = v,
                    _ => unreachable!(),
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            name => selected.push(name.to_owned()),
        }
    }

    if selected.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
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
