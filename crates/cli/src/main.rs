//! `surveyor` — the command-line entry point. All logic lives in the
//! library ([`surveyor_cli`]) where it is unit tested.

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use surveyor_cli::{args, version_string, Outcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--help" || a == "-h") {
        Ok(Outcome::ok(args::usage()))
    } else if args.iter().any(|a| a == "--version" || a == "-V") {
        Ok(Outcome::ok(version_string()))
    } else {
        args::parse(&args).and_then(|(command, flags)| (command.run)(&flags))
    };
    match result {
        Ok(outcome) => {
            // A reader that stops early (`| head`) is not a failure of the
            // command: its work is done, so it ends with its own code.
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{}", outcome.text).and_then(|()| stdout.flush()) {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write to stdout: {e}");
                    ExitCode::from(1)
                }
                _ => ExitCode::from(outcome.code),
            }
        }
        Err(e) => {
            // Usage errors — including a bare `surveyor` — go to stderr
            // like every other, so scripts piping stdout never see them.
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
