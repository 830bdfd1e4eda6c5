//! `plansample` binary entry point; all logic lives in the library for
//! testability.

#![forbid(unsafe_code)]

use std::error::Error as _;

fn main() {
    let cli = match plansample_cli::parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match plansample_cli::run(&cli) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            // Print the full cause chain: the top-level error names the
            // failing stage, its sources carry the specifics.
            eprintln!("error: {e}");
            let mut source = e.source();
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            std::process::exit(1);
        }
    }
}
