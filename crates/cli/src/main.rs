//! `woha-cli` — validate workflow XML files, generate scheduling plans,
//! and simulate workloads on a virtual Hadoop cluster.
//!
//! ```text
//! woha-cli validate my-workflow.xml
//! woha-cli plan my-workflow.xml --slots 96 --policy lpf
//! woha-cli simulate a.xml b.xml@5m --cluster 32x2x1 --scheduler all
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&raw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::usage());
            return ExitCode::from(2);
        }
    };
    match commands::run(command) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
