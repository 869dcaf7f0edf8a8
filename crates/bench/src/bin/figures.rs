//! Regenerate the paper's Figures 1 and 2 as ASCII Gantt charts.
//!
//! ```text
//! cargo run --release -p grid-bench --bin figures -- [--figure 1|2]
//! ```
//!
//! Without options, both figures are printed. Each figure is produced by an
//! actual pair of simulations (without / with reallocation), not drawn by
//! hand — see `grid_realloc::figures` for the workloads.

use std::process::ExitCode;

use grid_realloc::figures::{figure1, figure2};

const USAGE: &str = "usage: figures [--figure 1|2]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => format!("{}\n{}", figure1(), figure2()),
        ["--figure", "1"] => figure1(),
        ["--figure", "2"] => figure2(),
        ["--help" | "-h"] => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("figures: unknown option or figure number in {args:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    print!("{figures}");
    ExitCode::SUCCESS
}
