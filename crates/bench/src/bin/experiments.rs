//! Prints the paper scorecard: the report of every experiment, or of
//! the named ones in the order given, each after a banner naming it.
//! Every name is checked before any experiment runs, and the text is
//! printed only when all of them succeed; otherwise the error goes to
//! stderr and the exit status is 1.
//!
//! ```text
//! cargo run -p bench --release --bin experiments [-- NAME...]
//! ```

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let printed = bench::run_experiments(&names)
        .and_then(|text| Ok(std::io::stdout().lock().write_all(text.as_bytes())?));
    match printed {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
