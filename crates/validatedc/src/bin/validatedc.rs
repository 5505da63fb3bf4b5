//! `validatedc` — command-line front end for the datacenter validation
//! toolkit. `validatedc help` lists the verbs and their flags; all of
//! it is [`validatedc::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut out, mut err) = (std::io::stdout().lock(), std::io::stderr().lock());
    ExitCode::from(validatedc::cli::run(&args, &mut out, &mut err))
}
