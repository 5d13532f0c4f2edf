//! `perfgate --record [FILE]` — compute the output digests of
//! [`refrint_bench::digests`], untimed, each run with its
//! `execution_cycles`, and write them to FILE (default
//! `BENCH_DIGESTS.json`).
//!
//! The simulated clock is the same on every machine, and tier-1 pins each
//! digest and cycle count to the committed document, so re-recording is
//! needed only when a change means to move simulated time or output
//! bytes. Its one flag is declared in [`refrint_cli::args::PERFGATE`],
//! which also renders the usage. Host speed is gated elsewhere, by
//! `scripts/perf_ab.sh` (`docs/perf.md`).

use std::process::ExitCode;

use refrint_bench::digests;
use refrint_cli::args::PERFGATE;
use refrint_cli::outln;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match record(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfgate: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn record(args: &[String]) -> Result<(), String> {
    let p = PERFGATE.parse("", args).map_err(|e| e.to_string())?;
    if !p.flag("--record") {
        return Err(format!("give --record\n\n{}", PERFGATE.usage()));
    }
    let file = p
        .operands()
        .first()
        .map_or(digests::FILE_NAME, String::as_str);
    let digests = digests::compute();
    std::fs::write(file, digests::render(&digests))
        .map_err(|e| format!("cannot write {file}: {e}"))?;
    outln!("recorded {} digests to {file}", digests.len());
    Ok(())
}
