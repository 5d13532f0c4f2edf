//! `perfgate --record [FILE]` — simulate the perf suite's scenarios,
//! untimed, and write each one's `refs` and `execution_cycles` to FILE
//! (default `BENCH_SIM.json`); then write the output digests of
//! [`refrint_bench::digests`] to `BENCH_DIGESTS.json` in FILE's directory.
//!
//! The simulated clock is the same on every machine, and tier-1 pins each
//! scenario and each digest to the committed documents, so re-recording is
//! needed only when a change means to move simulated time or output bytes. Its one flag is declared in
//! [`refrint_cli::args::PERFGATE`], which also renders the usage. Host
//! speed is gated elsewhere, by `scripts/perf_ab.sh` (`docs/perf.md`).

use std::process::ExitCode;

use std::path::Path;

use refrint_bench::throughput::{self, Measurement};
use refrint_bench::{digests, results};
use refrint_cli::args::PERFGATE;
use refrint_cli::outln;

const DEFAULT_FILE: &str = "BENCH_SIM.json";

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
    let file = p.operands().first().map_or(DEFAULT_FILE, String::as_str);
    let metrics: Vec<Measurement> = throughput::scenarios()
        .iter()
        .map(throughput::simulate)
        .collect();
    std::fs::write(file, results::render(&metrics))
        .map_err(|e| format!("cannot write {file}: {e}"))?;
    outln!("recorded {} scenarios to {file}", metrics.len());
    let digest_file = Path::new(file).with_file_name(digests::FILE_NAME);
    let digests = digests::compute();
    std::fs::write(&digest_file, digests::render(&digests))
        .map_err(|e| format!("cannot write {}: {e}", digest_file.display()))?;
    outln!(
        "recorded {} digests to {}",
        digests.len(),
        digest_file.display()
    );
    Ok(())
}
