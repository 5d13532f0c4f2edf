//! `perfgate` — record and gate simulator-throughput baselines.
//!
//! One bare flag picks the mode, and the files are positionals; the flags
//! are declared in [`refrint_cli::args::PERFGATE`], which also renders the
//! usage:
//!
//! * `perfgate --record [FILE]` — run the `sim_throughput` suite and write
//!   the results document (default `BENCH_SIM.json`).
//! * `perfgate --check FILE` — re-run the suite at the baseline's recorded
//!   mode and fail (exit 1) if any metric's refs/sec drops more than the
//!   tolerance below the baseline, or if the deterministic simulated-cycle
//!   counts diverge at all.
//! * `perfgate --compare OLD NEW` — diff two recorded documents without
//!   running anything; `--min-ratio NAME=R` additionally enforces a minimum
//!   speedup for one metric.
//!
//! `refs_per_sec` is wall-clock and machine-dependent, hence the tolerance
//! (`--tolerance 0.25` = fail below 75% of baseline). `execution_cycles` is
//! the simulated clock: identical on every machine, so any difference means
//! the simulation's semantics changed and the gate fails hard.
//!
//! `--check --format json` prints a machine-readable verdict document to
//! stdout (per-scenario pass/fail and ratios) instead of the table; the
//! exit code is unchanged, so CI can both gate on it and parse the log.

use std::process::ExitCode;

use refrint_bench::results::{self, ResultsDoc};
use refrint_bench::throughput::{self, Effort, Measurement};
use refrint_cli::args::{Parsed, PERFGATE};
use refrint_cli::outln;
use refrint_engine::json::{escape, num};

const DEFAULT_FILE: &str = "BENCH_SIM.json";
const DEFAULT_TOLERANCE: f64 = 0.10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match PERFGATE.parse("", &args) {
        Err(e) => Err(e.to_string()),
        Ok(p) => match (p.flag("--record"), p.flag("--check"), p.flag("--compare")) {
            (true, false, false) => record(&p),
            (false, true, false) => check(&p),
            (false, false, true) => compare(&p),
            _ => Err(format!(
                "give one of --record, --check or --compare\n\n{}",
                PERFGATE.usage()
            )),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfgate: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The baseline or results file `--record` and `--check` name (default
/// `BENCH_SIM.json`).
fn one_file(p: &Parsed) -> Result<&str, String> {
    match p.operands() {
        [] => Ok(DEFAULT_FILE),
        [file] => Ok(file),
        [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
    }
}

fn parse_mode(p: &Parsed) -> Result<Option<Effort>, String> {
    p.parse("--mode", |m| {
        Effort::parse(m).ok_or_else(|| format!("unknown --mode '{m}' (expected quick or full)"))
    })
}

fn record(p: &Parsed) -> Result<(), String> {
    let file = one_file(p)?;
    let effort = parse_mode(p)?.unwrap_or(Effort::Quick);
    let doc = ResultsDoc {
        mode: effort.label().to_owned(),
        metrics: throughput::run_suite(effort),
    };
    std::fs::write(file, results::render(&doc)).map_err(|e| format!("cannot write {file}: {e}"))?;
    outln!(
        "recorded {} metrics to {file} (mode: {})",
        doc.metrics.len(),
        doc.mode
    );
    Ok(())
}

fn load(file: &str) -> Result<ResultsDoc, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    results::parse(&text).map_err(|e| format!("{file}: {e}"))
}

/// One scenario's verdict in a `--check` run.
struct ScenarioVerdict {
    name: String,
    baseline_refs_per_sec: f64,
    current_refs_per_sec: f64,
    ratio: f64,
    rate_ok: bool,
    cycles_ok: bool,
}

impl ScenarioVerdict {
    fn pass(&self) -> bool {
        self.rate_ok && self.cycles_ok
    }
}

/// The exact command that re-records `file` as the new baseline — echoed
/// on every failing check so CI failures are self-explanatory.
fn rebaseline_command(file: &str, mode: &str) -> String {
    format!("cargo run --release -p refrint-bench --bin perfgate -- --record {file} --mode {mode}")
}

/// Renders the machine-readable `--check` verdict document.
fn render_verdict_json(
    mode: &str,
    tolerance: f64,
    verdicts: &[ScenarioVerdict],
    failures: &[String],
    rebaseline: &str,
) -> String {
    let scenarios: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "    {{\"name\": \"{}\", \"baseline_refs_per_sec\": {}, \
                 \"current_refs_per_sec\": {}, \"ratio\": {}, \
                 \"rate_ok\": {}, \"cycles_ok\": {}, \"pass\": {}}}",
                escape(&v.name),
                num(v.baseline_refs_per_sec),
                num(v.current_refs_per_sec),
                num(v.ratio),
                v.rate_ok,
                v.cycles_ok,
                v.pass()
            )
        })
        .collect();
    let failure_items: Vec<String> = failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\n  \"suite\": \"sim_throughput\",\n  \"mode\": \"{}\",\n  \
         \"tolerance\": {},\n  \"verdict\": \"{}\",\n  \"scenarios\": [\n{}\n  ],\n  \
         \"failures\": [{}],\n  \"rebaseline_command\": \"{}\"\n}}",
        escape(mode),
        num(tolerance),
        if failures.is_empty() { "pass" } else { "fail" },
        scenarios.join(",\n"),
        failure_items.join(", "),
        escape(rebaseline)
    )
}

fn check(p: &Parsed) -> Result<(), String> {
    let file = one_file(p)?;
    let json_output = p.choice("--format") == "json";
    let tolerance = match p.value("--tolerance") {
        None => DEFAULT_TOLERANCE,
        Some(t) => t
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..1.0).contains(t))
            .ok_or_else(|| format!("--tolerance must be a fraction in [0, 1), got '{t}'"))?,
    };
    let baseline = load(file)?;
    let baseline_effort = Effort::parse(&baseline.mode)
        .ok_or_else(|| format!("{file}: unknown recorded mode '{}'", baseline.mode))?;

    // `--against RESULTS` gates a previously recorded run offline instead
    // of re-running the suite (CI records once for the artifact, then
    // checks that same document). Modes must match so the exact
    // simulated-cycle comparison stays meaningful.
    let (current, same_mode) = match p.value("--against") {
        Some(results_file) => {
            let recorded = load(results_file)?;
            if recorded.mode != baseline.mode {
                return Err(format!(
                    "{results_file} was recorded in {} mode but {file} is a {} baseline; \
                     record with --mode {} to gate against it",
                    recorded.mode, baseline.mode, baseline.mode
                ));
            }
            (recorded.metrics, true)
        }
        None => {
            let effort = parse_mode(p)?.unwrap_or(baseline_effort);
            let same_mode = effort == baseline_effort;
            if !same_mode {
                eprintln!(
                    "perfgate: checking in {} mode against a {} baseline — \
                     exact cycle comparison skipped",
                    effort.label(),
                    baseline.mode
                );
            }
            (throughput::run_suite(effort), same_mode)
        }
    };
    let mut failures = Vec::new();
    let mut verdicts = Vec::new();
    if !json_output {
        outln!(
            "{:<16} {:>14} {:>14} {:>8}  verdict (tolerance {:.0}%)",
            "metric",
            "baseline r/s",
            "current r/s",
            "delta",
            tolerance * 100.0
        );
    }
    for base in &baseline.metrics {
        let Some(cur) = current.iter().find(|m| m.name == base.name) else {
            failures.push(format!("metric '{}' missing from current suite", base.name));
            verdicts.push(ScenarioVerdict {
                name: base.name.clone(),
                baseline_refs_per_sec: base.refs_per_sec,
                current_refs_per_sec: 0.0,
                ratio: 0.0,
                rate_ok: false,
                cycles_ok: false,
            });
            continue;
        };
        let ratio = cur.refs_per_sec / base.refs_per_sec;
        let ok_rate = ratio >= 1.0 - tolerance;
        let ok_cycles = !same_mode || cur.execution_cycles == base.execution_cycles;
        if !json_output {
            outln!(
                "{:<16} {:>14.0} {:>14.0} {:>+7.1}%  {}",
                base.name,
                base.refs_per_sec,
                cur.refs_per_sec,
                (ratio - 1.0) * 100.0,
                if ok_rate && ok_cycles { "ok" } else { "FAIL" }
            );
        }
        if !ok_rate {
            failures.push(format!(
                "'{}' throughput regressed to {:.0}% of baseline ({:.0} vs {:.0} refs/sec)",
                base.name,
                ratio * 100.0,
                cur.refs_per_sec,
                base.refs_per_sec
            ));
        }
        if !ok_cycles {
            failures.push(format!(
                "'{}' simulated cycles changed: baseline {} vs current {} — \
                 the simulation's semantics changed; re-record intentionally with --record",
                base.name, base.execution_cycles, cur.execution_cycles
            ));
        }
        verdicts.push(ScenarioVerdict {
            name: base.name.clone(),
            baseline_refs_per_sec: base.refs_per_sec,
            current_refs_per_sec: cur.refs_per_sec,
            ratio,
            rate_ok: ok_rate,
            cycles_ok: ok_cycles,
        });
    }
    let rebaseline = rebaseline_command(file, &baseline.mode);
    if json_output {
        outln!(
            "{}",
            render_verdict_json(&baseline.mode, tolerance, &verdicts, &failures, &rebaseline)
        );
        if failures.is_empty() {
            Ok(())
        } else {
            // The document above already carries the details; keep stderr
            // to a one-liner so logs stay parseable.
            Err(format!("{} scenario check(s) failed", failures.len()))
        }
    } else if failures.is_empty() {
        outln!(
            "perfgate: all {} metrics within tolerance",
            baseline.metrics.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{}\nto accept the current results as the new baseline, run:\n  {rebaseline}",
            failures.join("\n")
        ))
    }
}

fn compare(p: &Parsed) -> Result<(), String> {
    let [old_file, new_file] = p.operands() else {
        return Err(format!("--compare needs two files\n\n{}", PERFGATE.usage()));
    };
    let old = load(old_file)?;
    let new = load(new_file)?;

    outln!(
        "{:<16} {:>14} {:>14} {:>8}",
        "metric",
        "old r/s",
        "new r/s",
        "ratio"
    );
    for o in &old.metrics {
        if let Some(n) = new.metrics.iter().find(|m| m.name == o.name) {
            outln!(
                "{:<16} {:>14.0} {:>14.0} {:>7.2}x",
                o.name,
                o.refs_per_sec,
                n.refs_per_sec,
                n.refs_per_sec / o.refs_per_sec
            );
        }
    }

    if let Some(spec) = p.value("--min-ratio") {
        let (name, min) = spec
            .split_once('=')
            .and_then(|(n, r)| r.parse::<f64>().ok().map(|r| (n.to_owned(), r)))
            .ok_or_else(|| format!("--min-ratio expects NAME=R, got '{spec}'"))?;
        let o = find_metric(&old, &name, old_file)?;
        let n = find_metric(&new, &name, new_file)?;
        let ratio = n.refs_per_sec / o.refs_per_sec;
        if ratio < min {
            return Err(format!(
                "'{name}' speedup {ratio:.2}x is below the required {min:.2}x"
            ));
        }
        outln!("'{name}' speedup {ratio:.2}x meets the required {min:.2}x");
    }
    Ok(())
}

fn find_metric<'a>(doc: &'a ResultsDoc, name: &str, file: &str) -> Result<&'a Measurement, String> {
    doc.metrics
        .iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("{file}: no metric named '{name}'"))
}
