//! `refrint-cli`: command-line front end for the Refrint reproduction.
//!
//! Subcommands:
//!
//! * `show-config` — print the paper's architecture configuration (Table 5.1).
//! * `classify` — classify the 11 applications into Class 1/2/3 (Table 6.1).
//! * `run` — run one application on one configuration and print the report.
//! * `sweep` — run a (reduced) policy sweep in parallel and print the
//!   headline numbers.
//! * `trace record` / `trace replay` / `trace info` — capture a workload to
//!   a trace file, replay it bit-for-bit, or summarize its contents.
//! * `check` — differential conformance: run seeded random scenarios
//!   through both the optimized simulator and the independent
//!   `refrint-oracle` reference model, diff the reports field by field,
//!   and shrink any divergence to a minimal repro.
//! * `serve` — run the `refrint-serve` HTTP service (job queue, worker
//!   pool, result cache) on a listen address.

use std::process::ExitCode;

use refrint::config::SystemConfig;
use refrint::figures::headline_summary;
use refrint::json;
use refrint::sweep::{SweepProgress, SweepRunner};
use refrint_cli::args::REFRINT_CLI;
use refrint_cli::{
    ObsOptions, OutputFormat, RunOptions, ServeOptions, SweepOptions, TraceInfoOptions,
    TraceRecordOptions, TraceReplayOptions,
};
use refrint_trace::{TraceFile, TraceSummary};
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::{classify, ClassifierConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some("help" | "--help" | "-h") = args.first().map(String::as_str) {
        print!("{}", REFRINT_CLI.usage());
        return ExitCode::SUCCESS;
    }
    let result = match REFRINT_CLI.split(&args) {
        Err(e) => Err(format!("{e}\n\n{}", REFRINT_CLI.usage())),
        Ok((command, rest)) => match command.name {
            "show-config" => no_flags("show-config", &rest).and_then(|()| show_config()),
            "classify" => no_flags("classify", &rest).and_then(|()| classify_apps()),
            "run" => run_one(&rest),
            "obs" => obs(&rest),
            "sweep" => sweep(&rest),
            "trace record" => trace_record(&rest),
            "trace replay" => trace_replay(&rest),
            "trace info" => trace_info(&rest),
            "check" => check(&rest),
            "serve" => serve(&rest),
            other => unreachable!("`{other}` is in the refrint-cli table but has no handler"),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("refrint-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects any argument to a command that takes none.
fn no_flags(command: &str, args: &[String]) -> Result<(), String> {
    REFRINT_CLI.parse(command, args)?;
    Ok(())
}

fn show_config() -> Result<(), String> {
    println!("== Full-SRAM baseline ==");
    println!("{}", SystemConfig::sram_baseline());
    println!();
    println!("== Recommended full-eDRAM configuration ==");
    println!("{}", SystemConfig::edram_recommended());
    Ok(())
}

fn classify_apps() -> Result<(), String> {
    println!("== Table 6.1: application binning ==");
    let config = ClassifierConfig::default();
    for app in AppPreset::ALL {
        let report = classify(&app.model(), &config);
        let marker = if report.class == app.paper_class() {
            ""
        } else {
            "  (differs from paper!)"
        };
        println!("{report}{marker}");
    }
    Ok(())
}

/// Prints a run report in the requested format.
fn print_report(report: &refrint::report::SimReport, format: OutputFormat) {
    match format {
        OutputFormat::Json => println!("{}", json::report(report)),
        OutputFormat::Text => {
            println!("{report}");
            println!();
            println!(
                "l3 miss rate    : {:.2} per 1000 data refs",
                report.l3_miss_rate_per_mille()
            );
            println!(
                "refresh rate    : {:.2} refreshes per kilo-cycle",
                report.refreshes_per_kilocycle()
            );
        }
    }
}

fn run_one(args: &[String]) -> Result<(), String> {
    let options = RunOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.run(options.app);
    print_report(&outcome.report, options.format);
    if options.timing {
        // Stderr, so stdout stays byte-identical with and without --timing.
        eprintln!("{}", simulation.obs_summary());
    }
    Ok(())
}

/// One fully-instrumented run whose product is the span export itself.
fn obs(args: &[String]) -> Result<(), String> {
    let options = ObsOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.run(options.app);
    let summary = simulation.obs_summary();
    if options.critical_path {
        println!(
            "{}",
            refrint_obs::critical_path::subsystem_critical_path(&summary)
        );
        return Ok(());
    }
    match options.format {
        OutputFormat::Json => println!(
            "{}",
            refrint_obs::otlp::render(&summary, outcome.config_label(), outcome.workload())
        ),
        OutputFormat::Text => println!("{summary}"),
    }
    Ok(())
}

fn sweep(args: &[String]) -> Result<(), String> {
    let options = SweepOptions::parse(args)?;
    let cfg = options.experiment()?;
    let mut runner = SweepRunner::new(cfg);
    if let Some(jobs) = options.jobs {
        runner = runner.workers(jobs);
    }
    if options.progress {
        runner = runner.observer(|p: &SweepProgress| {
            eprintln!(
                "[{}/{}] {} on {}",
                p.completed, p.total, p.app, p.config_label
            );
        });
    }
    eprintln!(
        "running {} simulations ({} refs per thread)...",
        runner.config().total_runs(),
        runner.config().refs_per_thread
    );
    let results = runner.run().map_err(|e| e.to_string())?;
    if options.format == OutputFormat::Json {
        println!("{}", json::sweep(&results));
        return Ok(());
    }
    for &retention in &results.retentions_us {
        if let Some(h) = headline_summary(&results, retention) {
            println!("== {retention} us ==");
            println!(
                "Periodic All     : memory {:.2}  system {:.2}  slowdown {:.2}",
                h.baseline_memory_energy, h.baseline_system_energy, h.baseline_slowdown
            );
            println!(
                "Refrint WB(32,32): memory {:.2}  system {:.2}  slowdown {:.2}",
                h.refrint_memory_energy, h.refrint_system_energy, h.refrint_slowdown
            );
        }
    }
    Ok(())
}

fn trace_record(args: &[String]) -> Result<(), String> {
    let options = TraceRecordOptions::parse(args)?;
    let simulation = options.builder().build().map_err(|e| e.to_string())?;
    let meta = simulation
        .capture(options.app, &options.out)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {} ({} threads, seed {:#x}) to {}",
        meta.workload,
        meta.threads,
        meta.seed,
        options.out.display()
    );
    Ok(())
}

fn trace_replay(args: &[String]) -> Result<(), String> {
    let options = TraceReplayOptions::parse(args)?;
    let mut simulation = options.builder().build().map_err(|e| e.to_string())?;
    let outcome = simulation.replay().map_err(|e| e.to_string())?;
    print_report(&outcome.report, options.format);
    Ok(())
}

fn trace_info(args: &[String]) -> Result<(), String> {
    let options = TraceInfoOptions::parse(args)?;
    let trace = TraceFile::open(&options.trace).map_err(|e| e.to_string())?;
    let summary = TraceSummary::collect(&trace).map_err(|e| e.to_string())?;
    match options.format {
        OutputFormat::Json => println!("{}", json::trace_summary(&summary)),
        OutputFormat::Text => {
            println!("trace           : {}", options.trace.display());
            println!("{summary}");
        }
    }
    Ok(())
}

/// Differential conformance against the independent oracle.
fn check(args: &[String]) -> Result<(), String> {
    use refrint_cli::CheckOptions;
    use refrint_oracle::harness::{run_check_pinned, run_scenario_with};
    use refrint_oracle::scenario::Scenario;
    use refrint_oracle::system::Fault;

    let options = CheckOptions::parse(args)?;
    let fault = options.self_test.then_some(Fault::DecayCleanBudgetOffByOne);

    // Repro mode: one explicit scenario, no shrinking needed (the spec is
    // already a minimal repro, or the user is bisecting by hand). The
    // --self-test fault applies here too, so a self-test divergence's
    // printed repro command stays reproducible.
    if let Some(spec) = &options.scenario {
        let scenario = Scenario::from_spec(spec)?;
        eprintln!("checking scenario: {scenario}");
        let diffs = run_scenario_with(&scenario, fault).map_err(|e| e.to_string())?;
        if diffs.is_empty() {
            println!("ok: oracle and simulator agree on `{scenario}`");
            return Ok(());
        }
        let mut out = format!("oracle and simulator disagree on `{scenario}`:\n");
        for d in &diffs {
            out.push_str(&format!("  {d}\n"));
        }
        return Err(out);
    }

    if options.self_test {
        eprintln!(
            "self-test: off-by-one injected into the oracle's decay settlement; \
             the harness must catch it"
        );
    }
    match options.protocol {
        Some(protocol) => eprintln!(
            "running {} scenarios (seed {:#x}, protocol pinned to {})...",
            options.scenarios,
            options.seed,
            protocol.label()
        ),
        None => eprintln!(
            "running {} scenarios (seed {:#x})...",
            options.scenarios, options.seed
        ),
    }
    let outcome = run_check_pinned(
        options.seed,
        options.scenarios,
        options.protocol,
        fault,
        |index, scenario| {
            if options.progress {
                eprintln!("[{}/{}] {scenario}", index + 1, options.scenarios);
            }
        },
    )
    .map_err(|e| e.to_string())?;

    match (outcome.divergence, options.self_test) {
        (None, false) => {
            println!(
                "ok: oracle and simulator agree field-for-field on {} scenarios",
                outcome.scenarios_run
            );
            Ok(())
        }
        (None, true) => Err(format!(
            "self-test FAILED: the injected fault survived {} scenarios undetected",
            outcome.scenarios_run
        )),
        (Some(divergence), true) => {
            println!(
                "self-test ok: injected fault caught after {} scenarios and shrunk in {} steps",
                outcome.scenarios_run, divergence.shrink_steps
            );
            println!("{divergence}");
            Ok(())
        }
        (Some(divergence), false) => Err(divergence.to_string()),
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let ServeOptions { addr, mut server } = ServeOptions::parse(args)?;
    refrint_serve::install_sigterm_handler();
    // The library default is quiet (errors only); the CLI serves humans, so
    // default to info and let REFRINT_LOG override in either direction.
    server.log_level =
        refrint_obs::log::Level::from_env("REFRINT_LOG", refrint_obs::log::Level::Info);
    let backends = server.coordinator.as_ref().map(|c| c.backends.len());
    let server = refrint_serve::Server::bind(addr.as_str(), server)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    match backends {
        Some(backends) => eprintln!(
            "refrint-serve: coordinating {backends} backend(s) on http://{addr} \
             (POST /run, POST /sweep, POST /backends)"
        ),
        None => eprintln!(
            "refrint-serve: listening on http://{addr} (POST /run, POST /sweep, GET /healthz)"
        ),
    }
    server.run().map_err(|e| e.to_string())
}
