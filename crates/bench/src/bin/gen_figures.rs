//! `gen-figures`: regenerate every table and figure of the paper's
//! evaluation section from the configuration sweep, plus two ablations.
//!
//! Usage:
//!
//! ```text
//! gen-figures [--scale smoke|default|long] [--apps fft,lu,...] \
//!             [--figure 6.1|6.2|6.3|6.4] [--table 6.1|A1|A3] [--csv]
//! ```
//!
//! With no `--figure`/`--table` argument every artefact is produced, in
//! the order Table 6.1, Figures 6.1–6.4, the headline, A1, A3. The
//! headline follows whenever a sweep artefact is selected; the ablations
//! need no sweep. The output is plain text (figures as CSV with `--csv`).

use std::process::ExitCode;

use refrint::experiment::SweepResults;
use refrint::figures::{self, AppSelection};
use refrint_bench::{experiment, sweep, Scale};
use refrint_edram::controller::PeriodicBurstModel;
use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
use refrint_edram::schedule::{DecaySchedule, LineKind};
use refrint_energy::report::NormalizedSeries;
use refrint_engine::time::Cycle;
use refrint_workloads::apps::AppPreset;
use refrint_workloads::classify::AppClass;

/// One printable artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Artefact {
    Table6_1,
    Figure6_1,
    Figure6_2,
    Figure6_3,
    Figure6_4,
    AblationA1,
    AblationA3,
}

/// Every artefact in output order, with the flag and value that select it.
const ARTEFACTS: [(Artefact, &str, &str); 7] = [
    (Artefact::Table6_1, "--table", "6.1"),
    (Artefact::Figure6_1, "--figure", "6.1"),
    (Artefact::Figure6_2, "--figure", "6.2"),
    (Artefact::Figure6_3, "--figure", "6.3"),
    (Artefact::Figure6_4, "--figure", "6.4"),
    (Artefact::AblationA1, "--table", "A1"),
    (Artefact::AblationA3, "--table", "A3"),
];

impl Artefact {
    fn select(flag: &str, value: &str) -> Result<Self, String> {
        ARTEFACTS
            .iter()
            .find(|(_, f, v)| *f == flag && *v == value)
            .map(|(a, ..)| *a)
            .ok_or_else(|| {
                let valid: Vec<String> = ARTEFACTS
                    .iter()
                    .map(|(_, f, v)| format!("{f} {v}"))
                    .collect();
                format!("unknown {flag} `{value}` (valid: {})", valid.join(", "))
            })
    }

    fn needs_sweep(self) -> bool {
        !matches!(self, Artefact::AblationA1 | Artefact::AblationA3)
    }
}

#[derive(Debug)]
struct Options {
    scale: Scale,
    apps: Option<Vec<AppPreset>>,
    artefacts: Vec<Artefact>,
    csv: bool,
}

impl Options {
    fn wanted(&self, artefact: Artefact) -> bool {
        self.artefacts.is_empty() || self.artefacts.contains(&artefact)
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Default,
        apps: None,
        artefacts: Vec::new(),
        csv: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = match v.as_str() {
                    "smoke" => Scale::Smoke,
                    "default" => Scale::Default,
                    "long" => Scale::Long,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--apps" => {
                let v = args.next().ok_or("--apps needs a value")?;
                let mut apps = Vec::new();
                for name in v.split(',') {
                    apps.push(name.parse::<AppPreset>().map_err(|e| format!("{e}"))?);
                }
                opts.apps = Some(apps);
            }
            flag @ ("--figure" | "--table") => {
                let v = args.next().ok_or(format!("{flag} needs a value"))?;
                opts.artefacts.push(Artefact::select(flag, &v)?);
            }
            "--csv" => opts.csv = true,
            "--help" | "-h" => {
                println!(
                    "gen-figures [--scale smoke|default|long] [--apps a,b,c] \
                     [--figure 6.1|6.2|6.3|6.4] [--table 6.1|A1|A3] [--csv]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn print_series(series: &[NormalizedSeries], csv: bool) {
    for s in series {
        print!("{}", if csv { s.to_csv() } else { s.to_table() });
    }
}

/// Prints a figure once per application selection the paper plots.
fn print_per_selection(
    title: &str,
    results: &SweepResults,
    selections: &[AppSelection],
    figure: fn(&SweepResults, AppSelection) -> Vec<NormalizedSeries>,
    csv: bool,
) {
    println!("== {title} ==");
    for &selection in selections {
        println!("-- {} --", selection.label());
        print_series(&figure(results, selection), csv);
    }
    println!();
}

fn print_sweep_artefacts(opts: &Options, results: &SweepResults) {
    if opts.wanted(Artefact::Table6_1) {
        println!("== Table 6.1: application binning ==");
        for row in figures::table_6_1(results) {
            println!("{row}");
        }
        println!();
    }

    if opts.wanted(Artefact::Figure6_1) {
        println!(
            "== Figure 6.1: L1, L2, L3 & DRAM energy (normalised to full-SRAM memory energy) =="
        );
        print_series(&figures::figure_6_1(results), opts.csv);
        println!();
    }

    let class1_and_all = [AppSelection::Class(AppClass::Class1), AppSelection::All];
    if opts.wanted(Artefact::Figure6_2) {
        let mut selections: Vec<AppSelection> =
            AppClass::ALL.into_iter().map(AppSelection::Class).collect();
        selections.push(AppSelection::All);
        print_per_selection(
            "Figure 6.2: dynamic, leakage, refresh & DRAM energy (normalised)",
            results,
            &selections,
            figures::figure_6_2,
            opts.csv,
        );
    }
    if opts.wanted(Artefact::Figure6_3) {
        print_per_selection(
            "Figure 6.3: total energy (normalised to full-SRAM system energy)",
            results,
            &class1_and_all,
            figures::figure_6_3,
            opts.csv,
        );
    }
    if opts.wanted(Artefact::Figure6_4) {
        print_per_selection(
            "Figure 6.4: execution time (normalised to full-SRAM execution time)",
            results,
            &class1_and_all,
            figures::figure_6_4,
            opts.csv,
        );
    }

    if let Some(h) = figures::headline_summary(results, 50) {
        println!("== Headline (50 us, averaged over all applications) ==");
        println!(
            "Periodic All     : memory {:.2}, system {:.2}, slowdown {:.2}",
            h.baseline_memory_energy, h.baseline_system_energy, h.baseline_slowdown
        );
        println!(
            "Refrint WB(32,32): memory {:.2}, system {:.2}, slowdown {:.2}",
            h.refrint_memory_energy, h.refrint_system_energy, h.refrint_slowdown
        );
        println!(
            "(paper: 0.50 / 0.72 / 1.18 for Periodic All; 0.36 / 0.61 / 1.02 for Refrint WB(32,32))"
        );
    }
}

/// A1: how many refreshes the conservative "all sentry bits fire together"
/// margin costs an idle clean line, against tighter margins (Section 4.1).
fn print_ablation_a1() {
    println!(
        "== Ablation A1: sentry margin vs refreshes for an idle clean line (WB(32,32), 5 ms) =="
    );
    for margin in [1u64, 1024, 4096, 16 * 1024, 32 * 1024] {
        let schedule = DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::write_back(32, 32)),
            Cycle::new(50_000),
            Cycle::new(margin),
            Cycle::ZERO,
        );
        let s = schedule.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(5_000_000));
        println!(
            "margin {:>6} cycles -> {} refreshes, invalidated at {:?}",
            margin, s.refreshes, s.invalidated_at
        );
    }
}

/// A3: how the periodic burst's blocked fraction and worst-case stall
/// change with the number of refresh groups per bank (Section 3.2's
/// availability argument for staggering).
fn print_ablation_a3() {
    println!("== Ablation A3: periodic refresh groups vs blocked fraction and worst-case stall (16K-line bank) ==");
    for groups in [1u64, 2, 4, 8, 16, 64] {
        let model = PeriodicBurstModel::new(Cycle::new(50_000), groups, 16 * 1024 / groups);
        println!(
            "groups {:>3} -> blocked fraction {:.4}, worst-case stall {} cycles",
            groups,
            model.blocked_fraction(),
            model.burst_length()
        );
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gen-figures: {e}");
            return ExitCode::FAILURE;
        }
    };

    if ARTEFACTS
        .iter()
        .any(|&(a, ..)| a.needs_sweep() && opts.wanted(a))
    {
        let cfg = experiment(opts.scale, opts.apps.clone());
        eprintln!(
            "gen-figures: running {} simulations ({} refs/thread) ...",
            cfg.total_runs(),
            cfg.refs_per_thread
        );
        print_sweep_artefacts(&opts, &sweep(&cfg));
    }
    if opts.wanted(Artefact::AblationA1) {
        print_ablation_a1();
    }
    if opts.wanted(Artefact::AblationA3) {
        print_ablation_a3();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn each_flag_selects_only_its_own_artefact() {
        assert_eq!(
            parse(&["--table", "6.1"]).unwrap().artefacts,
            [Artefact::Table6_1]
        );
        assert_eq!(
            parse(&["--figure", "6.1"]).unwrap().artefacts,
            [Artefact::Figure6_1]
        );
        let both = parse(&["--figure", "6.4", "--table", "A3"]).unwrap();
        assert!(both.wanted(Artefact::Figure6_4) && both.wanted(Artefact::AblationA3));
        assert!(!both.wanted(Artefact::Table6_1) && !both.wanted(Artefact::Figure6_1));
        let all = parse(&[]).unwrap();
        assert!(ARTEFACTS.iter().all(|&(a, ..)| all.wanted(a)));
    }

    #[test]
    fn unknown_artefacts_are_rejected_with_the_valid_list() {
        let valid = "(valid: --table 6.1, --figure 6.1, --figure 6.2, --figure 6.3, \
                     --figure 6.4, --table A1, --table A3)";
        assert_eq!(
            parse(&["--figure", "7.9"]).unwrap_err(),
            format!("unknown --figure `7.9` {valid}")
        );
        // A value is only valid with its own flag.
        assert_eq!(
            parse(&["--figure", "A1"]).unwrap_err(),
            format!("unknown --figure `A1` {valid}")
        );
        assert_eq!(
            parse(&["--table", "6.2"]).unwrap_err(),
            format!("unknown --table `6.2` {valid}")
        );
    }
}
