//! One argument grammar for every binary in the workspace.
//!
//! Each command declares a table of [`Flag`]s. [`Program::parse`] checks an
//! argument list against the table and [`Program::usage`] renders the help
//! text from it, so no flag is accepted without being documented or
//! documented without being accepted. A rejected list is an [`ArgError`]
//! that lists the command's valid flags.
//!
//! The tables of all four binaries live here: [`REFRINT_CLI`],
//! [`SERVE_CLIENT`], [`PERFGATE`] and [`GEN_FIGURES`]. The run point is
//! declared once, in [`RUN_OVERRIDES`], and shared by every command that
//! takes it.

use std::fmt;
use std::str::FromStr;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// One value, shown in usage as this placeholder.
    Value(&'static str),
    /// One of these words; the first is the default.
    OneOf(&'static [&'static str]),
}

/// One entry of a command's flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, `--` included.
    pub name: &'static str,
    /// What follows the flag.
    pub takes: Takes,
    /// Whether the flag may be given more than once; its values accumulate.
    pub repeats: bool,
    /// The help line usage shows.
    pub help: &'static str,
}

impl Flag {
    const fn new(name: &'static str, takes: Takes, help: &'static str) -> Self {
        Flag {
            name,
            takes,
            repeats: false,
            help,
        }
    }

    const fn bare(name: &'static str, help: &'static str) -> Self {
        Flag::new(name, Takes::Nothing, help)
    }

    const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Flag::new(name, Takes::Value(placeholder), help)
    }

    const fn one_of(
        name: &'static str,
        words: &'static [&'static str],
        help: &'static str,
    ) -> Self {
        Flag::new(name, Takes::OneOf(words), help)
    }

    const fn repeating(self) -> Self {
        Flag {
            repeats: true,
            ..self
        }
    }

    /// The flag as usage shows it: `--format text|json`, `--trace <file>...`.
    fn shape(&self) -> String {
        let value = match self.takes {
            Takes::Nothing => String::new(),
            Takes::Value(placeholder) => format!(" {placeholder}"),
            Takes::OneOf(words) => format!(" {}", words.join("|")),
        };
        let repeats = if self.repeats { "..." } else { "" };
        format!("{}{value}{repeats}", self.name)
    }
}

/// A named group of flags several commands take, rendered once in usage.
#[derive(Debug)]
pub struct FlagSet {
    /// The heading, which also stands for the set in each command's list.
    pub title: &'static str,
    /// What the set is.
    pub note: &'static str,
    /// The flags.
    pub flags: &'static [Flag],
}

/// One command of a program.
#[derive(Debug)]
pub struct Command {
    /// The command words (`run`, `trace record`); empty for a program that
    /// is a single command.
    pub name: &'static str,
    /// Help lines, separated by `\n`.
    pub help: &'static str,
    /// The command's own flags.
    pub flags: &'static [Flag],
    /// A shared flag set the command also takes.
    pub set: Option<&'static FlagSet>,
    /// Placeholders of the positionals the command takes, one value each.
    pub positionals: &'static [&'static str],
}

impl Command {
    const fn new(name: &'static str, help: &'static str, flags: &'static [Flag]) -> Self {
        Command {
            name,
            help,
            flags,
            set: None,
            positionals: &[],
        }
    }

    const fn with(self, set: &'static FlagSet) -> Self {
        Command {
            set: Some(set),
            ..self
        }
    }

    const fn taking(self, positionals: &'static [&'static str]) -> Self {
        Command {
            positionals,
            ..self
        }
    }

    /// The command's own flags and its set's.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        let set = self.set.map_or(&[][..], |set| set.flags);
        self.flags.iter().chain(set)
    }
}

/// A binary's whole command line.
#[derive(Debug)]
pub struct Program {
    /// The binary's name.
    pub name: &'static str,
    /// Flags every command takes, which may also precede the command.
    pub global: &'static [Flag],
    /// The commands.
    pub commands: &'static [Command],
}

/// Why an argument list was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgErrorKind {
    /// No command was given.
    MissingCommand,
    /// The words given name no command.
    UnknownCommand(String),
    /// A `--flag` the command does not take.
    UnknownFlag(String),
    /// A flag that may appear once appeared again.
    Repeated(&'static str),
    /// A value flag at the end, or followed by another `--flag`.
    MissingValue(&'static str),
    /// A value outside the flag's word list.
    NotOneOf(&'static str, String),
    /// A positional beyond those the command takes.
    UnexpectedArgument(String),
}

/// A rejected argument list: what went wrong, where, and what is valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// What went wrong.
    pub kind: ArgErrorKind,
    /// The program, or the program and command, that rejected the list.
    pub command: String,
    /// The valid flags, or for a command error the valid commands.
    pub valid: Vec<&'static str>,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ArgErrorKind::MissingCommand => write!(f, "a command is required")?,
            ArgErrorKind::UnknownCommand(got) => write!(f, "unknown command `{got}`")?,
            ArgErrorKind::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`")?,
            ArgErrorKind::Repeated(flag) => write!(f, "`{flag}` may be given only once")?,
            ArgErrorKind::MissingValue(flag) => write!(f, "`{flag}` needs a value")?,
            ArgErrorKind::NotOneOf(flag, got) => write!(f, "unknown {flag} `{got}`")?,
            ArgErrorKind::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`")?,
        }
        let what = match self.kind {
            ArgErrorKind::MissingCommand | ArgErrorKind::UnknownCommand(_) => "commands",
            _ => "flags",
        };
        match self.valid.as_slice() {
            [] => write!(f, " (`{}` takes no {what})", self.command),
            valid => write!(
                f,
                " (`{}` takes {what}: {})",
                self.command,
                valid.join(", ")
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for String {
    fn from(e: ArgError) -> String {
        e.to_string()
    }
}

/// A parsed argument list: the flags given, in order, and the positionals.
///
/// Asking for a flag the command's table lacks panics: the grammar would
/// never have let it through, so the question is a bug in the caller.
#[derive(Debug, Clone)]
pub struct Parsed {
    accepted: Vec<&'static Flag>,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Parsed {
    fn declared(&self, name: &str) -> &'static Flag {
        let found = self.accepted.iter().find(|flag| flag.name == name);
        found.unwrap_or_else(|| panic!("`{name}` is not in this command's flag table"))
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        let name = self.declared(name).name;
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The value of `name`, if given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).next()
    }

    /// Every value of the repeatable `name`, in order.
    pub fn values(&self, name: &str) -> impl Iterator<Item = &str> + '_ {
        let name = self.declared(name).name;
        let given = self.given.iter().filter(move |(given, _)| *given == name);
        given.filter_map(|(_, value)| value.as_deref())
    }

    /// The word given for the word-list flag `name`, or its default.
    #[must_use]
    pub fn choice(&self, name: &str) -> &str {
        match self.declared(name).takes {
            Takes::OneOf(words) => self.value(name).unwrap_or(words[0]),
            _ => panic!("`{name}` takes no word list"),
        }
    }

    /// The value of `name` run through `parse`, if given.
    ///
    /// # Errors
    ///
    /// Whatever `parse` returns.
    pub fn parse<T, E>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        self.value(name).map(parse).transpose()
    }

    /// The numeric value of `name`, if given.
    ///
    /// # Errors
    ///
    /// ``bad --flag `value` `` when the value does not parse.
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parse(name, |v| v.parse().map_err(|_| format!("bad {name} `{v}`")))
    }

    /// The numeric value of `name`, if given, which must not be zero.
    ///
    /// # Errors
    ///
    /// As [`Parsed::number`], and `--flag must be at least 1` for zero.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.number::<T>(name)? {
            Some(n) if n == T::default() => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The positional arguments (operands), in order.
    #[must_use]
    pub fn operands(&self) -> &[String] {
        &self.positionals
    }
}

impl Program {
    /// Finds the command `args` names after any global flags, and returns
    /// it with the arguments minus the command words.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] listing the commands when none or an unknown one is
    /// named.
    pub fn split(&self, args: &[String]) -> Result<(&'static Command, Vec<String>), ArgError> {
        let mut at = 0;
        while let Some(flag) = args
            .get(at)
            .and_then(|arg| self.global.iter().find(|f| f.name == arg))
        {
            at += if flag.takes == Takes::Nothing { 1 } else { 2 };
        }
        let words = args.get(at..).unwrap_or_default();
        let named = |command: &&Command| {
            let n = command.name.split(' ').count();
            words.len() >= n
                && command
                    .name
                    .split(' ')
                    .eq(words[..n].iter().map(String::as_str))
        };
        match self.commands.iter().find(named) {
            Some(command) => {
                let n = command.name.split(' ').count();
                Ok((command, [&args[..at], &words[n..]].concat()))
            }
            None => Err(ArgError {
                kind: words.first().map_or(ArgErrorKind::MissingCommand, |word| {
                    ArgErrorKind::UnknownCommand(word.clone())
                }),
                command: self.name.to_owned(),
                valid: self.commands.iter().map(|command| command.name).collect(),
            }),
        }
    }

    /// Parses the arguments of `command`, its words already removed.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] listing the command's flags for an unknown flag, a
    /// repeated flag that may not repeat, a value flag with no value, a
    /// value outside a word list, or a positional the command does not
    /// take.
    ///
    /// # Panics
    ///
    /// If `command` is not one of this program's commands.
    pub fn parse(&self, command: &str, args: &[String]) -> Result<Parsed, ArgError> {
        let command = self.commands.iter().find(|c| c.name == command);
        let command =
            command.unwrap_or_else(|| panic!("{} has no `{command:?}` command", self.name));
        let accepted: Vec<&'static Flag> = self.global.iter().chain(command.all_flags()).collect();
        let error = |kind| ArgError {
            kind,
            command: format!("{} {}", self.name, command.name)
                .trim_end()
                .to_owned(),
            valid: accepted.iter().map(|flag| flag.name).collect(),
        };
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut positionals = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if positionals.len() == command.positionals.len() {
                    return Err(error(ArgErrorKind::UnexpectedArgument(arg.clone())));
                }
                positionals.push(arg.clone());
                continue;
            }
            let Some(flag) = accepted.iter().find(|flag| flag.name == arg) else {
                return Err(error(ArgErrorKind::UnknownFlag(arg.clone())));
            };
            if !flag.repeats && given.iter().any(|(name, _)| *name == flag.name) {
                return Err(error(ArgErrorKind::Repeated(flag.name)));
            }
            let value = match flag.takes {
                Takes::Nothing => None,
                Takes::Value(_) | Takes::OneOf(_) => {
                    let value = args.next_if(|value| !value.starts_with("--"));
                    let value =
                        value.ok_or_else(|| error(ArgErrorKind::MissingValue(flag.name)))?;
                    if let Takes::OneOf(words) = flag.takes {
                        if !words.contains(&value.as_str()) {
                            return Err(error(ArgErrorKind::NotOneOf(flag.name, value.clone())));
                        }
                    }
                    Some(value.clone())
                }
            };
            given.push((flag.name, value));
        }
        Ok(Parsed {
            accepted,
            given,
            positionals,
        })
    }

    /// The usage text, rendered from the tables.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = String::new();
        if let [single] = self.commands {
            if single.name.is_empty() {
                let positionals: String =
                    single.positionals.iter().map(|p| format!(" {p}")).collect();
                out.push_str(&format!(
                    "{} [flags]{positionals}\n\n{}\n\nFlags:\n",
                    self.name, single.help
                ));
                for flag in single.flags {
                    push_help(&mut out, 2, &flag.shape(), flag.help);
                }
                return out;
            }
        }
        let global: String = self
            .global
            .iter()
            .map(|f| format!(" {}", f.shape()))
            .collect();
        out.push_str(&format!("{}{global} <command> [flags]\n\n", self.name));
        for flag in self.global {
            push_help(&mut out, 2, &flag.shape(), flag.help);
        }
        out.push_str(if self.global.is_empty() {
            "Commands:\n"
        } else {
            "\nCommands:\n"
        });
        for command in self.commands {
            let positionals: String = command
                .positionals
                .iter()
                .map(|p| format!(" {p}"))
                .collect();
            push_help(
                &mut out,
                2,
                &format!("{}{positionals}", command.name),
                command.help,
            );
            for flag in command.flags {
                push_help(&mut out, 4, &flag.shape(), flag.help);
            }
            if let Some(set) = command.set {
                push_help(&mut out, 4, &format!("[{}]", set.title), "");
            }
        }
        if let Some(set) = self.commands.iter().find_map(|command| command.set) {
            let users: Vec<&str> = self
                .commands
                .iter()
                .filter(|command| command.set.is_some_and(|s| std::ptr::eq(s, set)))
                .map(|command| command.name)
                .collect();
            out.push_str(&format!(
                "\n{} ({}; {}):\n",
                set.title,
                users.join(", "),
                set.note
            ));
            for flag in set.flags {
                push_help(&mut out, 4, &flag.shape(), flag.help);
            }
        }
        out
    }
}

/// Appends `left`, indented, with `help` beside it from column 35 (on the
/// next line when `left` is too wide); further help lines align under the
/// first.
fn push_help(out: &mut String, indent: usize, left: &str, help: &str) {
    const COLUMN: usize = 35;
    let mut lines = help.lines();
    let left = format!("{}{left}", " ".repeat(indent));
    if left.len() < COLUMN - 1 {
        let line = format!("{left:<COLUMN$}{}", lines.next().unwrap_or(""));
        out.push_str(line.trim_end());
    } else {
        out.push_str(&left);
    }
    out.push('\n');
    for line in lines {
        out.push_str(&format!("{:COLUMN$}{line}\n", ""));
    }
}

const APP: Flag = Flag::value("--app", "<name>", "application preset (required)");
const FORMAT: Flag = Flag::one_of("--format", &["text", "json"], "output rendering");
const REFS: Flag = Flag::value("--refs", "<n>", "references per thread");
const CORES: Flag = Flag::value("--cores", "<n>", "cores on the simulated chip");
/// `--seed` reads decimal or `0x` hex wherever it appears, so the form
/// `trace record` prints is accepted back verbatim.
const SEED: Flag = Flag::value("--seed", "<n>", "workload seed (decimal or 0x hex)");
const PROTOCOL: Flag = Flag::value("--protocol", "mesi|dragon", "coherence protocol");
const PROFILE: Flag = Flag::value(
    "--retention-profile",
    "uniform|normal(S)|bimodal(W,R)",
    "per-bank retention distribution",
);
const PROGRESS: Flag = Flag::bare("--progress", "print a progress line per run to stderr");
const TRACE_FILE: Flag = Flag::value("--trace", "<file>", "trace file (required)");

/// The run point: exactly the fields of a `POST /run` body.
pub static RUN_OVERRIDES: FlagSet = FlagSet {
    title: "RUN OVERRIDES",
    note: "the fields of a POST /run body",
    flags: &[
        Flag::bare("--sram", "the full-SRAM baseline instead of eDRAM"),
        Flag::value("--policy", "P.all|R.WB(32,32)|...", "eDRAM refresh policy"),
        Flag::value("--retention", "50|100|200", "eDRAM retention time in us"),
        PROTOCOL,
        PROFILE,
        REFS,
        SEED,
        CORES,
    ],
};

/// `refrint-cli`.
pub static REFRINT_CLI: Program = Program {
    name: "refrint-cli",
    global: &[],
    commands: &[
        Command::new(
            "show-config",
            "print the simulated architecture (paper Table 5.1)",
            &[],
        ),
        Command::new(
            "classify",
            "classify applications into Class 1/2/3 (paper Table 6.1)",
            &[],
        ),
        Command::new(
            "run",
            "run one application and print the report",
            &[
                APP,
                Flag::bare("--timing", "also print the cycle/host-time table on stderr"),
                FORMAT,
            ],
        )
        .with(&RUN_OVERRIDES),
        Command::new(
            "obs",
            "run with full-sampling observability and print the\n\
             OTLP-shaped span export (docs/observability.md)",
            &[
                APP,
                Flag::value("--sample", "<n>", "record every Nth event (default 1)"),
                Flag::bare("--critical-path", "print the bounding-subsystem report"),
                Flag::one_of("--format", &["json", "text"], "export or timing table"),
            ],
        )
        .with(&RUN_OVERRIDES),
        Command::new(
            "sweep",
            "run the policy sweep across worker threads\n\
             (repeat --protocol / --retention-profile to add\n\
             coherence and per-bank retention axes)",
            &[
                REFS,
                Flag::value("--apps", "a,b", "applications to sweep"),
                Flag::value("--trace", "<file>", "a recorded trace to sweep").repeating(),
                CORES,
                Flag::value("--jobs", "<n>", "worker threads (default one per CPU)"),
                PROTOCOL.repeating(),
                PROFILE.repeating(),
                PROGRESS,
                FORMAT,
            ],
        ),
        Command::new(
            "trace record",
            "capture a workload's reference streams to a trace",
            &[
                APP,
                Flag::value("--out", "<file>", "trace file to write (required)"),
                CORES,
                REFS,
                SEED,
            ],
        ),
        Command::new(
            "trace replay",
            "replay a recorded trace through a configuration",
            &[TRACE_FILE, FORMAT],
        )
        .with(&RUN_OVERRIDES),
        Command::new(
            "trace info",
            "summarize a trace (threads, gaps, strides)",
            &[TRACE_FILE, FORMAT],
        ),
        Command::new(
            "check",
            "run the oracle conformance harness (docs/testing.md)",
            &[
                Flag::value("--seed", "<n>", "scenario-stream seed (decimal or 0x hex)"),
                Flag::value("--scenarios", "<n>", "scenarios to run (default 200)"),
                Flag::value("--scenario", "\"<spec>\"", "check only this scenario"),
                Flag::value("--protocol", "mesi|dragon", "pin the scenarios' protocol"),
                Flag::bare("--self-test", "inject a fault the harness must catch"),
                PROGRESS,
            ],
        ),
        Command::new(
            "serve",
            "run the HTTP simulation service (see docs/serve.md);\n\
             REFRINT_LOG=error|warn|info|debug sets log verbosity",
            &[
                Flag::value("--addr", "HOST:PORT", "address to listen on (required)"),
                Flag::value("--workers", "<n>", "simulation worker threads"),
                Flag::value("--queue", "<n>", "job-queue capacity"),
                Flag::value("--cache", "<n>", "result-cache capacity"),
                Flag::value("--max-body", "<bytes>", "request-body size limit"),
                Flag::value("--trace-dir", "<dir>", "where trace workloads are read"),
                Flag::one_of("--log-format", &["text", "json"], "structured-log encoding"),
                Flag::value("--cache-dir", "<dir>", "persist results across restarts"),
                Flag::bare("--coordinator", "dispatch jobs to --backend servers"),
                Flag::value("--backend", "HOST:PORT", "a backend to register at startup")
                    .repeating(),
            ],
        ),
    ],
};

const MODE: Flag = Flag::one_of("--mode", &["sync", "async"], "wait, or return a job id");
const TRACEPARENT: Flag = Flag::value("--traceparent", "<tp>", "W3C trace context to join");
const EXPECT_CACHE: Flag =
    Flag::one_of("--expect-cache", &["hit", "miss"], "assert X-Refrint-Cache");

/// `serve-client`.
pub static SERVE_CLIENT: Program = Program {
    name: "serve-client",
    global: &[Flag::value("--addr", "HOST:PORT", "the server (required)")],
    commands: &[
        Command::new("health", "GET /healthz", &[]),
        Command::new("metrics", "GET /metrics", &[]),
        Command::new(
            "run",
            "POST /run and print the body",
            &[
                Flag::value("--app", "<name>", "application preset"),
                Flag::value("--trace", "<name>", "trace in the server's trace dir"),
                MODE,
                TRACEPARENT,
                EXPECT_CACHE,
            ],
        )
        .with(&RUN_OVERRIDES),
        Command::new(
            "sweep",
            "POST /sweep and print the body",
            &[
                Flag::value("--apps", "a,b", "applications to sweep"),
                REFS,
                CORES,
                MODE,
                TRACEPARENT,
                EXPECT_CACHE,
            ],
        ),
        Command::new(
            "job",
            "GET /jobs/<id>[/result]",
            &[
                Flag::value("--id", "ID", "the job (required)"),
                Flag::bare("--result", "fetch the result"),
            ],
        ),
        Command::new("trace", "GET /jobs/<id>/trace, pretty-printed", &[]).taking(&["<job-id>"]),
        Command::new(
            "obs-verify",
            "replay a known workload and cross-check\n/metrics deltas against the responses",
            &[
                Flag::value("--refs", "<n>", "references per thread (default 400)"),
                Flag::value("--cores", "<n>", "cores per run (default 2)"),
            ],
        ),
        Command::new("shutdown", "POST /shutdown", &[]),
    ],
};

/// `perfgate`: `--record` and the file it writes.
pub static PERFGATE: Program = Program {
    name: "perfgate",
    global: &[],
    commands: &[Command::new(
        "",
        "simulate the perf suite's scenarios, untimed, and write each\n\
         one's refs and execution_cycles to FILE (default BENCH_SIM.json);\n\
         write the output digests to BENCH_DIGESTS.json next to FILE",
        &[Flag::bare("--record", "run the suite, write FILE")],
    )
    .taking(&["[FILE]"])],
};

/// `gen-figures`.
pub static GEN_FIGURES: Program = Program {
    name: "gen-figures",
    global: &[],
    commands: &[Command::new(
        "",
        "regenerate the paper's tables and figures, plus two ablations\n\
         (every artefact unless --figure/--table select some)",
        &[
            Flag::one_of("--scale", &["default", "smoke", "long"], "sweep length"),
            Flag::value("--apps", "a,b,c", "applications to sweep"),
            Flag::value("--figure", "6.1|6.2|6.3|6.4", "print only this figure").repeating(),
            Flag::value("--table", "6.1|A1|A3", "print only this table").repeating(),
            Flag::bare("--csv", "print figures as CSV"),
            Flag::bare("--help", "print this usage"),
        ],
    )],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn every_table_flag_parses_and_appears_in_the_usage() {
        let mut repeatable = Vec::new();
        for program in [&REFRINT_CLI, &SERVE_CLIENT, &PERFGATE, &GEN_FIGURES] {
            let usage = program.usage();
            let named = |name: &str| {
                let after = |at: usize| usage[at + name.len()..].chars().next();
                usage
                    .match_indices(name)
                    .any(|(at, _)| !after(at).is_some_and(|c| c.is_ascii_lowercase() || c == '-'))
            };
            for command in program.commands {
                assert!(
                    command.name.is_empty() || usage.contains(&format!("\n  {}", command.name))
                );
                for flag in program.global.iter().chain(command.all_flags()) {
                    assert!(
                        named(flag.name),
                        "{} usage does not name {}",
                        program.name,
                        flag.name
                    );
                    let sample = match flag.takes {
                        Takes::Nothing => None,
                        Takes::Value(_) => Some("7"),
                        Takes::OneOf(words) => Some(words[words.len() - 1]),
                    };
                    let once: Vec<String> = std::iter::once(flag.name)
                        .chain(sample)
                        .map(str::to_owned)
                        .collect();
                    let times = if flag.repeats { 2 } else { 1 };
                    let parsed = program
                        .parse(command.name, &vec![once; times].concat())
                        .unwrap();
                    assert!(parsed.flag(flag.name));
                    assert_eq!(
                        parsed.values(flag.name).count(),
                        times * usize::from(sample.is_some())
                    );
                    if flag.repeats {
                        repeatable.push(format!("{} {} {}", program.name, command.name, flag.name));
                    }
                }
            }
        }
        assert_eq!(
            repeatable,
            [
                "refrint-cli sweep --trace",
                "refrint-cli sweep --protocol",
                "refrint-cli sweep --retention-profile",
                "refrint-cli serve --backend",
                "gen-figures  --figure",
                "gen-figures  --table",
            ]
        );
    }

    #[test]
    fn bad_argument_lists_are_typed_errors_that_list_the_valid_flags() {
        let cases = [
            (
                "--app lu --bogus-flag 7",
                ArgErrorKind::UnknownFlag("--bogus-flag".into()),
            ),
            ("--app lu --policy", ArgErrorKind::MissingValue("--policy")),
            ("--app --policy P.all", ArgErrorKind::MissingValue("--app")),
            (
                "--app lu --seed 1 --seed 2",
                ArgErrorKind::Repeated("--seed"),
            ),
            (
                "--app lu extra",
                ArgErrorKind::UnexpectedArgument("extra".into()),
            ),
            (
                "--app lu --format xml",
                ArgErrorKind::NotOneOf("--format", "xml".into()),
            ),
        ];
        for (line, kind) in cases {
            let err = REFRINT_CLI.parse("run", &args(line)).unwrap_err();
            assert_eq!(err.kind, kind);
            let message = err.to_string();
            for flag in [
                "refrint-cli run",
                "--app",
                "--timing",
                "--format",
                "--sram",
                "--policy",
                "--cores",
            ] {
                assert!(message.contains(flag), "{message}");
            }
        }
        // Word lists default to their first word.
        assert_eq!(
            REFRINT_CLI.parse("obs", &[]).unwrap().choice("--format"),
            "json"
        );
        assert_eq!(
            REFRINT_CLI.parse("run", &[]).unwrap().choice("--format"),
            "text"
        );
    }

    #[test]
    fn split_finds_the_command_after_global_flags() {
        let (command, rest) = REFRINT_CLI.split(&args("trace record --app lu")).unwrap();
        assert_eq!((command.name, rest), ("trace record", args("--app lu")));
        let (command, rest) = SERVE_CLIENT
            .split(&args("--addr 127.0.0.1:1 trace j1"))
            .unwrap();
        assert_eq!(
            (command.name, rest),
            ("trace", args("--addr 127.0.0.1:1 j1"))
        );
        let err = REFRINT_CLI.split(&args("trace")).unwrap_err();
        assert_eq!(err.kind, ArgErrorKind::UnknownCommand("trace".into()));
        assert!(err.to_string().contains("trace record"), "{err}");
        let err = SERVE_CLIENT.split(&args("--addr 127.0.0.1:1")).unwrap_err();
        assert_eq!(err.kind, ArgErrorKind::MissingCommand);
    }
}
