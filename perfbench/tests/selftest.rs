//! Self-tests of the benchmark: the binary run in tiny mode.

use std::process::Command;

use refrint_engine::json::{emit, parse, Value};

const WORKLOADS: [&str; 3] = ["long_run", "sweep_small", "serve_mix"];

/// One run's final JSON line and its `checks` line.
struct Run {
    result: Value,
    checks: Value,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let checks = stdout
        .lines()
        .find_map(|l| l.strip_prefix("checks "))
        .expect("a checks line");
    Run {
        result: parse(last).expect("the last line is JSON"),
        checks: parse(checks).expect("the checks line is JSON"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    field(&doc, list)
        .as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("a string").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(list);
        for workload in WORKLOADS {
            let r = run(workload, 3, trace);
            assert_eq!(
                field(&r.result, "correct").as_bool(),
                Some(true),
                "{workload}"
            );
            assert_eq!(field(&r.result, "failed").as_u64(), Some(0), "{workload}");
            assert!(field(&r.result, "attempted").as_u64().unwrap_or(0) >= 1);
            let metrics = field(&r.result, "metrics")
                .as_obj()
                .expect("metrics object");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        field(m, "value").as_num().is_some_and(f64::is_finite),
                        "{name}"
                    );
                    (
                        name.clone(),
                        field(m, "unit").as_str().unwrap_or("").to_owned(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn the_same_seed_repeats_cycles_and_checks() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 5, 0), run(workload, 5, 0));
        assert_eq!(
            a.checks, b.checks,
            "{workload}: execution_cycles or input digests differ for one seed"
        );
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let digests = |r: &Run| {
        let obj = r.checks.as_obj().expect("checks object");
        obj.iter()
            .filter(|(k, _)| k.ends_with("input_digest") || k.ends_with("seeds"))
            .map(|(k, v)| format!("{k}={}", emit(v)))
            .collect::<Vec<_>>()
    };
    for workload in WORKLOADS {
        let (a, b) = (digests(&run(workload, 5, 0)), digests(&run(workload, 6, 0)));
        assert!(!a.is_empty(), "{workload} records no input digest");
        assert_ne!(a, b, "{workload}: seeds 5 and 6 generated the same inputs");
    }
}
