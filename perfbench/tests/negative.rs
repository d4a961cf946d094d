//! Negative controls and contract checks, run against the built binary.

use spb_stats::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const DIR: &str = env!("CARGO_MANIFEST_DIR");

struct Outcome {
    code: Option<i32>,
    last: Json,
}

fn run(workload: &str, trace: &str, refs: Option<&Path>) -> Outcome {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "42",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    if let Some(refs) = refs {
        cmd.arg("--refs").arg(refs);
    }
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Outcome {
        code: out.status.code(),
        last: Json::parse(last).expect("the last line is JSON"),
    }
}

fn metric_names(result: &Json) -> Vec<String> {
    let Some(Json::Obj(pairs)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(Path::new(DIR).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn valid(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn a_perturbed_reference_fails_the_run() {
    let refs = std::fs::read_to_string(Path::new(DIR).join("refs.txt")).expect("refs.txt");
    let target = "42 spec_stall mcf spb@sb14 ";
    let line = refs
        .lines()
        .find(|l| l.starts_with(target))
        .expect("mcf is recorded");
    let mut fields: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cycles: u64 = fields[4].parse().expect("cycles");
    fields[4] = (cycles + 1).to_string();
    let perturbed = refs.replace(line, &fields.join(" "));
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perturbed-refs.txt");
    std::fs::write(&path, perturbed).expect("write perturbed refs");

    let out = run("spec_stall", "0", Some(&path));
    assert_eq!(out.code, Some(1), "a wrong result must fail the run");
    assert_eq!(
        out.last.get("correct").map(ToString::to_string),
        Some("false".into())
    );
    let failed = out
        .last
        .get("failed")
        .and_then(Json::as_u64)
        .expect("failed");
    let attempted = out
        .last
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    assert!(
        failed > 0 && failed <= attempted,
        "error rate {failed}/{attempted}"
    );
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    let out = run("spec_stall", "0", None);
    assert_eq!(out.code, Some(0));
    assert_eq!(out.last.get("failed").and_then(Json::as_u64), Some(0));
    let mut names = metric_names(&out.last);
    let mut want = declared("end_to_end");
    names.sort();
    want.sort();
    assert_eq!(names, want);

    let out = run("spec_stall", "1", None);
    assert_eq!(out.code, Some(0));
    let mut names = metric_names(&out.last);
    let mut want = declared("per_layer");
    names.sort();
    want.sort();
    assert_eq!(names, want);
    assert!(names
        .iter()
        .chain(&declared("end_to_end"))
        .all(|n| valid(n)));
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
