//! Exit-code contract of the `fetchmech-lint` binary.
//!
//! CI keys off these statuses (see `ci/check.sh`): 0 = clean, 1 = at least
//! one error-severity diagnostic (or a benchmark that failed to build),
//! 2 = usage error. The sanitize self-test runs corrupted-by-construction
//! event streams, so it must exit 1 *with* the expected rule ids on stdout —
//! that is the test proving the engine and the exit plumbing both work.

use std::process::{Command, Output};

use fetchmech::json::{parse, Value};
use fetchmech_analysis::sanitize::RULES;
use fetchmech_analysis::OPT_RULES;

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fetchmech-lint"))
        .args(args)
        .output()
        .expect("failed to spawn fetchmech-lint")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("lint terminated by signal")
}

#[test]
fn sanitize_self_test_exits_nonzero_with_expected_rules() {
    let out = lint(&["sanitize", "--self-test"]);
    assert_eq!(exit_code(&out), 1, "injected corruption must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "sanitize.fetch.sequential-boundary",
        "sanitize.fetch.bank-conflict",
        "sanitize.conservation.packet-width",
        "sanitize.predictor.update-accounting",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn sanitize_clean_benchmark_exits_zero() {
    let out = lint(&["sanitize", "--short", "compress"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("compress: 0 finding(s), 0 error(s)"),
        "{stdout}"
    );
}

#[test]
fn sanitize_list_prints_the_full_rule_catalog() {
    let out = lint(&["sanitize", "--list"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (rule, _) in RULES {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_two() {
    // Unknown sanitizer rule id.
    let out = lint(&["sanitize", "--disable", "no.such.rule", "compress"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("no.such.rule"));
    // Unknown option in the default lint mode.
    let out = lint(&["--bogus-flag"]);
    assert_eq!(exit_code(&out), 2);
    // Unknown pass name.
    let out = lint(&["--pass", "no-such-pass", "compress"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn opt_self_test_exits_nonzero_with_expected_rules() {
    let out = lint(&["opt", "--self-test"]);
    assert_eq!(exit_code(&out), 1, "injected corruption must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ["opt.shape", "opt.body-preserved"] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn opt_verified_clean_benchmark_exits_zero() {
    let out = lint(&["opt", "--verify", "--insts", "4000", "compress"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
}

#[test]
fn opt_list_prints_the_full_rule_catalog() {
    let out = lint(&["opt", "--list"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in OPT_RULES {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    for pass in ["lvn", "dce", "superblock", "straighten"] {
        assert!(stdout.contains(pass), "missing {pass} in:\n{stdout}");
    }
}

#[test]
fn opt_usage_errors_exit_two() {
    // Unknown pass name in the pipeline list.
    let out = lint(&["opt", "--passes", "lvn,no-such-pass", "compress"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-pass"));
    // Unknown rule id in --disable (parity with sanitize/analyze).
    let out = lint(&["opt", "--disable", "no.such.rule", "compress"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn analyze_disable_rejects_unknown_rule() {
    let out = lint(&["analyze", "--disable", "no.such.rule", "compress"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("no.such.rule"));
}

#[test]
fn analyze_measures_every_layout_variant() {
    for layout in ["natural", "pad-all", "reordered", "pad-trace"] {
        let args = format!("analyze --layout {layout} --measured --insts 2000 --json compress");
        let out = lint(&args.split(' ').collect::<Vec<_>>());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(exit_code(&out), 0, "{layout}:\n{stdout}");
        let reports = parse(&stdout).expect("analyze --json emits JSON");
        let report = &reports.as_array().expect("an array")[0];
        assert_eq!(report.get("layout").and_then(Value::as_str), Some(layout));
        let measured = report.get("measured").and_then(Value::as_array);
        assert_eq!(measured.map(<[Value]>::len), Some(5), "{layout}:\n{stdout}");
    }
}

#[test]
fn analyze_list_includes_the_ssa_analysis() {
    let out = lint(&["analyze", "--list"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ssa"), "missing ssa in:\n{stdout}");
}

#[test]
fn frontend_clean_examples_exit_zero() {
    // Integration tests run with the package root as cwd, so the checked-in
    // examples are reachable relatively. One Bril and one WAT program,
    // through parse -> lower -> lint -> dump.
    let out = lint(&[
        "frontend",
        "--insts",
        "2000",
        "--dump",
        "examples/programs/loopmix.bril.json",
        "examples/programs/kernel.wat",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    // Content-hash program ids and dumped labels are in the report.
    assert!(stdout.contains("prog-"), "{stdout}");
    assert!(stdout.contains("main.outer:"), "{stdout}");
}

#[test]
fn frontend_bad_program_exits_one() {
    let dir = std::env::temp_dir().join("fetchmech-lint-cli-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bad = dir.join("bad.bril.json");
    std::fs::write(&bad, r#"{"functions": []}"#).expect("write bad program");
    let out = lint(&["frontend", bad.to_str().expect("utf-8 path")]);
    assert_eq!(exit_code(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("must not be empty"), "{stderr}");
}

#[test]
fn frontend_usage_errors_exit_two() {
    // No files at all.
    let out = lint(&["frontend"]);
    assert_eq!(exit_code(&out), 2);
    // Unrecognized extension: the format cannot be inferred.
    let out = lint(&["frontend", "program.txt"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("program.txt"));
    // Unknown rule id in --disable (parity with the other subcommands,
    // via the shared flag parser).
    let out = lint(&[
        "frontend",
        "--disable",
        "no.such.rule",
        "examples/programs/kernel.wat",
    ]);
    assert_eq!(exit_code(&out), 2);
    // Unknown machine model, also via the shared flag parser.
    let out = lint(&[
        "frontend",
        "--machine",
        "p99",
        "examples/programs/kernel.wat",
    ]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn frontend_list_names_both_formats() {
    let out = lint(&["frontend", "--list"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bril"), "{stdout}");
    assert!(stdout.contains("wat"), "{stdout}");
}

#[test]
fn unknown_benchmark_exits_one() {
    let out = lint(&["sanitize", "--short", "no-such-benchmark"]);
    assert_eq!(exit_code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}
