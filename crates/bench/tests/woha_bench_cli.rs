//! The `woha-bench` binary from outside: the dispatcher's exit codes and
//! streams, one real experiment through it, and the docs against its table.

use std::process::{Command, Output};

fn woha_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_woha-bench"))
        .args(args)
        .output()
        .expect("run woha-bench")
}

/// `woha-bench list`, one experiment name per entry.
fn experiments() -> Vec<String> {
    let out = woha_bench(&["list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn list_prints_all_17_experiments() {
    let names = experiments();
    assert_eq!(names.len(), 17, "{names:?}");
    assert!(names.contains(&"fig11_workspan".to_string()), "{names:?}");
}

#[test]
fn unknown_experiment_exits_nonzero_with_the_list_on_stderr() {
    for args in [
        &["fig99_nothing"][..],
        &[],
        &["fig11_workspan", "--jobs"],
        &["fig02_resource_cap", "--quik", "--job", "4"],
        &["fig02_resource_cap", "extra"],
        &["fig14_19_slot_timelines", "--tabel"],
        &["fig14_19_slot_timelines", "NoSuch"],
    ] {
        let out = woha_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let stderr = String::from_utf8(woha_bench(&["fig99_nothing"]).stderr).unwrap();
    assert!(stderr.contains("fig99_nothing"), "{stderr}");
    for name in experiments() {
        assert!(stderr.contains(&name), "{stderr}");
    }
}

#[test]
fn an_experiment_runs_through_the_dispatcher() {
    let out = woha_bench(&["fig02_resource_cap", "--quick", "--jobs=2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("Fig 2 — benefits"), "{text}");
    assert!(text.contains("EDF: "), "{text}");
}

/// Every `woha-bench <word>` in the user-facing docs is an invocation, and
/// names an experiment of the table (or `list`); README lists them all.
#[test]
fn docs_name_only_experiments_of_the_table() {
    let names = experiments();
    let docs = [
        ("README.md", include_str!("../../../README.md")),
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        (
            "SKILL.md",
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ),
    ];
    for (file, text) in docs {
        let mut invocations = 0;
        for (at, pattern) in text.match_indices("woha-bench ") {
            let rest = &text[at + pattern.len()..];
            let word = &rest[..rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())];
            if !word.starts_with(|c: char| c.is_ascii_lowercase()) {
                continue; // `woha-bench <experiment>`, `woha-bench # ...`
            }
            invocations += 1;
            assert!(
                word == "list" || names.iter().any(|name| name == word),
                "{file} runs `woha-bench {word}`, which is not an experiment"
            );
        }
        assert!(invocations > 0, "{file} never shows an invocation");
        for name in &names {
            assert!(
                !text.contains(&format!("--bin {name}")),
                "{file} still runs {name} as a binary of its own"
            );
        }
    }
    for name in &names {
        assert!(
            docs[0].1.contains(&format!("woha-bench {name}")),
            "README does not list {name}"
        );
    }
}
