//! A JSONL spec the workflow model rejects, fed to `simulate --arrivals`
//! or `serve --follow`, ends the run with the model's error, its line
//! number and exit status 1 — never a panic (101), and never a run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn job(maps: u32, reduces: u32) -> String {
    format!(
        r#"{{"name":"j","map_tasks":{maps},"reduce_tasks":{reduces},"map_duration":1000,"reduce_duration":1000}}"#
    )
}

fn spec_at(submit: u64, jobs: &[String], prereqs: &str, dependents: &str, deadline: u64) -> String {
    format!(
        r#"{{"name":"w","jobs":[{}],"prereqs":{prereqs},"dependents":{dependents},"submit_time":{submit},"deadline":{deadline}}}"#,
        jobs.join(",")
    )
}

fn spec(jobs: &[String], prereqs: &str, dependents: &str, deadline: u64) -> String {
    spec_at(5_000, jobs, prereqs, dependents, deadline)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("woha-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes `feed` into `dir` and runs both front doors on it: each must
/// exit 1 with an error naming `line` and containing `error`.
fn assert_both_front_doors_reject(dir: &Path, name: &str, feed: &str, line: &str, error: &str) {
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, feed).expect("write feed");
    let path = path.to_str().expect("utf-8 temp path");
    for front_door in [["simulate", "--arrivals"], ["serve", "--follow"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_woha-cli"))
            .args(front_door)
            .args([path, "--cluster", "8x2x1"])
            .output()
            .expect("run woha-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{front_door:?} {feed}: {stderr}"
        );
        assert!(
            stderr.contains(line) && stderr.contains(error),
            "{front_door:?}: {stderr}"
        );
    }
}

#[test]
fn specs_the_model_rejects_exit_1_with_its_error() {
    let (one, two) = (vec![job(1, 1)], vec![job(1, 1), job(1, 1)]);
    let cases = [
        (spec(&[], "[]", "[]", 60_000), "contains no jobs"),
        (spec(&[job(0, 0)], "[[]]", "[[]]", 60_000), "zero map tasks"),
        (spec(&[job(0, 2)], "[[]]", "[[]]", 60_000), "zero map tasks"),
        (spec(&two, "[[],[7]]", "[[],[]]", 60_000), "only 2 jobs"),
        (spec(&one, "[[0]]", "[[0]]", 60_000), "dependency on itself"),
        (
            spec(&two, "[[1],[0]]", "[[1],[0]]", 60_000),
            "contains a cycle",
        ),
        (spec(&one, "[[]]", "[[]]", 5_000), "not later than"),
        (spec(&two, "[[],[0]]", "[[],[]]", 60_000), "lists disagree"),
        // Planning it would allocate one batch entry per task.
        (
            spec(&[job(u32::MAX, 0)], "[[]]", "[[]]", 60_000),
            "workflow has 4294967295 tasks, more than the limit of 1048576",
        ),
        (
            spec(&[job(50_000_000, 0)], "[[]]", "[[]]", 60_000),
            "more than the limit",
        ),
    ];
    let dir = temp_dir("hostile");
    for (i, (line, error)) in cases.iter().enumerate() {
        assert_both_front_doors_reject(&dir, &i.to_string(), &format!("{line}\n"), "line 1", error);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_late_line_clamped_past_its_deadline_exits_1() {
    // Submitted at 10 s after a line submitted at 60 s, the second line is
    // clamped up to 60 s: past its 30 s deadline.
    let one = vec![job(1, 1)];
    let feed = format!(
        "{}\n{}\n",
        spec_at(60_000, &one, "[[]]", "[[]]", 660_000),
        spec_at(10_000, &one, "[[]]", "[[]]", 30_000)
    );
    let dir = temp_dir("clamp");
    assert_both_front_doors_reject(&dir, "clamp", &feed, "line 2", "not later than");
    let _ = std::fs::remove_dir_all(&dir);
}
