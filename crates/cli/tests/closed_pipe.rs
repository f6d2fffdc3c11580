//! A reader that closes `depkit`'s stdout early is not a crash. `depkit
//! discover spec | head -1` used to panic ("failed printing to stdout:
//! Broken pipe") and exit 101; the report commands now stop quietly with
//! exit code 0 and nothing on stderr.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn assert_quiet_success(out: &Output) {
    assert!(
        out.status.success(),
        "status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `validate` over 5,000 one-row batches prints a line for each, about
/// 330 KB: far more than the pipe holds, so the process is still writing
/// when the reader goes away after the first line.
#[test]
fn validate_stops_quietly_when_the_reader_leaves_after_one_line() {
    let scratch = |ext: &str| {
        std::env::temp_dir().join(format!("depkit-closed-pipe-{}.{ext}", std::process::id()))
    };
    let (spec, deltas) = (scratch("dep"), scratch("deltas"));
    std::fs::write(&spec, "schema R(A)\nrow R 0\n").unwrap();
    let script: String = (1..=5_000)
        .map(|a| format!("insert R {a}\ncommit\n"))
        .collect();
    std::fs::write(&deltas, script).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_depkit"))
        .arg("validate")
        .args([&spec, &deltas])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("seeded 1 rows"), "first line: {line:?}");
    drop(reader);
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&spec).unwrap();
    std::fs::remove_file(&deltas).unwrap();
    assert_quiet_success(&out);
}

/// `discover` whose stdout is a pipe closed before the process starts.
#[test]
fn discover_stops_quietly_when_the_reader_is_already_gone() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/employees.dep");
    let out = Command::new(env!("CARGO_BIN_EXE_depkit"))
        .arg("discover")
        .arg(spec)
        .stdout(writer)
        .output()
        .unwrap();
    assert_quiet_success(&out);
}
