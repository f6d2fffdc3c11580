//! End-to-end tests of `depkit discover --workers N` with *real* child
//! processes: the coordinator spawns `depkit shard-worker` children of
//! the actual binary, so these exercise the cross-process path the
//! in-process (thread-backed) differential suites cannot — process
//! startup, spec re-parsing in a separate address space, `DEPKIT_FAULT`
//! arriving through the environment, and child reaping.

use std::path::PathBuf;
use std::process::Command;

fn depkit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_depkit"))
}

const SPEC: &str = "\
schema EMP(NAME, DEPT, MGR)
schema DEPT(DNO, HEAD)
row EMP hilbert math klein
row EMP noether math klein
row EMP curie phys curie
row DEPT math klein
row DEPT phys curie
";

fn write_spec(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("depkit-shard-cli-{tag}-{}.dep", std::process::id()));
    std::fs::write(&path, SPEC).unwrap();
    path
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "command failed: status {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn sharded_discover_output_is_byte_identical_to_local() {
    let spec = write_spec("ident");
    let local = run_ok(depkit().arg("discover").arg(&spec));
    for workers in ["2", "3"] {
        let sharded = run_ok(
            depkit()
                .arg("discover")
                .arg(&spec)
                .args(["--workers", workers]),
        );
        assert_eq!(
            local, sharded,
            "--workers {workers} output diverged from local"
        );
    }
    std::fs::remove_file(spec).ok();
}

#[test]
fn killed_process_worker_retries_to_the_identical_cover() {
    let spec = write_spec("fault");
    let local = run_ok(depkit().arg("discover").arg(&spec));
    let sharded = run_ok(
        depkit()
            .arg("discover")
            .arg(&spec)
            .args(["--workers", "2", "--stats"])
            .env("DEPKIT_FAULT", "kill:refute:0"),
    );
    // The dep lines (the cover) must match local exactly despite the
    // mid-run worker death...
    let deps = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("dep "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(deps(&local), deps(&sharded));
    // ...and the coordinator counters must show the retry path ran.
    let shard_line = sharded
        .lines()
        .find(|l| l.starts_with("shard: "))
        .expect("--stats prints a shard: line in sharded mode");
    assert!(
        !shard_line.contains(" 0 retried, 0 reassigned"),
        "the injected kill should surface as a retry or reassignment: {shard_line}"
    );
    std::fs::remove_file(spec).ok();
}

#[test]
fn malformed_fault_plan_is_a_usage_error() {
    let spec = write_spec("badfault");
    // Refute passes are the only shards, and kill and stall the only
    // faults: a plan naming anything else is refused before connecting.
    for plan in ["explode:everywhere", "kill:profile:0", "corrupt:refute:0"] {
        let out = depkit()
            .arg("shard-worker")
            .arg(&spec)
            .args(["--connect", "127.0.0.1:9"])
            .env("DEPKIT_FAULT", plan)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{plan} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("DEPKIT_FAULT"), "{plan}: got {stderr}");
    }
    std::fs::remove_file(spec).ok();
}

#[test]
fn a_run_that_plans_no_shard_starts_no_worker() {
    // Every candidate of referential.dep is settled on the coordinator, so
    // the run plans no refute pass and must start no worker: one started
    // anyway would refuse the bogus fault plan on stderr.
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/referential.dep");
    let out = depkit()
        .arg("discover")
        .arg(&spec)
        .args(["--workers", "2", "--stats"])
        .env("DEPKIT_FAULT", "bogus")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "status {:?}\n{stdout}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert!(
        stdout.contains("\nshard: 0 shard(s), 0 assigned"),
        "{stdout}"
    );
}
