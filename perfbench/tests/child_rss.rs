//! The peak RSS reported for a CLI run must be the CLI's own, whatever
//! the size of the harness that starts it.

use std::process::Command;

#[test]
fn a_large_spawner_does_not_inflate_the_measured_childs_rss() {
    // Touch about 200 MB, so this process's peak RSS dwarfs a small child's.
    let ballast = vec![1u8; 200 << 20];
    let dir = std::env::temp_dir().join(format!("perfbench-child-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cost_file = dir.join("cost");
    let status = Command::new(env!("CARGO_BIN_EXE_depkit-perfbench"))
        .arg("exec-measured")
        .arg(&cost_file)
        .arg("true")
        .status()
        .unwrap();
    let text = std::fs::read_to_string(&cost_file).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(std::hint::black_box(&ballast).iter().all(|&b| b == 1));
    assert!(status.success(), "{status}");
    let fields: Vec<u64> = text
        .split_whitespace()
        .map(|f| f.parse().unwrap())
        .collect();
    let [wall_ns, rss_kib, _cpu_ns] = fields[..] else {
        panic!("cost line `{text}`")
    };
    assert!(wall_ns > 0, "{text}");
    assert!(
        rss_kib > 0 && rss_kib < 32 << 10,
        "`true` reported {rss_kib} KiB peak RSS beside a 200 MB spawner"
    );
}

#[test]
fn the_helper_passes_the_childs_exit_code_through() {
    let dir = std::env::temp_dir().join(format!("perfbench-child-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cost_file = dir.join("cost");
    let status = Command::new(env!("CARGO_BIN_EXE_depkit-perfbench"))
        .arg("exec-measured")
        .arg(&cost_file)
        .arg("false")
        .status()
        .unwrap();
    let recorded = cost_file.is_file();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(status.code(), Some(1));
    assert!(recorded, "the cost is recorded for a failed run too");
}
