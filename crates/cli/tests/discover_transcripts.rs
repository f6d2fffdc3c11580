//! Golden `depkit discover` transcripts: every `tests/data/<name>.dep`
//! has a `tests/data/<name>.discover` holding what `discover --stats`
//! prints, exact and at a 5% tolerance, and every run below must print
//! it again byte for byte. The runs cover 12 modes per fixture: one or
//! two threads, no budget or a 1-byte one, and three spellings of the
//! input (as is, with its `row` lines appended again in reverse order,
//! and rewritten with CRLF endings and tab/`\x0B`/`\x0C` separators).
//! The one allowed difference: a 1-byte budget reads columns in slices,
//! so its `spill:` line may differ, and it must count at least one
//! sliced column.
//!
//! A change that alters what `discover` prints re-records the
//! transcripts from a release build, from the repository root, and lists
//! every changed line in CHANGES.md:
//!
//! ```sh
//! for spec in tests/data/*.dep; do
//!   for flags in '--stats' '--max-error 0.05 --stats'; do
//!     echo "\$ depkit discover $spec $flags"
//!     rc=0; target/release/depkit discover $spec $flags || rc=$?
//!     echo "exit $rc"
//!   done > "${spec%.dep}.discover"
//! done
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// The recorded flag sets, in transcript order.
const FLAGS: [&str; 2] = ["--stats", "--max-error 0.05 --stats"];

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data")
}

/// Every fixture spec, sorted, each with its transcript beside it.
fn fixtures() -> Vec<PathBuf> {
    let mut specs: Vec<PathBuf> = std::fs::read_dir(data_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dep"))
        .collect();
    specs.sort();
    assert!(specs.len() >= 7, "fixture corpus went missing: {specs:?}");
    specs
}

/// How a fixture's text is spelled for one run.
#[derive(Debug, Clone, Copy)]
enum Input {
    AsIs,
    /// The `row` lines appended again in reverse order: duplicates the
    /// relations' set semantics must drop, in an order no sort restores.
    RowsRepeated,
    /// CRLF endings, every line indented by a tab and a space, and a
    /// `row` line's spaces rotated through `\x0C`, `\t` and `\x0B`.
    Respaced,
}

fn spell(text: &str, input: Input) -> String {
    match input {
        Input::AsIs => text.to_string(),
        Input::RowsRepeated => {
            let mut out = text.to_string();
            for line in text.lines().filter(|l| l.starts_with("row")).rev() {
                out.push_str(line);
                out.push('\n');
            }
            out
        }
        Input::Respaced => {
            let mut out = String::new();
            for line in text.lines() {
                out.push_str("\t ");
                if line.starts_with("row ") {
                    let mut seps = ["\x0C", "\t", "\x0B"].into_iter().cycle();
                    for (i, part) in line.split(' ').enumerate() {
                        if i > 0 {
                            out.push_str(seps.next().unwrap());
                        }
                        out.push_str(part);
                    }
                } else {
                    out.push_str(line);
                }
                out.push_str("\r\n");
            }
            out
        }
    }
}

/// The transcript `spec` produces under `extra` flags, with the headers
/// naming the recorded fixture (`name`) whatever file was read.
fn transcript(name: &str, spec: &Path, extra: &[&str]) -> String {
    let mut out = String::new();
    for flags in FLAGS {
        out.push_str(&format!(
            "$ depkit discover tests/data/{name}.dep {flags}\n"
        ));
        let run = Command::new(env!("CARGO_BIN_EXE_depkit"))
            .arg("discover")
            .arg(spec)
            .args(flags.split(' '))
            .args(extra)
            .output()
            .unwrap();
        assert!(
            run.stderr.is_empty(),
            "{name} {flags} {extra:?}: stderr {}",
            String::from_utf8_lossy(&run.stderr)
        );
        out.push_str(&String::from_utf8(run.stdout).unwrap());
        out.push_str(&format!("exit {}\n", run.status.code().unwrap()));
    }
    out
}

/// `text` with each `spill:` line blanked to its prefix, and the count
/// of columns read in slices each of those lines reported.
fn mask_spill(text: &str) -> (String, Vec<usize>) {
    let mut sliced = Vec::new();
    let masked = text
        .lines()
        .map(|line| match line.strip_prefix("spill: ") {
            Some(rest) => {
                sliced.push(rest.split(' ').next().unwrap().parse().unwrap());
                "spill:\n".to_string()
            }
            None => format!("{line}\n"),
        })
        .collect();
    (masked, sliced)
}

#[test]
fn discover_prints_its_transcript_in_every_mode() {
    let scratch = std::env::temp_dir().join(format!("depkit-transcripts-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    for fixture in fixtures() {
        let name = fixture.file_stem().unwrap().to_str().unwrap().to_string();
        let golden = std::fs::read_to_string(fixture.with_extension("discover"))
            .unwrap_or_else(|e| panic!("{name}.discover: {e}"));
        let text = std::fs::read_to_string(&fixture).unwrap();
        for input in [Input::AsIs, Input::RowsRepeated, Input::Respaced] {
            let spec = match input {
                Input::AsIs => fixture.clone(),
                _ => {
                    let path = scratch.join(format!("{name}-{input:?}.dep"));
                    std::fs::write(&path, spell(&text, input)).unwrap();
                    path
                }
            };
            for threads in ["1", "2"] {
                for budget in [None, Some("1")] {
                    let mut extra = vec!["--threads", threads];
                    extra.extend(budget.iter().flat_map(|b| ["--memory-budget", b]));
                    let got = transcript(&name, &spec, &extra);
                    let context = format!("{name}, {input:?}, {extra:?}");
                    if budget.is_some() {
                        let (got, sliced) = mask_spill(&got);
                        assert_eq!(mask_spill(&golden).0, got, "{context}");
                        assert!(
                            sliced.iter().all(|&n| n >= 1),
                            "{context}: a 1-byte budget sliced no column: {sliced:?}"
                        );
                    } else {
                        assert_eq!(golden, got, "{context}");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}
