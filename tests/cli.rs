//! End-to-end tests of the `mmvc` binary: the CLI prints the same
//! canonical report bytes the library produces for the same spec, on a
//! registered scenario and on a graph file written by `mmvc gen`, and
//! refuses commands it does not know.

use mmvc::core::run::{run, AlgorithmKind, RunSpec};
use mmvc::serve::canonical_report_body;
use std::process::{Command, Output};

fn mmvc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmvc"))
        .args(args)
        .output()
        .expect("spawn mmvc")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `mmvc run --canonical` prints exactly the bytes `mmvc serve` would
/// return for the same spec run in process.
#[test]
fn run_canonical_matches_the_library_report() {
    let out = mmvc(&[
        "run",
        "greedy-mis",
        "gnp-sparse",
        "--n",
        "96",
        "--seed",
        "7",
        "--canonical",
    ]);
    assert_success(&out, "mmvc run");

    let mut spec = RunSpec::new(AlgorithmKind::GreedyMis, "gnp-sparse");
    spec.n = Some(96);
    spec.seed = 7;
    let expected = canonical_report_body(run(&spec).unwrap());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&expected)
    );
}

/// The file-input path: a graph written by `mmvc gen` and run through
/// `--graph-file` matches the library run of the same file.
#[test]
fn run_graph_file_matches_the_library_report() {
    let gen = mmvc(&["gen", "gnp", "200", "0.05", "--seed", "11"]);
    assert_success(&gen, "mmvc gen");
    let path = std::env::temp_dir().join(format!("mmvc_cli_gen_{}.txt", std::process::id()));
    std::fs::write(&path, &gen.stdout).unwrap();
    let path_str = path.to_str().unwrap();

    for kind in [AlgorithmKind::GreedyMis, AlgorithmKind::VertexCover] {
        let out = mmvc(&[
            "run",
            kind.name(),
            "--graph-file",
            path_str,
            "--seed",
            "7",
            "--canonical",
        ]);
        assert_success(&out, kind.name());

        let mut spec = RunSpec::from_file(kind, path_str);
        spec.seed = 7;
        let expected = canonical_report_body(run(&spec).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&expected),
            "{}",
            kind.name()
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Removed commands are refused like any other unknown command.
#[test]
fn removed_commands_are_unknown() {
    for cmd in ["net-run", "party", "mis"] {
        let out = mmvc(&[cmd, "greedy-mis", "gnp-sparse"]);
        assert!(!out.status.success(), "`mmvc {cmd}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{cmd}`")),
            "`mmvc {cmd}`: {stderr}"
        );
    }
}
