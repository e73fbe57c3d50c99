//! End-to-end: a two-level N = 256, G = 4 tree as real OS processes on
//! 127.0.0.1, asserting the root's aggregate is bit-identical to the
//! single-process `MemTransport` run (the runner's `local` mode exits
//! non-zero on any divergence).

use std::process::Command;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsa-runner"))
}

#[test]
fn two_level_loopback_matches_in_memory_run() {
    let out = runner()
        .args([
            "local", "--n", "256", "--branch", "4,4", "--rounds", "2", "--d", "32", "--seed", "7",
        ])
        .output()
        .expect("spawn runner");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "runner failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert_eq!(
        stdout.matches("MATCH").count(),
        2,
        "expected 2 matched rounds:\n{stdout}"
    );
    // the root emits one RoundReport JSON line per round, in the same
    // schema as the scenario_matrix bench records
    let reports: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"name\":\"runner/root\""))
        .collect();
    assert_eq!(reports.len(), 2, "expected 2 telemetry lines:\n{stdout}");
    for line in reports {
        for key in [
            "\"round\":",
            "\"phases\":",
            "\"collect\":",
            "\"payload_bytes\":",
            "\"framing_bytes\":",
            "\"envelopes\":4",
            "\"events\":",
            "\"available_parallelism\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}

#[test]
fn flat_leaves_and_other_seeds_also_match() {
    // different shape: 8 leaf children of 8 clients each, 1 round
    let out = runner()
        .args([
            "local", "--n", "64", "--branch", "8", "--rounds", "1", "--d", "16", "--seed", "42",
        ])
        .output()
        .expect("spawn runner");
    assert!(
        out.status.success(),
        "runner failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_flags_fail_fast() {
    let out = runner()
        .args(["child", "--index", "9", "--connect", "127.0.0.1:1"])
        .output()
        .expect("spawn runner");
    assert!(!out.status.success(), "missing --n must fail");
    let out = runner()
        .args(["local", "--branch", "0"])
        .output()
        .expect("spawn runner");
    assert!(!out.status.success(), "zero branch must fail");
}

#[test]
fn unknown_and_repeated_flags_are_rejected() {
    let fails_with = |args: &[&str], why: &str| {
        let out = runner().args(args).output().expect("spawn runner");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(why),
            "{args:?}: {stderr}"
        );
    };
    // a typo must not silently run with the default
    fails_with(
        &["local", "--n", "16", "--ronds", "50"],
        "unknown flag --ronds",
    );
    // a flag of another mode is as unknown as a typo
    fails_with(
        &["local", "--listen", "127.0.0.1:0"],
        "unknown flag --listen",
    );
    fails_with(
        &[
            "root",
            "--listen",
            "127.0.0.1:0",
            "--children",
            "1",
            "--seed",
            "7",
        ],
        "unknown flag --seed",
    );
    // a repeated flag must not silently last-win
    fails_with(
        &["local", "--n", "16", "--rounds", "1", "--rounds", "2"],
        "--rounds given more than once",
    );
}
