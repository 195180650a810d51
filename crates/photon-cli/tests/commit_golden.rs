//! Byte-identity goldens for the aggregator's commit path.
//!
//! Each case runs the `photon` binary on a small seeded configuration and
//! byte-compares its `--metrics-json` and `--trace-jsonl` (sim clock)
//! against the files under `tests/golden/`. Together the cases reach every
//! exit of the flat, shard-tree and buffered (batch and streaming) round
//! tails: committed, degraded, deferred, all-slices-lost, re-parented
//! after a shard crash, watchdog rollback, and the partial-results and
//! guard error exits.
//!
//! Thread count and backend are pinned because results still depend on
//! them. Running the binary as a subprocess also keeps the trace recorder's
//! process-global state out of the harness's parallel tests.
//!
//! To regenerate a golden after a deliberate behaviour change, run the
//! case's `photon train` command line (printed on failure) with
//! `--metrics-json tests/golden/<name>.metrics.json --trace-jsonl
//! tests/golden/<name>.trace.jsonl`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Shared by every case: a tiny model, 6 clients, 4 rounds.
const BASE: &str = "train --model tiny --clients 6 --rounds 4 --local-steps 2 \
                    --tokens-per-client 3000 --threads 1 --backend scalar";

/// Every client of round 1 reports a NaN update, so the guard has nothing
/// left to admit.
const ALL_NAN_R1: &str = "nan-update@r1c0,nan-update@r1c1,nan-update@r1c2,\
                          nan-update@r1c3,nan-update@r1c4,nan-update@r1c5";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs `photon` with `BASE` plus `extra` (whitespace-separated) and
/// compares both sinks with their goldens. `error` is `None` for a run
/// that must succeed, or the message a failing run must print.
fn check(name: &str, extra: &str, error: Option<&str>) {
    let out = std::env::temp_dir().join(format!(
        "photon-commit-golden-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    let metrics = out.join("metrics.json");
    let trace = out.join("trace.jsonl");
    let cmdline = format!("photon {BASE} {extra}");
    let run = Command::new(env!("CARGO_BIN_EXE_photon"))
        .args(BASE.split_whitespace().chain(extra.split_whitespace()))
        .arg("--metrics-json")
        .arg(&metrics)
        .arg("--trace-jsonl")
        .arg(&trace)
        .output()
        .expect("spawn photon");
    let stderr = String::from_utf8_lossy(&run.stderr);
    match error {
        None => assert!(run.status.success(), "{cmdline} failed:\n{stderr}"),
        Some(msg) => {
            assert_eq!(run.status.code(), Some(1), "{cmdline}:\n{stderr}");
            assert!(
                stderr.contains(&format!("error: client failure: {msg}")),
                "{cmdline}: expected {msg:?} in\n{stderr}"
            );
        }
    }
    for (got, suffix) in [(&metrics, "metrics.json"), (&trace, "trace.jsonl")] {
        let want_path = golden_dir().join(format!("{name}.{suffix}"));
        let want = std::fs::read_to_string(&want_path)
            .unwrap_or_else(|e| panic!("{}: {e}", want_path.display()));
        let got = std::fs::read_to_string(got).unwrap_or_else(|e| panic!("{cmdline}: {e}"));
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            panic!(
                "{cmdline}: {suffix} differs from {} at {line}",
                want_path.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn flat_guard_degraded_and_recovered() {
    check(
        "flat_guard",
        "--guard --net-latency-ms 20 --partial-ok \
         --faults partition@r1-r2:*|1.2.3.4.5,sign-flip@r3c3,crash=0.1,seed=3",
        None,
    );
}

#[test]
fn flat_watchdog_rollback_neutralizes() {
    check(
        "flat_watchdog",
        "--loss-spike-mult 3 --faults scale:50@r2c1",
        None,
    );
}

#[test]
fn flat_partial_results_error() {
    check(
        "flat_partial_error",
        "--recovery-budget 1 --faults crash@r1c2",
        Some("expected 6 results, got 5"),
    );
}

#[test]
fn flat_guard_rejects_cohort() {
    check(
        "flat_guard_error",
        &format!("--guard --partial-ok --recovery-budget 0 --faults {ALL_NAN_R1}"),
        Some("the guard rejected the entire cohort"),
    );
}

#[test]
fn shard_tree_degraded_and_crashed() {
    check(
        "shard_tree",
        "--guard --net-latency-ms 20 --partial-ok --shards 2 \
         --faults partition@r1-r2:*|1.2.3.4.5,shardcrash@r3s1",
        None,
    );
}

#[test]
fn shard_tree_reparents_after_crash() {
    check(
        "shard_tree_reparent",
        "--shards 2 --partial-ok --faults shardcrash@r1s1",
        None,
    );
}

#[test]
fn shard_tree_guard_rejects_one_shard() {
    // Clients 2 and 5 make up shard 2, so its aggregate is flipped.
    check(
        "shard_tree_guard_outlier",
        "--shards 3 --guard --faults sign-flip@r2c2,sign-flip@r2c5",
        None,
    );
}

#[test]
fn shard_tree_all_slices_lost() {
    check(
        "shard_tree_lost",
        "--shards 2 --faults shardhang@r1s0,shardhang@r1s1",
        None,
    );
}

#[test]
fn shard_tree_partial_results_error() {
    check(
        "shard_tree_partial_error",
        "--shards 2 --recovery-budget 0 --faults crash@r1c2",
        Some("expected 6 results, got 5"),
    );
}

#[test]
fn shard_tree_guard_rejects_every_shard() {
    check(
        "shard_tree_guard_error",
        &format!("--shards 2 --guard --partial-ok --recovery-budget 0 --faults {ALL_NAN_R1}"),
        Some("the guard rejected every shard aggregate"),
    );
}

#[test]
fn buffered_batch_commits() {
    check(
        "buffered_batch",
        "--buffer-quorum 3 --guard --aggregation trimmed-mean --deadline-ms 200 --partial-ok \
         --faults straggle=0.3,straggle-ms=900,sign-flip@r1c2,seed=5",
        None,
    );
}

#[test]
fn buffered_batch_defers() {
    check(
        "buffered_batch_deferred",
        "--buffer-quorum 6 --guard --deadline-ms 200 --partial-ok \
         --faults straggle=0.3,straggle-ms=900,seed=5",
        None,
    );
}

#[test]
fn buffered_batch_guard_rejects_commit() {
    check(
        "buffered_batch_guard_error",
        &format!("--buffer-quorum 3 --guard --recovery-budget 0 --faults {ALL_NAN_R1}"),
        Some("the guard rejected the entire buffered commit"),
    );
}

#[test]
fn buffered_streaming_commits() {
    check(
        "buffered_streaming",
        "--buffer-quorum 3 --shards 2 --deadline-ms 200 --partial-ok \
         --faults straggle=0.3,straggle-ms=900,seed=5",
        None,
    );
}

#[test]
fn buffered_streaming_defers() {
    check(
        "buffered_streaming_deferred",
        "--buffer-quorum 6 --shards 2 --deadline-ms 200 --partial-ok \
         --faults straggle=0.3,straggle-ms=900,seed=5",
        None,
    );
}

#[test]
fn buffered_streaming_reparents_after_crash() {
    check(
        "buffered_streaming_shardcrash",
        "--buffer-quorum 3 --shards 2 --deadline-ms 200 --partial-ok \
         --faults shardcrash@r1s1,straggle=0.3,straggle-ms=900,seed=5",
        None,
    );
}
