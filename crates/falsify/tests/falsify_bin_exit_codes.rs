//! The `falsify` bin's exit-code contract, tested by spawning the real
//! binary: exit 0 when no MajorCAN target is falsified, exit 3 when one
//! is. Post-fix the seeded search cannot reach a MajorCAN finding any
//! more (that is the point of the frame-tail fix), so the exit-3 leg
//! drives the gate through `--probe` with a crafted E13-style
//! *over-budget* break — 4 disturbances against m = 3, a genuine
//! violation through the same oracle, just outside the paper's budget.

use majorcan_bench::cli::exit_code;
use majorcan_campaign::ProtocolSpec;
use majorcan_can::Field;
use majorcan_falsify::{repo_corpus_dir, write_corpus, CorpusEntry, Provenance, Schedule};
use majorcan_faults::Disturbance;
use std::process::Command;

fn falsify_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_falsify"))
}

#[test]
fn clean_search_and_consistent_probe_exit_zero() {
    // A tiny MajorCAN_3 search plus a probe of the archived F3-family
    // fixture (consistent since the frame-tail fix): nothing falsifies,
    // so the gate must pass.
    let fixture = repo_corpus_dir().join("majorcan_3-consistent-458ebee2.json");
    assert!(fixture.is_file(), "missing fixture {}", fixture.display());
    let out = falsify_bin()
        .args([
            "4",
            "--targets",
            "MajorCAN_3",
            "--jobs",
            "1",
            "--quiet",
            "--probe",
        ])
        .arg(&fixture)
        .output()
        .expect("spawning falsify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(exit_code::CONSISTENT),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("probe") && stdout.contains("consistent"),
        "probe verdict missing from:\n{stdout}"
    );
    assert!(!stderr.contains("FALSIFIED"), "{stderr}");
}

#[test]
fn majorcan_probe_finding_exits_three() {
    // E13's over-budget shape: node 1 votes after a first-sub-field EOF
    // error and three of its five window samples are flipped — 4 > m = 3
    // disturbed views, a real omission on MajorCAN_3.
    let entry = CorpusEntry {
        protocol: ProtocolSpec::MajorCan { m: 3 },
        n_nodes: 3,
        budget: 5_000,
        expected: "omission".to_string(),
        schedule: Schedule::new(vec![
            Disturbance::eof(1, 3),
            Disturbance::first(1, Field::AgreementHold, 10),
            Disturbance::first(1, Field::AgreementHold, 11),
            Disturbance::first(1, Field::AgreementHold, 12),
        ]),
        provenance: Provenance {
            campaign_seed: 0,
            job_id: 0,
            trial: 0,
        },
    };
    let dir = std::env::temp_dir().join(format!("majorcan-exit3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = write_corpus(&dir, &[entry]).expect("writing probe entry");
    let out = falsify_bin()
        .args([
            "2",
            "--targets",
            "MajorCAN_5",
            "--jobs",
            "1",
            "--quiet",
            "--probe",
        ])
        .arg(&written[0])
        .output()
        .expect("spawning falsify");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(exit_code::FINDING),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("omission"), "{stdout}");
    assert!(stderr.contains("FALSIFIED"), "{stderr}");
}

#[test]
fn unknown_target_exits_two() {
    let out = falsify_bin()
        .args(["1", "--targets", "MegaCAN"])
        .output()
        .expect("spawning falsify");
    assert_eq!(out.status.code(), Some(exit_code::USAGE));
}

#[test]
fn unknown_flags_exit_two() {
    // The `scalar` and `batch` switches once chose an evaluation engine;
    // with one evaluation path they are unknown flags like any other.
    for name in ["scalar", "batch", "no-such-flag"] {
        let flag = format!("--{name}");
        let out = falsify_bin()
            .args(["1", "--targets", "CAN", "--quiet", &flag])
            .output()
            .expect("spawning falsify");
        assert_eq!(out.status.code(), Some(exit_code::USAGE), "{flag}");
    }
}
