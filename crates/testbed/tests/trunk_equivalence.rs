//! The trunk cache's correctness gate: on a link cluster,
//! `Testbed::run_schedule` resumes each schedule from a recorded
//! fault-free run, and must leave exactly what an uncached run leaves.
//!
//! The reference is the uncached run on a fresh testbed: `load_script`,
//! `enqueue(0, scenario_frame())`, a trace-on `run(budget)` (every bit
//! stepped) and `outcome().truncate_if(!is_drained())`. Compared per
//! run: the `Outcome`, `now()`, `unfired()` and the event log, plus
//! `stepped()` against the same uncached run with trace off. The warm
//! testbed carries its cache across every call of a test, so later
//! schedules resume from a trunk recorded by an earlier call.
//!
//! Explicit cases cover what the cache must refuse or rebuild for: every
//! no-fork field, a node off the bus, deep occurrences, fields the
//! fault-free run never reaches, budget and warning-shutoff changes
//! between calls, and scenario and attack runs interleaved on the same
//! testbed.

use majorcan_campaign::ProtocolSpec;
use majorcan_can::{CanEvent, Field};
use majorcan_faults::{scenario_frame, AttackAction, Disturbance, Scenario};
use majorcan_sim::TimedEvent;
use majorcan_testbed::{Outcome, Testbed, LINK_BUDGET};
use proptest::prelude::*;

const LINK_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// The fields the cache never resumes for.
const NO_FORK_FIELDS: [Field; 5] = [
    Field::Idle,
    Field::Sof,
    Field::Integrating,
    Field::Crashed,
    Field::BusOff,
];

/// Everything a run is judged by.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: Outcome,
    now: u64,
    unfired: Vec<Disturbance>,
    events: Vec<TimedEvent<CanEvent>>,
}

fn observe(tb: &Testbed, outcome: Outcome) -> Run {
    Run {
        outcome,
        now: tb.now(),
        unfired: tb.unfired(),
        events: tb.can_events().to_vec(),
    }
}

/// The uncached run of `schedule` on a fresh testbed, stepped bit by bit,
/// and the number of bits the same run steps with trace off.
fn reference(
    protocol: ProtocolSpec,
    budget: u64,
    shutoff: bool,
    schedule: &[Disturbance],
) -> (Run, u64) {
    let mut tb = Testbed::builder(protocol)
        .nodes(3)
        .budget(budget)
        .shutoff_at_warning(shutoff)
        .build();
    let mut uncached = |trace: bool| {
        tb.set_record_trace(trace);
        tb.load_script(schedule);
        tb.enqueue(0, scenario_frame());
        tb.run(budget);
        let outcome = tb.outcome().truncate_if(!tb.is_drained());
        (observe(&tb, outcome), tb.stepped())
    };
    let (run, _) = uncached(true);
    let (_, stepped) = uncached(false);
    (run, stepped)
}

/// Runs `schedule` through the warm testbed's cache and asserts it left
/// what the uncached reference leaves.
fn assert_matches(tb: &mut Testbed, shutoff: bool, schedule: &[Disturbance]) -> Run {
    let outcome = tb.run_schedule(schedule);
    let cached = observe(tb, outcome);
    let (expected, stepped) = reference(tb.protocol(), tb.budget(), shutoff, schedule);
    assert_eq!(
        cached,
        expected,
        "{} at budget {}: cached run diverged for {schedule:?}",
        tb.protocol(),
        tb.budget()
    );
    assert_eq!(
        tb.stepped(),
        stepped,
        "{}: stepped bits diverged for {schedule:?}",
        tb.protocol()
    );
    cached
}

fn warm(protocol: ProtocolSpec) -> Testbed {
    let mut tb = Testbed::builder(protocol).nodes(3).build();
    tb.run_schedule(&[]);
    tb
}

fn nth(mut d: Disturbance, occurrence: u32) -> Disturbance {
    d.occurrence = occurrence;
    d
}

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    // Node 3 is off the three-node bus.
    (0usize..4, 0usize..Field::ALL.len(), 0u16..16, 0u32..20).prop_map(
        |(node, field, index, salt)| {
            let mut d = Disturbance::first(node, Field::ALL[field], index);
            d.stuff = salt % 7 == 0;
            d.occurrence = if salt % 5 == 0 { 1 + salt / 5 } else { 1 };
            d
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_runs_match_uncached_runs(
        schedules in proptest::collection::vec(
            proptest::collection::vec(arb_disturbance(), 0..5),
            1..6,
        )
    ) {
        for protocol in LINK_PROTOCOLS {
            let mut tb = warm(protocol);
            for schedule in &schedules {
                assert_matches(&mut tb, true, schedule);
            }
        }
    }
}

#[test]
fn no_fork_fields_take_the_uncached_path() {
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        for field in NO_FORK_FIELDS {
            for node in 0..3 {
                for occurrence in [1, 2, 40] {
                    let entry = nth(Disturbance::first(node, field, 0), occurrence);
                    assert_matches(&mut tb, true, std::slice::from_ref(&entry));
                    // Alongside an entry the trunk reaches early.
                    assert_matches(&mut tb, true, &[Disturbance::first(1, Field::Id, 3), entry]);
                }
            }
        }
    }
}

#[test]
fn transmitter_sof_entries_fire_on_the_uncached_path() {
    // Node 0 enters SOF in its drive phase, so no pre-step peek sees it:
    // resuming from the trunk would leave this entry unfired.
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        let run = assert_matches(&mut tb, true, &[Disturbance::first(0, Field::Sof, 0)]);
        assert!(run.unfired.is_empty(), "{protocol}: the SOF entry fired");
    }
}

#[test]
fn off_bus_nodes_take_the_uncached_path() {
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        let off_bus = Disturbance::first(3, Field::Eof, 2);
        assert_matches(&mut tb, true, std::slice::from_ref(&off_bus));
        assert_matches(&mut tb, true, &[Disturbance::eof(1, 6), off_bus]);
    }
}

#[test]
fn deep_occurrences_match() {
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        for occurrence in 1..=4 {
            // A first hit forces a retransmission, so later occurrences of
            // the same positions exist only on the disturbed timeline.
            assert_matches(
                &mut tb,
                true,
                &[
                    Disturbance::first(1, Field::Data, 2),
                    nth(Disturbance::first(2, Field::Crc, 4), occurrence),
                    nth(Disturbance::eof(1, 6), occurrence),
                ],
            );
            assert_matches(
                &mut tb,
                true,
                &[nth(Disturbance::first(0, Field::AckSlot, 0), occurrence)],
            );
        }
    }
}

#[test]
fn fields_the_trunk_never_reaches_resume_from_the_end() {
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        for field in [
            Field::ErrorFlag,
            Field::OverloadFlag,
            Field::ExtendedFlag,
            Field::AgreementHold,
            Field::PassiveErrorFlag,
            Field::Delim,
        ] {
            let run = assert_matches(&mut tb, true, &[Disturbance::first(1, field, 0)]);
            assert_eq!(run.now, LINK_BUDGET, "{protocol}: clock at budget");
            assert_eq!(run.unfired.len(), 1, "{protocol}: {field:?} never fires");
        }
        // An unreachable entry next to one the trunk reaches.
        assert_matches(
            &mut tb,
            true,
            &[
                Disturbance::first(2, Field::ErrorFlag, 1),
                Disturbance::eof(2, 6),
            ],
        );
    }
}

#[test]
fn budget_changes_rebuild_the_trunk() {
    let schedules = [
        vec![],
        vec![Disturbance::eof(1, 6)],
        vec![Disturbance::first(2, Field::ErrorFlag, 0)],
        vec![Disturbance::first(1, Field::Data, 5)],
    ];
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        // Mid-frame, mid-wind-down, just past it, and back to the default.
        for budget in [40, 118, 125, 132, 400, LINK_BUDGET, 60] {
            tb.set_budget(budget);
            for schedule in &schedules {
                let run = assert_matches(&mut tb, true, schedule);
                assert_eq!(run.now, budget, "{protocol}: clock at budget");
            }
        }
    }
}

#[test]
fn warning_shutoff_changes_rebuild_the_trunk() {
    // Fourteen ACK errors in a row (each entry fires on the next
    // appearance) walk the transmitter's error counter past the warning
    // limit, where the shutoff policy decides its fate.
    let hammer = vec![Disturbance::first(0, Field::AckSlot, 0); 14];
    for protocol in LINK_PROTOCOLS {
        let (on, _) = reference(protocol, LINK_BUDGET, true, &hammer);
        let (off, _) = reference(protocol, LINK_BUDGET, false, &hammer);
        assert_ne!(on.events, off.events, "{protocol}: the policy matters");

        let mut tb = warm(protocol);
        for shutoff in [false, true, false] {
            tb.set_shutoff_at_warning(shutoff);
            assert_matches(&mut tb, shutoff, &hammer);
            assert_matches(&mut tb, shutoff, &[]);
        }
    }
}

#[test]
fn scenario_and_attack_runs_interleave_with_cached_runs() {
    let attack = [AttackAction::Pulse {
        node: 1,
        field: Field::Eof,
        index: 5,
        occurrence: 1,
    }];
    let schedules = [
        vec![Disturbance::eof(1, 6)],
        Scenario::fig3a().disturbances,
        vec![Disturbance::first(2, Field::Id, 4)],
    ];
    for protocol in LINK_PROTOCOLS {
        let mut tb = warm(protocol);
        for schedule in &schedules {
            tb.run_scenario(&Scenario::fig1b());
            assert_matches(&mut tb, true, schedule);
            tb.run_attack(&attack, 4);
            assert_matches(&mut tb, true, schedule);
            tb.set_fail_at(1, Some(50)); // left armed by a manual run
            assert_matches(&mut tb, true, schedule);
        }
    }
}
