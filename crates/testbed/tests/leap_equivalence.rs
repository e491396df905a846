//! The leap's correctness gate: a fixed-budget run on the engine's
//! step-or-leap loop (`Testbed::run`, and so `Testbed::run_schedule`)
//! must be bit-identical to the same run with every bit stepped. Trace
//! recording pins the quiet horizon to `now`, so a trace-on run is the
//! stepped reference.
//!
//! Compared per run: the timed event log, the `Outcome`, the unfired
//! script entries and the final clock. The generator and the explicit
//! cases cover the promises the leap rests on: script entries left
//! unfired on non-idle fields (which must not block a leap), entries on
//! `Idle`/`Crashed` (which must), scheduled crashes inside and after the
//! quiet stretch, and the HLP timer paths — TOTCAN's ACCEPT-timeout drop
//! and RELCAN's CONFIRM-timeout duplicates.

use majorcan_campaign::ProtocolSpec;
use majorcan_can::{CanEvent, Field};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_hlp::{HlpEvent, HlpMessage, MsgKind};
use majorcan_sim::TimedEvent;
use majorcan_testbed::{budget_for, Outcome, Testbed, HLP_PROBE_PAYLOAD};
use proptest::prelude::*;

const ALL_PROTOCOLS: [ProtocolSpec; 6] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
    ProtocolSpec::EdCan,
    ProtocolSpec::RelCan,
    ProtocolSpec::TotCan,
];

const FIELDS: [Field; 10] = [
    Field::Idle,
    Field::Crashed,
    Field::Id,
    Field::Data,
    Field::Crc,
    Field::AckSlot,
    Field::Eof,
    Field::Intermission,
    Field::ErrorFlag,
    Field::AgreementHold,
];

/// The event log of either cluster kind.
#[derive(Debug, PartialEq)]
enum Log {
    Link(Vec<TimedEvent<CanEvent>>),
    Hlp(Vec<TimedEvent<HlpEvent>>),
}

/// Everything a run is judged by.
#[derive(Debug, PartialEq)]
struct Run {
    log: Log,
    outcome: Outcome,
    unfired: Vec<Disturbance>,
    now: u64,
}

/// One `run_schedule`-shaped run (canonical stimulus, full budget) with
/// an optional scheduled crash, stepped bit by bit when `stepped`.
/// Returns the run and the number of bits the engine actually stepped.
fn run(
    tb: &mut Testbed,
    schedule: &[Disturbance],
    crash: Option<(usize, u64)>,
    stepped: bool,
) -> (Run, u64) {
    tb.set_record_trace(stepped);
    tb.load_script(schedule);
    if let Some((node, at)) = crash {
        tb.set_fail_at(node, Some(at));
    }
    let hlp = tb.protocol().is_hlp();
    if hlp {
        tb.broadcast(0, HLP_PROBE_PAYLOAD);
    } else {
        tb.enqueue(0, scenario_frame());
    }
    tb.run(tb.budget());
    let (log, outcome) = if hlp {
        (Log::Hlp(tb.hlp_events().to_vec()), tb.outcome())
    } else {
        let truncated = !tb.is_drained();
        (
            Log::Link(tb.can_events().to_vec()),
            tb.outcome().truncate_if(truncated),
        )
    };
    let run = Run {
        log,
        outcome,
        unfired: tb.unfired(),
        now: tb.now(),
    };
    (run, tb.stepped())
}

/// Asserts the leaping and the stepped run agree, that the stepped run
/// really stepped every bit, and — with no crash armed — that the hot
/// loop `run_schedule` classifies the schedule the same way. Returns the
/// leaping run and its stepped-bit count.
fn assert_equivalent(
    tb: &mut Testbed,
    schedule: &[Disturbance],
    crash: Option<(usize, u64)>,
) -> (Run, u64) {
    let (reference, reference_steps) = run(tb, schedule, crash, true);
    assert_eq!(
        reference_steps, reference.now,
        "trace-on runs step every bit"
    );
    let (leapt, steps) = run(tb, schedule, crash, false);
    assert_eq!(
        leapt,
        reference,
        "{}: leaping run diverged for {schedule:?}, crash {crash:?}",
        tb.protocol()
    );
    if crash.is_none() {
        assert_eq!(tb.run_schedule(schedule), reference.outcome);
    }
    (leapt, steps)
}

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    (0usize..3, 0usize..FIELDS.len(), 0u16..16, 0u32..20).prop_map(|(node, field, index, salt)| {
        let field = FIELDS[field];
        let mut d = Disturbance::first(node, field, index);
        d.stuff = salt % 7 == 0;
        d.occurrence = if salt % 5 == 0 { 2 } else { 1 };
        if matches!(field, Field::Idle | Field::Crashed) {
            // The one position a quiet node reports, recurring on every
            // quiet bit: a deep occurrence fires on time only if every
            // quiet bit is counted.
            d.index = 0;
            d.stuff = false;
            d.occurrence = 1 + salt * 97;
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leaping_runs_match_stepped_runs_on_every_protocol(
        schedule in proptest::collection::vec(arb_disturbance(), 0..4),
        crash_node in 0usize..4,
        crash_at in 0u64..9_000,
    ) {
        // crash_node 3 means no crash (the clusters have three nodes).
        let crash = (crash_node < 3).then_some((crash_node, crash_at));
        for protocol in ALL_PROTOCOLS {
            let mut tb = Testbed::builder(protocol).nodes(3).build();
            assert_equivalent(&mut tb, &schedule, crash);
        }
    }
}

#[test]
fn unfired_entries_on_busy_fields_do_not_block_the_leap() {
    // Positions the probe never reaches: a data bit past every payload
    // and a ninth visit of an EOF bit (EDCAN's probe puts three frames on
    // the bus, the others one or two).
    let mut eof9 = Disturbance::eof(1, 4);
    eof9.occurrence = 9;
    let schedule = [Disturbance::first(2, Field::Data, 60), eof9];
    for protocol in ALL_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        let (run, steps) = assert_equivalent(&mut tb, &schedule, None);
        assert_eq!(run.unfired.len(), 2, "{protocol}");
        assert!(
            steps < run.now / 4,
            "{protocol}: pending busy-field entries pinned the run to stepping \
             ({steps} of {} bits stepped)",
            run.now
        );
    }
}

#[test]
fn idle_and_crashed_entries_are_counted_bit_by_bit() {
    // An `Idle` entry fires on the 1500th idle bit node 2 samples; a
    // `Crashed` entry on the 900th bit node 1 spends crashed. Either one
    // pending refuses every leap, so both fire exactly when stepped.
    let mut idle = Disturbance::first(2, Field::Idle, 0);
    idle.occurrence = 1_500;
    let mut crashed = Disturbance::first(1, Field::Crashed, 0);
    crashed.occurrence = 900;
    for protocol in ALL_PROTOCOLS {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        let (run, _) = assert_equivalent(&mut tb, &[idle.clone()], None);
        assert!(run.unfired.is_empty(), "{protocol}: idle entry fired");
        let (run, _) = assert_equivalent(&mut tb, &[crashed.clone()], Some((1, 1_000)));
        assert!(run.unfired.is_empty(), "{protocol}: crashed entry fired");
    }
}

#[test]
fn scheduled_crashes_land_on_their_bit_inside_and_after_the_quiet_stretch() {
    for protocol in ALL_PROTOCOLS {
        let budget = budget_for(protocol);
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        // Mid-frame, early and late in the quiet stretch, on the last
        // budget bit, and past the end of the run.
        for at in [40, 700, 3_333, budget - 1, budget + 50] {
            for node in 0..3 {
                let (run, _) = assert_equivalent(&mut tb, &[], Some((node, at)));
                let crashed_at = match &run.log {
                    Log::Link(log) => log
                        .iter()
                        .find(|e| e.node.index() == node && e.event == CanEvent::Crashed)
                        .map(|e| e.at),
                    Log::Hlp(log) => log
                        .iter()
                        .find(|e| e.node.index() == node && e.event == HlpEvent::Crashed)
                        .map(|e| e.at),
                };
                let expected = (at < budget).then_some(at);
                assert_eq!(crashed_at, expected, "{protocol}: n{node} crash at {at}");
            }
        }
    }
}

/// The bit after the probe's DATA frame succeeded on the transmitter in
/// a fault-free run: crashing node 0 there kills it before its
/// ACCEPT/CONFIRM goes out.
fn after_data(tb: &mut Testbed) -> u64 {
    let (run, _) = run(tb, &[], None, false);
    let Log::Hlp(log) = run.log else {
        unreachable!("HLP testbed")
    };
    log.iter()
        .find(|e| {
            matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { frame, .. })
                if HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Data))
        })
        .expect("the probe DATA frame succeeded")
        .at
        + 1
}

#[test]
fn totcan_accept_timeout_drops_on_the_same_bit() {
    let mut tb = Testbed::builder(ProtocolSpec::TotCan).nodes(3).build();
    let crash = Some((0, after_data(&mut tb)));
    let (run, steps) = assert_equivalent(&mut tb, &[], crash);
    let Log::Hlp(log) = &run.log else {
        unreachable!("HLP testbed")
    };
    let drops: Vec<_> = log
        .iter()
        .filter(|e| matches!(e.event, HlpEvent::Dropped { .. }))
        .collect();
    assert_eq!(drops.len(), 2, "both receivers dropped the unaccepted DATA");
    assert!(
        steps < 1_000,
        "the 600-bit ACCEPT wait was leapt ({steps} bits stepped)"
    );
}

#[test]
fn relcan_confirm_timeout_duplicates_on_the_same_bit() {
    let mut tb = Testbed::builder(ProtocolSpec::RelCan).nodes(3).build();
    let crash = Some((0, after_data(&mut tb)));
    let (run, steps) = assert_equivalent(&mut tb, &[], crash);
    let Log::Hlp(log) = &run.log else {
        unreachable!("HLP testbed")
    };
    let dups = log
        .iter()
        .filter(|e| {
            matches!(&e.event, HlpEvent::Link(CanEvent::TxSucceeded { frame, .. })
                if HlpMessage::decode(frame).is_some_and(|m| m.kind == MsgKind::Dup))
        })
        .count();
    assert!(dups >= 1, "a receiver retransmitted on CONFIRM timeout");
    assert!(
        steps < 1_000,
        "the 600-bit CONFIRM wait was leapt ({steps} bits stepped)"
    );
}

#[test]
fn broadcast_from_a_crashed_node_keeps_its_timestamp() {
    // A crashed controller promises silence even with a frame queued, so
    // the host event a later `broadcast` buffers must pin the node to
    // stepping until it is flushed.
    let log = |stepped: bool| {
        let mut tb = Testbed::builder(ProtocolSpec::TotCan).nodes(3).build();
        tb.set_record_trace(stepped);
        tb.set_fail_at(1, Some(100));
        tb.broadcast(0, HLP_PROBE_PAYLOAD);
        tb.run(2_000);
        tb.broadcast(1, HLP_PROBE_PAYLOAD);
        tb.run(2_000);
        tb.hlp_events().to_vec()
    };
    let leapt = log(false);
    assert!(leapt
        .iter()
        .any(|e| e.node.index() == 1 && matches!(e.event, HlpEvent::Broadcast { .. })));
    assert_eq!(leapt, log(true));
}

/// Pins the gain: a fault-free probe steps only its busy bits, not the
/// nominal budget, while the clock still ends at the budget.
#[test]
fn fault_free_probes_step_a_small_share_of_the_budget() {
    for (protocol, cap) in [
        (ProtocolSpec::TotCan, 1_000),
        (ProtocolSpec::RelCan, 1_000),
        (ProtocolSpec::EdCan, 1_000),
        (ProtocolSpec::StandardCan, 200),
        (ProtocolSpec::MinorCan, 200),
        (ProtocolSpec::MajorCan { m: 5 }, 200),
    ] {
        let mut tb = Testbed::builder(protocol).nodes(3).build();
        assert_eq!(tb.run_schedule(&[]), Outcome::Consistent, "{protocol}");
        assert_eq!(
            tb.now(),
            budget_for(protocol),
            "{protocol}: clock at budget"
        );
        assert!(
            tb.stepped() < cap,
            "{protocol}: stepped {} of {} bits (cap {cap})",
            tb.stepped(),
            tb.now()
        );
    }
}
