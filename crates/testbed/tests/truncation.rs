//! Regression tests for the quiescence-vs-budget-exhaustion distinction.
//!
//! A budget landing after the frame's delivery but before the bus
//! drained (e.g. mid-intermission) once classified as a confident
//! `Consistent`, and a shortcut that classified schedules off a shared
//! budget-cut run stamped that verdict onto every one of them. These
//! tests pin the fix: a run whose budget elapses while the bus is still
//! active is [`Outcome::Truncated`], on a fresh testbed and on one whose
//! fault-free trunk is already recorded.

use majorcan_can::Field;
use majorcan_faults::Disturbance;
use majorcan_testbed::{budget_for, Outcome, ProtocolSpec, Testbed};

const LINK_PROTOCOLS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// The largest budget at which the fault-free run still classifies
/// `Truncated` — one bit inside the bus wind-down, where every delivery
/// has happened but the cluster has not drained yet. Before the fix this
/// window classified `Consistent`.
fn last_truncated_budget(protocol: ProtocolSpec) -> u64 {
    let mut tb = Testbed::builder(protocol).nodes(3).build();
    for budget in 1..=budget_for(protocol) {
        tb.set_budget(budget);
        if tb.run_schedule(&[]) == Outcome::Consistent {
            // The first budget that classifies clean is the drain bit;
            // one bit earlier every delivery has happened but the bus is
            // still winding down.
            tb.set_budget(budget - 1);
            assert_eq!(
                tb.run_schedule(&[]),
                Outcome::Truncated { unfired: 0 },
                "{protocol}: the last pre-drain bit must classify truncated"
            );
            return budget - 1;
        }
    }
    panic!("{protocol}: the fault-free run never classifies consistent")
}

#[test]
fn scalar_budget_landing_mid_wind_down_truncates() {
    for protocol in LINK_PROTOCOLS {
        // `last_truncated_budget` itself asserts the window exists; pin
        // the boundary semantics around it too.
        let cut = last_truncated_budget(protocol);
        let mut tb = Testbed::builder(protocol).nodes(3).budget(cut + 1).build();
        assert_eq!(
            tb.run_schedule(&[]),
            Outcome::Consistent,
            "{protocol}: one bit past the wind-down the run is complete"
        );
        // A budget landing mid-frame is also budget-cut; the partial
        // trace grades as a missing delivery, and truncation must not
        // upgrade it to a clean verdict either.
        tb.set_budget(40);
        let mid_frame = tb.run_schedule(&[]);
        assert!(
            mid_frame.token() == "truncated" || mid_frame.is_finding(),
            "{protocol}: mid-frame cut classified clean: {mid_frame:?}"
        );
    }
}

/// Schedules none of whose entries the fault-free run reaches (a third
/// occurrence of a CRC bit, error-flag bits) resume from the trunk's end,
/// so a trunk cut by the budget inside the wind-down must classify each
/// of them `Truncated`, never with the clean verdict of the prefix.
#[test]
fn budget_cut_trunk_truncates_every_schedule() {
    for protocol in LINK_PROTOCOLS {
        let mut prefix = Disturbance::first(0, Field::Crc, 0);
        prefix.occurrence = 3;
        let schedules: Vec<Vec<Disturbance>> = vec![
            vec![prefix.clone(), Disturbance::first(1, Field::ErrorFlag, 0)],
            vec![prefix.clone(), Disturbance::first(2, Field::ErrorFlag, 3)],
            vec![prefix, Disturbance::first(1, Field::ErrorFlag, 5)],
        ];

        let cut = last_truncated_budget(protocol);
        let mut warm = Testbed::builder(protocol).nodes(3).budget(cut).build();
        warm.run_schedule(&[]);
        for (i, schedule) in schedules.iter().enumerate() {
            let mut fresh = Testbed::builder(protocol).nodes(3).budget(cut).build();
            for (which, tb) in [("warm", &mut warm), ("fresh", &mut fresh)] {
                assert_eq!(
                    tb.run_schedule(schedule),
                    Outcome::Truncated { unfired: 2 },
                    "{protocol}: schedule {i} on a {which} testbed"
                );
            }
        }
    }
}

/// Truncation never hides an observed violation: demotion applies only
/// to clean classifications, so a verdict found on the executed prefix
/// survives even if the budget then cuts the run.
#[test]
fn truncation_does_not_demote_violations() {
    use majorcan_abcast::Verdict;
    assert_eq!(
        Outcome::Violation(Verdict::Omission).truncate_if(true),
        Outcome::Violation(Verdict::Omission)
    );
    assert_eq!(
        Outcome::Vacuous { unfired: 2 }.truncate_if(true),
        Outcome::Truncated { unfired: 2 }
    );
}
