//! Tests of the protocol variants' headline guarantees on a 4-node bus.
//! The small EOF spaces are enumerated, not sampled: every single EOF
//! disturbance is harmless under MinorCAN and MajorCAN, and every ordered
//! pair of EOF disturbances is checked against its exact set of
//! counterexamples. Properties over larger spaces stay sampled: MajorCAN
//! geometry invariants for every m, and random ≤ m error placements over
//! the EOF and the agreement window never splitting the bus.

use majorcan_abcast::trace_from_can_events;
use majorcan_can::{Controller, Field, StandardCan, Variant};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_faults::{scenario_frame, Disturbance, ScriptedFaults};
use majorcan_sim::{NodeId, Simulator};
use proptest::prelude::*;

fn run_with_disturbances<V: Variant>(
    variant: &V,
    n_nodes: usize,
    disturbances: Vec<Disturbance>,
) -> majorcan_abcast::Report {
    let script = ScriptedFaults::new(disturbances);
    let mut sim = Simulator::new(script);
    for _ in 0..n_nodes {
        sim.attach(Controller::new(variant.clone()));
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
    sim.run(2_500);
    trace_from_can_events(sim.events(), n_nodes).check()
}

/// Every node's view of every EOF bit `1..=eof_len` on a 4-node bus.
fn eof_placements(eof_len: u16) -> Vec<Disturbance> {
    (0..4)
        .flat_map(|node| (1..=eof_len).map(move |bit| Disturbance::eof(node, bit)))
        .collect()
}

/// The ordered pairs of EOF disturbances, out of all `(4 * eof_len)²`,
/// that break Atomic Broadcast under `variant`.
fn failing_eof_pairs<V: Variant>(variant: &V, eof_len: u16) -> Vec<(Disturbance, Disturbance)> {
    let placements = eof_placements(eof_len);
    let mut failing = Vec::new();
    for a in &placements {
        for b in &placements {
            let pair = vec![a.clone(), b.clone()];
            if !run_with_disturbances(variant, 4, pair).atomic_broadcast() {
                failing.push((a.clone(), b.clone()));
            }
        }
    }
    failing
}

#[test]
fn every_single_eof_disturbance_is_atomic() {
    for d in eof_placements(7) {
        let report = run_with_disturbances(&MinorCan, 4, vec![d.clone()]);
        assert!(report.atomic_broadcast(), "MinorCAN {d:?}: {report}");
    }
    for d in eof_placements(10) {
        let report = run_with_disturbances(&MajorCan::proposed(), 4, vec![d.clone()]);
        assert!(report.atomic_broadcast(), "MajorCAN_5 {d:?}: {report}");
    }
}

#[test]
fn no_pair_of_eof_disturbances_splits_majorcan() {
    // The exhaustive refutation of the Fig. 3 class: none of the 1,600
    // ordered placements of two EOF-view disturbances splits a
    // MajorCAN_5 bus.
    assert_eq!(failing_eof_pairs(&MajorCan::proposed(), 10), vec![]);
}

#[test]
fn minorcan_falls_only_to_eof6_and_eof7_on_different_nodes() {
    // Of 784 ordered pairs, exactly the 24 with one node disturbed at
    // its last-but-one EOF bit and a different node at its last.
    let at = |d: &Disturbance, bit| *d == Disturbance::eof(d.node, bit);
    let mut expected = Vec::new();
    for a in eof_placements(7) {
        for b in eof_placements(7) {
            let tail = (at(&a, 6) && at(&b, 7)) || (at(&a, 7) && at(&b, 6));
            if a.node != b.node && tail {
                expected.push((a.clone(), b));
            }
        }
    }
    assert_eq!(expected.len(), 24);
    assert_eq!(failing_eof_pairs(&MinorCan, 7), expected);
}

#[test]
fn standard_can_falls_to_many_eof_pairs() {
    // Standard CAN has no such boundary: 249 of the 784 ordered pairs
    // break it.
    assert_eq!(failing_eof_pairs(&StandardCan, 7).len(), 249);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn majorcan_up_to_m_mixed_tail_disturbances_are_atomic(
        placements in proptest::collection::vec((0usize..4, 0u8..2, 1u16..=10), 1..=5),
    ) {
        // Up to m = 5 disturbances across EOF and the agreement window.
        let v = MajorCan::proposed();
        let agree_end = v.agreement_end().unwrap() as u16;
        let disturbances = placements.into_iter().map(|(node, kind, bit)| {
            if kind == 0 {
                Disturbance::eof(node, bit)
            } else {
                // Agreement-hold region positions (EOF-relative 11..=20).
                Disturbance::first(node, Field::AgreementHold, 10 + (bit % (agree_end - 10)) + 1)
            }
        }).collect();
        let report = run_with_disturbances(&v, 4, disturbances);
        prop_assert!(report.atomic_broadcast(), "{}", report);
    }

    #[test]
    fn majorcan_geometry_invariants(m in 3usize..=20) {
        prop_assume!(m <= 120);
        let v = MajorCan::new(m).unwrap();
        prop_assert_eq!(v.eof_len(), 2 * m);
        prop_assert_eq!(v.delimiter_len(), 2 * m + 1);
        let (ws, we) = v.sampling_window().unwrap();
        // Window starts after the longest possible own flag (detect at m,
        // flag m+1..m+6) and spans 2m-1 bits ending at the agreement end.
        prop_assert_eq!(ws, m + 7);
        prop_assert_eq!(we, 3 * m + 5);
        prop_assert_eq!(we - ws + 1, 2 * m - 1);
        prop_assert_eq!(v.agreement_end().unwrap(), we);
        // The threshold is a strict majority of the window.
        prop_assert!(2 * v.vote_threshold() > we - ws + 1);
        prop_assert!(2 * (v.vote_threshold() - 1) <= we - ws + 1);
        // Overhead formulas are consistent with the geometry.
        prop_assert_eq!(
            v.best_case_overhead_bits(),
            v.eof_len() as isize - 7
        );
        prop_assert_eq!(
            v.worst_case_overhead_bits(),
            v.best_case_overhead_bits() + (2 * m as isize - 2)
        );
    }

    #[test]
    fn clean_runs_are_atomic_for_every_variant_and_width(
        n in 2usize..7,
        m in 3usize..8,
    ) {
        let report = run_with_disturbances(&MajorCan::new(m).unwrap(), n, vec![]);
        prop_assert!(report.atomic_broadcast());
        let report = run_with_disturbances(&MinorCan, n, vec![]);
        prop_assert!(report.atomic_broadcast());
    }
}
