//! The falsification oracle: schedule in, verdict out.
//!
//! The oracle is a thin, panic-containing wrapper around the
//! [`Testbed`](majorcan_testbed::Testbed) facade. [`Oracle::evaluate`]
//! runs one disturbance [`Schedule`] against any protocol target — a
//! link-layer variant, or one of the FTCS'98 higher-level protocols over
//! a standard-CAN link — through the testbed's allocation-free
//! [`run_schedule`](majorcan_testbed::Testbed::run_schedule) hot loop, and
//! classifies the run into the shared [`Outcome`] vocabulary:
//!
//! * [`Outcome::Consistent`] — every checked property held and the whole
//!   schedule actually fired;
//! * [`Outcome::Vacuous`] — consistent, but part of the schedule never
//!   applied (a position the geometry lacks, an occurrence the traffic
//!   never reached) — **not** evidence of robustness;
//! * [`Outcome::Violation`] — a broken property, graded by the checker's
//!   [`Verdict`](majorcan_abcast::Verdict) (double reception / omission /
//!   validity loss);
//! * [`Outcome::CheckerPanic`] — the simulator or checker itself blew up,
//!   which is always a finding (panics are caught, never propagated).
//!
//! A long-lived [`Oracle`] caches one testbed per (target, node-count)
//! pair, so a search worker evaluating thousands of schedules against the
//! same target reuses the cluster, and on link targets its recorded
//! fault-free trunk, instead of reassembling it per run. The
//! free [`evaluate`] keeps the historical one-shot signature for callers
//! that grade a single schedule (corpus replay, tests).

use crate::schedule::Schedule;
use majorcan_campaign::ProtocolSpec;
use majorcan_testbed::Testbed;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use majorcan_testbed::{budget_for, classify, Outcome, HLP_BUDGET, LINK_BUDGET};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A reusable schedule evaluator with a cached testbed.
///
/// The cache holds the testbed of the most recent (target, node-count)
/// pair; search workers evaluate in target-major order, so one entry
/// suffices. After a contained panic the cached testbed is dropped — a
/// cluster that unwound mid-run is in an unknown state and must not be
/// reused.
#[derive(Debug, Default)]
pub struct Oracle {
    cached: Option<((ProtocolSpec, usize), Testbed)>,
    stepped: u64,
}

impl Oracle {
    /// A fresh oracle with an empty testbed cache.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Builds (or reuses) the cached testbed for `(target, n_nodes)`.
    /// Returns the contained panic message when assembly itself unwinds
    /// (e.g. an invalid MajorCAN tolerance).
    fn testbed_for(
        &mut self,
        target: ProtocolSpec,
        n_nodes: usize,
    ) -> Result<&mut Testbed, String> {
        let key = (target, n_nodes);
        if self.cached.as_ref().map(|(k, _)| *k) != Some(key) {
            self.cached = None; // drop the old cluster before building
            let built = catch_unwind(AssertUnwindSafe(|| {
                Testbed::builder(target).nodes(n_nodes).build()
            }));
            match built {
                Ok(testbed) => self.cached = Some((key, testbed)),
                Err(payload) => return Err(panic_text(payload)),
            }
        }
        Ok(&mut self.cached.as_mut().expect("testbed cached above").1)
    }

    /// Evaluates `schedule` against `target` for `budget` bit times and
    /// classifies the run. Panics inside the simulator or checker are
    /// caught and reported as [`Outcome::CheckerPanic`] — the oracle
    /// itself never unwinds.
    pub fn evaluate(
        &mut self,
        target: ProtocolSpec,
        schedule: &Schedule,
        n_nodes: usize,
        budget: u64,
    ) -> Outcome {
        self.stepped = 0;
        let testbed = match self.testbed_for(target, n_nodes) {
            Ok(testbed) => testbed,
            Err(msg) => return Outcome::CheckerPanic(msg),
        };
        testbed.set_budget(budget);
        let run = catch_unwind(AssertUnwindSafe(|| {
            testbed.run_schedule(schedule.disturbances())
        }));
        self.stepped = testbed.stepped();
        match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.cached = None;
                Outcome::CheckerPanic(panic_text(payload))
            }
        }
    }

    /// Bits the most recent [`Oracle::evaluate`] actually stepped
    /// ([`Testbed::stepped`]; idle stretches leapt over are not counted,
    /// and a run resumed from the fault-free trunk counts the trunk's
    /// prefix too). Deterministic per schedule; 0 when the cluster could
    /// not be built.
    pub fn stepped(&self) -> u64 {
        self.stepped
    }
}

/// Evaluates `schedule` against `target` on a fresh testbed (see
/// [`Oracle::evaluate`]). Loops should hold an [`Oracle`] instead.
pub fn evaluate(target: ProtocolSpec, schedule: &Schedule, n_nodes: usize, budget: u64) -> Outcome {
    Oracle::new().evaluate(target, schedule, n_nodes, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use majorcan_abcast::Verdict;
    use majorcan_can::Field;
    use majorcan_faults::{Disturbance, Scenario};

    fn sched(ds: Vec<Disturbance>) -> Schedule {
        Schedule::new(ds)
    }

    #[test]
    fn clean_schedule_is_consistent_everywhere() {
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MinorCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::EdCan,
            ProtocolSpec::RelCan,
            ProtocolSpec::TotCan,
        ] {
            let outcome = evaluate(target, &sched(vec![]), 3, budget_for(target));
            assert_eq!(outcome, Outcome::Consistent, "{target}");
        }
    }

    #[test]
    fn fig1b_is_a_double_reception_on_can_only() {
        let s = sched(Scenario::fig1b().disturbances);
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET),
            Outcome::Violation(Verdict::DoubleReception)
        );
        assert_eq!(
            evaluate(ProtocolSpec::MinorCan, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
        assert_eq!(
            evaluate(ProtocolSpec::MajorCan { m: 5 }, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
    }

    #[test]
    fn fig3a_breaks_can_minorcan_and_the_tx_bound_hlps() {
        let s = sched(Scenario::fig3a().disturbances);
        for target in [ProtocolSpec::StandardCan, ProtocolSpec::MinorCan] {
            assert_eq!(
                evaluate(target, &s, 3, LINK_BUDGET),
                Outcome::Violation(Verdict::Omission),
                "{target}"
            );
        }
        assert_eq!(
            evaluate(ProtocolSpec::MajorCan { m: 5 }, &s, 3, LINK_BUDGET),
            Outcome::Consistent
        );
        // EDCAN recovers (every receiver retransmits); RELCAN and TOTCAN
        // only act when the transmitter fails — Section 4's verdict.
        assert_eq!(
            evaluate(ProtocolSpec::EdCan, &s, 3, HLP_BUDGET),
            Outcome::Consistent
        );
        for target in [ProtocolSpec::RelCan, ProtocolSpec::TotCan] {
            assert!(
                matches!(
                    evaluate(target, &s, 3, HLP_BUDGET),
                    Outcome::Violation(Verdict::Omission)
                ),
                "{target}"
            );
        }
    }

    #[test]
    fn unfired_schedules_classify_as_vacuous_not_consistent() {
        // A MajorCAN-only position under standard CAN never fires.
        let s = sched(vec![Disturbance::first(1, Field::AgreementHold, 13)]);
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET),
            Outcome::Vacuous { unfired: 1 }
        );
        assert_eq!(
            evaluate(ProtocolSpec::StandardCan, &s, 3, LINK_BUDGET).token(),
            "vacuous"
        );
    }

    #[test]
    fn oracle_contains_panics() {
        // m = 2 is rejected by MajorCan::new — the oracle must catch the
        // panic and classify, not unwind into the caller.
        let outcome = evaluate(
            ProtocolSpec::MajorCan { m: 2 },
            &sched(vec![]),
            3,
            LINK_BUDGET,
        );
        assert!(outcome.is_finding());
        match outcome {
            Outcome::CheckerPanic(msg) => {
                assert!(msg.contains("invalid MajorCAN tolerance"), "{msg}")
            }
            other => panic!("expected CheckerPanic, got {other:?}"),
        }
    }

    #[test]
    fn cached_oracle_agrees_with_fresh_evaluations_across_targets() {
        let mut oracle = Oracle::new();
        let schedules = [
            sched(vec![]),
            sched(Scenario::fig1b().disturbances),
            sched(Scenario::fig3a().disturbances),
            sched(vec![Disturbance::first(1, Field::AgreementHold, 13)]),
        ];
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::TotCan,
        ] {
            let budget = budget_for(target);
            for s in &schedules {
                assert_eq!(
                    oracle.evaluate(target, s, 3, budget),
                    evaluate(target, s, 3, budget),
                    "{target}"
                );
            }
        }
    }

    #[test]
    fn stepped_counts_simulated_bits_not_the_budget() {
        // The cached oracle resumes later schedules from its fault-free
        // trunk; the count must still equal a fresh evaluation's.
        let mut cached = Oracle::new();
        for target in [
            ProtocolSpec::StandardCan,
            ProtocolSpec::MajorCan { m: 5 },
            ProtocolSpec::TotCan,
        ] {
            let budget = budget_for(target);
            for s in [sched(vec![]), sched(Scenario::fig1b().disturbances)] {
                cached.evaluate(target, &s, 3, budget);
                let mut fresh = Oracle::new();
                fresh.evaluate(target, &s, 3, budget);
                assert_eq!(cached.stepped(), fresh.stepped(), "{target}");
                assert!(
                    0 < cached.stepped() && cached.stepped() < budget,
                    "{target}: stepped {} of {budget}",
                    cached.stepped()
                );
            }
        }
        cached.evaluate(
            ProtocolSpec::MajorCan { m: 2 },
            &sched(vec![]),
            3,
            LINK_BUDGET,
        );
        assert_eq!(cached.stepped(), 0, "no cluster, no bits");
    }

    #[test]
    fn oracle_recovers_after_a_contained_panic() {
        let mut oracle = Oracle::new();
        let bad = oracle.evaluate(
            ProtocolSpec::MajorCan { m: 2 },
            &sched(vec![]),
            3,
            LINK_BUDGET,
        );
        assert!(matches!(bad, Outcome::CheckerPanic(_)));
        assert_eq!(
            oracle.evaluate(ProtocolSpec::StandardCan, &sched(vec![]), 3, LINK_BUDGET),
            Outcome::Consistent
        );
    }
}
