//! # majorcan-testbed — one way to build and run a protocol cluster
//!
//! Every experiment path in the workspace — paper scenario reproductions,
//! the falsifier's oracle, Monte-Carlo campaign jobs, periodic-load
//! workloads and the HLP probes — assembles the same thing: N protocol
//! nodes on a wired-AND bus behind a fault channel, run for a bit budget
//! and graded by the Atomic Broadcast checker. This crate is that
//! assembly, once:
//!
//! * [`Testbed`] / [`TestbedBuilder`] — build a cluster for any
//!   [`ProtocolSpec`](majorcan_campaign::ProtocolSpec) (the three link
//!   variants and the three CAN-based higher-level protocols) and run
//!   schedules, scenarios or workloads on it.
//! * [`BusChannel`] — the closed set of fault channels a run can install,
//!   so the testbed stays a single concrete type per protocol.
//! * [`Outcome`] / [`classify`] — the one shared verdict vocabulary
//!   (formerly duplicated between the falsifier's oracle and the scenario
//!   runner's `consistent_single_delivery`).
//! * [`ScenarioRun`] — the owned result of a scripted link-layer run,
//!   with the trace, event log and unfired-disturbance accounting.
//!
//! The design point is *reuse*: a campaign worker builds one testbed and
//! calls [`Testbed::run_schedule`] thousands of times;
//! [`Testbed::load_script`] rewinds controllers, event buffers, trace
//! storage and the script allocation in place, so the hot loop is
//! allocation-free after warm-up (see `BENCH_hotpath.json` at the repo
//! root for the measured payoff). On link clusters `run_schedule` also
//! records the fault-free run once and resumes each schedule from the
//! last recorded bit before its script could first fire, instead of
//! replaying the opening bits every run shares.

mod channel;
pub mod hotpath;
mod outcome;
mod scenario_run;
mod testbed;
mod trunk;

pub use channel::BusChannel;
pub use majorcan_campaign::ProtocolSpec;
pub use outcome::{classify, Outcome};
pub use scenario_run::ScenarioRun;
pub use testbed::{
    budget_for, spec_of, Testbed, TestbedBuilder, HLP_BUDGET, HLP_PROBE_PAYLOAD, LINK_BUDGET,
};
