//! The fault-free trunk cache behind `Testbed::run_schedule` on link
//! clusters.
//!
//! Every scripted link run starts the same way: node 0 transmits the
//! scenario frame, and until the first script entry can fire the run is
//! bit-identical to the fault-free run. A [`Trunk`] runs that fault-free
//! probe once per testbed and snapshots it ([`Simulator::snapshot`]) at
//! the first pre-step bit where each `(node, field)` pair appears, plus
//! once at the end of the budget. A schedule then restores the snapshot
//! of the earliest pair it targets (the end snapshot if none appears),
//! reloads its full script and runs out the budget, instead of replaying
//! the shared opening bits.
//!
//! Why the restore is exact:
//!
//! * A scripted disturbance fires only on a full `(node, field, index,
//!   stuff)` match at disturb time, and for every field outside
//!   [`NO_FORK_FIELDS`] a node's disturb-time field equals its pre-step
//!   field (the drive phase between the two moves a node only into `Sof`
//!   or `Crashed`). So before the first pre-step appearance of any of a
//!   schedule's pairs, none of its entries has matched, let alone fired
//!   or counted an occurrence: the run is the trunk, and restoring there
//!   with the whole script reloaded is the uncached run.
//! * The leap decisions agree as well: a script with no `Idle`/`Crashed`
//!   entry promises quiet exactly like the trunk's empty script, so the
//!   restored state carries the uncached run's clock, stepped-bit count
//!   and event log.
//! * The end snapshot is taken at the budget, so a schedule none of whose
//!   pairs the trunk reaches ends with the uncached run's `now()`,
//!   `stepped()` and event log, its whole script unfired.
//!
//! The cache is keyed by the budget it was recorded for and dropped by
//! `Testbed::set_shutoff_at_warning` (the snapshots carry the node
//! configuration, which a reload does not reset). Schedules targeting a
//! [`NO_FORK_FIELDS`] field or a node off the bus take the uncached path.

use crate::channel::BusChannel;
use majorcan_can::{Controller, Field, Variant};
use majorcan_faults::{scenario_frame, Disturbance};
use majorcan_sim::{BitNode, NodeId, SimSnapshot, Simulator};

/// Fields the trunk never restores for: `Sof` and `Crashed` can be
/// entered during the drive phase (so a pre-step peek would miss them),
/// a pending `Idle` or `Crashed` entry stops the script's quiet promise
/// (so the trunk's leaps would not be the run's), and `Integrating` and
/// `BusOff` are kept off out of caution: no falsifier schedule targets
/// them.
pub(crate) const NO_FORK_FIELDS: &[Field] = &[
    Field::Idle,
    Field::Sof,
    Field::Integrating,
    Field::Crashed,
    Field::BusOff,
];

pub(crate) type LinkSim<V> = Simulator<Controller<V>, BusChannel>;

/// Rewinds the cluster onto `schedule` and queues the canonical stimulus
/// (node 0 transmits the scenario frame) — `Testbed::load_script` plus
/// `enqueue` on a bare link simulator.
pub(crate) fn load<V: Variant>(sim: &mut LinkSim<V>, schedule: &[Disturbance]) {
    if let BusChannel::Scripted(script) = sim.channel_mut() {
        script.reload(schedule);
        sim.reset();
    } else {
        sim.reset_with_channel(BusChannel::scripted(schedule.to_vec()));
    }
    for node in sim.nodes_mut() {
        node.set_fail_at(None);
        node.reset();
    }
    sim.node_mut(NodeId(0)).enqueue(scenario_frame());
}

/// `true` when every node is idle with an empty queue or crashed: a run
/// whose budget elapses while `!drained` executed only a prefix of its
/// schedule's consequences.
pub(crate) fn drained<V: Variant>(sim: &LinkSim<V>) -> bool {
    sim.nodes()
        .all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed())
}

/// The recorded fault-free run of one link cluster.
#[derive(Debug)]
pub(crate) struct Trunk<V: Variant> {
    /// The budget the snapshots were recorded for; `None` when empty.
    budget: Option<u64>,
    /// Per `(node, field)` slot: the index in `snaps` of the first
    /// pre-step bit where that node reports that field.
    first: Vec<Option<usize>>,
    /// Snapshots in bit order; the last one is the end of the budget.
    snaps: Vec<SimSnapshot<Controller<V>, BusChannel>>,
}

fn slot(node: usize, field: Field) -> usize {
    node * Field::ALL.len() + field.ordinal()
}

impl<V: Variant> Trunk<V> {
    pub(crate) fn new() -> Trunk<V> {
        Trunk {
            budget: None,
            first: Vec::new(),
            snaps: Vec::new(),
        }
    }

    /// Drops the recording; the next cached run records it afresh.
    pub(crate) fn invalidate(&mut self) {
        self.budget = None;
    }

    /// Leaves `sim` exactly as loading `schedule`, queueing the canonical
    /// stimulus and running `budget` bits would, restoring from the
    /// trunk where that is exact. The caller turns trace recording off.
    pub(crate) fn run(&mut self, sim: &mut LinkSim<V>, budget: u64, schedule: &[Disturbance]) {
        let n_nodes = sim.node_count();
        if schedule
            .iter()
            .any(|d| d.node >= n_nodes || NO_FORK_FIELDS.contains(&d.field))
        {
            load(sim, schedule);
            sim.run(budget);
            return;
        }
        if self.budget != Some(budget) {
            self.record(sim, budget);
        }
        let at = schedule
            .iter()
            .filter_map(|d| self.first[slot(d.node, d.field)])
            .min()
            .unwrap_or(self.snaps.len() - 1);
        sim.restore_from(&self.snaps[at]);
        match sim.channel_mut() {
            BusChannel::Scripted(script) => script.reload(schedule),
            _ => unreachable!("the trunk runs on a scripted channel"),
        }
        sim.run(budget - sim.now());
    }

    /// Runs the fault-free probe to `budget` on the step-or-leap loop,
    /// snapshotting before every move at which some node reports a field
    /// for the first time, and once more at the end.
    fn record(&mut self, sim: &mut LinkSim<V>, budget: u64) {
        load(sim, &[]);
        self.first.clear();
        self.first.resize(sim.node_count() * Field::ALL.len(), None);
        self.snaps.clear();
        while sim.now() < budget {
            let mut fresh = false;
            for (node, controller) in sim.nodes().enumerate() {
                let first = &mut self.first[slot(node, controller.tag().field)];
                if first.is_none() {
                    *first = Some(self.snaps.len());
                    fresh = true;
                }
            }
            if fresh {
                self.snaps.push(sim.snapshot());
            }
            sim.advance(budget);
        }
        self.snaps.push(sim.snapshot());
        self.budget = Some(budget);
    }
}
