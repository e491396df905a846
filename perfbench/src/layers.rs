//! Layer replay benches. Each records a layer's inputs from a real run of
//! the workloads (seeded like the traced pass), replays them into a fresh
//! instance of that layer alone through its public API, checks the replay
//! reproduces the recording, and times it.

use crate::campaigns::{search_config, Workload, LINK_TARGETS, SOAK_NODES, SOAK_SPORADIC_PERMILLE};
use crate::record::{replay_channel, replay_node, Call, Op, RecChannel, RecNode};
use crate::stats::{median, percentile, tail_permille, Tally};
use crate::Metric;
use majorcan_abcast::{trace_from_can_events, WindowedChecker};
use majorcan_campaign::{
    derive_trial_seed, run_campaign_in_memory_scoped, CampaignOptions, FaultSpec, Job, ProtocolSpec,
};
use majorcan_can::{CanEvent, Controller, ControllerConfig, Frame, StandardCan, Variant};
use majorcan_core::{MajorCan, MinorCan};
use majorcan_falsify::{
    build_attack_jobs, build_jobs, execute_search_job, generate, generate_attack, AttackSchedule,
    AttackSearchConfig, Geometry, Oracle, Schedule, ATTACK_BUDGET,
};
use majorcan_faults::{scenario_frame, Attacker, ScriptedFaults};
use majorcan_hlp::{HlpNode, TotCan};
use majorcan_sim::{BitNode, Level, NoFaults, NodeId, Simulator, TimedEvent};
use majorcan_testbed::{budget_for, classify, Testbed, HLP_BUDGET, HLP_PROBE_PAYLOAD, LINK_BUDGET};
use majorcan_traffic::{
    run_soak, SoakSpec, TrafficSpec, TrafficStream, DEFAULT_FRAME_BITS, DEFAULT_WINDOW,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Timed repetitions of each replay; the median is reported.
const REPS: usize = 5;

fn median_of(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples).expect("reps > 0")
}

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// The first `per_target` schedules of each target of a falsify
/// workload, in campaign order.
fn falsify_inputs(w: Workload, seed: u64, per_target: u64) -> Vec<(ProtocolSpec, Schedule)> {
    build_jobs(&search_config(w, seed, per_target))
        .iter()
        .flat_map(|job| {
            let FaultSpec::AdversarialSearch { max_errors } = job.fault else {
                unreachable!("build_jobs makes adversarial-search jobs")
            };
            let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
            (0..job.frames).map(move |trial| {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                (job.protocol, generate(&mut rng, &geo, max_errors))
            })
        })
        .collect()
}

/// The first `per_target` attacks of each `attack_surface` target.
fn attack_inputs(seed: u64, per_target: u64) -> Vec<(ProtocolSpec, AttackSchedule)> {
    build_attack_jobs(&AttackSearchConfig::new(seed, per_target))
        .iter()
        .flat_map(|job| {
            let FaultSpec::AttackSearch { max_cost } = job.fault else {
                unreachable!("build_attack_jobs makes attack jobs")
            };
            let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
            (0..job.frames).map(move |trial| {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                (job.protocol, generate_attack(&mut rng, &geo, max_cost))
            })
        })
        .collect()
}

/// Calls `f` with the link variant `protocol` names.
macro_rules! with_variant {
    ($protocol:expr, $v:ident => $body:expr) => {
        match $protocol {
            ProtocolSpec::StandardCan => {
                let $v = StandardCan;
                $body
            }
            ProtocolSpec::MinorCan => {
                let $v = MinorCan;
                $body
            }
            ProtocolSpec::MajorCan { m } => {
                let $v = MajorCan::new(m).expect("a valid MajorCAN tolerance");
                $body
            }
            other => panic!("{other} is not a link-layer variant"),
        }
    };
}

// ---- sim: the engine loop with inert nodes ----

struct Inert;

impl BitNode for Inert {
    type Tag = ();
    type Event = ();

    fn drive(&mut self, _now: u64) -> Level {
        black_box(Level::Recessive)
    }

    fn tag(&self) {}

    fn observe(&mut self, _now: u64, seen: Level, _events: &mut Vec<()>) {
        black_box(seen);
    }
}

fn engine_ns_per_node_bit(n: usize) -> f64 {
    let bits = 2_400_000 / n as u64;
    let mut sim = Simulator::new(NoFaults);
    for _ in 0..n {
        sim.attach(Inert);
    }
    median_of(
        || {
            let t0 = Instant::now();
            sim.run(bits);
            ns_since(t0) / (bits * n as u64) as f64
        },
        REPS,
    )
}

// ---- can: controller drive/observe over a recorded soak wire ----

/// Frames per recorded soak wire (8 nodes, 60% load).
const WIRE_FRAMES: u64 = 600;

struct SoakWire {
    ops: Vec<Vec<Op<Frame>>>,
    events_per_node: Vec<usize>,
    events: Vec<TimedEvent<CanEvent>>,
}

fn soak_config() -> ControllerConfig {
    ControllerConfig {
        shutoff_at_warning: false,
        fail_at: None,
    }
}

fn record_soak_wire<V: Variant>(variant: V, seed: u64) -> SoakWire {
    let mut sim = Simulator::new(NoFaults);
    for _ in 0..SOAK_NODES {
        sim.attach(RecNode::new(Controller::with_config(
            variant.clone(),
            soak_config(),
        )));
    }
    let spec = TrafficSpec::mixed_load(SOAK_NODES, 0.6, DEFAULT_FRAME_BITS, SOAK_SPORADIC_PERMILLE);
    let mut stream = TrafficStream::new(spec, derive_trial_seed(seed, 0), WIRE_FRAMES);
    let mut events = Vec::new();
    loop {
        majorcan_workload::drive_source(&mut sim, &mut stream, 2_048);
        events.extend(sim.take_events());
        let drained = sim
            .nodes()
            .all(|n| n.inner.is_idle() && n.inner.pending() == 0);
        if stream.is_exhausted() && drained {
            break;
        }
    }
    SoakWire {
        events_per_node: sim.nodes().map(|n| n.events).collect(),
        ops: sim
            .nodes_mut()
            .map(|n| std::mem::take(&mut n.ops))
            .collect(),
        events,
    }
}

fn controller_ns<V: Variant>(variant: V, wire: &SoakWire, tally: &mut Tally) -> f64 {
    let bit_ops: usize = wire
        .ops
        .iter()
        .map(|ops| ops.iter().filter(|o| matches!(o, Op::Bit { .. })).count())
        .sum();
    let name = variant.name();
    median_of(
        || {
            let mut same = true;
            let mut events = Vec::new();
            let t0 = Instant::now();
            for ops in &wire.ops {
                let mut node = Controller::with_config(variant.clone(), soak_config());
                let (s, e) = replay_node(&mut node, ops, |c, f| c.enqueue(f));
                same &= s;
                events.push(e);
            }
            let ns = ns_since(t0) / bit_ops as f64;
            tally.check(same && events == wire.events_per_node, || {
                format!("{name}: controller replay diverged from the recorded wire")
            });
            ns
        },
        REPS,
    )
}

// ---- hlp: TOTCAN nodes over recorded falsify_hlp runs ----

/// Per node: the recorded calls and the number of events emitted.
type HlpRecording = (Vec<Vec<Op<Vec<u8>>>>, Vec<usize>);

fn totcan_ns(seed: u64, tally: &mut Tally) -> f64 {
    let recordings: Vec<HlpRecording> = falsify_inputs(Workload::FalsifyHlp, seed, 12)
        .into_iter()
        .map(|(_, schedule)| {
            let mut sim = Simulator::new(ScriptedFaults::new(schedule.to_vec()));
            for i in 0..3 {
                sim.attach(RecNode::new(HlpNode::new(TotCan::new(), i)));
            }
            let sender = sim.node_mut(NodeId(0));
            sender.ops.push(Op::Host(HLP_PROBE_PAYLOAD.to_vec()));
            sender.inner.broadcast(HLP_PROBE_PAYLOAD);
            sim.run(HLP_BUDGET);
            (
                sim.nodes_mut()
                    .map(|n| std::mem::take(&mut n.ops))
                    .collect(),
                sim.nodes().map(|n| n.events).collect(),
            )
        })
        .collect();
    let bit_ops: usize = recordings
        .iter()
        .flat_map(|(nodes, _)| nodes)
        .map(|ops| ops.iter().filter(|o| matches!(o, Op::Bit { .. })).count())
        .sum();
    median_of(
        || {
            let mut same = true;
            let t0 = Instant::now();
            for (nodes, events) in &recordings {
                for (i, ops) in nodes.iter().enumerate() {
                    let mut node = HlpNode::new(TotCan::new(), i);
                    let (s, e) = replay_node(&mut node, ops, |n, p| {
                        n.broadcast(&p);
                    });
                    same &= s && e == events[i];
                }
            }
            let ns = ns_since(t0) / bit_ops as f64;
            tally.check(same, || "TOTCAN node replay diverged".to_string());
            ns
        },
        REPS,
    )
}

// ---- faults: disturb over recorded calls; abcast: post-hoc checker ----

struct ScriptRun {
    protocol: ProtocolSpec,
    schedule: Schedule,
    calls: Vec<Call>,
    events: Vec<TimedEvent<CanEvent>>,
    unfired: usize,
    drained: bool,
}

fn record_script_runs(seed: u64) -> Vec<ScriptRun> {
    falsify_inputs(Workload::FalsifyLink, seed, 40)
        .into_iter()
        .map(|(protocol, schedule)| {
            with_variant!(protocol, v => {
                let mut sim = Simulator::new(RecChannel::new(ScriptedFaults::new(schedule.to_vec())));
                for _ in 0..3 {
                    sim.attach(Controller::with_config(v, ControllerConfig::default()));
                }
                sim.node_mut(NodeId(0)).enqueue(scenario_frame());
                sim.run(LINK_BUDGET);
                let drained = sim.nodes().all(|n| (n.is_idle() && n.pending() == 0) || n.is_crashed());
                ScriptRun {
                    protocol,
                    unfired: sim.channel().inner.remaining(),
                    calls: std::mem::take(&mut sim.channel_mut().calls),
                    events: sim.take_events(),
                    schedule,
                    drained,
                }
            })
        })
        .collect()
}

fn scripted_disturb_ns(runs: &[ScriptRun], tally: &mut Tally) -> f64 {
    let calls: usize = runs.iter().map(|r| r.calls.len()).sum();
    median_of(
        || {
            let mut same = true;
            let t0 = Instant::now();
            for r in runs {
                same &= replay_channel(&mut ScriptedFaults::new(r.schedule.to_vec()), &r.calls);
            }
            let ns = ns_since(t0) / calls as f64;
            tally.check(same, || "scripted disturb replay diverged".to_string());
            ns
        },
        REPS,
    )
}

/// Post-hoc checker per run over the recorded event logs; its outcomes
/// must equal the oracle's scalar path on the same schedules.
fn posthoc_us(runs: &[ScriptRun], tally: &mut Tally) -> f64 {
    let mut oracle = Oracle::new();
    for r in runs {
        let verdict = trace_from_can_events(&r.events, 3).check().verdict();
        let replayed = classify(verdict, r.unfired).truncate_if(!r.drained);
        let scalar = oracle.evaluate(r.protocol, &r.schedule, 3, budget_for(r.protocol));
        tally.check(replayed == scalar, || {
            format!(
                "{}: recorded run {replayed:?} vs oracle {scalar:?}",
                r.protocol
            )
        });
    }
    median_of(
        || {
            let t0 = Instant::now();
            for r in runs {
                black_box(
                    trace_from_can_events(black_box(&r.events), 3)
                        .check()
                        .verdict(),
                );
            }
            ns_since(t0) / 1e3 / runs.len() as f64
        },
        REPS,
    )
}

fn attacker_disturb_ns(seed: u64, tally: &mut Tally) -> f64 {
    let runs: Vec<(AttackSchedule, Vec<Call>)> = attack_inputs(seed, 6)
        .into_iter()
        .map(|(protocol, schedule)| {
            with_variant!(protocol, v => {
                let attacker = Attacker::new(schedule.to_vec(), schedule.cost());
                let mut sim = Simulator::new(RecChannel::new(attacker));
                for _ in 0..3 {
                    sim.attach(Controller::with_config(v, soak_config()));
                }
                sim.node_mut(NodeId(0)).enqueue(scenario_frame());
                sim.run(ATTACK_BUDGET);
                let calls = std::mem::take(&mut sim.channel_mut().calls);
                (schedule, calls)
            })
        })
        .collect();
    let calls: usize = runs.iter().map(|(_, c)| c.len()).sum();
    median_of(
        || {
            let mut same = true;
            let t0 = Instant::now();
            for (schedule, recorded) in &runs {
                let mut attacker = Attacker::new(schedule.to_vec(), schedule.cost());
                same &= replay_channel(&mut attacker, recorded);
            }
            let ns = ns_since(t0) / calls as f64;
            tally.check(same, || "attacker disturb replay diverged".to_string());
            ns
        },
        REPS,
    )
}

// ---- abcast: the online windowed checker over a recorded soak log ----

fn online_checker(wire: &SoakWire, tally: &mut Tally) -> (f64, usize) {
    let mut peak = 0;
    let ns = median_of(
        || {
            let mut checker = WindowedChecker::new(SOAK_NODES, DEFAULT_WINDOW);
            let t0 = Instant::now();
            for e in &wire.events {
                checker.push_can(e);
            }
            let ns = ns_since(t0) / wire.events.len() as f64;
            peak = checker.peak_live();
            let report = checker.finish();
            tally.check(report.atomic_broadcast() && report.exact(), || {
                format!(
                    "online checker on a clean soak log: {}",
                    report.verdict().token()
                )
            });
            ns
        },
        REPS,
    );
    (ns, peak)
}

// ---- traffic: run_soak with the online checker on vs off ----

/// `BENCH_traffic.json`'s cell: MajorCAN_5, 5 nodes, 60% load, 2000
/// frames, so the re-measured overhead is comparable.
fn checker_overhead_pct(seed: u64, tally: &mut Tally) -> f64 {
    let spec = SoakSpec::new(ProtocolSpec::MajorCan { m: 5 }, 5, 0.6, 2_000, seed);
    let mut off = spec.clone();
    off.online_check = false;
    let ratios: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let checked = run_soak(&spec, None).expect("no exporter");
            let on_ns = ns_since(t0);
            let t0 = Instant::now();
            let unchecked = run_soak(&off, None).expect("no exporter");
            let off_ns = ns_since(t0);
            tally.check(
                checked.bits == unchecked.bits
                    && checked.drained
                    && checked
                        .report
                        .as_ref()
                        .is_some_and(|r| r.atomic_broadcast()),
                || "checker on/off soak cells disagree".to_string(),
            );
            on_ns / off_ns
        })
        .collect();
    (median(&ratios).expect("nine pairs") - 1.0) * 100.0
}

// ---- testbed: assembly and the packed engine against the scalar loop ----

fn build_ms(w: Workload) -> f64 {
    let (targets, nodes): (Vec<ProtocolSpec>, usize) = match w {
        Workload::FalsifyLink => (LINK_TARGETS.to_vec(), 3),
        Workload::FalsifyHlp => (vec![ProtocolSpec::TotCan], 3),
        Workload::Attack => (AttackSearchConfig::new(0, 1).targets, 3),
        Workload::Soak => (LINK_TARGETS.to_vec(), SOAK_NODES),
    };
    median_of(
        || {
            let t0 = Instant::now();
            for &t in &targets {
                black_box(Testbed::builder(t).nodes(nodes).build());
            }
            ns_since(t0) / 1e6 / targets.len() as f64
        },
        21,
    )
}

/// Schedules per second through the campaign's job executor over those
/// through the scalar oracle, on the same `falsify_link` jobs; both
/// include schedule generation. Per-job outcome counters must agree.
fn engine_gain(seed: u64, tally: &mut Tally) -> f64 {
    let jobs = build_jobs(&search_config(Workload::FalsifyLink, seed, 1_000));
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let mut packed = Oracle::new();
            let t0 = Instant::now();
            let results: Vec<_> = jobs
                .iter()
                .map(|j| execute_search_job(&mut packed, j))
                .collect();
            let packed_ns = ns_since(t0);

            let mut scalar = Oracle::new();
            let t0 = Instant::now();
            let mut counts: Vec<BTreeMap<String, u64>> = Vec::new();
            for job in &jobs {
                let FaultSpec::AdversarialSearch { max_errors } = job.fault else {
                    unreachable!("build_jobs makes adversarial-search jobs")
                };
                let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
                let mut c = BTreeMap::new();
                for trial in 0..job.frames {
                    let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                    let s = generate(&mut rng, &geo, max_errors);
                    let o =
                        scalar.evaluate(job.protocol, &s, job.n_nodes, budget_for(job.protocol));
                    *c.entry(format!("outcome/{}/{}", job.protocol, o.token()))
                        .or_insert(0) += 1;
                }
                counts.push(c);
            }
            let scalar_ns = ns_since(t0);
            for (r, c) in results.iter().zip(&counts) {
                let packed: BTreeMap<String, u64> =
                    r.counters.iter().map(|(k, v)| (k.to_string(), v)).collect();
                tally.check(&packed == c, || {
                    format!("job {}: executor {packed:?} vs scalar {c:?}", r.job_id)
                });
            }
            scalar_ns / packed_ns
        })
        .collect();
    median(&ratios).expect("three reps")
}

// ---- campaign: per-job time and 2-worker efficiency ----

struct CampaignStats {
    p50_ms: f64,
    tail_ms: f64,
    samples: usize,
    efficiency: f64,
}

fn campaign_scaling(seed: u64, tally: &mut Tally) -> CampaignStats {
    // 17 000 schedules per target = 340 jobs per target, 1020 in all:
    // enough samples for p99 to have ten beyond it.
    let jobs: Vec<Job> = build_jobs(&search_config(Workload::FalsifyLink, seed, 17_000));
    let times = Mutex::new(Vec::with_capacity(jobs.len()));
    let report =
        run_campaign_in_memory_scoped(&jobs, &CampaignOptions::quiet(2), Oracle::new, |o, job| {
            let t0 = Instant::now();
            let r = execute_search_job(o, job);
            times
                .lock()
                .expect("a job panicked while recording its time")
                .push(t0.elapsed().as_secs_f64() * 1e3);
            r
        });
    let times = times.into_inner().expect("no job panicked while recording");
    let single = run_campaign_in_memory_scoped(
        &jobs,
        &CampaignOptions::quiet(1),
        Oracle::new,
        execute_search_job,
    );
    tally.check(
        report.failures.is_empty() && report.totals.counters == single.totals.counters,
        || "campaign totals differ between 1 and 2 workers".to_string(),
    );
    let p = tail_permille(times.len());
    tally.check(p == Some(990), || {
        format!("{} job samples give p{p:?}, not p99", times.len())
    });
    let busy: f64 = report
        .worker_stats
        .iter()
        .map(|w| w.busy.as_secs_f64())
        .sum();
    CampaignStats {
        p50_ms: percentile(&times, 500).unwrap_or(0.0),
        tail_ms: percentile(&times, p.unwrap_or(500)).unwrap_or(0.0),
        samples: times.len(),
        efficiency: busy / (report.elapsed.as_secs_f64() * 2.0),
    }
}

/// Every replay bench, in one pass.
pub fn run_all(w: Workload, seed: u64) -> (Tally, Vec<Metric>) {
    let mut t = Tally::default();
    let mut m = vec![
        Metric::new(
            "sim.engine_ns_per_node_bit.n3",
            engine_ns_per_node_bit(3),
            "ns",
        ),
        Metric::new(
            "sim.engine_ns_per_node_bit.n8",
            engine_ns_per_node_bit(8),
            "ns",
        ),
    ];
    let mut online = None;
    for protocol in LINK_TARGETS {
        let (ns, wire) = with_variant!(protocol, v => {
            let wire = record_soak_wire(v, seed);
            (controller_ns(v, &wire, &mut t), wire)
        });
        m.push(Metric::new(format!("can.node_bit_ns.{protocol}"), ns, "ns"));
        if protocol == (ProtocolSpec::MajorCan { m: 5 }) {
            online = Some(online_checker(&wire, &mut t));
        }
    }
    let (online_ns, peak) = online.expect("MajorCAN_5 is a link target");
    m.push(Metric::new("abcast.online_ns_per_event", online_ns, "ns"));
    m.push(Metric::new("abcast.peak_live", peak as f64, "count"));
    m.push(Metric::new(
        "hlp.node_bit_ns.TOTCAN",
        totcan_ns(seed, &mut t),
        "ns",
    ));
    let runs = record_script_runs(seed);
    m.push(Metric::new(
        "faults.scripted_disturb_ns",
        scripted_disturb_ns(&runs, &mut t),
        "ns",
    ));
    m.push(Metric::new(
        "abcast.posthoc_us_per_run",
        posthoc_us(&runs, &mut t),
        "us",
    ));
    m.push(Metric::new(
        "faults.attacker_disturb_ns",
        attacker_disturb_ns(seed, &mut t),
        "ns",
    ));
    m.push(Metric::new(
        "traffic.checker_overhead_pct",
        checker_overhead_pct(seed, &mut t),
        "%",
    ));
    m.push(Metric::new("testbed.build_ms", build_ms(w), "ms"));
    m.push(Metric::new(
        "testbed.engine_gain",
        engine_gain(seed, &mut t),
        "ratio",
    ));
    let c = campaign_scaling(seed, &mut t);
    m.push(Metric::new("campaign.job_ms.p50", c.p50_ms, "ms"));
    m.push(Metric::new("campaign.job_ms.p99", c.tail_ms, "ms"));
    m.push(Metric::new(
        "campaign.job_ms.samples",
        c.samples as f64,
        "count",
    ));
    m.push(Metric::new(
        "campaign.parallel_efficiency",
        c.efficiency,
        "ratio",
    ));
    (t, m)
}
