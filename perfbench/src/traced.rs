//! The traced run: a single-threaded replay of a prefix of the workload's
//! inputs, call by call through the public scalar path, with a span around
//! every call into a crate. Its outcomes are checked against the
//! end-to-end campaign on the same inputs; the layer replay benches
//! (`layers`) complete the per-layer table.

use crate::campaigns::{search_config, soak_cell, soak_jobs, Workload};
use crate::layers;
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use crate::Metric;
use majorcan_abcast::{msg_id_of, trace_from_can_events, MsgId, WindowedChecker};
use majorcan_campaign::{
    derive_job_seed, derive_trial_seed, FaultSpec, ProtocolSpec, WorkloadSpec,
};
use majorcan_can::CanEvent;
use majorcan_falsify::{
    build_attack_jobs, build_jobs, generate, generate_attack, run_attack_search, run_search,
    shrink_attack_with, shrink_with, AttackOracle, AttackOutcome, AttackSearchConfig, Geometry,
    Oracle, Schedule, ATTACK_BUDGET,
};
use majorcan_faults::scenario_frame;
use majorcan_hlp::trace_from_hlp_events;
use majorcan_testbed::{budget_for, classify, BusChannel, Outcome, Testbed, HLP_PROBE_PAYLOAD};
use majorcan_traffic::{
    LatencyTracker, ResidencyTracker, TrafficSpec, TrafficStream, DEFAULT_FRAME_BITS,
    DEFAULT_WINDOW,
};
use majorcan_workload::{Release, ReleaseSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("testbed.bits_per_run", "bits"),
    ("testbed.useful_bit_ratio", "ratio"),
    ("testbed.reset_us", "us"),
    ("testbed.build_ms", "ms"),
    ("testbed.engine_gain", "ratio"),
    ("sim.engine_ns_per_node_bit.n3", "ns"),
    ("sim.engine_ns_per_node_bit.n8", "ns"),
    ("can.node_bit_ns.CAN", "ns"),
    ("can.node_bit_ns.MinorCAN", "ns"),
    ("can.node_bit_ns.MajorCAN_5", "ns"),
    ("hlp.node_bit_ns.TOTCAN", "ns"),
    ("faults.scripted_disturb_ns", "ns"),
    ("faults.attacker_disturb_ns", "ns"),
    ("abcast.posthoc_us_per_run", "us"),
    ("abcast.posthoc_share", "ratio"),
    ("abcast.online_ns_per_event", "ns"),
    ("abcast.peak_live", "count"),
    ("traffic.checker_overhead_pct", "%"),
    ("traffic.drive_ns_per_node_bit", "ns"),
    ("traffic.drive_share", "ratio"),
    ("traffic.observe_share", "ratio"),
    ("falsify.generate_us", "us"),
    ("falsify.eval_share", "ratio"),
    ("falsify.shrink_share", "ratio"),
    ("falsify.shrink_evals", "count"),
    ("falsify.attack_shrink_evals", "count"),
    ("campaign.job_ms.p50", "ms"),
    ("campaign.job_ms.p99", "ms"),
    ("campaign.job_ms.samples", "count"),
    ("campaign.parallel_efficiency", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Input size of the traced prefix (per target, or frames per soak cell).
fn trace_size(w: Workload) -> u64 {
    match w {
        Workload::FalsifyLink => 300,
        Workload::FalsifyHlp => 60,
        Workload::Attack => 30,
        Workload::Soak => 300,
    }
}

/// Traced and untraced passes alternate at least this many times each.
const PASS_REPS: usize = 2;

/// What a pass produced, as rows in the shape the end-to-end campaign
/// reports them.
type Outcomes = Vec<String>;

/// Runs `f`, catching a panic as the oracles do (the caller reports it as
/// a `panic` outcome) and closing the spans it left open.
fn evaluate_contained<R>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> Result<R, String> {
    let depth = tr.depth();
    catch_unwind(AssertUnwindSafe(|| f(tr))).map_err(|payload| {
        tr.close_to(depth);
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

fn count_run(tr: &mut Tracer, bits: u64, last_event: Option<u64>) {
    tr.count("testbed.runs", 1);
    tr.count("testbed.bits", bits);
    tr.count("testbed.useful_bits", last_event.map_or(0, |at| at + 1));
}

/// `Testbed::run_schedule`, call by call.
fn eval_schedule(tr: &mut Tracer, tb: &mut Testbed, schedule: &Schedule, budget: u64) -> Outcome {
    let hlp = tb.protocol().is_hlp();
    let n = tb.n_nodes();
    tr.span("testbed.load_script", |_| {
        tb.load_script(schedule.disturbances())
    });
    if hlp {
        tr.span("testbed.broadcast", |_| {
            tb.broadcast(0, HLP_PROBE_PAYLOAD);
        });
    } else {
        tr.span("testbed.enqueue", |_| tb.enqueue(0, scenario_frame()));
    }
    tr.span("testbed.run", |_| tb.run(budget));
    let last = if hlp {
        tb.hlp_events().last().map(|e| e.at)
    } else {
        tb.can_events().last().map(|e| e.at)
    };
    count_run(tr, tb.now(), last);
    let truncated = !hlp && tr.span("testbed.is_drained", |_| !tb.is_drained());
    let verdict = tr.span("abcast.posthoc", |tr| {
        let trace = tr.span("abcast.trace_from_events", |_| {
            if hlp {
                trace_from_hlp_events(tb.hlp_events(), n)
            } else {
                trace_from_can_events(tb.can_events(), n)
            }
        });
        tr.span("abcast.check", |_| trace.check().verdict())
    });
    let outcome = classify(verdict, tb.unfired_len());
    if hlp {
        outcome
    } else {
        outcome.truncate_if(truncated)
    }
}

fn falsify_pass(tr: &mut Tracer, w: Workload, seed: u64) -> Outcomes {
    let cfg = search_config(w, seed, trace_size(w));
    let mut hist: BTreeMap<String, u64> = BTreeMap::new();
    let mut findings: Vec<(ProtocolSpec, u64, u64, Outcome, Schedule)> = Vec::new();
    let mut testbed: Option<Testbed> = None;
    for job in build_jobs(&cfg) {
        let FaultSpec::AdversarialSearch { max_errors } = job.fault else {
            unreachable!("build_jobs makes adversarial-search jobs")
        };
        let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
        let budget = budget_for(job.protocol);
        for trial in 0..job.frames {
            tr.set_run(job.id << 20 | trial);
            let tb = match &mut testbed {
                Some(tb) if tb.protocol() == job.protocol => tb,
                slot => slot.insert(tr.span("testbed.build", |_| {
                    Testbed::builder(job.protocol).nodes(job.n_nodes).build()
                })),
            };
            let schedule = tr.span("falsify.generate", |_| {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                generate(&mut rng, &geo, max_errors)
            });
            let outcome = tr.span("testbed.evaluate", |tr| {
                evaluate_contained(tr, |tr| eval_schedule(tr, tb, &schedule, budget))
            });
            let outcome = outcome.unwrap_or_else(|msg| {
                testbed = None;
                Outcome::CheckerPanic(msg)
            });
            *hist
                .entry(format!("outcome/{}/{}", job.protocol, outcome.token()))
                .or_insert(0) += 1;
            if outcome.is_finding() {
                findings.push((job.protocol, job.id, trial, outcome, schedule));
            }
        }
    }
    // Dedup, cap and shrink as `run_search` does.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.0.to_string(), f.4.key())));
    let mut rows: Vec<String> = hist.iter().map(|(k, v)| format!("{k}={v}")).collect();
    rows.extend(
        findings
            .iter()
            .map(|f| format!("finding {} {} {} {}", f.0, f.1, f.2, f.3.token())),
    );
    let mut queued: BTreeMap<(String, &str), usize> = BTreeMap::new();
    let mut oracle = Oracle::new();
    let mut evals = 0;
    tr.set_run(u64::MAX);
    for (target, _, _, outcome, schedule) in &findings {
        let q = queued
            .entry((target.to_string(), outcome.token()))
            .or_insert(0);
        if *q >= cfg.keep_per_class * 4 {
            continue;
        }
        *q += 1;
        let shrunk = tr.span("falsify.shrink", |_| {
            shrink_with(
                &mut oracle,
                *target,
                schedule,
                cfg.n_nodes,
                budget_for(*target),
            )
        });
        evals += shrunk.evaluations as u64;
    }
    tr.count("falsify.shrink_evals", evals);
    rows.push(format!("shrink_evaluations={evals}"));
    rows
}

fn falsify_reference(w: Workload, seed: u64) -> Outcomes {
    let cfg = search_config(w, seed, trace_size(w));
    let r = run_search(&cfg, &majorcan_campaign::CampaignOptions::quiet(1), None)
        .expect("an in-memory search does no I/O");
    let mut rows: Vec<String> = r
        .totals
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("outcome/"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    rows.extend(r.findings.iter().map(|f| {
        format!(
            "finding {} {} {} {}",
            f.target,
            f.job_id,
            f.trial,
            f.outcome.token()
        )
    }));
    rows.push(format!("shrink_evaluations={}", r.shrink_evaluations));
    rows
}

/// `AttackOracle::evaluate` (`Testbed::run_attack` plus the bus-off
/// scan), call by call.
fn eval_attack(
    tr: &mut Tracer,
    tb: &mut Testbed,
    schedule: &majorcan_falsify::AttackSchedule,
) -> AttackOutcome {
    let n = tb.n_nodes();
    tr.span("testbed.load_attack", |_| {
        tb.load_attack(schedule.actions(), schedule.cost())
    });
    tr.span("testbed.enqueue", |_| tb.enqueue(0, scenario_frame()));
    tr.span("testbed.run", |_| tb.run(ATTACK_BUDGET));
    count_run(tr, tb.now(), tb.can_events().last().map(|e| e.at));
    let verdict = tr.span("abcast.posthoc", |tr| {
        let trace = tr.span("abcast.trace_from_events", |_| {
            trace_from_can_events(tb.can_events(), n)
        });
        tr.span("abcast.check", |_| trace.check().verdict())
    });
    let bus_off = tb
        .can_events()
        .iter()
        .find(|e| matches!(e.event, CanEvent::WentBusOff))
        .map(|e| e.node.index());
    match (bus_off, classify(verdict, tb.unfired_len())) {
        (_, Outcome::CheckerPanic(msg)) => AttackOutcome::Panic(msg),
        (Some(node), _) => AttackOutcome::VictimBusOff { node },
        (None, Outcome::Violation(v)) => AttackOutcome::Violation(v),
        (None, Outcome::Vacuous { unfired } | Outcome::Truncated { unfired }) => {
            AttackOutcome::Vacuous { unfired }
        }
        (None, Outcome::Consistent) => AttackOutcome::Survived,
    }
}

fn attack_pass(tr: &mut Tracer, seed: u64) -> Outcomes {
    let cfg = AttackSearchConfig::new(seed, trace_size(Workload::Attack));
    let mut hist: BTreeMap<String, u64> = BTreeMap::new();
    let mut findings = Vec::new();
    let mut testbed: Option<Testbed> = None;
    for job in build_attack_jobs(&cfg) {
        let FaultSpec::AttackSearch { max_cost } = job.fault else {
            unreachable!("build_attack_jobs makes attack jobs")
        };
        let geo = Geometry::for_protocol(job.protocol, job.n_nodes);
        for trial in 0..job.frames {
            tr.set_run(job.id << 20 | trial);
            let tb = match &mut testbed {
                Some(tb) if tb.protocol() == job.protocol => tb,
                slot => slot.insert(tr.span("testbed.build", |_| {
                    Testbed::builder(job.protocol)
                        .nodes(job.n_nodes)
                        .budget(ATTACK_BUDGET)
                        .shutoff_at_warning(false)
                        .build()
                })),
            };
            let schedule = tr.span("falsify.generate", |_| {
                let mut rng = StdRng::seed_from_u64(derive_trial_seed(job.seed, trial));
                generate_attack(&mut rng, &geo, max_cost)
            });
            let outcome = tr.span("testbed.evaluate", |tr| {
                evaluate_contained(tr, |tr| eval_attack(tr, tb, &schedule))
            });
            let outcome = outcome.unwrap_or_else(|msg| {
                testbed = None;
                AttackOutcome::Panic(msg)
            });
            *hist
                .entry(format!("attack/{}/{}", job.protocol, outcome.token()))
                .or_insert(0) += 1;
            if outcome.is_break() {
                findings.push((job.protocol, job.id, trial, outcome, schedule));
            }
        }
    }
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.0.to_string(), f.4.key())));
    let mut rows: Vec<String> = hist.iter().map(|(k, v)| format!("{k}={v}")).collect();
    rows.extend(
        findings
            .iter()
            .map(|f| format!("finding {} {} {} {}", f.0, f.1, f.2, f.3.token())),
    );
    let mut queued: BTreeMap<(String, &str), usize> = BTreeMap::new();
    let mut oracle = AttackOracle::new();
    let mut evals = 0;
    tr.set_run(u64::MAX);
    for (target, _, _, outcome, schedule) in &findings {
        let q = queued
            .entry((target.to_string(), outcome.token()))
            .or_insert(0);
        if *q >= cfg.keep_per_class * 4 {
            continue;
        }
        *q += 1;
        let shrunk = tr.span("falsify.shrink", |_| {
            shrink_attack_with(&mut oracle, *target, schedule, cfg.n_nodes)
        });
        evals += shrunk.evaluations as u64;
    }
    tr.count("falsify.attack_shrink_evals", evals);
    rows.push(format!("shrink_evaluations={evals}"));
    rows
}

fn attack_reference(seed: u64) -> Outcomes {
    let cfg = AttackSearchConfig::new(seed, trace_size(Workload::Attack));
    let r = run_attack_search(&cfg, &majorcan_campaign::CampaignOptions::quiet(1), None)
        .expect("an in-memory search does no I/O");
    let mut rows: Vec<String> = r
        .totals
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("attack/"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    rows.extend(r.findings.iter().map(|f| {
        format!(
            "finding {} {} {} {}",
            f.target,
            f.job_id,
            f.trial,
            f.outcome.token()
        )
    }));
    rows.push(format!("shrink_evaluations={}", r.shrink_evaluations));
    rows
}

/// Forwards a stream while logging each release for the latency tracker.
struct Tap<'a> {
    inner: &'a mut TrafficStream,
    log: &'a mut Vec<(u64, MsgId)>,
}

impl ReleaseSource for Tap<'_> {
    fn next_at(&self) -> Option<u64> {
        self.inner.next_at()
    }

    fn pop(&mut self) -> Option<Release> {
        let release = self.inner.pop()?;
        self.log.push((release.at, msg_id_of(&release.frame)));
        Some(release)
    }
}

/// Bits `run_soak` simulates per chunk between event-log drains.
const SOAK_CHUNK: u64 = 2_048;

/// The soak cells' compared counters, as `SoakOutcome::to_result` names
/// them.
const SOAK_KEYS: [&str; 8] = [
    "released",
    "deliveries",
    "successes",
    "lat_p50",
    "lat_p99",
    "peak_live",
    "max_gap",
    "window_exceeded",
];

/// `run_soak`'s loop over a clean bus, call by call.
fn soak_pass(tr: &mut Tracer, seed: u64) -> Outcomes {
    let mut rows = Vec::new();
    for job in soak_jobs(seed, trace_size(Workload::Soak)) {
        let WorkloadSpec::SustainedTraffic {
            load,
            frames,
            sporadic_permille,
        } = job.workload
        else {
            unreachable!("soak_jobs makes sustained-traffic jobs")
        };
        tr.set_run(job.id);
        let n = job.n_nodes;
        let mut tb = tr.span("testbed.build", |_| {
            Testbed::builder(job.protocol).nodes(n).build()
        });
        tr.span("testbed.reset", |_| {
            tb.set_shutoff_at_warning(false);
            tb.reset_with(BusChannel::NoFaults);
        });
        let traffic = TrafficSpec::mixed_load(n, load, DEFAULT_FRAME_BITS, sporadic_permille);
        let mut stream = TrafficStream::new(traffic, derive_trial_seed(job.seed, 0), frames);
        let mut checker = WindowedChecker::new(n, DEFAULT_WINDOW);
        let mut latency = LatencyTracker::new(DEFAULT_WINDOW);
        let mut residency = ResidencyTracker::new(n);
        let cap = (frames as f64 * DEFAULT_FRAME_BITS as f64 / load) as u64 * 2 + 500_000;
        let mut releases = Vec::new();
        let (mut deliveries, mut successes, mut events_seen) = (0u64, 0u64, 0u64);
        let mut last_event = None;
        let drained = loop {
            tr.span("traffic.drive", |_| {
                let mut tap = Tap {
                    inner: &mut stream,
                    log: &mut releases,
                };
                tb.drive_source(&mut tap, SOAK_CHUNK);
            });
            let events = tr.span("testbed.take_can_events", |_| tb.take_can_events());
            tr.span("abcast.online", |_| {
                for e in &events {
                    checker.push_can(e);
                }
            });
            tr.span("traffic.observe", |_| {
                for (at, msg) in releases.drain(..) {
                    latency.note_release(at, msg);
                }
                for e in &events {
                    latency.observe(e);
                    residency.observe(e);
                }
            });
            events_seen += events.len() as u64;
            last_event = events.last().map(|e| e.at).or(last_event);
            for e in &events {
                match e.event {
                    CanEvent::Delivered { .. } => deliveries += 1,
                    CanEvent::TxSucceeded { .. } => successes += 1,
                    _ => {}
                }
            }
            if stream.is_exhausted() && tb.is_drained() {
                break true;
            }
            if tb.now() >= cap {
                break false;
            }
        };
        tr.count("abcast.online_events", events_seen);
        tr.count("traffic.node_bits", tb.now() * n as u64);
        count_run(tr, tb.now(), last_event);
        let values = [
            stream.released(),
            deliveries,
            successes,
            latency.delivery.quantile_permille(500),
            latency.delivery.quantile_permille(990),
            checker.peak_live() as u64,
            checker.max_observed_gap(),
            checker.window_exceeded(),
        ];
        let report = checker.finish();
        let _ = residency.finish(tb.now());
        for (key, v) in SOAK_KEYS.iter().zip(values) {
            rows.push(format!("cell {} {key}={v}", job.id));
        }
        rows.push(format!("cell {} bits={}", job.id, tb.now()));
        rows.push(format!("cell {} drained={}", job.id, u64::from(drained)));
        rows.push(format!(
            "cell {} verdict/{}=1",
            job.id,
            report.verdict().token()
        ));
    }
    rows
}

fn soak_reference(seed: u64) -> Outcomes {
    let mut rows = Vec::new();
    for job in soak_jobs(seed, trace_size(Workload::Soak)) {
        let r = soak_cell(&job);
        for key in SOAK_KEYS {
            rows.push(format!("cell {} {key}={}", job.id, r.counters.get(key)));
        }
        rows.push(format!("cell {} bits={}", job.id, r.bits));
        rows.push(format!(
            "cell {} drained={}",
            job.id,
            r.counters.get("drained")
        ));
        let verdict = r
            .counters
            .iter()
            .find_map(|(k, _)| k.strip_prefix("verdict/").map(str::to_string))
            .unwrap_or_else(|| "missing".into());
        rows.push(format!("cell {} verdict/{verdict}=1", job.id));
    }
    rows
}

fn pass(tr: &mut Tracer, w: Workload, seed: u64) -> Outcomes {
    tr.span("bench.pass", |tr| match w {
        Workload::FalsifyLink | Workload::FalsifyHlp => falsify_pass(tr, w, seed),
        Workload::Attack => attack_pass(tr, seed),
        Workload::Soak => soak_pass(tr, seed),
    })
}

fn reference(w: Workload, seed: u64) -> Outcomes {
    match w {
        Workload::FalsifyLink | Workload::FalsifyHlp => falsify_reference(w, seed),
        Workload::Attack => attack_reference(seed),
        Workload::Soak => soak_reference(seed),
    }
}

fn compare(tally: &mut Tally, what: &str, got: &Outcomes, want: &Outcomes) {
    let got_set: BTreeSet<&String> = got.iter().collect();
    let want_set: BTreeSet<&String> = want.iter().collect();
    for row in want {
        tally.check(got_set.contains(row), || format!("{what}: missing {row}"));
    }
    for row in got.iter().filter(|r| !want_set.contains(r)) {
        tally.check(false, || format!("{what}: unexpected {row}"));
    }
}

fn share(part_ns: u64, whole_ns: u64) -> f64 {
    if whole_ns == 0 {
        0.0
    } else {
        part_ns as f64 / whole_ns as f64
    }
}

/// Span-derived per-layer metrics of the traced pass.
fn span_metrics(tr: &Tracer) -> Vec<Metric> {
    let stats = tr.stats();
    let get = |name: &str| stats.get(name).copied().unwrap_or_default();
    let whole = get("bench.pass").total_ns;
    let mean_us = |names: &[&str]| {
        let (calls, ns) = names
            .iter()
            .map(|n| get(n))
            .fold((0, 0), |(c, t), s| (c + s.calls, t + s.total_ns));
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e3
        }
    };
    let runs = tr.get("testbed.runs");
    let bits = tr.get("testbed.bits");
    let node_bits = tr.get("traffic.node_bits");
    vec![
        Metric::new(
            "testbed.bits_per_run",
            if runs == 0 {
                0.0
            } else {
                bits as f64 / runs as f64
            },
            "bits",
        ),
        Metric::new(
            "testbed.useful_bit_ratio",
            share(tr.get("testbed.useful_bits"), bits),
            "ratio",
        ),
        Metric::new(
            "testbed.reset_us",
            mean_us(&[
                "testbed.load_script",
                "testbed.load_attack",
                "testbed.reset",
            ]),
            "us",
        ),
        Metric::new(
            "abcast.posthoc_share",
            share(get("abcast.posthoc").total_ns, whole),
            "ratio",
        ),
        Metric::new(
            "traffic.drive_ns_per_node_bit",
            if node_bits == 0 {
                0.0
            } else {
                get("traffic.drive").total_ns as f64 / node_bits as f64
            },
            "ns",
        ),
        Metric::new(
            "traffic.drive_share",
            share(get("traffic.drive").total_ns, whole),
            "ratio",
        ),
        Metric::new(
            "traffic.observe_share",
            share(get("traffic.observe").total_ns, whole),
            "ratio",
        ),
        Metric::new("falsify.generate_us", mean_us(&["falsify.generate"]), "us"),
        Metric::new(
            "falsify.eval_share",
            share(get("testbed.evaluate").total_ns, whole),
            "ratio",
        ),
        Metric::new(
            "falsify.shrink_share",
            share(get("falsify.shrink").total_ns, whole),
            "ratio",
        ),
        Metric::new(
            "falsify.shrink_evals",
            tr.get("falsify.shrink_evals") as f64,
            "count",
        ),
        Metric::new(
            "falsify.attack_shrink_evals",
            tr.get("falsify.attack_shrink_evals") as f64,
            "count",
        ),
    ]
}

/// Per-crate self-time table of the traced pass.
fn crate_table(tr: &Tracer) -> String {
    let by_crate = tr.self_ns_by_crate();
    let whole: u64 = by_crate.values().sum();
    let mut out = String::from("crate      self_ms   share\n");
    for (krate, ns) in &by_crate {
        out.push_str(&format!(
            "{krate:<9} {:>8.2} {:>7.4}\n",
            *ns as f64 / 1e6,
            share(*ns, whole)
        ));
    }
    let mut calls = String::from("span                          calls   total_ms    self_ms\n");
    for (name, s) in tr.stats() {
        calls.push_str(&format!(
            "{name:<28} {:>7} {:>10.3} {:>10.3}\n",
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        ));
    }
    out + &calls
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let seed0 = derive_job_seed(seed, 0);

    // Untraced and traced passes alternate for half the run; the traced
    // pass kept is the last one. The layer benches take the rest.
    let want = reference(w, seed0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut kept = Tracer::new(true);
    let deadline = Instant::now() + std::time::Duration::from_secs(seconds) / 2;
    while plain.len() < PASS_REPS || Instant::now() < deadline {
        let mut off = Tracer::new(false);
        let t0 = Instant::now();
        let got = pass(&mut off, w, seed0);
        plain.push(t0.elapsed().as_secs_f64());
        compare(&mut tally, "untraced pass", &got, &want);

        let mut on = Tracer::new(true);
        let t0 = Instant::now();
        let got = pass(&mut on, w, seed0);
        traced.push(t0.elapsed().as_secs_f64());
        compare(&mut tally, "traced pass", &got, &want);
        kept = on;
    }
    let overhead =
        (median(&traced).expect("PASS_REPS > 0") / median(&plain).expect("PASS_REPS > 0") - 1.0)
            * 100.0;
    println!(
        "traced pass: {} spans, outcomes {} checked, {} pairs, untraced {:.3} s, traced {:.3} s",
        kept.spans().len(),
        tally.attempted,
        plain.len(),
        median(&plain).unwrap_or(0.0),
        median(&traced).unwrap_or(0.0)
    );

    let mut metrics = span_metrics(&kept);
    metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));
    let (layer_tally, layer_metrics) = layers::run_all(w, seed0);
    tally.merge(layer_tally);
    metrics.extend(layer_metrics);

    // Report in the order of PER_LAYER; every name must be present once.
    let mut ordered = Vec::new();
    for (name, unit) in PER_LAYER {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == name).collect();
        assert_eq!(
            found.len(),
            1,
            "per-layer metric {name} reported {} times",
            found.len()
        );
        assert_eq!(found[0].unit, unit, "unit of {name}");
        ordered.push(found[0].clone());
    }

    let table = crate_table(&kept);
    print!("{table}");
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let spans = dir.join(format!("spans-{}.jsonl", w.name()));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&spans)?);
        kept.write_jsonl(&mut f)?;
        f.flush()?;
        let mut text = format!("fingerprint {}\n{table}", crate::fingerprint());
        for m in &ordered {
            text.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        std::fs::write(dir.join(format!("layers-{}.txt", w.name())), text)?;
        Ok(spans)
    });
    match written {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => tally.check(false, || format!("writing the trace: {e}")),
    }
    (tally, ordered)
}
