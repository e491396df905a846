//! The four campaigns, run through the library calls their bins' `main`
//! functions make, and the correctness checks on their outputs.
//!
//! Every campaign runs on one worker: at `--jobs 2` on a 2-core machine the
//! same `falsify` run swings by a third from run to run, at `--jobs 1` by
//! about 5% (see the benchmark's README).

use crate::stats::Tally;
use majorcan_campaign::{
    run_campaign_in_memory_scoped, CampaignOptions, CampaignReport, FaultSpec, Job, JobResult,
    ProtocolSpec, WorkloadSpec,
};
use majorcan_falsify::{
    load_attack_corpus, load_corpus, repo_attack_corpus_dir, repo_corpus_dir, run_attack_search,
    run_search, AttackSearchConfig, AttackSearchReport, SearchConfig, SearchReport,
};
use majorcan_traffic::{run_soak, SoakSpec};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `falsify` over CAN, MinorCAN and MajorCAN_5: short one-frame
    /// episodes where the fixed per-run costs dominate.
    FalsifyLink,
    /// `falsify` over TOTCAN: the `hlp` timer/CONFIRM path.
    FalsifyHlp,
    /// `attack_surface` over CAN, MinorCAN and MajorCAN_3/4/5.
    Attack,
    /// The clean E17 soak grid: long streams, online checker on.
    Soak,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FalsifyLink,
        Workload::FalsifyHlp,
        Workload::Attack,
        Workload::Soak,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FalsifyLink => "falsify_link",
            Workload::FalsifyHlp => "falsify_hlp",
            Workload::Attack => "attack",
            Workload::Soak => "soak",
        }
    }

    /// The default seed of the bin the workload runs.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FalsifyLink | Workload::FalsifyHlp => 0xFA15,
            Workload::Attack => 0xA77AC4,
            Workload::Soak => 0x7AF1C,
        }
    }

    /// The throughput metric's name for this workload.
    pub fn rate_name(self) -> &'static str {
        match self {
            Workload::FalsifyLink | Workload::FalsifyHlp => "schedules_per_s",
            Workload::Attack => "attacks_per_s",
            Workload::Soak => "frames_per_s",
        }
    }

    /// Input size of one timed repetition (schedules or attacks per
    /// target, frames per soak cell).
    pub fn repetition_size(self) -> u64 {
        match self {
            Workload::FalsifyLink => 30_000,
            Workload::FalsifyHlp => 1_000,
            Workload::Attack => 300,
            Workload::Soak => 2_500,
        }
    }

    /// Campaigns one timed repetition is made of, each from its own seed
    /// and timed on its own. `falsify_hlp`'s cost per schedule depends on
    /// how many findings a seed's campaign shrinks, so one 1 000-schedule
    /// campaign varies by about a fifth from seed to seed; four of them
    /// average that out while each stays short enough for its fastest
    /// repetition to fall between the host's slow phases.
    pub fn parts(self) -> u64 {
        match self {
            Workload::FalsifyHlp => 4,
            _ => 1,
        }
    }

    /// Input size of the reference run at the default seed.
    pub fn reference_size(self) -> u64 {
        match self {
            Workload::FalsifyLink => 2_000,
            Workload::FalsifyHlp => 300,
            Workload::Attack => 100,
            Workload::Soak => 1_500,
        }
    }

    /// Runs the workload's campaign once at `size` from `seed`.
    pub fn run(self, seed: u64, size: u64) -> Run {
        match self {
            Workload::FalsifyLink | Workload::FalsifyHlp => {
                let cfg = search_config(self, seed, size);
                let report = run_search(&cfg, &CampaignOptions::quiet(1), None)
                    .expect("an in-memory search does no I/O");
                Run::Falsify(cfg, report)
            }
            Workload::Attack => {
                let cfg = AttackSearchConfig::new(seed, size);
                let report = run_attack_search(&cfg, &CampaignOptions::quiet(1), None)
                    .expect("an in-memory search does no I/O");
                Run::Attack(cfg, report)
            }
            Workload::Soak => Run::Soak(run_campaign_in_memory_scoped(
                &soak_jobs(seed, size),
                &CampaignOptions::quiet(1),
                || (),
                |_, job| soak_cell(job),
            )),
        }
    }
}

/// The link targets of `falsify_link`.
pub const LINK_TARGETS: [ProtocolSpec; 3] = [
    ProtocolSpec::StandardCan,
    ProtocolSpec::MinorCan,
    ProtocolSpec::MajorCan { m: 5 },
];

/// The `falsify` configuration of a falsify workload.
pub fn search_config(workload: Workload, seed: u64, size: u64) -> SearchConfig {
    let mut cfg = SearchConfig::new(seed, size);
    cfg.targets = match workload {
        Workload::FalsifyHlp => vec![ProtocolSpec::TotCan],
        _ => LINK_TARGETS.to_vec(),
    };
    cfg
}

/// Soak grid: the `traffic` bin's default shape.
pub const SOAK_LOADS: [u64; 3] = [30, 60, 90];
pub const SOAK_NODES: usize = 8;
pub const SOAK_SPORADIC_PERMILLE: u16 = 250;

/// The clean E17 grid's jobs, built as the `traffic` bin builds them.
pub fn soak_jobs(seed: u64, frames: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for load in SOAK_LOADS {
        for protocol in LINK_TARGETS {
            jobs.push(Job::new(
                jobs.len() as u64,
                seed,
                protocol,
                FaultSpec::None,
                WorkloadSpec::SustainedTraffic {
                    load: load as f64 / 100.0,
                    frames,
                    sporadic_permille: SOAK_SPORADIC_PERMILLE,
                },
                SOAK_NODES,
                frames,
            ));
        }
    }
    jobs
}

/// One soak cell, as the `traffic` bin runs it.
pub fn soak_cell(job: &Job) -> JobResult {
    run_soak(&SoakSpec::for_job(job), None)
        .expect("a soak without an exporter does no I/O")
        .to_result(job)
}

/// One finished campaign.
pub enum Run {
    Falsify(SearchConfig, SearchReport),
    Attack(AttackSearchConfig, AttackSearchReport),
    Soak(CampaignReport),
}

const FINDING_TOKENS: [&str; 4] = ["double", "omission", "validity", "panic"];
const AGREEMENT_TOKENS: [&str; 3] = ["double", "omission", "validity"];

impl Run {
    /// Operations the throughput counts: schedules, attacks or frames.
    pub fn ops(&self) -> u64 {
        match self {
            Run::Falsify(cfg, r) => cfg.targets.iter().map(|&t| r.explored_for(t)).sum(),
            Run::Attack(cfg, r) => cfg.targets.iter().map(|&t| r.explored_for(t)).sum(),
            Run::Soak(r) => r.results.iter().map(|j| j.counters.get("released")).sum(),
        }
    }

    /// Checks the protocol invariants and the harness health of the run.
    /// Operations are schedules, attacks (plus one cost-margin check per
    /// MajorCAN target) and soak cells.
    pub fn check(&self) -> Tally {
        let mut t = Tally::default();
        match self {
            Run::Falsify(cfg, r) => {
                for &target in &cfg.targets {
                    let explored = r.explored_for(target);
                    t.check(explored == cfg.schedules_per_target, || {
                        format!(
                            "{target}: explored {explored} of {}",
                            cfg.schedules_per_target
                        )
                    });
                    let bad: u64 = outcome_counts(&r.totals.counters, "outcome", target)
                        .into_iter()
                        .filter(|(tok, _)| {
                            tok == "panic" || tok == "truncated" || major_finding(target, tok)
                        })
                        .map(|(tok, n)| {
                            println!("MISMATCH {target}: {n} schedule(s) ended {tok}");
                            n
                        })
                        .sum();
                    t.add(explored, bad);
                }
                for e in r
                    .entries
                    .iter()
                    .filter(|e| major_finding(e.protocol, &e.expected))
                {
                    println!("MISMATCH {} counterexample: {}", e.protocol, e.schedule);
                }
            }
            Run::Attack(cfg, r) => {
                for &target in &cfg.targets {
                    let explored = r.explored_for(target);
                    let panics = r.totals.counters.get(&format!("attack/{target}/panic"));
                    if panics > 0 {
                        println!("MISMATCH {target}: {panics} attack evaluation(s) panicked");
                    }
                    t.add(explored, panics);
                }
                let floor = cheapest_agreement_break(r, ProtocolSpec::StandardCan);
                for &target in &cfg.targets {
                    if !matches!(target, ProtocolSpec::MajorCan { .. }) {
                        continue;
                    }
                    let cost = cheapest_agreement_break(r, target);
                    let holds = match (cost, floor) {
                        (None, _) => true,
                        (Some(c), Some(f)) => c > f,
                        (Some(_), None) => false,
                    };
                    t.check(holds, || {
                        format!("{target}: cheapest agreement break {cost:?} vs CAN's {floor:?}")
                    });
                }
            }
            Run::Soak(r) => {
                t.add(r.failures.len() as u64, r.failures.len() as u64);
                for cell in &r.results {
                    let c = &cell.counters;
                    let ok = c.get("drained") == 1
                        && c.get("window_exceeded") == 0
                        && c.get("verdict/consistent") == 1;
                    t.check(ok, || {
                        format!(
                            "soak cell {}: drained {} window_exceeded {} consistent {}",
                            cell.job_id,
                            c.get("drained"),
                            c.get("window_exceeded"),
                            c.get("verdict/consistent")
                        )
                    });
                }
            }
        }
        t
    }

    /// The canonical rows the reference digest is compared on: the
    /// per-target outcome histogram plus shrunk entry names, the
    /// cost-to-break table, or the sorted soak JSONL rows.
    pub fn digest_rows(&self) -> Vec<String> {
        let hist = |prefix: &str, counters: &majorcan_campaign::Counters, t: ProtocolSpec| {
            let cells: Vec<String> = outcome_counts(counters, prefix, t)
                .into_iter()
                .map(|(tok, n)| format!("{tok}={n}"))
                .collect();
            format!("hist {t} {}", cells.join(" "))
        };
        match self {
            Run::Falsify(cfg, r) => {
                let mut rows: Vec<String> = cfg
                    .targets
                    .iter()
                    .map(|&t| hist("outcome", &r.totals.counters, t))
                    .collect();
                rows.extend(r.entries.iter().map(|e| format!("entry {}", e.file_name())));
                rows
            }
            Run::Attack(cfg, r) => {
                let mut rows: Vec<String> = cfg
                    .targets
                    .iter()
                    .map(|&t| hist("attack", &r.totals.counters, t))
                    .collect();
                for &t in &cfg.targets {
                    let cells: Vec<String> = ["busoff", "double", "omission", "validity", "panic"]
                        .iter()
                        .map(|class| {
                            let cost = r.cheapest_for(t, class).map(|e| e.provenance.cost);
                            format!("{class}={}", cost.map_or("-".into(), |c| c.to_string()))
                        })
                        .collect();
                    rows.push(format!("cost {t} {}", cells.join(" ")));
                }
                rows.extend(r.entries.iter().map(|e| format!("entry {}", e.file_name())));
                rows
            }
            Run::Soak(r) => {
                let mut rows: Vec<String> = r
                    .results
                    .iter()
                    .map(|j| format!("row {}", j.to_json()))
                    .collect();
                rows.sort();
                rows
            }
        }
    }
}

fn is_finding(token: &str) -> bool {
    FINDING_TOKENS.contains(&token)
}

fn major_finding(target: ProtocolSpec, token: &str) -> bool {
    matches!(target, ProtocolSpec::MajorCan { .. }) && is_finding(token)
}

/// `(token, count)` for every `<prefix>/<target>/<token>` counter.
fn outcome_counts(
    counters: &majorcan_campaign::Counters,
    prefix: &str,
    target: ProtocolSpec,
) -> Vec<(String, u64)> {
    let key = format!("{prefix}/{target}/");
    counters
        .iter()
        .filter_map(|(k, v)| k.strip_prefix(&key).map(|tok| (tok.to_string(), v)))
        .collect()
}

fn cheapest_agreement_break(r: &AttackSearchReport, target: ProtocolSpec) -> Option<u64> {
    AGREEMENT_TOKENS
        .iter()
        .filter_map(|class| r.cheapest_for(target, class))
        .map(|e| e.provenance.cost)
        .min()
}

/// Replays every `corpus/` entry (benign and attack) to its expected
/// token.
pub fn replay_corpus() -> Tally {
    let mut t = Tally::default();
    match load_corpus(&repo_corpus_dir()) {
        Ok(entries) => {
            for e in &entries {
                let got = e.replay();
                t.check(got.token() == e.expected, || {
                    format!(
                        "corpus {}: {} (expected {})",
                        e.file_name(),
                        got.token(),
                        e.expected
                    )
                });
            }
        }
        Err(e) => t.check(false, || format!("corpus: {e}")),
    }
    match load_attack_corpus(&repo_attack_corpus_dir()) {
        Ok(entries) => {
            for e in &entries {
                let got = e.replay();
                t.check(got.token() == e.expected, || {
                    format!(
                        "attack corpus {}: {} (expected {})",
                        e.file_name(),
                        got.token(),
                        e.expected
                    )
                });
            }
        }
        Err(e) => t.check(false, || format!("attack corpus: {e}")),
    }
    t
}
