//! The MajorCAN reproduction's benchmark: four campaign workloads timed
//! end to end, and a traced pass that attributes their cost to the crates
//! below. See `README.md` next to this package for the workloads, the
//! metrics and what each should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <falsify_link|falsify_hlp|attack|soak> [--seed <u64>] \
//!     [--seconds <n>] [--trace <0|1>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`).

mod campaigns;
mod layers;
mod record;
mod reference;
mod stats;
mod trace;
mod traced;

use campaigns::Workload;
use majorcan_campaign::derive_job_seed;
use stats::{median, percentile, quiet_median, tail_permille, Tally};
use std::time::{Duration, Instant};

/// Timed repetitions a run makes even when `--seconds` is already spent.
const MIN_REPETITIONS: usize = 3;
/// Minimal-input invocations timed back to back before each part of a
/// repetition; the fastest of them is that part's set-up sample.
const SETUP_PER_PART: usize = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A metric name the report may carry.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <falsify_link|falsify_hlp|attack|soak> [--seed <u64>] \
         [--seconds <n>] [--trace <0|1>] | --write-reference"
    );
    std::process::exit(2);
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => seed = Some(parse_u64(value()).unwrap_or_else(|| usage("bad --seed"))),
            "--seconds" => {
                seconds = parse_u64(value())
                    .filter(|s| (1..=600).contains(s))
                    .unwrap_or_else(|| usage("--seconds wants 1..=600"))
            }
            "--trace" => {
                trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    }
}

/// Output of a shell command, trimmed, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores, compiler and source revision the result was measured with.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "cores={cores} rustc=\"{}\" rev={}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Identity checks that precede any timing: the reference digest at the
/// default seed and the corpus replay.
fn identity_checks(workload: Workload) -> Tally {
    let mut t = reference::check(workload, reference::REFERENCE);
    t.merge(campaigns::replay_corpus());
    println!(
        "identity {}: {} checked, {} failed",
        workload.name(),
        t.attempted,
        t.failed
    );
    t
}

/// Wall time of the workload's campaign at its smallest input — the
/// fixed cost every invocation pays.
fn setup_sample(workload: Workload) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(workload.run(workload.default_seed(), 1));
    t0.elapsed().as_secs_f64()
}

fn end_to_end(args: &Args) -> (Tally, Vec<Metric>) {
    let w = args.workload;
    let mut tally = identity_checks(w);
    let size = w.repetition_size();
    let seeds: Vec<u64> = (0..w.parts())
        .map(|k| derive_job_seed(args.seed, k))
        .collect();
    // Warm-up: one untimed repetition, which fixes each part's output.
    let mut ops = 0;
    let mut rows = Vec::new();
    for &seed in &seeds {
        let first = w.run(seed, size);
        tally.merge(first.check());
        ops += first.ops();
        rows.push(first.digest_rows());
    }

    // The same campaigns repeat until `--seconds` are spent, each
    // repetition checked identical to the first. A set-up sample, the
    // fastest of a few back-to-back set-ups, is taken before every part;
    // `setup_s` is the median of those taken with the quarter of the part
    // runs least slowed down against the same part's fastest run. The
    // host's contention stretches every timing, in slow phases of seconds
    // and in bursts within a millisecond: the median of single set-ups
    // over a run moved by up to two thirds between runs while the fastest
    // repetition moved by a fifth.
    let mut setup = Vec::new();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut reps = 0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while reps < MIN_REPETITIONS || Instant::now() < deadline {
        reps += 1;
        for (k, &seed) in seeds.iter().enumerate() {
            setup.push(
                (0..SETUP_PER_PART)
                    .map(|_| setup_sample(w))
                    .fold(f64::INFINITY, f64::min),
            );
            let t0 = Instant::now();
            let run = w.run(seed, size);
            secs[k].push(t0.elapsed().as_secs_f64());
            tally.check(run.digest_rows() == rows[k], || {
                format!("repetition {reps} of part {k} differs from the first")
            });
        }
    }
    // Each part's fastest repetition; their sum is the least disturbed
    // time of one whole repetition.
    let fastest: Vec<f64> = secs
        .iter()
        .map(|part| part.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let rate = ops as f64 / fastest.iter().sum::<f64>();
    // Slow-down of every part run, in the order the set-up samples were
    // taken.
    let slowdown: Vec<f64> = (0..reps)
        .flat_map(|i| {
            secs.iter()
                .zip(&fastest)
                .map(move |(part, best)| part[i] / best)
        })
        .collect();
    let ms: Vec<f64> = (0..reps)
        .map(|i| secs.iter().map(|part| part[i]).sum::<f64>() * 1e3)
        .collect();
    let setup_s = quiet_median(&setup, &slowdown).expect("at least one repetition");
    println!(
        "setup_s {setup_s} s over the least slowed quarter of part runs, {} s over all {}",
        median(&setup).expect("at least one repetition"),
        setup.len()
    );
    let shown: Vec<String> = ms.iter().map(|m| format!("{m:.0}")).collect();
    println!("repetition ms: {}", shown.join(" "));
    println!(
        "{} = {rate} 1/s ({ops} per repetition of {} part(s), each part's fastest of {reps})",
        w.rate_name(),
        seeds.len()
    );
    let p50 = percentile(&ms, 500).expect("at least one repetition");
    match tail_permille(ms.len()) {
        Some(p) if p > 500 => {
            let tail = percentile(&ms, p).expect("non-empty");
            println!(
                "repetition_ms p50 {p50} p{} {tail} (n={})",
                p as f64 / 10.0,
                ms.len()
            );
        }
        _ => println!("repetition_ms p50 {p50} (n={})", ms.len()),
    }
    println!("fail_rate = {} ratio", tally.fail_rate());
    let metrics = vec![
        Metric::new("ops_per_s", rate, "1/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("pass_rate", 1.0 - tally.fail_rate(), "ratio"),
    ];
    (tally, metrics)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
        std::fs::write(path, reference::render()).expect("write reference.txt");
        println!("wrote {path}");
        return;
    }
    let args = parse_args(&argv);
    println!(
        "perfbench workload={} seed={:#x} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint());
    let (tally, metrics) = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    for m in &metrics {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid() {
        assert!(valid_name("can.node_bit_ns.MajorCAN_5"));
        assert!(valid_name("campaign.job_ms.p99"));
        assert!(!valid_name(""));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("x/y"));
        for name in traced::PER_LAYER.iter().map(|(n, _)| *n) {
            assert!(valid_name(name), "{name}");
        }
        for name in ["ops_per_s", "setup_s", "peak_rss_mb", "pass_rate"] {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn per_layer_names_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in traced::PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let listed = manifest.matches("\"better\"").count();
        assert_eq!(
            listed,
            traced::PER_LAYER.len() + 4,
            "every metric listed once"
        );
    }

    #[test]
    fn result_line_shape() {
        let t = Tally {
            attempted: 5,
            failed: 1,
        };
        let line = result_json(t, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 5, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn args_default_the_seed_to_the_bins() {
        let argv: Vec<String> = ["--workload", "attack", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = parse_args(&argv);
        assert_eq!(
            (a.workload, a.seed, a.trace, a.seconds),
            (Workload::Attack, 0xA77AC4, true, 20)
        );
    }
}
