#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, campaign smoke runs
# exercising the JSONL sink, resume path and determinism end to end, and
# a short benchmark pass. It must leave the worktree as it found it.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip both test suites (fmt + clippy + smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# No leg may leave the tree dirty: the worktree status at the end must
# equal the status at the start.
status_before="$(git status --porcelain)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo test --workspace"
    cargo test --workspace -q
fi

echo "==> campaign smoke run (sweep, 30 trials, 1 vs 2 workers)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q -p majorcan-bench --bin sweep -- \
    30 --seed 0xAB --jobs 1 --out "$tmp/j1.jsonl" --quiet >/dev/null
cargo run -q -p majorcan-bench --bin sweep -- \
    30 --seed 0xAB --jobs 2 --out "$tmp/j2.jsonl" --quiet >/dev/null
sort "$tmp/j1.jsonl" >"$tmp/j1.sorted"
sort "$tmp/j2.jsonl" >"$tmp/j2.sorted"
if ! cmp -s "$tmp/j1.sorted" "$tmp/j2.sorted"; then
    echo "FAIL: campaign artifact differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    artifact identical across worker counts ($(wc -l <"$tmp/j1.jsonl") jobs)"

echo "==> figures bit-identity (figures -- all vs results/figures.txt)"
# The paper's bit-level figures are deterministic: any change to the
# controller, the pipeline or the engine must reproduce them byte for byte.
cargo run -q --release -p majorcan-bench --bin figures -- all >"$tmp/figures.txt"
if ! cmp -s results/figures.txt "$tmp/figures.txt"; then
    echo "FAIL: figures stdout differs from results/figures.txt" >&2
    diff results/figures.txt "$tmp/figures.txt" | head -20 >&2
    exit 1
fi
echo "    figures identical to the committed artifact"

echo "==> falsifier smoke run (60 schedules/target, 1 vs 2 workers, scratch corpus)"
cargo run -q -p majorcan-falsify --bin falsify -- \
    60 --jobs 1 --quiet --corpus "$tmp/corpus1" |
    sed "s|$tmp/corpus1|CORPUS|" >"$tmp/f1.txt"
cargo run -q -p majorcan-falsify --bin falsify -- \
    60 --jobs 2 --quiet --corpus "$tmp/corpus2" |
    sed "s|$tmp/corpus2|CORPUS|" >"$tmp/f2.txt"
if ! cmp -s "$tmp/f1.txt" "$tmp/f2.txt"; then
    echo "FAIL: falsifier report differs between 1 and 2 workers" >&2
    exit 1
fi
if ! diff -r -q "$tmp/corpus1" "$tmp/corpus2" >/dev/null; then
    echo "FAIL: falsifier corpus differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    report and corpus identical across worker counts ($(ls "$tmp/corpus1" | wc -l) repros)"

echo "==> frame-tail hotspot slice (MajorCAN_3, ACK/CRC-delimiter biased, 1 vs 2 workers)"
# Tail-biased generator hotspots (ACK slot, ACK delimiter, CRC delimiter)
# against the protocol the F3 family used to break, plus a --probe replay
# of an archived F3 minimum through the same gate. Any finding (searched
# or probed) exits 3 and fails the gate.
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0xF3 --targets MajorCAN_3 --jobs 1 --quiet \
    --probe corpus/majorcan_3-consistent-458ebee2.json >"$tmp/t1.txt"
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0xF3 --targets MajorCAN_3 --jobs 2 --quiet \
    --probe corpus/majorcan_3-consistent-458ebee2.json >"$tmp/t2.txt"
if ! cmp -s "$tmp/t1.txt" "$tmp/t2.txt"; then
    echo "FAIL: frame-tail slice differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    tail slice clean and identical across worker counts"

echo "==> attack-surface smoke run (60 attacks/target, 1 vs 2 workers, scratch corpus)"
# The cost-aware attacker campaign: the cost-to-break table and the
# archived cheapest-attack certificates must be bit-identical for any
# worker count, and MajorCAN's cheapest Agreement break must out-price
# standard CAN's (the bin exits 3 otherwise).
cargo run -q --release -p majorcan-falsify --bin attack_surface -- \
    60 --jobs 1 --quiet --corpus "$tmp/atk1" |
    sed "s|$tmp/atk1|CORPUS|" >"$tmp/a1.txt"
cargo run -q --release -p majorcan-falsify --bin attack_surface -- \
    60 --jobs 2 --quiet --corpus "$tmp/atk2" |
    sed "s|$tmp/atk2|CORPUS|" >"$tmp/a2.txt"
if ! cmp -s "$tmp/a1.txt" "$tmp/a2.txt"; then
    echo "FAIL: attack-surface table differs between 1 and 2 workers" >&2
    exit 1
fi
if ! diff -r -q "$tmp/atk1" "$tmp/atk2" >/dev/null; then
    echo "FAIL: attack corpus differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    cost-to-break table and certificates identical across worker counts"

# Committed cheapest-attack minima replay through the probe gate: a CAN
# certificate is historical record (exit 0); a MajorCAN certificate is a
# cost-bounded break and must trip the same exit-3 gate as a live finding.
cargo run -q --release -p majorcan-falsify --bin falsify -- \
    0 --targets CAN --jobs 1 --quiet \
    --probe corpus/attack/attack-can-double-b0aa2359.json >/dev/null
if cargo run -q --release -p majorcan-falsify --bin falsify -- \
    0 --targets CAN --jobs 1 --quiet \
    --probe corpus/attack/attack-majorcan_5-busoff-81ddb72d.json >/dev/null 2>&1; then
    echo "FAIL: probing a MajorCAN attack certificate should exit 3" >&2
    exit 1
fi
echo "    committed attack minima replay through the probe gate"

echo "==> traffic soak smoke run (short clean soak, 1 vs 2 workers, exports compared)"
# The E17 soak in miniature: the campaign JSONL (sorted by job id; the
# sink streams in completion order) and every exported bus log must be
# byte-identical for any worker count, and a clean bus must exit 0.
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 6 --seed 0xE17 --jobs 1 --quiet --out "$tmp/s1.jsonl" --export "$tmp/exp1" >/dev/null
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 6 --seed 0xE17 --jobs 2 --quiet --out "$tmp/s2.jsonl" --export "$tmp/exp2" >/dev/null
sort "$tmp/s1.jsonl" >"$tmp/s1.sorted"
sort "$tmp/s2.jsonl" >"$tmp/s2.sorted"
if ! cmp -s "$tmp/s1.sorted" "$tmp/s2.sorted"; then
    echo "FAIL: soak artifact differs between 1 and 2 workers" >&2
    exit 1
fi
if ! diff -r -q "$tmp/exp1" "$tmp/exp2" >/dev/null; then
    echo "FAIL: exported bus logs differ between 1 and 2 workers" >&2
    exit 1
fi
echo "    soak artifact and bus logs identical across worker counts ($(wc -l <"$tmp/s1.jsonl") cells)"

# The exit-code contract: heavy bursts must trip the online checker
# (exit 3), and --allow-violations must downgrade the same run to 0.
if cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 4 --seed 7 --jobs 1 --quiet --bursts --burst-period 1500 --burst-len 30 \
    >/dev/null 2>&1; then
    echo "FAIL: bursty soak should exit nonzero on online checker violations" >&2
    exit 1
fi
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 4 --seed 7 --jobs 1 --quiet --bursts --burst-period 1500 --burst-len 30 \
    --allow-violations >/dev/null 2>&1
echo "    online checker gates bursty cells; --allow-violations downgrades"

echo "==> benchmark smoke run (perfbench tests, 1-second falsify_hlp and soak passes)"
# perfbench is the one bench harness: its own tests, then a short
# end-to-end pass of each workload BENCHMARK.json lists. A pass checks the
# campaign output against perfbench/reference.txt before timing it, and
# its last stdout line must report `"correct": true`.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in falsify_hlp soak; do
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 >"$tmp/perf-$workload.txt"
    if ! tail -n 1 "$tmp/perf-$workload.txt" | grep -q '"correct": true'; then
        echo "FAIL: perfbench $workload did not report \"correct\": true" >&2
        tail -n 5 "$tmp/perf-$workload.txt" >&2
        exit 1
    fi
done
echo "    perfbench tests pass; falsify_hlp and soak report correct output"

echo "==> sharded fleet smoke run (falsify, 1 process vs 3 shard workers, then tamper)"
# The crash-tolerant fleet path end to end: three sequential shard
# workers over one coordination directory must merge to a JSONL artifact
# byte-identical to the single-process run (both sorted: the sink
# streams in completion order, the merge in job-id order). Then flip one
# transcript byte and demand a merge — the anchor cross-check must
# detect it (exit 3), and nothing else may exit nonzero.
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --out "$tmp/single.jsonl" >/dev/null
for k in 0 1 2; do
    cargo run -q -p majorcan-falsify --bin falsify -- \
        120 --seed 0x5A --jobs 1 --quiet --shard "$k/3" --shard-dir "$tmp/fleet" >/dev/null
done
sort "$tmp/single.jsonl" >"$tmp/single.sorted"
sort "$tmp/fleet/merged.jsonl" >"$tmp/merged.sorted"
if ! cmp -s "$tmp/single.sorted" "$tmp/merged.sorted"; then
    echo "FAIL: merged fleet artifact differs from the single-process run" >&2
    exit 1
fi
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --merge --shard-dir "$tmp/fleet" >/dev/null
echo "    merged fleet artifact identical to single process ($(wc -l <"$tmp/single.jsonl") jobs)"
# Tamper: increment the last digit of one committed shard transcript.
perl -i -pe 's/(\d)(?=[^\d]*$)/($1+1)%10/e if eof' "$tmp/fleet/shard-1.jsonl"
if cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --merge --shard-dir "$tmp/fleet" \
    >/dev/null 2>"$tmp/tamper.err"; then
    echo "FAIL: merging a tampered shard transcript should exit 3" >&2
    exit 1
fi
if ! grep -q "shard 1" "$tmp/tamper.err"; then
    echo "FAIL: tamper detection should name the corrupt shard" >&2
    cat "$tmp/tamper.err" >&2
    exit 1
fi
echo "    flipped transcript byte detected at merge, shard named"

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo test --workspace --release"
    # Tests sized with cfg!(debug_assertions) (random_soak's 150-frame
    # soaks, for one) only run at their full size in a release build.
    cargo test --workspace --release -q
fi

if [[ "$(git status --porcelain)" != "$status_before" ]]; then
    echo "FAIL: the check changed the worktree:" >&2
    diff <(echo "$status_before") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "OK"
