#!/usr/bin/env bash
# Full verification gate: the tier-1 build+test pass (ROADMAP.md) plus the
# lint gates. Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Static-analysis gate: surveyor-lint enforces the determinism and
# panic-freedom invariants — token rules plus the flow-aware call-graph
# rules (DESIGN.md §6e) — over the whole workspace, itself included
# (its deliberately-violating fixture workspace is excluded by
# lint.toml). Exit 1 = findings, 2 = config error; the JSON report is
# archived next to the repro artifacts either way, and the schema-v2
# report keys are pinned. That the report does not move a byte across
# worker counts is a test (crates/lint/tests/workspace.rs), run above.
mkdir -p artifacts
cargo run --release -q -p surveyor-lint -- --json-out artifacts/lint_report.json
for key in '"version": 2' '"ruleset_version": 2' '"files_scanned"' \
           '"findings"'; do
    grep -q "$key" artifacts/lint_report.json \
        || { echo "lint_report.json missing $key" >&2; exit 1; }
done

# Chaos gate: the fault-injection suite under a seeded fault plan. The
# seed selects which shards panic/fail (FaultPlan::from_seed); the suite
# asserts the run's coverage accounting matches the plan's predictions.
SURVEYOR_CHAOS_SEED="${SURVEYOR_CHAOS_SEED:-2015}" cargo test -q --test fault_injection

# Bench smoke: the thread-scaling harness on its quick preset, with the
# scaling-regression gate armed (nonzero exit on a phase that regresses
# past its target curve; the permissive tolerance absorbs the noise of a
# small shared CI host). The bench binary validates the artifact schema
# before writing; the greps below are a second line of defense pinning
# the keys EXPERIMENTS.md documents.
cargo run --release -q -p surveyor-bench --bin bench -- \
    scale --quick --assert-scaling --scaling-tolerance 0.5 \
    --out artifacts/scale_smoke.json > /dev/null
for key in '"schema_version"' '"host_cpus"' '"timing"' \
           '"generation"' '"extraction"' '"model"' \
           '"documents_identical"' '"statements_identical"' \
           '"decided_pairs_identical"' \
           '"assert_scaling"' '"verdict"' \
           '"hits"' '"global_lookups"'; do
    grep -q "$key" artifacts/scale_smoke.json \
        || { echo "scale_smoke.json missing $key" >&2; exit 1; }
done

# Snapshot gate: the binary wire format round-trips the mined world.
# `snapshot` mines a preset and writes both the binary snapshot and the
# store JSON; `load` reconstructs the store from the snapshot alone; the
# two JSON files must be byte-identical (FORMAT.md's determinism goal).
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    snapshot --preset cities --seed 5 --rho 40 --shards 2 \
    --out artifacts/world.swire --store artifacts/mined_store.json > /dev/null
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    load --snapshot artifacts/world.swire --out artifacts/loaded_store.json \
    > artifacts/load_summary.txt
cmp artifacts/mined_store.json artifacts/loaded_store.json \
    || { echo "snapshot round trip is not byte-identical" >&2; exit 1; }

# What the served store keeps resident is a sum of column capacities, the
# same on every host: a layout that grows fails here (43585 bytes for this
# file's 461 opinions).
STORE_BYTES_PIN=43585
store_bytes=$(sed -n 's/.*(store_bytes \([0-9][0-9]*\)).*/\1/p' artifacts/load_summary.txt)
[ -n "$store_bytes" ] && [ "$store_bytes" -le "$STORE_BYTES_PIN" ] \
    || { echo "store_bytes ${store_bytes:-missing} exceeds the pin $STORE_BYTES_PIN" >&2; exit 1; }
rm -f artifacts/load_summary.txt

# `query` answers from the store `load_store` builds out of the snapshot:
# a known answer (cities/seed 5 is deterministic, so the ranking is pinned).
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    query --snapshot artifacts/world.swire --type city --property big --limit 3 \
    > artifacts/query_gate.txt
grep -q '^  Los Angeles  *Pr = 1.000  evidence +286/-9  docs 2,5,6,27,31$' artifacts/query_gate.txt \
    || { echo "query gate: known-answer query failed" >&2; exit 1; }
rm -f artifacts/query_gate.txt

# Corrupt snapshots must surface as invalid input (exit 3), never crash.
head -c 100 artifacts/world.swire > artifacts/truncated.swire
rc=0
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    load --snapshot artifacts/truncated.swire > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] \
    || { echo "truncated snapshot: expected exit 3, got $rc" >&2; exit 1; }

# A version-1 snapshot stored every decision; this reader derives them and
# must refuse the old layout (exit 3, naming the version) rather than
# misread it. The gate's own file with its version word patched to 1.
cp artifacts/world.swire artifacts/version1.swire
printf '\001\000' | dd of=artifacts/version1.swire bs=1 seek=8 conv=notrunc 2> /dev/null
rc=0
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    load --snapshot artifacts/version1.swire > artifacts/version1_load.txt 2>&1 || rc=$?
[ "$rc" -eq 3 ] \
    || { echo "version-1 snapshot: expected exit 3, got $rc" >&2; exit 1; }
grep -q 'unsupported snapshot version 1 ' artifacts/version1_load.txt \
    || { echo "version-1 snapshot: refused for the wrong reason" >&2; exit 1; }
rm -f artifacts/version1.swire artifacts/version1_load.txt

# Snapshot bench smoke: quick encode/validate/load throughput with the
# load-vs-remine speedup floor, the byte-identity verdict, and a floor
# on container validation armed (framing + one CRC-32 per section reads
# ~1.5 GB/s sliced by 8; byte-at-a-time it read 400-500 MB/s).
cargo run --release -q -p surveyor-bench --bin bench -- \
    snapshot --quick --assert-speedup 5 --assert-validate-mb-s 400 \
    --out artifacts/snapshot_smoke.json > /dev/null
for key in '"schema_version"' '"format_version"' '"snapshot_bytes"' \
           '"section_bytes"' '"encode_mb_s"' '"decode_mb_s"' \
           '"validate_seconds"' '"validate_mb_s"' \
           '"speedup_load_vs_remine"' '"byte_identical"'; do
    grep -q "$key" artifacts/snapshot_smoke.json \
        || { echo "snapshot_smoke.json missing $key" >&2; exit 1; }
done

# Serve gate: boot the fault-hardened query server on the snapshot the
# gate above just mined and drive it over bash's /dev/tcp (no curl in
# the image): a known-answer query (cities/seed 5 is deterministic, so
# the verdict is pinned), a corrupt hot reload that must be rejected
# while queries keep answering on the old generation, and a graceful
# shutdown that must exit 0 with the drain summary printed.
serve_http() { # method path -> full reply on stdout
    exec 3<>"/dev/tcp/127.0.0.1/${SERVE_PORT}"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\n\r\n' "$1" "$2" >&3
    cat <&3
    exec 3<&- 3>&-
}
rm -f artifacts/serve_gate.log
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    serve --snapshot artifacts/world.swire --addr 127.0.0.1:0 \
    > artifacts/serve_gate.log &
SERVE_JOB=$!
SERVE_PORT=""
for _ in $(seq 1 100); do
    SERVE_PORT=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9][0-9]*\).*|\1|p' \
        artifacts/serve_gate.log | head -n 1)
    [ -n "$SERVE_PORT" ] && break
    sleep 0.1
done
[ -n "$SERVE_PORT" ] || { echo "serve gate: server did not boot" >&2; exit 1; }
serve_http GET '/decide/Los%20Angeles/big' | grep -q '"positive": true' \
    || { echo "serve gate: known-answer query failed" >&2; exit 1; }
serve_http POST "/ctl/reload?path=artifacts/truncated.swire" | grep -q '^HTTP/1.1 422' \
    || { echo "serve gate: corrupt reload was not rejected" >&2; exit 1; }
serve_http GET '/decide/Los%20Angeles/big' | grep -q '"positive": true' \
    || { echo "serve gate: query failed after rejected reload" >&2; exit 1; }
serve_http GET /readyz | grep -q '"generation": 1' \
    || { echo "serve gate: rejected reload bumped the generation" >&2; exit 1; }
serve_http POST /ctl/shutdown | grep -q '"shutting_down": true' \
    || { echo "serve gate: shutdown request failed" >&2; exit 1; }
wait "$SERVE_JOB" \
    || { echo "serve gate: server exited nonzero" >&2; exit 1; }
grep -q 'server stopped' artifacts/serve_gate.log \
    || { echo "serve gate: missing drain summary" >&2; exit 1; }
rm -f artifacts/serve_gate.log  # transient (carries an ephemeral port)

# Serve bench smoke: the seeded chaos phase with its invariants armed —
# every valid query answered correctly throughout the fault mix, every
# corrupt reload rejected, overload sheds with Retry-After, graceful
# shutdown completes — and the lookup gate: `find_opinion` on a store
# with ten times the pairs may read at most 3x what it reads on the
# served one (an entity-index lookup reads alike on both; a scan over
# the store reads 10x). Request throughput is the ledger's to measure.
# The greps pin the keys EXPERIMENTS.md documents.
cargo run --release -q -p surveyor-bench --bin bench -- \
    serve --quick --assert-chaos --assert-lookup-flat \
    --out artifacts/serve_smoke.json > /dev/null
for key in '"schema_version": 2' \
           '"lookup"' '"small"' '"large"' '"pairs"' '"find_opinion_ns"' '"ratio"' \
           '"chaos"' '"all_valid_answered"' '"corrupt_reloads_rejected"' \
           '"shed_503"' '"accepted_reload"' '"graceful_shutdown"'; do
    grep -q "$key" artifacts/serve_smoke.json \
        || { echo "serve_smoke.json missing $key" >&2; exit 1; }
done

# Incremental gate: delta ingestion must land exactly where from-scratch
# mining lands. Mine a 3-of-4-shard base with incremental state recorded,
# ingest the remaining shard with `update`, and demand the result is
# byte-identical (`cmp`) to mining all 4 shards from scratch with the
# same state bookkeeping. A second `update` must find nothing to ingest
# and leave the snapshot untouched. `surveyor diff` must call the update
# and the from-scratch mine identical (exit 0) and the base and its
# update different (exit 1, `"identical": false`).
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    snapshot --preset cities --seed 5 --rho 40 --shards 4 --ingest-shards 3 \
    --out artifacts/incr_base.swire > /dev/null
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    update --snapshot artifacts/incr_base.swire --delta-preset cities-tail \
    --seed 5 --out artifacts/incr_updated.swire > /dev/null
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    snapshot --preset cities --seed 5 --rho 40 --shards 4 --ingest-shards 4 \
    --out artifacts/incr_scratch.swire > /dev/null
cmp artifacts/incr_updated.swire artifacts/incr_scratch.swire \
    || { echo "incremental update is not byte-identical to from-scratch" >&2; exit 1; }
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    update --snapshot artifacts/incr_updated.swire --delta-preset cities-tail \
    --seed 5 --out artifacts/incr_idempotent.swire > /dev/null
cmp artifacts/incr_updated.swire artifacts/incr_idempotent.swire \
    || { echo "empty-delta update is not idempotent" >&2; exit 1; }
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    diff --old artifacts/incr_updated.swire --new artifacts/incr_scratch.swire > /dev/null \
    || { echo "diff of the update and the from-scratch mine is not identical" >&2; exit 1; }
diff_status=0
cargo run --release -q -p surveyor-cli --bin surveyor -- \
    diff --old artifacts/incr_base.swire --new artifacts/incr_updated.swire --format json \
    > artifacts/incr_diff.json || diff_status=$?
[ "$diff_status" -eq 1 ] && grep -q '"identical": false' artifacts/incr_diff.json \
    || { echo "diff of the base and its update: exit $diff_status, not 1 and differing" >&2; exit 1; }
rm -f artifacts/incr_diff.json artifacts/incr_base.swire artifacts/incr_updated.swire \
    artifacts/incr_scratch.swire artifacts/incr_idempotent.swire

# Incremental bench smoke: the delta-scaling harness on its quick preset
# with the scaling assertions armed — every <=10% delta's median ratio of
# a from-scratch mine to the update timed next to it at least 5x, every
# update byte-identical at every thread count, and the chaos replay
# queue converging to the clean bytes. The greps pin the keys
# EXPERIMENTS.md documents.
cargo run --release -q -p surveyor-bench --bin bench -- \
    incremental --quick --assert-delta-scaling \
    --out artifacts/incremental_smoke.json > /dev/null
for key in '"schema_version": 3' '"from_scratch_seconds"' '"delta_sweep"' \
           '"scratch_seconds"' '"load_ms"' '"save_ms"' '"speedup_vs_scratch"' \
           '"byte_identical"' '"corpus_sweep"' \
           '"update_fraction_of_scratch"' '"determinism"' \
           '"byte_identical_all_threads"' '"byte_identical_after_replay"'; do
    grep -q "$key" artifacts/incremental_smoke.json \
        || { echo "incremental_smoke.json missing $key" >&2; exit 1; }
done

# Ledger smoke: the repository's benchmark (BENCHMARK.json) on its quick
# worlds, both workloads, as a correctness check — no timing is asserted.
# The ledger exits nonzero unless every HTTP reply carried the verdict it
# derived itself, every mined and updated snapshot equalled the 1-thread
# reference byte for byte, every load indexed what was decided and every
# reload was accepted; the last line it prints is the run as JSON, archived
# here. Built and run with BENCHMARK.json's own command — the stand-alone
# package, its own lock file, into .bench_build — so a change that breaks
# only that build fails here.
for workload in web_mine longtail_update; do
    CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
        --workload "$workload" --quick --seconds 4 --trace 0 \
        | tail -n 1 > "artifacts/ledger_smoke_${workload}.json"
    for key in '"correct": true' '"failed": 0' '"mine_docs_per_s"' \
               '"snapshot_bytes_per_pair"'; do
        grep -q "$key" "artifacts/ledger_smoke_${workload}.json" \
            || { echo "ledger_smoke_${workload}.json missing $key" >&2; exit 1; }
    done
done
