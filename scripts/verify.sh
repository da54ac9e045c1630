#!/usr/bin/env bash
# Full verification gate: the tier-1 build+test pass (ROADMAP.md), clippy
# and rustfmt, the lint gate, and the end-to-end gates below. Run from
# anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The committed Cargo.lock is current: a change to a path crate's
# dependencies lands with its lock file, or every unlocked build quietly
# rewrites it. The ledger's and the lint fixture's lock files are not
# committed (.gitignore): each fresh checkout resolves its own.
cargo metadata --locked --offline --format-version 1 > /dev/null \
    || { echo "Cargo.lock is out of date" >&2; exit 1; }

cargo build --release
cargo test -q
# Tests, examples and the bench read the clock and name HashMap freely;
# those lists, and the Deserialize derive, are the lib gate's business.
cargo clippy --workspace --all-targets -- -D warnings \
    -A clippy::disallowed_methods -A clippy::disallowed_types \
    -A clippy::disallowed_macros
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Lint gate (DESIGN.md §6e): the library code of the 13 product crates
# denies panics, prints and unsafe code, and the clock, lock, deadline
# and HashMap paths clippy.toml lists. An exception is an
# `#[expect(lint, reason = "…")]` at the site, and one that stops firing
# fails the gate (`unfulfilled_lint_expectations` under `-D warnings`).
# `--no-deps` keeps the flags off the vendored crates but one:
# `serde_json` holds the JSON writer every reply body, store and report
# prints through, so it is held to the product crates' rules.
LIB_LINTS=(
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
    -D clippy::unreachable -D clippy::todo -D clippy::unimplemented
    -D clippy::print_stdout -D clippy::print_stderr
    -D clippy::disallowed_methods -D clippy::disallowed_types
    -D clippy::disallowed_macros -D clippy::iter_over_hash_type
    -F unsafe_code -D warnings
)
cargo clippy --no-deps --lib \
    -p surveyor-prob -p surveyor-obs -p surveyor-kb -p surveyor-nlp \
    -p surveyor-corpus -p surveyor-extract -p surveyor-model \
    -p surveyor-crowd -p surveyor-eval -p surveyor-wire -p surveyor \
    -p surveyor-server -p surveyor-cli -p serde_json \
    -- "${LIB_LINTS[@]}"

# The same gate over scripts/lint-fixture, which breaks each rule once and
# declares a silent `#[expect]` twin of each: it must fail with exactly the
# committed denials. Clippy ignores a clippy.toml path it cannot resolve,
# so this is what proves each listed path still fires.
cargo clippy --version > /dev/null \
    || { echo "lint fixture: cargo clippy is not installed" >&2; exit 1; }
mkdir -p target/lint-fixture
rc=0
CARGO_TARGET_DIR=target/lint-fixture cargo clippy \
    --manifest-path scripts/lint-fixture/Cargo.toml --no-deps --lib \
    --message-format=short -- "${LIB_LINTS[@]}" \
    > target/lint-fixture/clippy.txt 2>&1 || rc=$?
[ "$rc" -ne 0 ] \
    || { echo "lint fixture: the gate passed a crate built to fail it" >&2; exit 1; }
grep '^src/' target/lint-fixture/clippy.txt | LC_ALL=C sort \
    | diff scripts/lint-fixture/expected.txt - \
    || { echo "lint fixture: denials differ from scripts/lint-fixture/expected.txt" >&2; exit 1; }

# Chaos gate: the fault-injection suite under a seeded fault plan. The
# seed selects which shards panic/fail (FaultPlan::from_seed); the suite
# asserts the run's coverage accounting matches the plan's predictions.
SURVEYOR_CHAOS_SEED="${SURVEYOR_CHAOS_SEED:-2015}" cargo test -q --test fault_injection

# Reproduction drift gate: the 13 deterministic experiments at the
# documented configuration must write exactly the committed artifacts,
# whose numbers EXPERIMENTS.md quotes. A change that moves a reproduced
# number regenerates those files (`repro <experiment> --json artifacts`)
# and the doc with it. `scale.json` is timing and the smoke files are
# gate outputs, so neither is compared.
experiments=(table1 table2 fig5 fig6 fig3 fig9 fig10 table3 table4 table5 fig13 ablations regions)
repro_dir=$(mktemp -d)
cargo run --release -q -p surveyor-bench --bin repro -- \
    "${experiments[@]}" --json "$repro_dir" > /dev/null
drifted=""
for experiment in "${experiments[@]}"; do
    cmp "$repro_dir/$experiment.json" "artifacts/$experiment.json" \
        || drifted="$drifted $experiment"
done
rm -rf "$repro_dir"
[ -z "$drifted" ] \
    || { echo "repro drift: output differs from artifacts/ for$drifted" >&2; exit 1; }

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

# Bench smoke: the thread-scaling harness on its quick preset, with the
# scaling-regression gate armed (nonzero exit on a phase that regresses
# past its target curve; the permissive tolerance absorbs the noise of a
# small shared CI host). The artifact is a typed record whose key paths
# a unit test pins to the committed BENCH_scale.json; the greps below
# check the keys EXPERIMENTS.md documents in the file just written.
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

# What the quick scale world computes is exact and the same on every host:
# the generator's document fingerprint, the extractor's statements and the
# model's decided pairs must read their pins at every thread width.
scale_json=$(tr -d ' \n' < artifacts/scale_smoke.json)
pin_scale_count() {
    local key=$1 pin=$2 values
    values=$(echo "$scale_json" | sed -n "s/.*\"$key\":\[\([0-9,]*\)\].*/\1/p" \
        | tr ',' '\n' | sort -u | tr '\n' ' ')
    [ "$values" = "$pin " ] \
        || { echo "scale_smoke.json $key reads ${values:-nothing}not the pin $pin" >&2; exit 1; }
}
pin_scale_count document_fingerprints 14302247931206881235
pin_scale_count statements 4324
pin_scale_count decided_pairs 1760

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

# A version-1 snapshot stored every decision, a version-2 one a pair's
# counters and documents in two sections under fixed keys, and a
# version-3 one an `ENTS` record per entity; this reader must refuse each
# layout (exit 3, naming the version) rather than misread it. The gate's
# own file with its version word patched to 1, 2, then 3.
for old in 1 2 3; do
    cp artifacts/world.swire "artifacts/version${old}.swire"
    printf "\\00${old}\\000" \
        | dd of="artifacts/version${old}.swire" bs=1 seek=8 conv=notrunc 2> /dev/null
    rc=0
    cargo run --release -q -p surveyor-cli --bin surveyor -- \
        load --snapshot "artifacts/version${old}.swire" \
        > "artifacts/version${old}_load.txt" 2>&1 || rc=$?
    [ "$rc" -eq 3 ] \
        || { echo "version-${old} snapshot: expected exit 3, got $rc" >&2; exit 1; }
    grep -q "unsupported snapshot version ${old} " "artifacts/version${old}_load.txt" \
        || { echo "version-${old} snapshot: refused for the wrong reason" >&2; exit 1; }
    rm -f "artifacts/version${old}.swire" "artifacts/version${old}_load.txt"
done

# Snapshot bench smoke: quick encode/validate/load throughput with the
# load-vs-remine speedup floor, the byte-identity verdict, and a floor
# on container validation armed (framing + one CRC-32 per section reads
# ~1.5 GB/s sliced by 8; byte-at-a-time it read 400-500 MB/s).
cargo run --release -q -p surveyor-bench --bin bench -- \
    snapshot --quick --assert-speedup 5 --assert-validate-mb-s 400 \
    --out artifacts/snapshot_smoke.json > /dev/null
for key in '"schema_version"' '"format_version"' '"snapshot_bytes"' \
           '"section_bytes"' '"encode_pairs_per_s"' '"decode_pairs_per_s"' \
           '"validate_seconds"' '"validate_mb_s"' \
           '"speedup_load_vs_remine"' '"byte_identical"'; do
    grep -q "$key" artifacts/snapshot_smoke.json \
        || { echo "snapshot_smoke.json missing $key" >&2; exit 1; }
done

# Serve gate: boot the fault-hardened query server on the snapshot the
# gate above just mined and drive it over bash's /dev/tcp (no curl in
# the image): a known-answer query (cities/seed 5 is deterministic, so
# the verdict is pinned), the same query twice on one kept connection,
# a corrupt hot reload that must be rejected
# while queries keep answering on the old generation, and a graceful
# shutdown that must exit 0 with the drain summary printed.
serve_http() { # method path -> full reply on stdout
    exec 3<>"/dev/tcp/127.0.0.1/${SERVE_PORT}"
    printf '%s %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\n\r\n' "$1" "$2" >&3
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
# The same query twice on one kept connection: the first request leaves
# the connection open, and the second, sent once the first is answered,
# finds the worker idle in its read and asks to close. Both replies must
# arrive whole, and only the second may say `Connection: close`.
exec 3<>"/dev/tcp/127.0.0.1/${SERVE_PORT}"
printf 'GET %s HTTP/1.1\r\nHost: verify\r\n\r\n' '/decide/Los%20Angeles/big' >&3
sleep 0.2
printf 'GET %s HTTP/1.1\r\nHost: verify\r\nConnection: close\r\n\r\n' \
    '/decide/Los%20Angeles/big' >&3
KEPT_REPLIES=$(cat <&3)
exec 3<&- 3>&-
kept_count() { grep -o "$1" <<<"$KEPT_REPLIES" | wc -l; }
[ "$(kept_count 'HTTP/1.1 200 OK')" -eq 2 ] \
    && [ "$(kept_count '"positive": true')" -eq 2 ] \
    && [ "$(kept_count 'Connection: close')" -eq 1 ] \
    || { echo "serve gate: kept-connection queries failed: $KEPT_REPLIES" >&2; exit 1; }
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
# mining lands. Mine a base of all shards but the last with incremental
# state recorded, ingest the last shard with `update`, and demand the
# result is byte-identical (`cmp`) to mining every shard from scratch with
# the same state bookkeeping. A second `update` must find nothing to
# ingest and leave the snapshot untouched. `surveyor diff` must call the
# update and the from-scratch mine identical (exit 0) and the base and its
# update different (exit 1, `"identical": false`). Two rounds, each
# pinned to its update's group accounting: `cities` (seed 5, ρ 40,
# 4 shards), whose one modelled group is refit; and the long-tail world
# (seed 5, ρ 25, 8 shards; at the default ρ 100 it models nothing), whose
# update carries 5 of its 231 modelled groups and refits 226.
incremental_round() {
    local preset=$1 delta=$2 rho=$3 shards=$4 groups=$5
    local surveyor="cargo run --release -q -p surveyor-cli --bin surveyor --"
    $surveyor snapshot --preset "$preset" --seed 5 --rho "$rho" --shards "$shards" \
        --ingest-shards $((shards - 1)) --out artifacts/incr_base.swire > /dev/null
    local summary
    summary=$($surveyor update --snapshot artifacts/incr_base.swire --delta-preset "$delta" \
        --seed 5 --out artifacts/incr_updated.swire)
    echo "$summary" | grep -Fq "modeled groups: $groups " \
        || { echo "$delta: the update's groups are not \"$groups\": $summary" >&2; exit 1; }
    $surveyor snapshot --preset "$preset" --seed 5 --rho "$rho" --shards "$shards" \
        --ingest-shards "$shards" --out artifacts/incr_scratch.swire > /dev/null
    # Both files carry their state in `INCR` and nothing after it: the
    # per-group fingerprint section `GRPF` is retired (FORMAT.md §3.7).
    for incr_file in artifacts/incr_base.swire artifacts/incr_updated.swire; do
        incr_sections=$($surveyor load --snapshot "$incr_file" | sed -n 's/^.* bytes by section: //p')
        case "$incr_sections" in
            *INCR*) ;;
            *) echo "$incr_file: no INCR section ($incr_sections)" >&2; exit 1 ;;
        esac
        case "$incr_sections" in
            *GRPF*) echo "$incr_file: carries the retired GRPF ($incr_sections)" >&2; exit 1 ;;
        esac
    done
    cmp artifacts/incr_updated.swire artifacts/incr_scratch.swire \
        || { echo "$delta: incremental update is not byte-identical to from-scratch" >&2; exit 1; }
    $surveyor update --snapshot artifacts/incr_updated.swire --delta-preset "$delta" \
        --seed 5 --out artifacts/incr_idempotent.swire > /dev/null
    cmp artifacts/incr_updated.swire artifacts/incr_idempotent.swire \
        || { echo "$delta: empty-delta update is not idempotent" >&2; exit 1; }
    $surveyor diff --old artifacts/incr_updated.swire --new artifacts/incr_scratch.swire > /dev/null \
        || { echo "$delta: diff of the update and the from-scratch mine is not identical" >&2; exit 1; }
    local diff_status=0
    $surveyor diff --old artifacts/incr_base.swire --new artifacts/incr_updated.swire --format json \
        > artifacts/incr_diff.json || diff_status=$?
    [ "$diff_status" -eq 1 ] && grep -q '"identical": false' artifacts/incr_diff.json \
        || { echo "$delta: diff of the base and its update: exit $diff_status, not 1 and differing" >&2; exit 1; }
    rm -f artifacts/incr_diff.json artifacts/incr_base.swire artifacts/incr_updated.swire \
        artifacts/incr_scratch.swire artifacts/incr_idempotent.swire
}
incremental_round cities cities-tail 40 4 "1 total = 0 carried forward + 1 refit"
incremental_round longtail longtail-tail 25 8 "231 total = 5 carried forward + 226 refit"

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
