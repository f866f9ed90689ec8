#!/usr/bin/env bash
# Builds the workspace and runs every crate's test suite (--workspace: the
# root manifest is a package, so a bare `cargo test` covers only it) twice:
# once with the buffer pool disabled and kernels pinned serial
# (AUTOAC_POOL=0, AUTOAC_NUM_THREADS=1) and once with the pool enabled at the
# hardware thread count. Kernels are bitwise-deterministic across thread
# counts and the pool is bitwise-invisible, so both runs must pass
# identically. Then:
#
#  - a literal kill-and-resume smoke test of the checkpoint subsystem: a
#    run SIGKILLed mid-search, resumed from its snapshots, must produce a
#    byte-identical result digest to an uninterrupted run;
#  - the allocation benchmark (bench_alloc), which trains the same seeded
#    model with the pool off and on in one process and asserts bitwise-equal
#    metrics (the smoke run writes its numbers to a temp dir; the committed
#    results/BENCH_alloc.json comes from a paper-scale run);
#  - the checking pass: autoac-lint must exit clean over the repo, the full
#    suite must pass with AUTOAC_CHECK=1 armed (zero sanitizer findings on
#    clean code), and check_smoke must prove every analysis catches its
#    seeded bug class;
#  - the sharding pass (bench_shard --smoke): on a tiny power-law graph,
#    the degenerate full-batch minibatch config must produce bitwise-
#    identical metrics to the legacy whole-graph pipeline, and the
#    neighbor-sampled and type-aware shard schedules must run end to end
#    (the smoke run writes to a temp dir; the committed
#    results/BENCH_shard.json comes from a paper-scale run);
#  - the observability pass (obs_smoke): the same short search + retrain
#    with AUTOAC_OBS=0 and AUTOAC_OBS=1 must produce byte-identical result
#    digests (instrumentation is read-only), and the enabled run must
#    export an OBS_smoke.jsonl that parses line by line and carries the
#    promised span tree and trajectory series (the binary self-validates
#    and exits non-zero on any miss);
#  - the kernel pass: a bench_kernels smoke run that A/B-times every
#    blocked kernel against its scalar reference and asserts bitwise
#    parity on each measured shape at 1, 2 and 8 threads (end to end,
#    crates/core/tests/run_loop_digests.rs pins the trajectories the
#    scalar kernels produced);
#  - the serving pass: an autoac_serve daemon is launched on an ephemeral
#    port from a freshly trained checkpoint and driven with concurrent
#    closed-loop clients (serve_bench --connect) twice — batching on and
#    off — whose response digests must be identical (micro-batching is
#    bitwise-invisible); /metrics must parse as Prometheus exposition
#    text and count exactly one served forward (one per loaded
#    checkpoint, however many requests), and POST /admin/shutdown must
#    take the daemon down gracefully.
#    An in-process serve_bench smoke repeats the A/B inside one process.
#  - the tracing pass: the same driver load against a daemon with
#    AUTOAC_TRACE=0 must print a digest identical to the traced run
#    (request-scoped tracing is bitwise-invisible), and the flight-
#    recorder dump every daemon leaves on shutdown must parse as strict
#    JSONL (serve_bench --validate-flight).
#  - the benchmark pass: the end-to-end benchmark package (benchmark/,
#    not a workspace member) is built into .bench_build, its unit tests
#    run, and its --smoke run must report every workload correct with no
#    failed operations — so a change to an API or obs record the
#    benchmark reads fails here, not first in a benchmark run.
#
# The test suites run under AUTOAC_SLOW_TESTS=1: the default (fast) test
# profile shrinks end-to-end budgets for interactive iteration; verify is
# where the full original budgets are exercised.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_THREADS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)"

echo "== cargo build --release --workspace =="
# --workspace: the root manifest is a package, so a bare build would cover
# only it — the smoke binaries (ckpt_smoke, bench_*, autoac_serve, ...)
# live in member crates and must be built explicitly.
cargo build --release --workspace

echo "== cargo test -q --workspace (AUTOAC_POOL=0, AUTOAC_NUM_THREADS=1: no recycling, serial kernels) =="
AUTOAC_SLOW_TESTS=1 AUTOAC_POOL=0 AUTOAC_NUM_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (pool enabled, AUTOAC_NUM_THREADS=${MAX_THREADS}, parallel kernels) =="
AUTOAC_SLOW_TESTS=1 AUTOAC_NUM_THREADS="${MAX_THREADS}" cargo test -q --workspace

echo "== checking pass: autoac-lint, suite under AUTOAC_CHECK=1, check_smoke =="
cargo run -q --release -p autoac-check --bin autoac-lint \
  || { echo "verify.sh: FAIL — autoac-lint found violations"; exit 1; }

echo "== analysis pass: autoac-lint --analyze vs results/ANALYSIS.json =="
ANALYSIS_NOW="$(mktemp)"
cargo run -q --release -p autoac-check --bin autoac-lint -- --analyze --json > "$ANALYSIS_NOW" \
  || { echo "verify.sh: FAIL — non-allowlisted analysis findings; fix or analyze:allow(rule, reason)"; \
       cat "$ANALYSIS_NOW"; rm -f "$ANALYSIS_NOW"; exit 1; }
if ! diff -u results/ANALYSIS.json "$ANALYSIS_NOW"; then
  echo "verify.sh: FAIL — analysis drifted from the committed baseline."
  echo "  If the change is intentional, re-baseline with:"
  echo "    cargo run -q --release -p autoac-check --bin autoac-lint -- --analyze --json > results/ANALYSIS.json"
  rm -f "$ANALYSIS_NOW"
  exit 1
fi
rm -f "$ANALYSIS_NOW"
# Release mode: the armed hooks sit on the hottest paths and the debug
# suite slows several-fold with them on.
AUTOAC_CHECK=1 cargo test -q --release \
  -p autoac-tensor -p autoac-check -p autoac-core -p autoac-nn \
  -p autoac-completion -p autoac -p autoac-serve \
  || { echo "verify.sh: FAIL — suite failed with AUTOAC_CHECK=1 armed"; exit 1; }
SMOKE_JSON="$(cargo run -q --release -p autoac-check --bin check_smoke)" \
  || { echo "verify.sh: FAIL — check_smoke: an analysis missed its seeded bug"; exit 1; }
echo "   check_smoke: ${SMOKE_JSON}"

echo "== kill -9 and resume smoke test (ckpt_smoke) =="
SMOKE="./target/release/ckpt_smoke"
SMOKE_ARGS=(--scale tiny --search-epochs 10 --epochs 8)
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Uninterrupted baseline digest (no checkpointing involved).
"$SMOKE" "${SMOKE_ARGS[@]}" --out "$WORK/baseline.json"

# Same run, checkpointing every 2 epochs and paced so the kill reliably
# lands mid-run; SIGKILL it, then resume from the snapshots at full speed.
# Resume is correct for ANY kill timing (before the first snapshot it just
# starts over), so no synchronization with the victim is needed.
"$SMOKE" "${SMOKE_ARGS[@]}" --checkpoint-dir "$WORK/ckpts" --checkpoint-every 2 \
  --epoch-sleep-ms 300 --out "$WORK/killed.json" &
VICTIM=$!
sleep 1.5
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
if [ -f "$WORK/killed.json" ]; then
  echo "verify.sh: warning: victim finished before the kill; resume path reduces to a replay"
fi
SNAPSHOTS="$(find "$WORK/ckpts" -name 'ckpt-*.bin' 2>/dev/null | wc -l)"
echo "   killed mid-run with ${SNAPSHOTS} snapshot(s) on disk"

"$SMOKE" "${SMOKE_ARGS[@]}" --checkpoint-dir "$WORK/ckpts" --resume --out "$WORK/resumed.json"
diff "$WORK/baseline.json" "$WORK/resumed.json" \
  || { echo "verify.sh: FAIL — resumed run diverged from uninterrupted baseline"; exit 1; }
echo "   resumed run is byte-identical to the uninterrupted baseline"

echo "== allocation benchmark (bench_alloc → results/BENCH_alloc.json) =="
# Tiny scale keeps verify fast; the committed results/BENCH_alloc.json is
# produced at --scale paper, where allocation dominates and the pool's
# speedup is largest. The bitwise-identical-metrics assertion inside the
# binary is the part verify depends on.
# --out keeps the smoke run from clobbering the committed paper-scale
# results/BENCH_alloc.json.
./target/release/bench_alloc --scale tiny --epochs 10 --out "$WORK/bench_alloc_smoke.json"

echo "== sharding pass (bench_shard smoke: full-batch digest identity + schedules) =="
# The binary asserts the degenerate full-batch minibatch config is bitwise
# identical to the legacy pipeline (the sampled-vs-full digest check), then
# exercises the sampled and shard schedules end to end.
# --out keeps the smoke run from clobbering the committed paper-scale
# results/BENCH_shard.json (regenerate with: ./target/release/bench_shard).
./target/release/bench_shard --smoke --out "$WORK/bench_shard_smoke.json" \
  || { echo "verify.sh: FAIL — bench_shard smoke (identity or schedules) failed"; exit 1; }

echo "== observability pass (obs_smoke: bitwise identity + JSONL validation) =="
OBS_SMOKE="./target/release/obs_smoke"
OBS_ARGS=(--scale tiny --search-epochs 6 --epochs 6)
AUTOAC_OBS=0 "$OBS_SMOKE" "${OBS_ARGS[@]}" --out "$WORK/obs_off.json"
AUTOAC_OBS=1 "$OBS_SMOKE" "${OBS_ARGS[@]}" --out "$WORK/obs_on.json" --obs-dir "$WORK/obs" \
  || { echo "verify.sh: FAIL — obs export failed self-validation"; exit 1; }
diff "$WORK/obs_off.json" "$WORK/obs_on.json" \
  || { echo "verify.sh: FAIL — AUTOAC_OBS=1 perturbed the training trajectory"; exit 1; }
echo "   AUTOAC_OBS=1 digest is byte-identical to AUTOAC_OBS=0; OBS_smoke.jsonl validated"

echo "== kernel pass (bench_kernels smoke: blocked vs reference parity) =="
# Smoke-scale A/B bench: asserts bitwise kernel parity on every measured
# shape (the committed results/BENCH_kernels.json comes from a full run).
./target/release/bench_kernels --smoke 1 --out "$WORK/bench_kernels_smoke.json" \
  || { echo "verify.sh: FAIL — bench_kernels smoke (parity or bench) failed"; exit 1; }

echo "== serving pass (autoac_serve + serve_bench: batching A/B, metrics, graceful shutdown) =="
SERVE="./target/release/autoac_serve"
SERVE_BENCH="./target/release/serve_bench"
# One small checkpoint shared by both daemon launches.
"$SERVE" --train-out "$WORK/serve.ckpt" --epochs 6 --seed 7

serve_drive() { # $1: batching flag ("" or --no-batching), $2: digest file
  rm -f "$WORK/serve.port"
  # The flight dump is routed into the work dir (default would be
  # results/) and named after the digest file so each launch leaves its
  # own post-mortem for the tracing pass to validate.
  # shellcheck disable=SC2086
  "$SERVE" --checkpoint "$WORK/serve.ckpt" --addr 127.0.0.1:0 --workers 4 \
    --port-file "$WORK/serve.port" --flight-dir "$WORK/flight" \
    --run "$(basename "$2")" $1 &
  local daemon=$!
  for _ in $(seq 1 100); do [ -s "$WORK/serve.port" ] && break; sleep 0.1; done
  [ -s "$WORK/serve.port" ] \
    || { echo "verify.sh: FAIL — autoac_serve never became ready"; kill "$daemon" 2>/dev/null; exit 1; }
  # Drives concurrent clients, validates /healthz and /metrics exposition
  # text (including the one-forward count), prints the response digest,
  # and issues POST /admin/shutdown.
  "$SERVE_BENCH" --connect "$(cat "$WORK/serve.port")" --clients 4 --requests 40 \
    --shutdown | tee "$2.log" \
    || { echo "verify.sh: FAIL — serve_bench driver failed"; kill "$daemon" 2>/dev/null; exit 1; }
  grep '^digest: ' "$2.log" > "$2"
  # The daemon must exit on its own after /admin/shutdown (graceful path).
  wait "$daemon" \
    || { echo "verify.sh: FAIL — autoac_serve exited non-zero after shutdown"; exit 1; }
}

serve_drive "" "$WORK/serve_digest_batched"
serve_drive "--no-batching" "$WORK/serve_digest_single"
diff "$WORK/serve_digest_batched" "$WORK/serve_digest_single" \
  || { echo "verify.sh: FAIL — batched responses diverged from single-request responses"; exit 1; }
echo "   batched and unbatched serving digests are byte-identical; graceful shutdown OK"
# In-process A/B smoke: same assertion plus throughput/latency accounting
# (the committed results/BENCH_serve.json comes from a full run).
"$SERVE_BENCH" --smoke --out "$WORK/bench_serve_smoke.json" \
  || { echo "verify.sh: FAIL — serve_bench in-process A/B failed"; exit 1; }

echo "== tracing pass (AUTOAC_TRACE digest identity + flight dump validation) =="
# Request-scoped tracing must be bitwise-invisible to responses: the same
# driver load against a daemon with tracing disabled must print the same
# digest as the traced batched run above.
AUTOAC_TRACE=0 serve_drive "" "$WORK/serve_digest_untraced"
diff "$WORK/serve_digest_batched" "$WORK/serve_digest_untraced" \
  || { echo "verify.sh: FAIL — AUTOAC_TRACE=0 changed response bytes"; exit 1; }
echo "   AUTOAC_TRACE=0 serving digest is byte-identical to the traced run"
# Every daemon above shut down gracefully and left a flight-recorder
# post-mortem behind; each must parse as strict JSONL with records in it.
for run in serve_digest_batched serve_digest_single serve_digest_untraced; do
  "$SERVE_BENCH" --validate-flight "$WORK/flight/FLIGHT_$run.jsonl" \
    || { echo "verify.sh: FAIL — flight dump for $run is missing or malformed"; exit 1; }
done

echo "== benchmark pass (benchmark/ unit tests + --smoke) =="
# Its own target dir (gitignored): benchmark/ is a separate package.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline \
  --manifest-path benchmark/Cargo.toml \
  || { echo "verify.sh: FAIL — benchmark unit tests failed"; exit 1; }
BENCH_LAST="$(CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline \
  --manifest-path benchmark/Cargo.toml -- --smoke | tail -n 1)" \
  || { echo "verify.sh: FAIL — benchmark --smoke exited non-zero"; exit 1; }
grep -q '"correct":true' <<< "$BENCH_LAST" && grep -Eq '"failed":0[,}]' <<< "$BENCH_LAST" \
  || { echo "verify.sh: FAIL — benchmark --smoke was incorrect or had failed operations:"; \
       echo "$BENCH_LAST"; exit 1; }
echo "   benchmark --smoke: correct, 0 failed"

echo "verify.sh: all suites passed with pool off+serial and pool on+parallel; kill-and-resume, bench_alloc, sharding, obs smoke, kernels, serving, tracing, and the benchmark smoke OK"
