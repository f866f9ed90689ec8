#!/usr/bin/env bash
# Builds the workspace and runs every crate's test suite (--workspace: the
# root manifest is a package, so a bare `cargo test` covers only it) twice:
# once with the buffer pool disabled and kernels pinned serial
# (AUTOAC_POOL=0, AUTOAC_NUM_THREADS=1) and once with the pool enabled at the
# hardware thread count. Kernels are bitwise-deterministic across thread
# counts and the pool is bitwise-invisible, so both runs must pass
# identically. Several gates are tests in those suites, not passes here:
# pool-on equals pool-off (run_loop_digests.rs under the two runs, and
# pool_properties.rs), blocked kernels equal their references
# (kernel_parity.rs), the full-batch minibatch config equals the
# whole-graph pipeline (crates/core/src/minibatch.rs), and a batched and
# an unbatched autoac_serve daemon serve one pinned digest
# (crates/serve/tests/daemon.rs). Then:
#
#  - a literal kill-and-resume smoke test of the checkpoint subsystem: a
#    run SIGKILLed mid-search, resumed from its snapshots, must produce a
#    byte-identical result digest to an uninterrupted run;
#  - the checking pass: autoac-lint must exit clean over the repo, the full
#    suite must pass with AUTOAC_CHECK=1 armed (zero sanitizer findings on
#    clean code), and check_smoke must prove every analysis catches its
#    seeded bug class;
#  - the observability pass (obs_smoke): the same short search + retrain
#    with AUTOAC_OBS=0 and AUTOAC_OBS=1 must produce byte-identical result
#    digests (instrumentation is read-only), the AUTOAC_OBS=0 digest must
#    equal the committed results/obs_smoke_digest.json (the search and
#    training trajectories are pinned bit for bit; re-baseline it only with
#    a stated reason, as results/ANALYSIS.json), and the enabled run must
#    export an OBS_smoke.jsonl that parses line by line and carries the
#    promised span tree and trajectory series (the binary self-validates
#    and exits non-zero on any miss);
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
# only it — the smoke binaries (ckpt_smoke, obs_smoke, check_smoke, ...)
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

echo "== observability pass (obs_smoke: bitwise identity + JSONL validation) =="
OBS_SMOKE="./target/release/obs_smoke"
OBS_ARGS=(--scale tiny --search-epochs 6 --epochs 6)
AUTOAC_OBS=0 "$OBS_SMOKE" "${OBS_ARGS[@]}" --out "$WORK/obs_off.json"
if ! diff results/obs_smoke_digest.json "$WORK/obs_off.json"; then
  echo "verify.sh: FAIL — obs_smoke digest drifted from results/obs_smoke_digest.json."
  echo "  If the change is intentional, re-baseline with a stated reason:"
  echo "    ./target/release/obs_smoke ${OBS_ARGS[*]} --out results/obs_smoke_digest.json"
  exit 1
fi
AUTOAC_OBS=1 "$OBS_SMOKE" "${OBS_ARGS[@]}" --out "$WORK/obs_on.json" --obs-dir "$WORK/obs" \
  || { echo "verify.sh: FAIL — obs export failed self-validation"; exit 1; }
diff "$WORK/obs_off.json" "$WORK/obs_on.json" \
  || { echo "verify.sh: FAIL — AUTOAC_OBS=1 perturbed the training trajectory"; exit 1; }
echo "   obs_smoke digest matches results/obs_smoke_digest.json, AUTOAC_OBS=1 is byte-identical to AUTOAC_OBS=0; OBS_smoke.jsonl validated"

echo "== benchmark pass (benchmark/ unit tests + --smoke) =="
# Its own target dir (gitignored): benchmark/ is a separate package.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline \
  --manifest-path benchmark/Cargo.toml \
  || { echo "verify.sh: FAIL — benchmark unit tests failed"; exit 1; }
BENCHMARK_LAST="$(CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline \
  --manifest-path benchmark/Cargo.toml -- --smoke | tail -n 1)" \
  || { echo "verify.sh: FAIL — benchmark --smoke exited non-zero"; exit 1; }
grep -q '"correct":true' <<< "$BENCHMARK_LAST" && grep -Eq '"failed":0[,}]' <<< "$BENCHMARK_LAST" \
  || { echo "verify.sh: FAIL — benchmark --smoke was incorrect or had failed operations:"; \
       echo "$BENCHMARK_LAST"; exit 1; }
echo "   benchmark --smoke: correct, 0 failed"

echo "verify.sh: all suites passed with pool off+serial and pool on+parallel; kill-and-resume, obs smoke and the benchmark smoke OK"
