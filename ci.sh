#!/usr/bin/env bash
# CI gate for the workspace. Run from the repo root:
#
#   ./ci.sh          # full gate: fmt, clippy, build, tests, smoke run
#   ./ci.sh --quick  # skip the release build + smoke run (fast local check)
#
# Everything here runs fully offline: all third-party deps are vendored
# under vendor/, so no registry access is needed (or attempted).

set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { echo; echo "==> $*"; }

step "rustfmt (check only)"
cargo fmt --all --check

step "clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (no deps, warnings are errors)"
# Explicit package list: the vendored crates are workspace members but their
# docs are not ours to gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p socready -p des -p simmpi -p hpc-apps -p bench -p sched \
  -p kernels -p netsim -p cluster -p soc-arch -p soc-power -p trends

step "doc-tests (runnable API examples)"
cargo test --doc --quiet -p des -p simmpi -p bench -p sched

step "tests (debug, whole workspace)"
cargo test --workspace --quiet

step "golden figures + sweep determinism (in-process)"
cargo test --quiet --test golden_figures --test determinism

step "performance ledger builds and passes its tests against the workspace"
# The ledger is its own package (crates/bench/src/bin/ledger/) on the
# workspace crates' public API: a deletion that breaks the benchmark fails here.
cargo test --release --offline --locked --manifest-path crates/bench/src/bin/ledger/Cargo.toml

if [[ $quick -eq 0 ]]; then
  step "release build"
  cargo build --release --workspace --quiet

  step "smoke: repro --quick --headline resilience"
  out=$(mktemp -d)
  cargo run --release -p bench --bin repro -- --quick --headline resilience --json "$out"
  test -s "$out/resilience.json" || {
    echo "error: resilience smoke run produced no JSON" >&2
    exit 1
  }
  # The artefact must contain a populated sweep, not just an empty shell.
  grep -q '"inflation"' "$out/resilience.json" || {
    echo "error: resilience.json has no sweep cells" >&2
    exit 1
  }
  echo "smoke OK: $(wc -c <"$out/resilience.json") bytes of resilience.json"
  rm -rf "$out"

  step "datacenter-smoke: 1e5-job replay, serial vs parallel vs pinned bytes"
  # The multi-tenant scheduler replays the --quick job stream (1e5 jobs per
  # policy cell, faults active) twice — once on the serial executor and once
  # with worker threads — and the datacenter.json artefacts must match
  # byte-for-byte: the stream, the fault plan, and every policy decision are
  # functions of the seeds alone, never of scheduling on the host.
  dc_s=$(mktemp -d) && dc_p=$(mktemp -d)
  cargo run --release -p bench --bin repro -- \
    --quick --headline datacenter --serial --json "$dc_s" \
    >"$dc_s/stdout.txt" 2>"$dc_s/stderr.txt"
  cargo run --release -p bench --bin repro -- \
    --quick --headline datacenter --jobs "$(nproc)" --json "$dc_p" \
    >"$dc_p/stdout.txt" 2>"$dc_p/stderr.txt"
  test -s "$dc_s/datacenter.json" || {
    echo "error: datacenter smoke run produced no JSON" >&2
    cat "$dc_s/stderr.txt" >&2 || true
    exit 1
  }
  grep -q '"crashes"' "$dc_s/datacenter.json" || {
    echo "error: datacenter.json reports no fault accounting" >&2
    exit 1
  }
  diff "$dc_s/datacenter.json" "$dc_p/datacenter.json" || {
    echo "error: datacenter.json diverged between --serial and --jobs $(nproc)" >&2
    exit 1
  }
  # Two runs of one build agree even when the replay loop drifts, and the
  # 1e4-job golden reaches less of the loop than this run: its fair-preempt
  # cell never preempts and starts jobs in the same pass. Pin this run's
  # bytes too, so any change to replay results shows here.
  dc_pin=0e7c2398c54ff43d3e6a38b287f15227859189bad9d7343de411111c5c2035a1
  dc_sha=$(sha256sum "$dc_s/datacenter.json" | awk '{print $1}')
  [[ "$dc_sha" == "$dc_pin" ]] || {
    echo "error: --quick datacenter.json has sha256 $dc_sha, pinned $dc_pin" >&2
    echo "error: a deliberate change to the replay must update the pin in ci.sh" >&2
    echo "error: and say why in CHANGES.md" >&2
    exit 1
  }
  echo "datacenter smoke OK: $(wc -c <"$dc_s/datacenter.json") bytes, serial == parallel == pin"
  rm -rf "$dc_s" "$dc_p"

  step "scale smoke: event-driven process model under time/RSS budget"
  # The 1024-process event ring plus the 4096-rank ping-ring must finish
  # inside a fixed wall-clock budget and stay inside a fixed RSS budget (no
  # thread-per-rank stacks).
  scale_dir=$(mktemp -d)
  scale_json="$scale_dir/BENCH_scale.json"
  if [[ -x /usr/bin/time ]]; then
    /usr/bin/time -v -o "$scale_dir/time.log" \
      timeout 180 target/release/scale_bench "$scale_json"
    rss_kb=$(awk '/Maximum resident set size/ {print $NF}' "$scale_dir/time.log")
    if [[ -n "$rss_kb" && "$rss_kb" -gt $((4 * 1024 * 1024)) ]]; then
      echo "error: scale smoke used ${rss_kb} kB RSS (budget 4 GiB)" >&2
      exit 1
    fi
    echo "scale smoke RSS: ${rss_kb:-?} kB"
  else
    timeout 180 target/release/scale_bench "$scale_json"
  fi
  grep -q '"peak_ranks": 4096' "$scale_json" || {
    echo "error: BENCH_scale.json missing the 4096-rank datum" >&2
    exit 1
  }
  # The trace layer's enabled-but-uninterested residual (an installed
  # NullTracer) must stay under 2% of the untraced ring.
  overhead=$(grep -o '"trace_overhead_pct": [0-9.]*' "$scale_json" | awk '{print $2}')
  awk -v o="$overhead" 'BEGIN { exit !(o != "" && o < 2.0) }' || {
    echo "error: NullTracer overhead is ${overhead:-missing}% (budget < 2%)" >&2
    exit 1
  }
  # The fair-sharing flow model must keep its wall-clock win on the dense
  # alltoall workload: whole-flow scheduling collapses the event count, so
  # the same virtual job must simulate at least 5x faster than the
  # per-message event model.
  flow_speedup=$(grep -o '"flow_speedup": [0-9.]*' "$scale_json" | awk '{print $2}')
  awk -v s="$flow_speedup" 'BEGIN { exit !(s != "" && s >= 5.0) }' || {
    echo "error: flow model only ${flow_speedup:-missing}x the event model (need >= 5x)" >&2
    exit 1
  }
  echo "scale smoke OK: NullTracer overhead ${overhead}%, flow net model ${flow_speedup}x the event model"
  rm -rf "$scale_dir"

  step "net-ablation-smoke: flow model tracks the event model on the goldens"
  # Run the golden figures under both network models (repro --ablate-net)
  # and gate the flow model's worst per-point relative error on fig7 — the
  # paper's Fig 12 ping-pong curves, the figure most sensitive to the
  # network model — under 2%. The full per-figure delta table lands in
  # ablate_net.json (journaled like any other artefact).
  adir=$(mktemp -d)
  target/release/repro --golden --ablate-net --serial --json "$adir" \
    >"$adir/stdout.txt" 2>"$adir/stderr.txt"
  test -s "$adir/ablate_net.json" || {
    echo "error: --ablate-net produced no ablate_net.json" >&2
    cat "$adir/stderr.txt" >&2 || true
    exit 1
  }
  fig7_err=$(grep -o '"max_rel_err_fig7": [0-9.e-]*' "$adir/ablate_net.json" | awk '{print $2}')
  awk -v e="$fig7_err" 'BEGIN { exit !(e != "" && e + 0 < 0.02) }' || {
    echo "error: flow model fig7 max rel error is ${fig7_err:-missing} (budget < 0.02)" >&2
    exit 1
  }
  echo "net ablation OK: flow model fig7 max rel error ${fig7_err} (< 0.02)"
  # The in-process golden test tolerates 1e-9 relative drift; the flow
  # model's re-share must reproduce the committed bytes exactly, so a change
  # to its float operations fails here even when it hides under that bound.
  cmp "$adir/ablate_net.json" tests/goldens/ablate_net.json || {
    echo "error: --golden --ablate-net output differs from tests/goldens/ablate_net.json" >&2
    exit 1
  }
  echo "net ablation OK: ablate_net.json byte-identical to the golden"
  rm -rf "$adir"

  step "sweep executor: serial vs parallel byte-identity (binary level)"
  # Full --golden artefact run twice: the reference serial schedule and a
  # many-worker schedule. Any divergence in stdout or in any JSON artefact
  # (execution stats excluded — they are the one legitimately nondeterministic
  # output) fails the gate.
  repro=target/release/repro
  jobs=$(nproc)
  sdir=$(mktemp -d) && pdir=$(mktemp -d)
  t0=$SECONDS
  "$repro" --golden --serial --json "$sdir" >"$sdir/stdout.txt" 2>"$sdir/stderr.txt"
  t_serial=$((SECONDS - t0))
  t0=$SECONDS
  "$repro" --golden --jobs "$jobs" --json "$pdir" >"$pdir/stdout.txt" 2>"$pdir/stderr.txt"
  t_parallel=$((SECONDS - t0))
  diff "$sdir/stdout.txt" "$pdir/stdout.txt" || {
    echo "error: stdout diverged between --serial and --jobs $jobs" >&2
    exit 1
  }
  diff -r -x '_journal.jsonl' -x '_sweep_stats.json' -x 'stdout.txt' -x 'stderr.txt' "$sdir" "$pdir" || {
    echo "error: JSON artefacts diverged between --serial and --jobs $jobs" >&2
    exit 1
  }
  echo "byte-identity OK (serial ${t_serial}s vs ${jobs}-worker ${t_parallel}s)"
  # The in-process golden test tolerates 1e-9 relative drift, which would
  # hide an inexact rounding or a reordered float expression. Every JSON
  # artefact of the serial golden run must reproduce its committed golden
  # byte for byte.
  ngolden=0
  for f in "$sdir"/*.json; do
    name=$(basename "$f")
    [[ $name == _* ]] && continue
    cmp "$f" "tests/goldens/$name" || {
      echo "error: --golden --serial $name differs from tests/goldens/$name" >&2
      exit 1
    }
    ngolden=$((ngolden + 1))
  done
  echo "golden bytes OK: ${ngolden} JSON artefacts identical to tests/goldens/"
  grep -o 'sweep: .*' "$pdir/stderr.txt" || true
  # The speedup expectation only means something with real cores; CI boxes
  # with cgroup-limited cpu counts still enforce identity above.
  if [[ "$jobs" -ge 4 && $t_serial -ge 8 && $((t_parallel * 2)) -gt $t_serial ]]; then
    echo "error: ${jobs}-worker run (${t_parallel}s) is not 2x faster than serial (${t_serial}s)" >&2
    exit 1
  fi
  rm -rf "$pdir"

  step "trace: --trace leaves artefacts byte-identical, trace2flame folds it"
  # The same golden serial run with a structured trace recorded must match
  # the untraced reference byte-for-byte, and the emitted JSONL must fold
  # into non-empty collapsed-stack output (docs/TRACE_FORMAT.md).
  tdir=$(mktemp -d)
  "$repro" --golden --serial --json "$tdir" --trace "$tdir/trace.jsonl" \
    >"$tdir/stdout.txt" 2>"$tdir/stderr.txt"
  diff "$sdir/stdout.txt" "$tdir/stdout.txt" || {
    echo "error: stdout changed when tracing was enabled" >&2
    exit 1
  }
  diff -r -x '_journal.jsonl' -x '_sweep_stats.json' -x 'stdout.txt' -x 'stderr.txt' \
    -x 'trace.jsonl' "$sdir" "$tdir" || {
    echo "error: JSON artefacts changed when tracing was enabled" >&2
    exit 1
  }
  head -1 "$tdir/trace.jsonl" | grep -q '"kind":"trace_start"' || {
    echo "error: trace.jsonl is missing the trace_start header" >&2
    exit 1
  }
  target/release/trace2flame "$tdir/trace.jsonl" --folded "$tdir/folded.txt" \
    2>"$tdir/t2f.stderr.txt"
  grep -q '^rank0;' "$tdir/folded.txt" || {
    echo "error: trace2flame produced no rank0 collapsed stacks" >&2
    cat "$tdir/t2f.stderr.txt" >&2 || true
    exit 1
  }
  echo "trace OK: $(wc -l <"$tdir/trace.jsonl") JSONL lines -> $(wc -l <"$tdir/folded.txt") collapsed stacks, artefacts unchanged"
  rm -rf "$tdir"

  step "supervisor: SIGKILL mid-sweep, then --resume byte-identity"
  # Start a full golden run, SIGKILL it once the journal shows the first
  # completed artefact, then --resume in the same directory. The resumed
  # directory must be byte-identical to the uninterrupted serial reference.
  # (If the run finishes before the kill lands, --resume skips everything —
  # the identity check still has to hold, so the stage stays race-tolerant.)
  kdir=$(mktemp -d)
  "$repro" --golden --jobs "$jobs" --json "$kdir" \
    >"$kdir/killed_stdout.txt" 2>"$kdir/killed_stderr.txt" &
  kpid=$!
  for _ in $(seq 1 600); do
    grep -q '"kind":"artifact"' "$kdir/_journal.jsonl" 2>/dev/null && break
    kill -0 "$kpid" 2>/dev/null || break
    sleep 0.1
  done
  kill -9 "$kpid" 2>/dev/null || true
  wait "$kpid" 2>/dev/null || true
  # On fast machines the run may finish before the kill lands. Make the
  # interruption deterministic either way: delete one artefact and tear the
  # journal mid-record, exactly the state a crash can leave behind. --resume
  # must tolerate the torn tail, re-derive the missing artefact, and skip
  # the verified rest.
  rm -f "$kdir/fig6.json"
  truncate -s -7 "$kdir/_journal.jsonl"
  "$repro" --golden --jobs "$jobs" --json "$kdir" --resume \
    >"$kdir/stdout.txt" 2>"$kdir/stderr.txt"
  diff -r -x '_journal.jsonl' -x '_sweep_stats.json' -x 'stdout.txt' -x 'stderr.txt' \
    -x 'killed_*.txt' "$sdir" "$kdir" || {
    echo "error: --resume after SIGKILL did not reproduce the reference artefacts" >&2
    exit 1
  }
  grep -o 'resume: .*' "$kdir/stderr.txt" || true
  if grep -q 'resume: fig6 verified' "$kdir/stderr.txt"; then
    echo "error: deleted fig6.json was skipped instead of re-derived" >&2
    exit 1
  fi
  echo "kill+resume OK: resumed directory matches the uninterrupted reference"
  rm -rf "$kdir"

  step "supervisor: injected panic is quarantined, run degrades to exit 3"
  # A cell that always panics must poison only its own artefact: the run
  # exits 3 (degraded, not a crash), fig5.json is never persisted, and every
  # other artefact is byte-identical to the reference.
  qdir=$(mktemp -d)
  set +e
  "$repro" --golden --serial --json "$qdir" --inject-panic fig5 \
    >"$qdir/stdout.txt" 2>"$qdir/stderr.txt"
  rc=$?
  set -e
  if [[ $rc -ne 3 ]]; then
    echo "error: --inject-panic fig5 exited $rc (want 3 = degraded)" >&2
    tail -20 "$qdir/stderr.txt" >&2 || true
    exit 1
  fi
  if [[ -e "$qdir/fig5.json" ]]; then
    echo "error: quarantined artefact fig5.json was persisted" >&2
    exit 1
  fi
  diff -r -x 'fig5.json' -x '_journal.jsonl' -x '_sweep_stats.json' \
    -x 'stdout.txt' -x 'stderr.txt' "$sdir" "$qdir" || {
    echo "error: artefacts beyond the quarantined fig5 diverged from the reference" >&2
    exit 1
  }
  grep -q 'quarantined' "$qdir/stderr.txt" || {
    echo "error: degraded run did not report the quarantine on stderr" >&2
    exit 1
  }
  echo "quarantine OK: fig5 isolated, remaining artefacts intact, exit 3"
  rm -rf "$sdir" "$qdir"

  step "supervisor: the wall watchdog quarantines every cell over its limit, once"
  # No cell finishes within a microsecond of its thread being spawned, so
  # each of Fig 7's six cells must time out and be quarantined on its one
  # run: exit 3, no fig7.json, six quarantined `timeout` cell records in
  # the journal and six timeouts in the sweep stats.
  wdir=$(mktemp -d)
  set +e
  "$repro" --golden --serial --figure 7 --max-cell-seconds 0.000001 --json "$wdir" \
    >"$wdir/stdout.txt" 2>"$wdir/stderr.txt"
  rc=$?
  set -e
  if [[ $rc -ne 3 ]]; then
    echo "error: --max-cell-seconds 0.000001 exited $rc (want 3 = degraded)" >&2
    tail -20 "$wdir/stderr.txt" >&2 || true
    exit 1
  fi
  if [[ -e "$wdir/fig7.json" ]]; then
    echo "error: fig7.json was persisted although every cell overran the watchdog" >&2
    exit 1
  fi
  ncells=$(grep -c '"kind":"cell".*"status":"quarantined".*"failure":"timeout' \
    "$wdir/_journal.jsonl" || true)
  if [[ $ncells -ne 6 ]]; then
    echo "error: journal has $ncells quarantined timeout cells (want 6)" >&2
    grep '"kind":"cell"' "$wdir/_journal.jsonl" >&2 || true
    exit 1
  fi
  timeouts=$(grep -o '"timeouts": [0-9]*' "$wdir/_sweep_stats.json" | awk '{print $2}')
  if [[ "$timeouts" != 6 ]]; then
    echo "error: _sweep_stats.json reports ${timeouts:-no} watchdog timeouts (want 6)" >&2
    exit 1
  fi
  echo "watchdog OK: 6 fig7 cells quarantined as timeouts on their one run, exit 3"
  rm -rf "$wdir"

  step "model checker: exhaustive pass, counterexample, deterministic replay"
  # A real protocol scenario must enumerate its bounded space to exhaustion
  # with no violation; the broken-retry fixture must yield a replayable
  # counterexample (exit 3) whose replay reproduces the violation (exit 3).
  # The counterexample's trace and a `--trace`d replay take the one tracer
  # path (the run options), so the two files must be byte-identical.
  mdir=$(mktemp -d)
  timeout 120 "$repro" --mc ckpt-crash --max-cell-seconds 60 \
    >"$mdir/pass.txt" 2>"$mdir/pass.stderr.txt"
  grep -q 'result: PASS (bounded space fully enumerated)' "$mdir/pass.txt" || {
    echo "error: --mc ckpt-crash did not exhaust its bounded space" >&2
    cat "$mdir/pass.txt" >&2 || true
    exit 1
  }
  set +e
  timeout 120 "$repro" --mc retry-lossy-broken --max-cell-seconds 60 \
    --json "$mdir" >"$mdir/viol.txt" 2>"$mdir/viol.stderr.txt"
  rc=$?
  set -e
  if [[ $rc -ne 3 ]]; then
    echo "error: --mc retry-lossy-broken exited $rc (want 3 = violation found)" >&2
    cat "$mdir/viol.txt" >&2 || true
    exit 1
  fi
  ce="$mdir/mc_retry-lossy-broken_counterexample.json"
  test -s "$ce" || {
    echo "error: violation produced no counterexample file" >&2
    exit 1
  }
  grep -q '"property": "safety.exactly-once"' "$ce" || {
    echo "error: counterexample names the wrong property" >&2
    cat "$ce" >&2 || true
    exit 1
  }
  head -1 "$mdir/mc_retry-lossy-broken.trace.jsonl" | grep -q '"kind":"trace_start"' || {
    echo "error: counterexample trace JSONL is missing or malformed" >&2
    exit 1
  }
  set +e
  timeout 120 "$repro" --mc-replay "$ce" --trace "$mdir/replay.trace.jsonl" \
    >"$mdir/replay.txt" 2>"$mdir/replay.stderr.txt"
  rc=$?
  set -e
  if [[ $rc -ne 3 ]]; then
    echo "error: --mc-replay exited $rc (want 3 = violation reproduced)" >&2
    cat "$mdir/replay.txt" >&2 || true
    exit 1
  fi
  grep -q 'reproduced' "$mdir/replay.txt" || {
    echo "error: replay did not reproduce the recorded violation" >&2
    cat "$mdir/replay.txt" >&2 || true
    exit 1
  }
  cmp "$mdir/replay.trace.jsonl" "$mdir/mc_retry-lossy-broken.trace.jsonl" || {
    echo "error: a traced replay differs from the counterexample's trace" >&2
    exit 1
  }
  echo "mc smoke OK: ckpt-crash exhausted, broken fixture counterexample found and replayed"
  echo "  (traced replay byte-identical to the counterexample trace)"
  rm -rf "$mdir"
fi

echo
echo "CI gate passed."
