#!/usr/bin/env bash
# CLI contract tests for the trace-ingestion tools (tools/trace-import,
# tools/ntp-collect) and the sweep's --trace-in/--trace-out axis, run by
# ctest (see tests/CMakeLists.txt).
#
# Covers what the GoogleTest binaries cannot: the trace-import --validate
# exit contract (0 clean / 1 warnings / 2 malformed, one-line diagnostics
# naming the offending record), ntp-collect usage errors and the offline
# --mock collection, the sweep's exit-2 refusals for malformed/missing
# --trace-in files and online×--trace-in combinations, and the full
# record → export → import → replay round trip: a sim-exported trace must
# replay into byte-identical per-exchange CSV rows, and a mock-collected
# trace must import cleanly and produce a populated relative-only row. A
# trace cell's report, CSV and result dump must be byte-identical at
# --threads 1 and --threads 0.
set -u

SWEEP="$1"
TRACE_IMPORT="$2"
NTP_COLLECT="$3"
failures=0
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
OUT="$WORK/out.txt"

# run_expect <expected-exit> <description> <binary> -- <args...>
run_expect() {
  local expected="$1" description="$2" binary="$3"
  shift 4  # expected, description, binary, "--"
  "$binary" "$@" >"$OUT" 2>&1
  local got=$?
  if [ "$got" -ne "$expected" ]; then
    echo "FAIL: $description: expected exit $expected, got $got" >&2
    sed 's/^/    /' "$OUT" >&2
    failures=$((failures + 1))
  else
    echo "ok: $description"
  fi
}

# expect_in_output <description> <pattern>: grep the last run's output.
expect_in_output() {
  local description="$1" pattern="$2"
  if ! grep -q "$pattern" "$OUT"; then
    echo "FAIL: $description: output does not contain '$pattern'" >&2
    sed 's/^/    /' "$OUT" >&2
    failures=$((failures + 1))
  else
    echo "ok: $description"
  fi
}

# -- trace-import usage and --validate exit contract -------------------------
run_expect 2 "trace-import with no mode" "$TRACE_IMPORT" --
run_expect 2 "trace-import --validate plus --in is ambiguous" \
  "$TRACE_IMPORT" -- --validate x --in y --out z
run_expect 2 "trace-import --in without --out" "$TRACE_IMPORT" -- --in x
run_expect 2 "trace-import unknown option" "$TRACE_IMPORT" -- --frobnicate
run_expect 0 "trace-import --help exits 0" "$TRACE_IMPORT" -- --help

run_expect 2 "validate: nonexistent file" "$TRACE_IMPORT" -- \
  --validate "$WORK/does_not_exist.trace"
printf 'garbage\n' > "$WORK/garbage.trace"
run_expect 2 "validate: not a trace file" "$TRACE_IMPORT" -- \
  --validate "$WORK/garbage.trace"
expect_in_output "diagnostic names the format" "not a tscclock-trace file"

# A malformed record: reference-mode truth fields inside a relative trace.
cat > "$WORK/badrecord.trace" <<'EOF'
tscclock-trace 1
ground_truth relative
nominal_period 0x1p-30
poll_period 0x1p+4
client 0
samples
x	0	0	0	0	0	100	0x1p+0	0x1.8p+0	200	200	0x1p+0	0x1p+0	0x1p+0
end 1 0 1
EOF
run_expect 2 "validate: per-mode field-count violation" "$TRACE_IMPORT" -- \
  --validate "$WORK/badrecord.trace"
expect_in_output "diagnostic names the offending record" "record 0"

# A non-finite number is malformed, not a warning: a NaN server stamp could
# only fail deep inside the reduction.
cat > "$WORK/nan.trace" <<'EOF'
tscclock-trace 1
ground_truth relative
nominal_period 0x1p-30
poll_period 0x1p+4
client 0
samples
x	0	0	0	0	0	100	0x1p+0	0x1.8p+0	200	200
x	1	0	0	0	0	300	nan	0x1.2p+4	400	400
end 2 0 2
EOF
run_expect 2 "validate: non-finite record field" "$TRACE_IMPORT" -- \
  --validate "$WORK/nan.trace"
expect_in_output "diagnostic names the record and field" \
  "record 1: non-finite tb"

# A lost poll has no reply: a lost record carrying reply fields is
# malformed, since a replay would copy them into that row's columns.
cat > "$WORK/lostreply.trace" <<'EOF'
tscclock-trace 1
ground_truth relative
nominal_period 0x1p-30
poll_period 0x1p+4
client 0
samples
x	0	0	0	0	0	100	0x1p+0	0x1.8p+0	200	200
x	1	1	0	1	0	0	0x0p+0	0x0p+0	0	0
x	2	0	0	0	0	300	0x1p+5	0x1.2p+5	400	400
end 3 1 3
EOF
run_expect 2 "validate: lost record with a reply field" "$TRACE_IMPORT" -- \
  --validate "$WORK/lostreply.trace"
expect_in_output "diagnostic names the record and field" \
  "record 1: lost record carries server_changed=1"

# A warning-but-valid file: a single exchange is well-formed yet unscorable.
cat > "$WORK/short.trace" <<'EOF'
tscclock-trace 1
ground_truth relative
nominal_period 0x1p-30
poll_period 0x1p+4
client 0
samples
x	0	0	0	0	0	100	0x1p+0	0x1.8p+0	200	200
end 1 0 1
EOF
run_expect 1 "validate: unscorable trace exits 1" "$TRACE_IMPORT" -- \
  --validate "$WORK/short.trace"
expect_in_output "warning names the defect" "not scorable"

# -- ntp-collect usage errors ------------------------------------------------
run_expect 2 "ntp-collect with no server or mock" "$NTP_COLLECT" --
run_expect 2 "ntp-collect --server plus --mock" "$NTP_COLLECT" -- \
  --server localhost --mock --out "$WORK/x.trace"
run_expect 2 "ntp-collect without --out" "$NTP_COLLECT" -- --mock
run_expect 2 "ntp-collect bad --count" "$NTP_COLLECT" -- \
  --mock --out "$WORK/x.trace" --count 0
run_expect 2 "ntp-collect bad --server port" "$NTP_COLLECT" -- \
  --server localhost:99999 --out "$WORK/x.trace"
run_expect 0 "ntp-collect --help exits 0" "$NTP_COLLECT" -- --help

# -- sweep --trace-in/--trace-out refusals -----------------------------------
run_expect 2 "sweep refuses empty --trace-in" "$SWEEP" -- --trace-in ""
run_expect 2 "sweep refuses duplicate --trace-in" "$SWEEP" -- \
  --trace-in "$WORK/short.trace" --trace-in "$WORK/short.trace" \
  --estimators offline
run_expect 2 "sweep refuses nonexistent --trace-in" "$SWEEP" -- \
  --trace-in "$WORK/does_not_exist.trace" --estimators offline
run_expect 2 "sweep refuses malformed --trace-in" "$SWEEP" -- \
  --trace-in "$WORK/garbage.trace" --estimators offline
expect_in_output "refusal carries the validator's message" \
  "not a tscclock-trace file"
run_expect 2 "sweep refuses online estimators with --trace-in" "$SWEEP" -- \
  --trace-in "$WORK/short.trace" --estimators robust
expect_in_output "refusal points at replay specs" "replay specs"
run_expect 2 "sweep refuses multi-scenario --trace-out" "$SWEEP" -- \
  --trace-out "$WORK/x.trace" --estimators offline
run_expect 2 "sweep refuses fleet --trace-out" "$SWEEP" -- \
  --servers int --envs lab --polls 16 --fleet "fleet(n=2)" \
  --trace-out "$WORK/x.trace"

# -- End-to-end: record → export → import → replay, byte-identical -----------
SIM_ARGS=(--servers int --envs lab --polls 16 --schedules steady
          --estimators offline --duration-hours 2 --warmup-s 600 --seed 7)
run_expect 0 "sim run exporting a reference trace" "$SWEEP" -- \
  "${SIM_ARGS[@]}" --trace-out "$WORK/ref.trace" --csv "$WORK/direct.csv"
run_expect 0 "exported trace validates clean" "$TRACE_IMPORT" -- \
  --validate "$WORK/ref.trace"
# Two empty label lines ahead of the exported trace's real one: a repeated
# header key is malformed whatever the earlier value was.
awk '/^label /{print "label "; print "label "} {print}' "$WORK/ref.trace" \
  > "$WORK/duplabel.trace"
run_expect 2 "validate: duplicate (empty) label lines" "$TRACE_IMPORT" -- \
  --validate "$WORK/duplabel.trace"
expect_in_output "diagnostic names the duplicate key" \
  "duplicate header key 'label'"
run_expect 0 "canonicalize is byte-stable" "$TRACE_IMPORT" -- \
  --in "$WORK/ref.trace" --out "$WORK/ref2.trace"
if ! cmp -s "$WORK/ref.trace" "$WORK/ref2.trace"; then
  echo "FAIL: canonicalized trace differs from its canonical source" >&2
  failures=$((failures + 1))
else
  echo "ok: canonicalized trace is byte-identical"
fi
run_expect 0 "replaying the exported trace" "$SWEEP" -- \
  "${SIM_ARGS[@]}" --trace-in "$WORK/ref.trace" --csv "$WORK/replayed.csv"
# The imported cell's per-exchange rows must be byte-identical to the direct
# run's, modulo the scenario-name column.
cut -d, -f2- "$WORK/direct.csv" > "$WORK/direct.cut"
grep "^trace:\|^scenario," "$WORK/replayed.csv" | cut -d, -f2- \
  > "$WORK/replayed.cut"
if ! cmp -s "$WORK/direct.cut" "$WORK/replayed.cut"; then
  echo "FAIL: replayed CSV differs from the direct run's" >&2
  failures=$((failures + 1))
else
  echo "ok: exported trace replays byte-identical to the in-memory run"
fi

# -- Imported-trace cells are identical on one worker and on every core ------
# A trace cell smooths its replay lanes' windows in blocks on the sweep's
# workers; the report, the per-exchange CSV and the result dump must not
# depend on how many. Two days at a 16 s poll make several blocks. Each run
# writes into its own directory under the same file names, so even the
# report's trailing "per-exchange trace dump" line must match.
SWEEP_ABS="$(cd "$(dirname "$SWEEP")" && pwd)/$(basename "$SWEEP")"
LONG_ARGS=(--servers int --envs lab --polls 16 --schedules stress
           --estimators "offline,offline(split=shifts)" --duration-hours 48
           --warmup-s 600 --seed 11)
run_expect 0 "sim run exporting a two-day trace" "$SWEEP" -- \
  "${LONG_ARGS[@]}" --trace-out "$WORK/long.trace"
for threads in 1 0; do
  mkdir -p "$WORK/threads$threads"
  if (cd "$WORK/threads$threads" && "$SWEEP_ABS" "${LONG_ARGS[@]}" \
      --trace-in "$WORK/long.trace" --threads "$threads" --csv trace.csv \
      --dump-results cells.dump > report.txt 2>&1); then
    echo "ok: trace cell at --threads $threads"
  else
    echo "FAIL: trace cell at --threads $threads exited non-zero" >&2
    sed 's/^/    /' "$WORK/threads$threads/report.txt" >&2
    failures=$((failures + 1))
  fi
done
for artifact in report.txt trace.csv cells.dump; do
  if cmp -s "$WORK/threads1/$artifact" "$WORK/threads0/$artifact"; then
    echo "ok: trace cell $artifact identical at --threads 1 and 0"
  else
    echo "FAIL: trace cell $artifact differs between --threads 1 and 0" >&2
    failures=$((failures + 1))
  fi
done

# -- End-to-end: offline collection through the loopback mock ----------------
"$NTP_COLLECT" --mock --count 64 --out "$WORK/live.trace" --quiet \
  >"$OUT" 2>&1
collect_status=$?
if [ "$collect_status" -ne 0 ] && grep -q "mock server unavailable" "$OUT"
then
  echo "skip: loopback UDP unavailable in this sandbox" >&2
else
  if [ "$collect_status" -ne 0 ]; then
    echo "FAIL: mock collection: expected exit 0, got $collect_status" >&2
    sed 's/^/    /' "$OUT" >&2
    failures=$((failures + 1))
  else
    echo "ok: mock collection"
  fi
  run_expect 0 "collected trace validates clean" "$TRACE_IMPORT" -- \
    --validate "$WORK/live.trace"
  run_expect 0 "collected trace replays as a relative-only cell" "$SWEEP" -- \
    "${SIM_ARGS[@]}" --trace-in "$WORK/live.trace"
  expect_in_output "relative row is marked (rel)" "(rel)"
  # The tracking percentiles must be populated numbers, not n/a: the (rel)
  # comparison row carries at least one digit column.
  if grep "(rel)" "$OUT" | grep -q "n/a"; then
    echo "FAIL: relative-only row is unpopulated (n/a)" >&2
    failures=$((failures + 1))
  else
    echo "ok: relative-only row is populated"
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures trace CLI test(s) failed" >&2
  exit 1
fi
echo "all trace CLI tests passed"
