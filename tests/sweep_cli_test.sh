#!/usr/bin/env bash
# CLI contract tests for tools/sweep and tools/sweep-merge, run by ctest
# (see tests/CMakeLists.txt).
#
# Covers what the GoogleTest binaries cannot: the exit-status contract of the
# argument parser (exit 2 on usage errors — in particular the empty-list-item
# class: "robust,,naive", trailing commas, empty values, which used to be
# silently dropped — and every malformed estimator-spec shape: unbalanced
# parens, unknown families, unknown/duplicated keys, empty values), plus
# small end-to-end runs of the replay lane (--estimators robust,offline) and
# of a parameterized variant axis straight through main(). The fleet-scale
# section pins the --shard / --checkpoint / sweep-merge exit contracts:
# malformed shard shapes and incompatible checkpoints exit 2, and
# sweep-merge exits 2 on missing shards, duplicate shard indices,
# version-skewed dumps, a malformed cell and a cell count the records do
# not back, and requires a fleet sweep's report, trace CSV and
# result dump to be byte-identical at --threads 1 and --threads 0.
set -u

SWEEP="$1"
SWEEP_MERGE="${2:-}"
failures=0

# expect_status <expected-exit> <description> -- <args...>
expect_status() {
  local expected="$1" description="$2"
  shift 3  # expected, description, "--"
  "$SWEEP" "$@" >/tmp/sweep_cli_out.$$ 2>&1
  local got=$?
  if [ "$got" -ne "$expected" ]; then
    echo "FAIL: $description: expected exit $expected, got $got" >&2
    sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
    failures=$((failures + 1))
  else
    echo "ok: $description"
  fi
}

# -- Empty list items are usage errors, not silent drops --------------------
expect_status 2 "double comma in --estimators" -- \
  --estimators robust,,naive
expect_status 2 "trailing comma in --estimators" -- \
  --estimators robust,
expect_status 2 "leading comma in --servers" -- \
  --servers ,int
expect_status 2 "empty --polls value" -- \
  --polls ""
expect_status 2 "bare comma in --schedules" -- \
  --schedules ,

# -- Malformed estimator specs are usage errors ------------------------------
expect_status 2 "unbalanced open paren in spec" -- \
  --estimators "robust("
expect_status 2 "unbalanced close paren in spec" -- \
  --estimators "robust)"
expect_status 2 "unknown family" -- \
  --estimators "frobust"
expect_status 2 "unknown tunable key" -- \
  --estimators "robust(bogus_key=1)"
expect_status 2 "duplicated tunable key" -- \
  --estimators "robust(use_local_rate=0,use_local_rate=1)"
expect_status 2 "empty tunable value" -- \
  --estimators "robust(use_local_rate=)"
expect_status 2 "ill-typed tunable value" -- \
  --estimators "robust(use_local_rate=maybe)"
expect_status 2 "unknown choice value" -- \
  --estimators "offline(split=sideways)"
expect_status 2 "boundary value the PLL would reject at runtime" -- \
  --estimators "swntp(step_threshold=0)"
expect_status 2 "duplicate lanes by canonical label" -- \
  --estimators "robust,robust()"
expect_status 2 "poll period whose window counts overflow" -- \
  --estimators "robust(poll_period=1e-300)"
if ! grep -qF "poll_period" /tmp/sweep_cli_out.$$; then
  echo "FAIL: overflowing poll_period refusal does not name poll_period" >&2
  failures=$((failures + 1))
else
  echo "ok: overflowing poll_period refusal names poll_period"
fi

# -- Malformed fleet specs are usage errors ----------------------------------
expect_status 2 "malformed --fleet: n=0" -- \
  --fleet "fleet(n=0)"
expect_status 2 "malformed --fleet: n above the 1024 cap" -- \
  --fleet "fleet(n=1025)"
expect_status 2 "malformed --fleet: unknown key" -- \
  --fleet "fleet(x=1)"
expect_status 2 "malformed --fleet: unbalanced paren" -- \
  --fleet "fleet(n=4"
expect_status 2 "malformed --fleet: non-boolean hierarchy" -- \
  --fleet "fleet(hierarchy=yes)"
expect_status 2 "malformed --fleet: duplicate spec" -- \
  --fleet "fleet(n=2),fleet(n=2)"
expect_status 2 "malformed --fleet: unknown family" -- \
  --fleet "flotilla(n=2)"

# A replay estimator cannot score a multi-client fleet cell; the CLI refuses
# the combination up front with a precise message.
expect_status 2 "replay estimator x multi-client fleet" -- \
  --fleet "fleet(n=2)" --estimators robust,offline \
  --servers loc --envs machine --polls 16 --duration-hours 0.2 --warmup-s 60
if ! grep -q "single-client trace" /tmp/sweep_cli_out.$$; then
  echo "FAIL: replay x fleet refusal does not explain itself" >&2
  failures=$((failures + 1))
else
  echo "ok: replay x fleet refusal names the replay/fleet conflict"
fi

# -- --list-topologies surfaces the fleet tunables ---------------------------
"$SWEEP" --list-topologies >/tmp/sweep_cli_out.$$ 2>&1
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: --list-topologies: expected exit 0, got $got" >&2
  failures=$((failures + 1))
else
  echo "ok: --list-topologies exits 0"
fi
for needle in "n" "shared_congestion" "hierarchy" "bridge_warmup" "fleet("; do
  if ! grep -qF "$needle" /tmp/sweep_cli_out.$$; then
    echo "FAIL: --list-topologies does not surface '$needle'" >&2
    failures=$((failures + 1))
  else
    echo "ok: --list-topologies surfaces $needle"
  fi
done

# -- Fleet axis end-to-end ----------------------------------------------------
expect_status 0 "tiny 3-client fleet sweep" -- \
  --servers loc --envs machine --polls 16 --duration-hours 0.3 \
  --warmup-s 300 --threads 2 --fleet "fleet,fleet(n=3)"
for needle in "Fleet metrics" "fleet(n=3)"; do
  if ! grep -qF "$needle" /tmp/sweep_cli_out.$$; then
    echo "FAIL: fleet sweep report has no '$needle'" >&2
    failures=$((failures + 1))
  else
    echo "ok: fleet sweep report includes $needle"
  fi
done

# -- Other usage errors keep exiting 2 --------------------------------------
expect_status 2 "unknown estimator name" -- \
  --estimators robust,bogus
expect_status 2 "unknown option" -- \
  --frobnicate

# -- Replay lane end-to-end --------------------------------------------------
expect_status 0 "tiny replay-lane sweep (robust,offline)" -- \
  --servers loc --envs machine --polls 16 --duration-hours 0.5 \
  --warmup-s 600 --threads 2 --estimators robust,offline
if ! grep -q "offline" /tmp/sweep_cli_out.$$; then
  echo "FAIL: replay-lane sweep report has no offline rows" >&2
  failures=$((failures + 1))
else
  echo "ok: replay-lane sweep report includes offline rows"
fi
if ! "$SWEEP" --list-estimators | grep -q "offline"; then
  echo "FAIL: --list-estimators does not list offline" >&2
  failures=$((failures + 1))
else
  echo "ok: --list-estimators lists offline"
fi

# -- Variant axis end-to-end --------------------------------------------------
# The spec list carries parens and an in-paren comma; the run must succeed
# and every canonical label must reach the report.
expect_status 0 "variant-axis sweep (robust ablation + split smoother)" -- \
  --servers loc --envs machine --polls 16 --duration-hours 0.5 \
  --warmup-s 600 --threads 2 \
  --estimators "robust,robust(use_local_rate=0,enable_aging=0),offline(split=shifts)"
for label in "robust(use_local_rate=0,enable_aging=0)" "offline(split=shifts)"; do
  if ! grep -qF "$label" /tmp/sweep_cli_out.$$; then
    echo "FAIL: variant-axis report has no '$label' rows" >&2
    failures=$((failures + 1))
  else
    echo "ok: variant-axis report includes $label"
  fi
done

# -- --list-estimators surfaces tunable keys and defaults --------------------
"$SWEEP" --list-estimators >/tmp/sweep_cli_out.$$ 2>&1
for needle in "use_local_rate" "enable_level_shift" "split" "default" \
              "none|shifts" "0.128"; do
  if ! grep -qF "$needle" /tmp/sweep_cli_out.$$; then
    echo "FAIL: --list-estimators does not surface '$needle'" >&2
    failures=$((failures + 1))
  else
    echo "ok: --list-estimators surfaces $needle"
  fi
done

# -- Fleet-scale flags: malformed --shard shapes are usage errors ------------
# The convention is 1-based: I/N with 1 <= I <= N, so index 0, index > N,
# zero fleets, non-numeric parts and missing separators all exit 2, while
# the last shard N/N is valid.
for shape in 0/3 4/3 1/0 x/y 13 1/ /3 1//3 -1/3; do
  expect_status 2 "malformed --shard '$shape'" -- \
    --shard "$shape" --servers loc --envs machine --polls 16 \
    --duration-hours 0.2 --warmup-s 60
done
expect_status 2 "empty --checkpoint path" -- --checkpoint ""
expect_status 2 "empty --dump-results path" -- --dump-results ""

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# -- Fleet cells are identical on one worker and on every core ----------------
# Fleet cells spread their clients over the sweep's workers; the report,
# the per-exchange CSV and the result dump must not depend on how many.
# Each run writes into its own directory under the same file names, so even
# the report's trailing "per-exchange trace dump" line must match.
SWEEP_ABS="$(cd "$(dirname "$SWEEP")" && pwd)/$(basename "$SWEEP")"
FLEET_ARGS=(--servers int --envs machine --polls 16,64 --duration-hours 2
            --warmup-s 600 --estimators robust,swntp
            --fleet "fleet(n=8,shared_congestion=1),fleet(n=5,hierarchy=1)")
for threads in 1 0; do
  mkdir -p "$WORK/threads$threads"
  if (cd "$WORK/threads$threads" && "$SWEEP_ABS" "${FLEET_ARGS[@]}" \
      --threads "$threads" --csv trace.csv --dump-results cells.dump \
      > report.txt 2>&1); then
    echo "ok: fleet sweep at --threads $threads"
  else
    echo "FAIL: fleet sweep at --threads $threads exited non-zero" >&2
    failures=$((failures + 1))
  fi
done
for artifact in report.txt trace.csv cells.dump; do
  if cmp -s "$WORK/threads1/$artifact" "$WORK/threads0/$artifact"; then
    echo "ok: fleet $artifact identical at --threads 1 and 0"
  else
    echo "FAIL: fleet $artifact differs between --threads 1 and 0" >&2
    failures=$((failures + 1))
  fi
done

# Each cell's --csv rows pass through a part file next to the CSV, deleted
# as its scenario commits; a killed run's stale parts are removed before
# any cell starts, so a run over them writes the same CSV.
for threads in 1 0; do
  if ls "$WORK/threads$threads" | grep -q '\.part\.'; then
    echo "FAIL: --threads $threads left a --csv part file behind" >&2
    failures=$((failures + 1))
  else
    echo "ok: no --csv part file left at --threads $threads"
  fi
done
mkdir -p "$WORK/stale"
printf 'stale,row\n' > "$WORK/stale/trace.csv.part.0.0"
printf 'stale,row\n' > "$WORK/stale/trace.csv.part.3.1"
if (cd "$WORK/stale" && "$SWEEP_ABS" "${FLEET_ARGS[@]}" --threads 0 \
    --csv trace.csv > /dev/null 2>&1) &&
   cmp -s "$WORK/stale/trace.csv" "$WORK/threads1/trace.csv" &&
   ! ls "$WORK/stale" | grep -q '\.part\.'; then
  echo "ok: stale --csv parts removed and never reach the CSV"
else
  echo "FAIL: a run over stale --csv parts differs or leaves parts" >&2
  failures=$((failures + 1))
fi

# The last 1-based shard is valid — and a shard of a grid smaller than the
# fleet is a valid empty run, not an error.
expect_status 0 "valid last shard 3/3" -- \
  --shard 3/3 --servers loc,int,ext --envs machine --polls 16 \
  --duration-hours 0.2 --warmup-s 60 --threads 2
expect_status 0 "empty shard of a grid smaller than the fleet" -- \
  --shard 5/8 --servers loc --envs machine --polls 16 \
  --duration-hours 0.2 --warmup-s 60

# A checkpoint from a different invocation (different seed => different run
# fingerprint) is refused with exit 2 and a message naming the mismatch.
CK="$WORK/mismatch.ck"
expect_status 0 "checkpointed run (seed 1)" -- \
  --servers loc --envs machine --polls 16 --duration-hours 0.2 \
  --warmup-s 60 --seed 1 --checkpoint "$CK"
"$SWEEP" --servers loc --envs machine --polls 16 --duration-hours 0.2 \
  --warmup-s 60 --seed 2 --checkpoint "$CK" >/tmp/sweep_cli_out.$$ 2>&1
got=$?
if [ "$got" -ne 2 ] || ! grep -q "different sweep invocation" /tmp/sweep_cli_out.$$; then
  echo "FAIL: checkpoint fingerprint mismatch: expected exit 2 + precise message, got $got" >&2
  sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
  failures=$((failures + 1))
else
  echo "ok: checkpoint fingerprint mismatch exits 2 with a precise message"
fi

# -- sweep-merge exit contract -----------------------------------------------
if [ -n "$SWEEP_MERGE" ]; then
  merge_expect_status() {
    local expected="$1" description="$2"
    shift 3  # expected, description, "--"
    "$SWEEP_MERGE" "$@" >/tmp/sweep_cli_out.$$ 2>&1
    local got=$?
    if [ "$got" -ne "$expected" ]; then
      echo "FAIL: $description: expected exit $expected, got $got" >&2
      sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
      failures=$((failures + 1))
    else
      echo "ok: $description"
    fi
  }

  SHARD_ARGS=(--servers loc,int,ext --envs machine --polls 16
              --duration-hours 0.2 --warmup-s 60 --threads 2)
  for i in 1 2 3; do
    expect_status 0 "shard $i/3 with result dump" -- \
      "${SHARD_ARGS[@]}" --shard "$i/3" --dump-results "$WORK/s$i.dump"
  done

  merge_expect_status 0 "merging all three shards" -- \
    "$WORK/s1.dump" "$WORK/s2.dump" "$WORK/s3.dump"
  merge_expect_status 2 "no dumps at all" --
  merge_expect_status 2 "missing shard 3/3" -- \
    "$WORK/s1.dump" "$WORK/s2.dump"
  merge_expect_status 2 "duplicate shard index" -- \
    "$WORK/s1.dump" "$WORK/s1.dump" "$WORK/s2.dump"
  merge_expect_status 2 "nonexistent dump file" -- \
    "$WORK/s1.dump" "$WORK/s2.dump" "$WORK/does_not_exist.dump"

  # Version skew: bump the format version in one dump's first line.
  sed '1s/tscclock-sweep-results 3/tscclock-sweep-results 99/' \
    "$WORK/s1.dump" > "$WORK/skewed.dump"
  "$SWEEP_MERGE" "$WORK/skewed.dump" "$WORK/s2.dump" "$WORK/s3.dump" \
    >/tmp/sweep_cli_out.$$ 2>&1
  got=$?
  if [ "$got" -ne 2 ] || ! grep -q "version 99" /tmp/sweep_cli_out.$$; then
    echo "FAIL: version-skewed dump: expected exit 2 naming version 99, got $got" >&2
    sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
    failures=$((failures + 1))
  else
    echo "ok: version-skewed dump exits 2 naming both versions"
  fi

  # A malformed cell is refused naming the dump and the cell: the first
  # cell's FAILED flag (the seventh field after the "cell" tag) reads 2.
  awk -F'\t' 'BEGIN { OFS = "\t" }
               $1 == "cell" && !done { $8 = "2"; done = 1 } { print }' \
    "$WORK/s1.dump" > "$WORK/bad_cell.dump"
  "$SWEEP_MERGE" "$WORK/bad_cell.dump" "$WORK/s2.dump" "$WORK/s3.dump" \
    >/tmp/sweep_cli_out.$$ 2>&1
  got=$?
  if [ "$got" -ne 2 ] ||
     ! grep -qF "result dump $WORK/bad_cell.dump: cell 0: malformed" \
       /tmp/sweep_cli_out.$$; then
    echo "FAIL: malformed cell: expected exit 2 naming the file and cell 0, got $got" >&2
    sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
    failures=$((failures + 1))
  else
    echo "ok: malformed cell exits 2 naming the file and cell 0"
  fi

  # A cell count the records do not back is refused as truncated, not
  # reserved up front.
  sed 's/^cells 1$/cells 18446744073709551615/' "$WORK/s1.dump" \
    > "$WORK/huge_count.dump"
  "$SWEEP_MERGE" "$WORK/huge_count.dump" "$WORK/s2.dump" "$WORK/s3.dump" \
    >/tmp/sweep_cli_out.$$ 2>&1
  got=$?
  if [ "$got" -ne 2 ] ||
     ! grep -qF "truncated: cells 18446744073709551615 declared" \
       /tmp/sweep_cli_out.$$; then
    echo "FAIL: huge cell count: expected exit 2 naming cells, got $got" >&2
    sed 's/^/    /' /tmp/sweep_cli_out.$$ >&2
    failures=$((failures + 1))
  else
    echo "ok: huge cell count exits 2 as truncated, naming cells"
  fi

  # Fingerprint skew: a shard from a different seed cannot be merged in.
  expect_status 0 "shard 1/3 with a different seed" -- \
    "${SHARD_ARGS[@]}" --shard 1/3 --seed 7 --dump-results "$WORK/alien.dump"
  merge_expect_status 2 "fingerprint-skewed dump set" -- \
    "$WORK/alien.dump" "$WORK/s2.dump" "$WORK/s3.dump"

  merge_expect_status 2 "--csv without matching --trace count" -- \
    --csv "$WORK/merged.csv" "$WORK/s1.dump" "$WORK/s2.dump" "$WORK/s3.dump"
else
  echo "ok: sweep-merge binary not given; skipping merge contract tests"
fi

rm -f /tmp/sweep_cli_out.$$
exit $((failures > 0 ? 1 : 0))
