#!/bin/sh
# Parallel-verdict equivalence test for the semantics-check engine.
#
#   verdict_equiv.sh <path-to-flayc> <programs-dir>
#
# The engine's contract is that a verdict is a pure function of the
# specialized expression: the same program and update trace must print
# byte-identical output whatever the --jobs count, i.e. however the probes
# are sliced across the per-worker warm SAT sessions and whichever session
# settles an expression first. This runs `flayc fuzz` (whose final
# "specialization verdicts" line summarizes every engine verdict of a full
# specialize), `flayc specialize` and `flayc ifc` with --jobs 1 and
# --jobs 4 and diffs the complete stdout.
set -u

FLAYC=$1
PROGRAMS=$2
TMP=${TMPDIR:-/tmp}/verdict_equiv.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

failures=0
note() { printf '%s\n' "$*"; }
fail() { note "FAIL: $*"; failures=$((failures + 1)); }

# compare <label> -- <subcommand args...>
# Runs the command with --jobs 1 and --jobs 4 and requires identical stdout.
compare() {
  label=$1; shift; shift
  "$FLAYC" "$@" >"$TMP/ref.out" 2>&1 || {
    fail "$label: baseline run failed"
    return
  }
  "$FLAYC" "$@" --jobs 4 >"$TMP/var.out" 2>&1 || {
    fail "$label (--jobs 4): run failed"
    return
  }
  if ! cmp -s "$TMP/ref.out" "$TMP/var.out"; then
    fail "$label: output differs with --jobs 4"
    diff "$TMP/ref.out" "$TMP/var.out" | head -20
  else
    note "ok: $label identical with --jobs 4"
  fi
}

for prog in middleblock switch dash beaucoup; do
  compare "fuzz $prog" \
    -- fuzz "$PROGRAMS/$prog.p4l" --updates 60 --seed 1
  compare "specialize $prog" \
    -- specialize "$PROGRAMS/$prog.p4l"
done
compare "fuzz scion" \
  -- fuzz "$PROGRAMS/scion.p4l" --updates 40 --seed 2

# Information-flow verdicts ride the same check engine, so the rendered IFC
# report (including every per-update violation transition) must also be
# byte-identical across jobs settings.
for prog in middleblock switch scion; do
  compare "ifc $prog" \
    -- ifc "$PROGRAMS/$prog.p4l" \
       --policy "$PROGRAMS/ifc/$prog-strict.policy" --updates 30 --seed 7
done
compare "fuzz+ifc middleblock" \
  -- fuzz "$PROGRAMS/middleblock.p4l" --updates 30 --seed 3 \
     --ifc-policy "$PROGRAMS/ifc/middleblock-open.policy"

if [ "$failures" -ne 0 ]; then
  note "$failures check(s) failed"
  exit 1
fi
note "all parallel verdict equivalence checks passed"
