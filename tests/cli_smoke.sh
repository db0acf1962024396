#!/bin/sh
# CLI contract smoke test for flayc.
#
#   cli_smoke.sh <path-to-flayc> <programs-dir>
#
# Checks the strict argument-handling contract (unknown flags, missing
# values, malformed values, and bad fault plans all exit 2 with exactly one
# diagnostic line on stderr) and then smoke-runs the fault-tolerance
# commands end to end at a tiny budget.
set -u

FLAYC=$1
PROGRAMS=$2
PROG=$PROGRAMS/middleblock.p4l
failures=0

note() { printf '%s\n' "$*"; }
fail() { note "FAIL: $*"; failures=$((failures + 1)); }

# expect_arg_error <description> -- <args...>
# The command must exit 2 and print exactly one line to stderr.
expect_arg_error() {
  desc=$1; shift; shift
  err=$("$FLAYC" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    fail "$desc: expected exit 2, got $rc"
    return
  fi
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$lines" -ne 1 ]; then
    fail "$desc: expected a one-line diagnostic, got $lines lines: $err"
    return
  fi
  note "ok: $desc ($err)"
}

expect_ok() {
  desc=$1; shift; shift
  if ! "$FLAYC" "$@" >/dev/null 2>&1; then
    fail "$desc: expected success, got exit $?"
    return
  fi
  note "ok: $desc"
}

# --- strict argument handling -------------------------------------------------
expect_arg_error "unknown flag rejected" \
  -- difftest "$PROG" --no-such-flag
expect_arg_error "unknown flag rejected even after valid ones" \
  -- difftest "$PROG" --updates 5 --frobnicate
expect_arg_error "missing value for --updates" \
  -- difftest "$PROG" --updates
expect_arg_error "missing value for --state-dir" \
  -- crashtest "$PROG" --state-dir
expect_arg_error "non-numeric --kill-points" \
  -- crashtest "$PROG" --kill-points many
expect_arg_error "malformed --replay-updates" \
  -- difftest "$PROG" --replay-updates 1,x,3
expect_arg_error "unknown fault plan key" \
  -- difftest "$PROG" --fault-plan bogus-key=3
expect_arg_error "extra positional argument" \
  -- difftest "$PROG" extra.p4l
expect_arg_error "missing value for --devices" \
  -- fleet "$PROG" --devices
expect_arg_error "non-numeric --devices" \
  -- fleet "$PROG" --devices lots
expect_arg_error "zero --devices rejected" \
  -- fleet "$PROG" --devices 0
expect_arg_error "non-numeric --queue-cap" \
  -- fleet "$PROG" --queue-cap big
expect_arg_error "bad fault plan on fleet" \
  -- fleet "$PROG" --fault-plan bogus-key=3
# The check engine has one probe path: its former A/B switches are unknown
# flags.
expect_arg_error "--no-verdict-cache is gone" \
  -- ifc "$PROG" --policy "$PROGRAMS/ifc/middleblock-open.policy" \
     --no-verdict-cache
expect_arg_error "--no-incremental-sat is gone" \
  -- fuzz "$PROG" --updates 5 --no-incremental-sat
expect_arg_error "--no-shared-cache is gone" \
  -- fleet "$PROG" --devices 2 --no-shared-cache
expect_arg_error "unknown traffic mix" \
  -- replay "$PROG" --mix elephant-flows
expect_arg_error "missing value for --mix" \
  -- replay "$PROG" --mix
expect_arg_error "non-numeric --churn-rate" \
  -- replay "$PROG" --churn-rate sometimes
expect_arg_error "negative --churn-rate" \
  -- replay "$PROG" --churn-rate -3
# The fleet has one transport (direct calls); the multi-process deployment
# is `daemon`/`agent`. The former socket emulation's flag is unknown.
expect_arg_error "--transport is gone from fleet" \
  -- fleet "$PROG" --devices 2 --updates 10 --seed 1 --transport socket
expect_arg_error "--transport is gone from replay" \
  -- replay "$PROG" --updates 12 --packets 2000 --transport socket
expect_arg_error "missing value for --listen" \
  -- daemon "$PROG" --listen
expect_arg_error "daemon without --listen rejected" \
  -- daemon "$PROG"
expect_arg_error "agent without --connect rejected" \
  -- agent "$PROG"
expect_arg_error "zero --window rejected" \
  -- replay "$PROG" --window 0
expect_arg_error "ifc without --policy rejected" \
  -- ifc "$PROG"
expect_arg_error "missing value for --policy" \
  -- ifc "$PROG" --policy
expect_arg_error "missing value for --ifc-policy" \
  -- fuzz "$PROG" --ifc-policy
expect_arg_error "unreadable policy file rejected" \
  -- ifc "$PROG" --policy "$PROGRAMS/ifc/no-such.policy"
BADPOLICY=${TMPDIR:-/tmp}/flayc-smoke-bad-$$.policy
printf 'label secret hdr.no.such.field\nsink sm.egress_spec allow none\n' \
  >"$BADPOLICY"
expect_arg_error "policy naming an unknown field rejected" \
  -- ifc "$PROG" --policy "$BADPOLICY"
printf 'frobnicate a b\n' >"$BADPOLICY"
expect_arg_error "malformed policy directive rejected" \
  -- ifc "$PROG" --policy "$BADPOLICY"
rm -f "$BADPOLICY"

# Usage (no command / unknown command) also exits 2, but multi-line.
"$FLAYC" >/dev/null 2>&1
[ $? -eq 2 ] || fail "bare invocation: expected exit 2"
"$FLAYC" frobnicate "$PROG" >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown command: expected exit 2"

# --- fault-tolerance smoke ----------------------------------------------------
expect_ok "difftest with a named fault plan" \
  -- difftest "$PROG" --updates 10 --packets 4 --seed 1 --fault-plan flaky
expect_ok "difftest with a custom fault spec" \
  -- difftest "$PROG" --updates 10 --packets 4 --seed 1 \
     --fault-plan fail-first=1,seed=3
expect_ok "crashtest round-trips with a torn tail" \
  -- crashtest "$PROG" --updates 10 --kill-points 3 --checkpoint-every 4 \
     --seed 1 --torn-tail
expect_ok "fleet drains a faulty 3-device fleet to identical digests" \
  -- fleet "$PROG" --devices 3 --updates 10 --jobs 2 --seed 1 \
     --fault-plan flaky
expect_ok "fleet with a queue cap" \
  -- fleet "$PROG" --devices 2 --updates 10 --seed 1 --queue-cap 4
expect_ok "daemon drives spawned agent processes to a clean digest" \
  -- daemon "$PROG" --listen "${TMPDIR:-/tmp}/flayc-smoke-$$.sock" \
     --devices 2 --updates 10 --seed 1 --spawn
DAEMONSTATE=${TMPDIR:-/tmp}/flayc-smoke-state-$$
expect_ok "daemon passes each spawned agent its own state dir" \
  -- daemon "$PROG" --listen "${TMPDIR:-/tmp}/flayc-smoke-$$.sock" \
     --devices 2 --updates 10 --seed 1 --spawn --state-dir "$DAEMONSTATE"
for dev in dev0 dev1; do
  if [ -s "$DAEMONSTATE/$dev/journal.jsonl" ]; then
    note "ok: daemon --spawn --state-dir left $dev/journal.jsonl"
  else
    fail "daemon --spawn --state-dir: no $dev/journal.jsonl under $DAEMONSTATE"
  fi
done
rm -rf "$DAEMONSTATE"
expect_ok "replay forwards packets under churn with all gates enforced" \
  -- replay "$PROG" --updates 12 --packets 2000 --devices 2 --jobs 2 \
     --seed 1 --mix heavy-hitter
expect_ok "replay with a fault plan and paced churn" \
  -- replay "$PROG" --updates 12 --packets 2000 --devices 2 --jobs 2 \
     --seed 1 --fault-plan transient --churn-rate 200 --mix tunnel
expect_ok "ifc re-verdicts a replayed update stream" \
  -- ifc "$PROG" --policy "$PROGRAMS/ifc/middleblock-strict.policy" \
     --updates 10 --seed 7
expect_ok "ifc with a replay filter" \
  -- ifc "$PROG" --policy "$PROGRAMS/ifc/middleblock-open.policy" \
     --updates 10 --seed 7 --replay-updates 0,2,4
expect_ok "fuzz cross-checks incremental IFC against from-scratch" \
  -- fuzz "$PROG" --updates 10 --seed 3 \
     --ifc-policy "$PROGRAMS/ifc/middleblock-open.policy"

if [ "$failures" -ne 0 ]; then
  note "$failures check(s) failed"
  exit 1
fi
note "all CLI smoke checks passed"
