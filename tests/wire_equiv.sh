#!/bin/sh
# Deployment-equivalence test: daemon-spawned agents vs the in-process fleet.
#
#   wire_equiv.sh <path-to-flayc> <programs-dir>
#
# `flayc daemon --spawn` forks one `flayc agent` process per device and
# streams the fuzzed update script to each over the versioned wire protocol
# (one batch frame in flight, each acknowledged before the next). `flayc
# fleet` drives the same number of devices by direct calls. For the same
# program, update count and seed, every agent must end on the per-device
# state digest the in-process fleet reports. Committed state does not depend
# on device faults, so a leg with a fault plan must match as well. The daemon
# gives agent i the controller and fault-plan seeds the fleet gives member
# i, so on that leg each agent's install retries must also equal its
# in-process counterpart's.
set -u

FLAYC=$1
PROGRAMS=$2
TMP=${TMPDIR:-/tmp}/wire_equiv.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

failures=0
note() { printf '%s\n' "$*"; }
fail() { note "FAIL: $*"; failures=$((failures + 1)); }

# compare <label> <program> <devices> <updates> <seed> [flags for both...]
compare() {
  label=$1; prog=$2; devices=$3; updates=$4; seed=$5; shift 5
  "$FLAYC" fleet "$PROGRAMS/$prog.p4l" --devices "$devices" \
      --updates "$updates" --seed "$seed" "$@" >"$TMP/fleet.out" 2>&1 || {
    fail "$label: fleet run failed"
    cat "$TMP/fleet.out"
    return
  }
  "$FLAYC" daemon "$PROGRAMS/$prog.p4l" --listen "$TMP/flayd.sock" --spawn \
      --devices "$devices" --updates "$updates" --seed "$seed" "$@" \
      >"$TMP/daemon.out" 2>&1 || {
    fail "$label: daemon --spawn run failed"
    cat "$TMP/daemon.out"
    return
  }
  fleet_digest=$(sed -n 's/.*identical (\([0-9a-f]*\)).*/\1/p' "$TMP/fleet.out")
  daemon_digest=$(sed -n 's/.*digest \([0-9a-f]*\)$/\1/p' "$TMP/daemon.out")
  if [ -z "$fleet_digest" ] || [ "$daemon_digest" != "$fleet_digest" ]; then
    fail "$label: daemon digest '$daemon_digest' != fleet digest '$fleet_digest'"
  else
    note "ok: $label: agent processes digest identical to in-process fleet"
  fi
}

# check_retries <label> <devices>: after a compare, agent dev<i> reports the
# retries= count that the fleet's dev<i> reports.
check_retries() {
  label=$1; devices=$2; i=0
  while [ "$i" -lt "$devices" ]; do
    fleet_r=$(sed -n "s/^  dev$i: .* retries=\([0-9]*\) .*/\1/p" "$TMP/fleet.out")
    agent_r=$(sed -n "s/^agent dev$i: .* retries=\([0-9]*\).*/\1/p" "$TMP/daemon.out")
    if [ -z "$fleet_r" ] || [ "$agent_r" != "$fleet_r" ]; then
      fail "$label: agent dev$i retries '$agent_r' != fleet dev$i retries '$fleet_r'"
    else
      note "ok: $label: dev$i retries=$agent_r in both deployments"
    fi
    i=$((i + 1))
  done
}

compare "middleblock" middleblock 3 30 1 --jobs 2
compare "switch" switch 3 30 1 --jobs 2
compare "middleblock faulty" middleblock 2 24 2 --fault-plan flaky
check_retries "middleblock faulty" 2
compare "scion" scion 2 20 3

if [ "$failures" -ne 0 ]; then
  note "$failures check(s) failed"
  exit 1
fi
note "all deployment equivalence checks passed"
